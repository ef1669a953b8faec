"""Public-API surface tests: exports, docstrings, and import hygiene."""

import importlib
import inspect
import pkgutil

import pytest

import repro

SUBPACKAGES = [
    "repro.isa",
    "repro.program",
    "repro.memory",
    "repro.branch",
    "repro.cpu",
    "repro.signals",
    "repro.phase",
    "repro.clustering",
    "repro.sampling",
    "repro.stats",
    "repro.experiments",
]


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name}"

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestDocstrings:
    def _walk_modules(self):
        yield repro
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            yield importlib.import_module(info.name)

    def test_every_module_documented(self):
        for module in self._walk_modules():
            assert module.__doc__, f"{module.__name__} lacks a docstring"

    def test_public_classes_and_functions_documented(self):
        missing = []
        for module in self._walk_modules():
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        missing.append(f"{module.__name__}.{name}")
        assert not missing, missing

    def test_public_methods_documented(self):
        missing = []
        for module in self._walk_modules():
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if not inspect.isclass(obj):
                    continue
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_"):
                        continue
                    if inspect.isfunction(attr) and not inspect.getdoc(attr):
                        missing.append(f"{module.__name__}.{name}.{attr_name}")
        assert not missing, missing


class TestImportHygiene:
    def test_no_import_cycles_detected(self):
        """A fresh import of every module succeeds in isolation order."""
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            importlib.import_module(info.name)

    def test_cli_importable_without_side_effects(self):
        module = importlib.import_module("repro.cli")
        assert callable(module.main)
