"""Hygiene rules: conventions the framework relies on everywhere.

These are not style nits; each encodes a contract other code depends
on.  Callers catch :class:`repro.errors.ReproError` to distinguish
framework failures from programming mistakes, so raising a bare builtin
breaks error handling at a distance.  Mutable defaults alias state
between calls (and between *runs*, breaking reproducibility).  Missing
``__all__`` makes ``import *`` and the public-API tests nondeterministic
about what they see.  ``object.__setattr__`` on a foreign frozen
dataclass silently voids its immutability guarantee.

Rule IDs
--------
HYG001  raise of a non-ReproError exception inside ``src/repro/``
HYG002  mutable default argument
HYG003  public module without ``__all__``
HYG004  frozen-dataclass mutation via ``object.__setattr__`` on a
        target other than ``self``
HYG005  literal engine-mode scheduling (``.run(Mode.X, ...)``,
        ``.run_windows(Mode.X, ...)`` / ``.run_to_end(Mode.X, ...)``)
        outside the sampling-session kernel
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Type

from .core import Finding, ModuleContext, Rule, Severity, dotted_name

__all__ = [
    "HYGIENE_RULES",
    "EngineModeEscapeRule",
    "ForeignFrozenMutationRule",
    "MissingAllRule",
    "MutableDefaultRule",
    "NonReproRaiseRule",
]

#: Builtin exception types that must not be raised by framework code.
_FORBIDDEN_RAISES = frozenset(
    {
        "ArithmeticError",
        "AssertionError",
        "AttributeError",
        "BaseException",
        "Exception",
        "IOError",
        "IndexError",
        "KeyError",
        "LookupError",
        "OSError",
        "RuntimeError",
        "StopIteration",
        "TypeError",
        "ValueError",
        "ZeroDivisionError",
    }
)


class NonReproRaiseRule(Rule):
    """HYG001: deliberate raises must use the ReproError hierarchy.

    ``NotImplementedError`` (abstract-method stubs) is always allowed,
    and ``StopIteration`` is allowed inside ``__next__`` where the
    iterator protocol requires it.
    """

    rule_id = "HYG001"
    severity = Severity.ERROR
    summary = "raise of a non-ReproError exception in framework code"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._visit(ctx, ctx.tree, None)

    def _visit(
        self, ctx: ModuleContext, node: ast.AST, func_name: Optional[str]
    ) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._visit(ctx, child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc
                if isinstance(exc, ast.Call):
                    exc = exc.func
                name = dotted_name(exc)
                base = name.split(".")[-1] if name else None
                if base == "StopIteration" and func_name == "__next__":
                    pass
                elif base in _FORBIDDEN_RAISES:
                    yield self.finding(
                        ctx,
                        child,
                        f"raise of builtin {base}; raise a ReproError "
                        "subclass so callers can catch framework errors "
                        "without swallowing programming mistakes",
                    )
            yield from self._visit(ctx, child, func_name)


class MutableDefaultRule(Rule):
    """HYG002: mutable default arguments alias state across calls."""

    rule_id = "HYG002"
    severity = Severity.ERROR
    summary = "mutable default argument"

    @staticmethod
    def _is_mutable_default(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return dotted_name(node.func) in ("list", "dict", "set")
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable_default(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default in {node.name}(); it is shared "
                        "between every call — default to None and create "
                        "the container inside the function",
                    )


class MissingAllRule(Rule):
    """HYG003: public modules must declare ``__all__``.

    A module counts as public when its name has no leading underscore
    and it defines at least one public function or class at top level.
    """

    rule_id = "HYG003"
    severity = Severity.WARNING
    summary = "public module without __all__"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.module_name.startswith("_"):
            return
        has_public_def = False
        for node in ctx.tree.body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and not node.name.startswith("_"):
                has_public_def = True
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == "__all__":
                        return
            if isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ) and node.target.id == "__all__":
                return
        if has_public_def:
            yield self.finding(
                ctx,
                ctx.tree.body[0] if ctx.tree.body else ctx.tree,
                "public module defines names but no __all__; the public "
                "surface must be explicit",
            )


class ForeignFrozenMutationRule(Rule):
    """HYG004: ``object.__setattr__`` on anything other than ``self``.

    Inside a frozen dataclass, ``object.__setattr__(self, ...)`` is the
    sanctioned idiom for ``__post_init__`` and lazy caches.  Applied to
    any *other* object it mutates state the type system promised was
    immutable — construct a new instance instead.
    """

    rule_id = "HYG004"
    severity = Severity.ERROR
    summary = "frozen-dataclass mutation from outside the instance"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if dotted_name(node.func) != "object.__setattr__":
                continue
            if node.args and isinstance(node.args[0], ast.Name) and (
                node.args[0].id == "self"
            ):
                continue
            yield self.finding(
                ctx,
                node,
                "object.__setattr__ on a target other than self mutates "
                "a frozen dataclass from outside; pass the value through "
                "the constructor or use dataclasses.replace",
            )


class EngineModeEscapeRule(Rule):
    """HYG005: literal mode schedules belong to the sampling-session kernel.

    Every sampled-simulation technique schedules engine modes through
    :class:`repro.sampling.session.SamplingSession` (a plan of
    ``ModeSegment`` entries), which is what keeps accounting, event emission,
    and batched dispatch uniform.  A call like ``engine.run(Mode.DETAIL,
    n)`` anywhere else re-opens the pre-kernel world where each
    technique hand-rolled its own loop, so it is flagged, and so is
    ``engine.run_windows(Mode.DETAIL, ...)``: windowed recorders go
    through ``SamplingSession.run_windows`` with a segment.  Generic
    drivers that *forward* a mode variable (``engine.run(mode, n)``)
    are fine — the rule only fires on literal ``Mode.X`` attributes.
    """

    rule_id = "HYG005"
    severity = Severity.ERROR
    summary = "literal engine-mode scheduling outside repro.sampling.session"

    _METHODS = frozenset({"run", "run_to_end", "run_windows"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.in_subpackage("sampling") and ctx.module_name == "session":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in self._METHODS:
                continue
            arg_name = dotted_name(node.args[0])
            if arg_name is None:
                continue
            parts = arg_name.split(".")
            if len(parts) < 2 or parts[-2] != "Mode":
                continue
            yield self.finding(
                ctx,
                node,
                f"direct engine scheduling .{func.attr}({arg_name}, ...); "
                "express the schedule as a ModeSegment plan run by "
                "repro.sampling.session.SamplingSession",
            )


HYGIENE_RULES: List[Type[Rule]] = [
    NonReproRaiseRule,
    MutableDefaultRule,
    MissingAllRule,
    ForeignFrozenMutationRule,
    EngineModeEscapeRule,
]
