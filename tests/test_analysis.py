"""Tests for the simlint static-analysis subsystem (`repro.analysis`).

Every rule gets a positive fixture (minimal bad snippet that must fire)
and a negative fixture (nearby good snippet that must stay silent),
plus suppression handling, reporter schema stability, the CLI contract,
and — the point of the whole exercise — a sweep over ``src/repro``
asserting the real tree is clean.
"""

import ast
import importlib.util
import json
import pathlib
import textwrap

import pytest

from repro.analysis import (
    Severity,
    default_rules,
    lint_paths,
    lint_source,
    max_severity,
    render_json,
    render_text,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.core import JSON_SCHEMA_VERSION, PARSE_RULE_ID
from repro.analysis.determinism import (
    HostTimingRule,
    LegacyNumpyRandomRule,
    ModuleLevelRandomRule,
    SetOrderEscapeRule,
    UnseededRngRule,
    WallClockRule,
)
from repro.analysis.hygiene import (
    EngineModeEscapeRule,
    ForeignFrozenMutationRule,
    MissingAllRule,
    MutableDefaultRule,
    NonReproRaiseRule,
)
from repro.analysis.leakage import (
    ExperimentImportRule,
    OracleCallRule,
    StreamLookaheadRule,
)
from repro.analysis.units import UnitMixRule

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC_REPRO = REPO / "src" / "repro"

#: Public names kept although only tests use them, each with its reason.
UNUSED_PUBLIC_EXEMPT = {
    "synthesize_program": "ROADMAP item 2's coverage study uses it",
    "ConfidenceInterval.low": "ROADMAP item 2's coverage study uses it",
    "ConfidenceInterval.high": "ROADMAP item 2's coverage study uses it",
}

#: Path prefix that puts a fixture inside the online (sampling) zone.
ONLINE = "repro/sampling/technique.py"
#: Path prefix for ordinary framework code.
PLAIN = "repro/cpu/mod.py"


def findings_for(rule_cls, source, path=PLAIN):
    """Run one rule over a dedented snippet; return its findings."""
    return lint_source(textwrap.dedent(source), path, [rule_cls()])


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestDeterminismRules:
    def test_det001_fires_on_unseeded_rng(self):
        src = """
            import random
            import numpy as np
            a = random.Random()
            b = np.random.default_rng()
            random.seed()
        """
        assert rule_ids(findings_for(UnseededRngRule, src)) == [
            "DET001",
            "DET001",
            "DET001",
        ]

    def test_det001_silent_on_seeded_rng(self):
        src = """
            import random
            import numpy as np
            a = random.Random(42)
            b = np.random.default_rng(7)
            c = random.Random(seed ^ 0x5EED)
        """
        assert findings_for(UnseededRngRule, src) == []

    def test_det002_fires_on_module_level_random(self):
        src = """
            import random
            x = random.randint(0, 5)
            random.shuffle(order)
        """
        assert rule_ids(findings_for(ModuleLevelRandomRule, src)) == [
            "DET002",
            "DET002",
        ]

    def test_det002_silent_on_instance_methods(self):
        src = """
            import random
            rng = random.Random(3)
            x = rng.randint(0, 5)
            rng.shuffle(order)
        """
        assert findings_for(ModuleLevelRandomRule, src) == []

    def test_det003_fires_on_legacy_numpy_api(self):
        src = """
            import numpy as np
            np.random.seed(1)
            x = np.random.rand(4)
        """
        assert rule_ids(findings_for(LegacyNumpyRandomRule, src)) == [
            "DET003",
            "DET003",
        ]

    def test_det003_silent_on_generator_api(self):
        src = """
            import numpy as np
            rng = np.random.default_rng(0)
            x = rng.normal(size=4)
        """
        assert findings_for(LegacyNumpyRandomRule, src) == []

    def test_det004_fires_on_wall_clock(self):
        src = """
            import time
            from datetime import datetime
            t0 = time.time()
            stamp = datetime.now()
        """
        assert rule_ids(findings_for(WallClockRule, src)) == [
            "DET004",
            "DET004",
        ]

    def test_det004_silent_on_monotonic_timing(self):
        src = """
            import time
            t0 = time.perf_counter()
        """
        assert findings_for(WallClockRule, src) == []

    def test_det005_warns_on_host_timing(self):
        src = """
            import time
            t0 = time.perf_counter()
        """
        found = findings_for(HostTimingRule, src)
        assert rule_ids(found) == ["DET005"]
        assert found[0].severity == Severity.WARNING

    def test_det005_silent_on_simulated_time(self):
        src = """
            cycles = engine.run(mode, budget)
        """
        assert findings_for(HostTimingRule, src) == []

    def test_det006_fires_on_set_iteration(self):
        src = """
            for x in {"a", "b"}:
                use(x)
            order = list(set(names))
            pairs = [f(x) for x in set(names)]
        """
        assert rule_ids(findings_for(SetOrderEscapeRule, src)) == [
            "DET006",
            "DET006",
            "DET006",
        ]

    def test_det006_silent_on_sorted_sets(self):
        src = """
            for x in sorted(set(names)):
                use(x)
            for y in [1, 2]:
                use(y)
        """
        assert findings_for(SetOrderEscapeRule, src) == []


class TestLeakageRules:
    def test_lea001_fires_on_experiment_imports(self):
        src = """
            import repro.experiments
            from repro.experiments import runner
            from ..experiments import cache
            from .. import experiments
        """
        assert rule_ids(findings_for(ExperimentImportRule, src, ONLINE)) == [
            "LEA001",
            "LEA001",
            "LEA001",
            "LEA001",
        ]

    def test_lea001_silent_outside_online_zone(self):
        src = """
            from repro.experiments import runner
        """
        assert findings_for(ExperimentImportRule, src, PLAIN) == []

    def test_lea001_silent_on_peer_imports(self):
        src = """
            from .base import SamplingTechnique
            from ..stats import ci_halfwidth
        """
        assert findings_for(ExperimentImportRule, src, ONLINE) == []

    def test_lea002_fires_on_oracle_access(self):
        src = """
            trace = collect_reference_trace(program, window)
            ipc = trace.true_ipc
        """
        assert rule_ids(findings_for(OracleCallRule, src, ONLINE)) == [
            "LEA002",
            "LEA002",
        ]

    def test_lea002_exempts_the_oracle_module_itself(self):
        src = """
            trace = collect_reference_trace(program, window)
        """
        path = "repro/sampling/full.py"
        assert findings_for(OracleCallRule, src, path) == []
        assert findings_for(OracleCallRule, src, PLAIN) == []

    def test_lea003_fires_on_stream_lookahead(self):
        src = """
            import itertools
            ahead, behind = itertools.tee(stream)
            future = list(stream)
        """
        assert rule_ids(findings_for(StreamLookaheadRule, src, ONLINE)) == [
            "LEA003",
            "LEA003",
        ]

    def test_lea003_silent_on_ordinary_lists(self):
        src = """
            samples = list(sample_ids)
            history = list(self._window)
        """
        assert findings_for(StreamLookaheadRule, src, ONLINE) == []


class TestHygieneRules:
    def test_hyg001_fires_on_builtin_raise(self):
        src = """
            def f(x):
                raise ValueError("bad x")
        """
        assert rule_ids(findings_for(NonReproRaiseRule, src)) == ["HYG001"]

    def test_hyg001_silent_on_repro_errors_and_stubs(self):
        src = """
            def f(x):
                raise SamplingError("bad x")

            def g(self):
                raise NotImplementedError

            def __next__(self):
                raise StopIteration
        """
        assert findings_for(NonReproRaiseRule, src) == []

    def test_hyg001_flags_stop_iteration_outside_next(self):
        src = """
            def pump(self):
                raise StopIteration
        """
        assert rule_ids(findings_for(NonReproRaiseRule, src)) == ["HYG001"]

    def test_hyg002_fires_on_mutable_defaults(self):
        src = """
            def f(xs=[], *, table={}):
                return xs, table
        """
        assert rule_ids(findings_for(MutableDefaultRule, src)) == [
            "HYG002",
            "HYG002",
        ]

    def test_hyg002_silent_on_immutable_defaults(self):
        src = """
            def f(xs=None, pair=(), name="x"):
                return xs, pair, name
        """
        assert findings_for(MutableDefaultRule, src) == []

    def test_hyg003_warns_on_missing_all(self):
        src = """
            '''A public module.'''

            def estimate(x):
                return x
        """
        found = findings_for(MissingAllRule, src)
        assert rule_ids(found) == ["HYG003"]
        assert found[0].severity == Severity.WARNING

    def test_hyg003_silent_with_all_or_private(self):
        src = """
            '''A public module.'''

            __all__ = ["estimate"]

            def estimate(x):
                return x
        """
        assert findings_for(MissingAllRule, src) == []
        private_src = """
            def _helper(x):
                return x
        """
        assert findings_for(MissingAllRule, private_src) == []
        assert findings_for(MissingAllRule, src.replace("__all__", "other"),
                            "repro/cpu/_internal.py") == []

    def test_hyg004_fires_on_foreign_frozen_mutation(self):
        src = """
            object.__setattr__(result, "_cache", value)
        """
        assert rule_ids(findings_for(ForeignFrozenMutationRule, src)) == [
            "HYG004"
        ]

    def test_hyg004_silent_on_self_mutation(self):
        src = """
            def __post_init__(self):
                object.__setattr__(self, "_cache", value)
        """
        assert findings_for(ForeignFrozenMutationRule, src) == []

    def test_hyg005_fires_on_literal_mode_scheduling(self):
        src = """
            def collect(engine):
                engine.run(Mode.DETAIL, 1_000)
                engine.run_to_end(cpu.Mode.FUNC_FAST)
        """
        assert rule_ids(findings_for(EngineModeEscapeRule, src)) == [
            "HYG005",
            "HYG005",
        ]

    def test_hyg005_fires_on_literal_mode_windows(self):
        src = """
            def trace(engine):
                return engine.run_windows(Mode.DETAIL, 1_000, 64)
        """
        assert rule_ids(findings_for(EngineModeEscapeRule, src)) == ["HYG005"]
        assert findings_for(
            EngineModeEscapeRule, src, "repro/sampling/session.py"
        ) == []

    def test_hyg005_silent_on_mode_variables_and_other_calls(self):
        src = """
            def drive(engine, mode):
                engine.run(mode, 1_000)
                engine.run_to_end(mode)
                engine.run_windows(mode, 1_000, 64)
                technique.run(program)
                session.run_segment(segment)
                session.run_windows(segment, 64)
        """
        assert findings_for(EngineModeEscapeRule, src) == []

    def test_hyg005_exempts_the_session_kernel(self):
        src = """
            def run_segment(self, segment):
                return self.engine.run(Mode.DETAIL, 100)
        """
        assert findings_for(
            EngineModeEscapeRule, src, "repro/sampling/session.py"
        ) == []
        assert rule_ids(
            findings_for(EngineModeEscapeRule, src, "repro/sampling/smarts.py")
        ) == ["HYG005"]


class TestUnitsRule:
    def test_uni001_fires_on_additive_mixing(self):
        src = """
            total = warm_ops + drain_cycles
            budget_ops -= stall_cycles
            if sample_ops > total_cycles:
                pass
        """
        assert rule_ids(findings_for(UnitMixRule, src)) == [
            "UNI001",
            "UNI001",
            "UNI001",
        ]

    def test_uni001_silent_on_conversions_and_same_family(self):
        src = """
            ipc = retired_ops / total_cycles
            cpi = total_cycles / retired_ops
            total_ops = warm_ops + sampled_ops
            span_cycles = warm_cycles + drain_cycles
            scaled = total_ops * 2
        """
        assert findings_for(UnitMixRule, src) == []


class TestEngine:
    def test_parse_error_becomes_finding(self):
        found = lint_source("def broken(:\n", "repro/cpu/bad.py",
                            default_rules())
        assert rule_ids(found) == [PARSE_RULE_ID]
        assert found[0].severity == Severity.ERROR

    def test_suppression_silences_named_rule(self):
        src = "t0 = time.time()  # simlint: disable=DET004\n"
        assert lint_source(src, PLAIN, [WallClockRule()]) == []

    def test_suppression_without_ids_silences_everything(self):
        src = "t0 = time.time()  # simlint: disable\n"
        assert lint_source(src, PLAIN, default_rules()) == []

    def test_suppression_is_line_scoped_and_rule_scoped(self):
        src = (
            "t0 = time.time()  # simlint: disable=DET001\n"
            "t1 = time.time()\n"
        )
        found = lint_source(src, PLAIN, [WallClockRule()])
        assert [(f.rule_id, f.line) for f in found] == [
            ("DET004", 1),
            ("DET004", 2),
        ]

    def test_at_least_eight_distinct_rules(self):
        ids = [rule.rule_id for rule in default_rules()]
        assert len(ids) == len(set(ids))
        assert len(ids) >= 8
        assert ids == sorted(ids)

    def test_findings_sorted_and_stable(self):
        src = """
            import time
            b = time.time()
            a = random.Random()
        """
        found = findings_for(UnseededRngRule, src)
        found += lint_source(textwrap.dedent(src), PLAIN, [WallClockRule()])
        merged = lint_source(
            textwrap.dedent(src), PLAIN, [WallClockRule(), UnseededRngRule()]
        )
        assert [f.sort_key() for f in merged] == sorted(
            f.sort_key() for f in found
        )


class TestReporters:
    SRC = """
        import time
        t0 = time.time()
        t1 = time.perf_counter()
    """

    def _findings(self):
        return lint_source(
            textwrap.dedent(self.SRC),
            PLAIN,
            [WallClockRule(), HostTimingRule()],
        )

    def test_text_report_format(self):
        text = render_text(self._findings())
        assert "repro/cpu/mod.py:3:6: DET004 error:" in text
        assert "repro/cpu/mod.py:4:6: DET005 warning:" in text
        assert "2 finding(s): 1 error(s), 1 warning(s)" in text

    def test_json_schema_stability(self):
        document = json.loads(render_json(self._findings()))
        assert sorted(document) == ["findings", "summary", "tool", "version"]
        assert document["version"] == JSON_SCHEMA_VERSION
        assert document["tool"] == "pgss-lint"
        assert document["summary"] == {
            "total": 2,
            "errors": 1,
            "warnings": 1,
            "max_severity": 2,
        }
        for finding in document["findings"]:
            assert sorted(finding) == [
                "col",
                "end_line",
                "line",
                "message",
                "path",
                "rule",
                "severity",
            ]
            assert finding["end_line"] >= finding["line"]
        assert document["findings"][0]["rule"] == "DET004"
        assert document["findings"][0]["severity"] == "error"

    def test_json_findings_sorted_and_deterministic(self):
        found = self._findings()
        assert render_json(found) == render_json(list(reversed(found)))
        document = json.loads(render_json(found))
        keys = [
            (f["path"], f["line"], f["col"], f["rule"])
            for f in document["findings"]
        ]
        assert keys == sorted(keys)

    def test_json_stats_block(self):
        stats = {"modules_total": 3, "modules_extracted": 1}
        document = json.loads(render_json(self._findings(), stats=stats))
        assert sorted(document) == [
            "analysis",
            "findings",
            "summary",
            "tool",
            "version",
        ]
        assert document["analysis"] == stats

    def test_max_severity_levels(self):
        found = self._findings()
        assert max_severity(found) == 2
        assert max_severity([f for f in found if f.rule_id == "DET005"]) == 1
        assert max_severity([]) == 0


class TestCli:
    def _write(self, tmp_path, name, body):
        path = tmp_path / name
        path.write_text(textwrap.dedent(body))
        return str(path)

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "DET001" in out and "UNI001" in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "clean.py",
            """
            '''Clean module.'''

            __all__ = ["f"]

            def f(x):
                return x
            """,
        )
        assert lint_main([path]) == 0
        assert capsys.readouterr().out == ""

    def test_error_file_exits_two(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "dirty.py",
            """
            '''Dirty module.'''

            __all__ = []
            import time
            t0 = time.time()
            """,
        )
        assert lint_main([path]) == 2
        assert "DET004" in capsys.readouterr().out

    def test_warning_only_exits_one(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "warn.py",
            """
            '''Warning module.'''

            __all__ = []
            import time
            t0 = time.perf_counter()
            """,
        )
        assert lint_main([path]) == 1
        assert "DET005" in capsys.readouterr().out

    def test_select_and_ignore(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "mixed.py",
            """
            '''Mixed module.'''

            __all__ = []
            import time
            t0 = time.time()
            """,
        )
        assert lint_main([path, "--select", "DET005"]) == 0
        capsys.readouterr()
        assert lint_main([path, "--ignore", "DET004"]) == 0

    def test_json_output(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            "json_mod.py",
            """
            '''JSON module.'''

            __all__ = []
            import time
            t0 = time.time()
            """,
        )
        assert lint_main([path, "--format", "json"]) == 2
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["errors"] == 1


def public_definitions(tree):
    """``(line, name, qualified name)`` of every public top-level function
    and class, and of every public method or property of a top-level
    class (dunders are private here: they start with ``_``)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, functions + (ast.ClassDef,)):
            continue
        if not node.name.startswith("_"):
            yield node.lineno, node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    yield item.lineno, item.name, f"{node.name}.{item.name}"


def referenced_names(roots):
    """Every ``Name.id`` and ``Attribute.attr`` in the modules under
    *roots*.  Definitions, imports and ``__all__`` entries are neither,
    and strings never count, so none of them is a use."""
    names = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


class TestRealTree:
    def test_src_repro_is_clean(self):
        """The linter's reason to exist: the shipped tree has no findings."""
        findings = lint_paths([str(SRC_REPRO)], default_rules())
        assert findings == [], render_text(findings)

    def test_typing_gate_packages_fully_annotated(self):
        """AST-level stand-in for mypy's disallow_untyped_defs gate."""
        missing = []
        # The whole package: a hand-kept list drifts as packages come
        # and go.
        gated = sorted(SRC_REPRO.rglob("*.py"))
        assert gated, SRC_REPRO
        for path in gated:
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                args = node.args
                unannotated = [
                    a.arg
                    for a in (
                        args.posonlyargs + args.args + args.kwonlyargs
                    )
                    if a.annotation is None
                    and a.arg not in ("self", "cls")
                ]
                if node.returns is None and node.name != "__init__":
                    unannotated.append("return")
                if unannotated:
                    missing.append(
                        f"{path.name}:{node.lineno} {node.name} "
                        f"{unannotated}"
                    )
        assert not missing, missing

    def test_every_public_name_has_a_non_test_user(self):
        """A public name that only tests use is code the system does not
        need: delete it with its tests, or move it into the tests."""
        used = referenced_names(
            [SRC_REPRO, REPO / "examples", REPO / "benchmarks"]
        )
        defined = set()
        unused = []
        for path in sorted(SRC_REPRO.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for line, name, qualified in public_definitions(tree):
                defined.add(qualified)
                if name not in used and qualified not in UNUSED_PUBLIC_EXEMPT:
                    unused.append(f"{path.relative_to(REPO)}:{line} {qualified}")
        assert not unused, "\n".join(unused)
        assert set(UNUSED_PUBLIC_EXEMPT) <= defined, "stale exemption"

    def test_ledger_tracer_targets_resolve(self):
        """The performance ledger's tracer patches public names from
        outside ``src/``; a rename or deletion here would break every
        traced ledger run, so each of its targets must still exist."""
        path = REPO / "benchmarks" / "ledger" / "tracer.py"
        spec = importlib.util.spec_from_file_location("ledger_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        targets = tracer.targets()
        assert targets
        missing = [
            f"{getattr(owner, '__name__', owner)}.{attribute}"
            for owner, attribute, _ in targets
            if not hasattr(owner, attribute)
        ]
        assert not missing, missing
