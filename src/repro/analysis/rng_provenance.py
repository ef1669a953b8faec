"""DET1xx: RNG provenance rules.

The reproduction's determinism story is that every random draw traces
back to a seeded origin — ultimately the per-cell sha256 seed
(``ExperimentCell.seed``) or a literal in a workload generator.  The
syntactic DET001-004 rules ban the obvious global entry points
(``np.random.seed``, bare ``random.random()``); these rules reason
about *where seeds come from*:

* **DET101** — every RNG construction (``random.Random``,
  ``np.random.default_rng``, ``SeedSequence``) must receive a value the
  must-analysis can prove seed-derived: an integer/str literal, a
  parameter or attribute whose name contains ``seed``, arithmetic over
  such values, or a helper function whose returns are all seed-derived.
  No argument (or ``None``) is an unseeded RNG pulling OS entropy.
* **DET102** — RNG objects must not be stored in module globals (or
  class attributes): a shared generator couples the draw sequence of
  every experiment cell that imports it, breaking per-cell replay.
* **DET103** — drawing from a module-global RNG inside the measured
  layers (``repro.cpu``, ``repro.program`` and ``repro.signals``)
  perturbs the instruction stream that
  ``SegmentRole.MEASURE`` segments account, so snapshot byte-identity no
  longer holds between runs.

The seed-provenance check is interprocedural through helper *returns*
(a ``derive_seed()`` helper is fine) but deliberately a must-analysis:
anything it cannot prove seed-derived is flagged.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, Optional, Set

from .callgraph import resolve_name
from .core import Finding, Severity
from .dataflow import (
    MODULE_BODY,
    FuncIR,
    ModuleIR,
    Project,
    ProjectRule,
    SAssign,
    SReturn,
    VAttr,
    VCall,
    VConst,
    VName,
    VOp,
    VTuple,
    ValueExpr,
    iter_calls,
)
from .taint import call_matches

__all__ = [
    "RNG_CTORS",
    "GlobalRngRule",
    "MeasurePathDrawRule",
    "UnseededRngRule",
]

#: Constructor names (matched on the last dotted component).
RNG_CTORS: FrozenSet[str] = frozenset({"Random", "default_rng", "SeedSequence"})

#: Builtins that preserve seed-provenance when all arguments have it.
_SEED_PRESERVING_CALLS: FrozenSet[str] = frozenset(
    {"int", "abs", "hash", "min", "max", "from_bytes"}
)

#: Literal kinds acceptable as seeds.
_SEED_LITERALS: FrozenSet[str] = frozenset({"int", "str", "bytes"})

#: Packages whose code executes inside measured segments.  ``signals``
#: is the phase-signal layer (BBV/MAV trackers attached to the engine).
_MEASURE_PACKAGES: FrozenSet[str] = frozenset({"cpu", "program", "signals"})

_SEED_MEMO = "rng:seed_analysis"


class _SeedAnalysis:
    """Must-analysis of seed provenance, shared by the DET1xx rules.

    ``summaries[qname]`` is True when every return statement of the
    function yields a provably seed-derived value; computed as an
    increasing fixpoint so seed helpers may call each other.
    """

    def __init__(self, project: Project) -> None:
        self.project = project
        self.summaries: Dict[str, bool] = {}
        for _ in range(10):
            changed = False
            for mir in project.modules:
                globals_env = self.module_globals(mir)
                for fn in mir.functions:
                    ok = self._returns_seed_ok(fn, mir, globals_env)
                    if self.summaries.get(fn.qname, False) != ok:
                        self.summaries[fn.qname] = ok
                        changed = True
            if not changed:
                break

    @classmethod
    def for_project(cls, project: Project) -> "_SeedAnalysis":
        cached = project.memo.get(_SEED_MEMO)
        if isinstance(cached, cls):
            return cached
        analysis = cls(project)
        project.memo[_SEED_MEMO] = analysis
        return analysis

    def module_globals(self, mir: ModuleIR) -> Dict[str, bool]:
        """Seed-provenance of module-level names."""
        body = mir.function(f"{mir.module}.{MODULE_BODY}")
        env: Dict[str, bool] = {}
        if body is None:
            return env
        for stmt in body.body:
            if isinstance(stmt, SAssign):
                ok = self.seed_ok(stmt.value, env, {}, mir)
                for target in stmt.targets:
                    if target[0] == "name":
                        env[str(target[1])] = ok
        return env

    def _returns_seed_ok(
        self, fn: FuncIR, mir: ModuleIR, globals_env: Dict[str, bool]
    ) -> bool:
        env = _param_env(fn)
        saw_return = False
        all_ok = True
        for stmt in fn.body:
            if isinstance(stmt, SAssign):
                ok = self.seed_ok(stmt.value, env, globals_env, mir)
                for target in stmt.targets:
                    if target[0] == "name":
                        env[str(target[1])] = ok
            elif isinstance(stmt, SReturn):
                saw_return = True
                if stmt.value is None or not self.seed_ok(
                    stmt.value, env, globals_env, mir
                ):
                    all_ok = False
        return saw_return and all_ok

    def seed_ok(
        self,
        expr: ValueExpr,
        env: Dict[str, bool],
        globals_env: Dict[str, bool],
        mir: ModuleIR,
    ) -> bool:
        """True only when *expr* is provably seed-derived."""
        if isinstance(expr, VConst):
            return expr.kind in _SEED_LITERALS
        if isinstance(expr, VName):
            if expr.name in env:
                return env[expr.name]
            return globals_env.get(expr.name, False)
        if isinstance(expr, VAttr):
            return "seed" in expr.attr.lower()
        if isinstance(expr, (VOp, VTuple)):
            items = expr.operands if isinstance(expr, VOp) else expr.items
            return bool(items) and all(
                self.seed_ok(item, env, globals_env, mir) for item in items
            )
        if isinstance(expr, VCall):
            if call_matches(expr, _SEED_PRESERVING_CALLS):
                inputs = list(expr.args) + [v for _, v in expr.kwargs]
                return bool(inputs) and all(
                    self.seed_ok(item, env, globals_env, mir)
                    for item in inputs
                )
            if expr.name is not None:
                resolved = resolve_name(self.project, mir, expr.name)
                if resolved is not None:
                    return self.summaries.get(resolved, False)
            return False
        return False


def _param_env(fn: FuncIR) -> Dict[str, bool]:
    return {name: "seed" in name.lower() for name in fn.params}


class UnseededRngRule(ProjectRule):
    """DET101: RNG constructors must receive a provably seeded value.

    ``random.Random()`` or ``np.random.default_rng(None)`` pulls OS
    entropy, so two runs of the same experiment cell diverge and the
    result cache stores whichever happened first.  The argument must be
    traceable to a seed: a literal, a ``*seed*``-named parameter or
    attribute (the per-cell sha256 seed arrives as ``cell.seed``),
    arithmetic over those, or a helper whose returns are seed-derived.
    """

    rule_id = "DET101"
    severity = Severity.ERROR
    summary = "RNG constructed without provable seed provenance"
    scope = "closure"

    def check_module(
        self, project: Project, mir: ModuleIR
    ) -> Iterator[Finding]:
        """Flag RNG constructions whose seed argument is unprovable."""
        analysis = _SeedAnalysis.for_project(project)
        globals_env = analysis.module_globals(mir)
        for fn in mir.functions:
            env = _param_env(fn)
            for stmt in fn.body:
                value = getattr(stmt, "value", None)
                if value is not None:
                    for call in iter_calls(value):
                        if not call_matches(call, RNG_CTORS):
                            continue
                        problem = self._seed_problem(
                            call, analysis, env, globals_env, mir
                        )
                        if problem is not None:
                            yield self.finding(
                                mir,
                                call.line,
                                call.col,
                                f"`{call.name}` {problem}; every RNG must "
                                f"trace back to a seeded origin "
                                f"(cell.seed, a *seed* parameter, or a "
                                f"literal)",
                            )
                if isinstance(stmt, SAssign):
                    ok = analysis.seed_ok(stmt.value, env, globals_env, mir)
                    for target in stmt.targets:
                        if target[0] == "name":
                            env[str(target[1])] = ok

    @staticmethod
    def _seed_problem(
        call: VCall,
        analysis: _SeedAnalysis,
        env: Dict[str, bool],
        globals_env: Dict[str, bool],
        mir: ModuleIR,
    ) -> Optional[str]:
        inputs = list(call.args) + [v for _, v in call.kwargs]
        if not inputs:
            return "is constructed without a seed (OS entropy)"
        for item in inputs:
            if not analysis.seed_ok(item, env, globals_env, mir):
                return "receives a value with no provable seed provenance"
        return None


class GlobalRngRule(ProjectRule):
    """DET102: no RNG objects in module globals or class attributes.

    A module-level generator is shared by every experiment cell that
    imports the module, so one cell's draws shift the next cell's
    sequence — replaying a single cell no longer reproduces its result.
    RNGs must be constructed per use site from an explicit seed.
    """

    rule_id = "DET102"
    severity = Severity.ERROR
    summary = "RNG object stored in a module global / class attribute"
    scope = "closure"

    def check_module(
        self, project: Project, mir: ModuleIR
    ) -> Iterator[Finding]:
        """Flag module-level assignments that construct an RNG."""
        body = mir.function(f"{mir.module}.{MODULE_BODY}")
        if body is None:
            return
        for stmt in body.body:
            if not isinstance(stmt, SAssign):
                continue
            for call in iter_calls(stmt.value):
                if call_matches(call, RNG_CTORS):
                    yield self.finding(
                        mir,
                        stmt.line,
                        call.col,
                        f"`{call.name}` stored at module/class scope "
                        f"shares one draw sequence across every cell "
                        f"importing this module; construct RNGs locally "
                        f"from an explicit seed",
                    )
                    break


class MeasurePathDrawRule(ProjectRule):
    """DET103: no draws from global RNGs in measured-layer code.

    ``repro.cpu``, ``repro.program`` and ``repro.signals`` execute
    inside the segments that ``SegmentRole.MEASURE`` accounts.  A draw from a
    module-global generator there depends on whatever ran before the
    segment, so the measured (ops, cycles) — and any snapshot taken at a
    segment boundary — loses byte-identity between runs.
    """

    rule_id = "DET103"
    severity = Severity.ERROR
    summary = "draw from a module-global RNG on a measured path"
    scope = "closure"

    def check_module(
        self, project: Project, mir: ModuleIR
    ) -> Iterator[Finding]:
        """Flag method calls on module-global RNG names in measure code."""
        parts = mir.module.split(".")
        if len(parts) < 2 or parts[0] != "repro":
            return
        if parts[1] not in _MEASURE_PACKAGES:
            return
        global_rngs = self._global_rng_names(mir)
        if not global_rngs:
            return
        for fn in mir.functions:
            if fn.name == MODULE_BODY:
                continue
            shadowed: Set[str] = set(fn.params)
            for stmt in fn.body:
                value = getattr(stmt, "value", None)
                if value is not None:
                    for call in iter_calls(value):
                        if call.name is None or "." not in call.name:
                            continue
                        base = call.name.split(".", 1)[0]
                        if base in global_rngs and base not in shadowed:
                            yield self.finding(
                                mir,
                                call.line,
                                call.col,
                                f"`{call.name}` draws from module-global "
                                f"RNG `{base}` inside the measured layer; "
                                f"segment accounting loses run-to-run "
                                f"byte-identity",
                            )
                if isinstance(stmt, SAssign):
                    for target in stmt.targets:
                        if target[0] == "name":
                            shadowed.add(str(target[1]))

    @staticmethod
    def _global_rng_names(mir: ModuleIR) -> Set[str]:
        body = mir.function(f"{mir.module}.{MODULE_BODY}")
        names: Set[str] = set()
        if body is None:
            return names
        for stmt in body.body:
            if not isinstance(stmt, SAssign):
                continue
            if any(
                call_matches(call, RNG_CTORS)
                for call in iter_calls(stmt.value)
            ):
                for target in stmt.targets:
                    if target[0] == "name":
                        names.add(str(target[1]))
        return names
