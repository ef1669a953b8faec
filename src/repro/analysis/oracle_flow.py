"""LEA1xx: flow-sensitive oracle-taint rules.

The syntactic LEA001-003 rules catch *spellings* — an oracle attribute
read inside an online module, an experiments import.  They cannot catch
the value itself travelling: ``x = trace.true_ipc`` in a helper module,
returned through a function, unpacked from a tuple, and finally used to
size a :class:`~repro.sampling.session.ModeSegment`.  These rules run
the interprocedural taint engine with the oracle vocabulary and flag
tainted values reaching the decision sinks that steer sampling:

* **LEA101** — plan construction (``ModeSegment``, every ``*_plan``
  builder and ``measure_intervals``): an oracle-derived op count or mode
  choice means the simulated schedule was tuned by the answer key.
* **LEA102** — ``SampleBudget`` arithmetic: deriving sample size or
  precision targets from the true IPC is the classic way a "3% error"
  claim becomes circular.
* **LEA103** — phase-classifier thresholds and technique configs: a
  threshold fitted against ground truth makes the phase detector an
  oracle consumer.

Sources are reads of ``true_ipc``/``ground_truth`` (attribute or
accessor call) — *not* the reference trace object itself, whose BBV
structure offline techniques legitimately reuse for profiling.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List

from .core import Finding, Severity
from .dataflow import ModuleIR, Project, ProjectRule
from .taint import CallTaintRecord, TaintAnalysis, TaintSpec, call_matches

__all__ = [
    "ORACLE_TAINT_SPEC",
    "OracleIntoBudgetRule",
    "OracleIntoPlanRule",
    "OracleIntoThresholdRule",
]

#: Shared oracle vocabulary: one taint analysis serves all three rules.
ORACLE_TAINT_SPEC = TaintSpec(
    spec_id="oracle",
    source_attrs=frozenset({"true_ipc", "ground_truth"}),
    source_calls=frozenset({"true_ipc", "ground_truth"}),
)


class _OracleFlowRule(ProjectRule):
    """Common machinery: match tainted inputs at a named sink family."""

    scope = "closure"
    severity = Severity.ERROR
    #: Callee names (full or last dotted component) that form the sink.
    sinks: FrozenSet[str] = frozenset()
    #: Human phrase for the sink family, used in messages.
    sink_label: str = "sink"

    def check_module(
        self, project: Project, mir: ModuleIR
    ) -> Iterator[Finding]:
        """Flag oracle-tainted arguments reaching this rule's sinks."""
        analysis = TaintAnalysis.for_project(project, ORACLE_TAINT_SPEC)
        for rec in analysis.records(mir):
            if not call_matches(rec.call, self.sinks):
                continue
            for label in _tainted_inputs(rec):
                yield self.finding(
                    mir,
                    rec.call.line,
                    rec.call.col,
                    f"oracle-derived value ({label}) flows into "
                    f"{self.sink_label} `{rec.call.name}` — true-IPC "
                    f"ground truth must never steer sampling decisions",
                )


def _tainted_inputs(rec: CallTaintRecord) -> List[str]:
    """Describe which call inputs carry taint."""
    labels: List[str] = []
    for i, tainted in enumerate(rec.args):
        if tainted:
            labels.append(f"argument {i + 1}")
    for name, tainted in rec.kwargs:
        if tainted and name is not None:
            labels.append(f"keyword `{name}`")
    return labels


class OracleIntoPlanRule(_OracleFlowRule):
    """LEA101: oracle taint must not reach plan/segment construction.

    ``ModeSegment``, the session's ``*_plan`` builders and
    ``measure_intervals`` decide *where and how long* the simulator
    measures.  If any argument is derived — however indirectly — from
    ``true_ipc``, the sampling plan was shaped by the reference answer
    and the error figures are circular.  Flow-sensitive: catches taint
    laundered through locals, tuples, and helper-function returns that
    LEA001-003 cannot see.
    """

    rule_id = "LEA101"
    summary = "oracle-derived value flows into sampling-plan construction"
    sinks = frozenset(
        {
            "ModeSegment",
            "interval_sample_plan",
            "measure_intervals",
            "periodic_plan",
            "run_to_end_plan",
        }
    )
    sink_label = "plan constructor"


class OracleIntoBudgetRule(_OracleFlowRule):
    """LEA102: oracle taint must not reach ``SampleBudget`` arithmetic.

    The budget fixes sample length, warmup, and the relative-error /
    confidence targets shared by every confidence-driven technique.
    Feeding it a value computed from the true IPC (e.g. shrinking
    ``rel_error`` until the estimate happens to match) silently converts
    a measured error into a fitted one.
    """

    rule_id = "LEA102"
    summary = "oracle-derived value flows into SampleBudget construction"
    sinks = frozenset({"SampleBudget"})
    sink_label = "budget constructor"


class OracleIntoThresholdRule(_OracleFlowRule):
    """LEA103: oracle taint must not reach classifier thresholds/configs.

    Phase-classifier thresholds and technique configuration objects are
    the knobs a leaked oracle would most plausibly tune.  A threshold
    fitted against ground truth turns the online phase detector into an
    oracle consumer; the paper's point is that it works *without* one.
    """

    rule_id = "LEA103"
    summary = "oracle-derived value flows into classifier/config threshold"
    sinks = frozenset(
        {
            "OnlinePhaseClassifier",
            "AdaptiveThresholdSelector",
            "phase_statistics",
            "PgssConfig",
            "SmartsConfig",
            "TurboSmartsConfig",
            "SimPointConfig",
            "OnlineSimPointConfig",
            "TwoPhaseStratifiedConfig",
            "RankedSetConfig",
        }
    )
    sink_label = "threshold/config constructor"
