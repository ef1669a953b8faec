"""Compare ledger results of a parent commit and a change.

    python3 benchmarks/ledger/compare.py P1.json C1.json P2.json C2.json ...

Arguments are ``BENCH_ledger.json`` files written by ``run.py --out`` with
identical benchmark settings, in alternating (parent, change) pairs; run
the two sides of each pair with the same ``--seed`` and alternate which
side runs first.  One row per workload and metric:

* Host-time and memory metrics: each side's median and quartiles over
  its runs, the pairs the change won (ties count for neither), the bound
  from ``BENCHMARK.json``, and a verdict.  ``gain`` needs at least ten
  pairs, a win in nine tenths of them, and a median difference larger
  than the spread (q3 - q1) of the parent's runs.  ``unresolved`` means
  the parent's own spread exceeds the bound, unless every change run
  beat every parent run (``better``).  ``REGRESSION`` means the change's
  median is worse than the parent's by more than the bound.  ``slower``
  is the mirror of ``gain`` inside the bound: a slow-down the pairs
  resolve although the bound, as wide as this host's drift, lets it pass.
* Deterministic metrics (``detailed_ops``, ``ipc_err_pct``,
  ``fail_frac``) and the output digest: ``equal`` or ``DIFFERS``, pair by
  pair.

Exit status 1 when any row is ``REGRESSION`` or ``DIFFERS``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Metrics the ledger reports for only some workloads, so that
#: ``BENCHMARK.json`` (whose metrics every workload reports) cannot
#: carry them: name -> (better, bound).
LEDGER_ONLY = {"report_norm_s": ("lower", 0.25), "claims_per_task": ("lower", 0.02)}

#: Metrics that repeat exactly for a given seed and commit.
EXACT = ("detailed_ops", "ipc_err_pct", "fail_frac")

#: Pairs below which no gain is claimed.
MIN_PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of *values*, as ``statistics.quantiles(n=4)`` cuts."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        return q1, statistics.median(values), q3
    return values[0], values[0], values[0]


def summary(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, count and values, as the ledger file holds them."""
    q1, median, q3 = quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values), "values": list(values)}


def _fmt(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, int]:
    """Verdict on one metric and the number of pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    _cq1, cmed, _cq3 = quartiles(change)
    pairs = len(parent)
    if (
        pairs >= MIN_PAIRS
        and wins >= 0.9 * pairs
        and sign * (pmed - cmed) > pq3 - pq1
    ):
        return "gain", wins
    if (pq3 - pq1) > bound * abs(pmed):
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return "better", wins
        return "unresolved", wins
    if sign * (cmed - pmed) > bound * abs(pmed):
        return "REGRESSION", wins
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if (
        pairs >= MIN_PAIRS
        and losses >= 0.9 * pairs
        and sign * (cmed - pmed) > pq3 - pq1
    ):
        return "slower", wins
    return "within bound", wins


def compare(files: Sequence[Path], spec: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Table rows and whether every row passed."""
    docs = [json.loads(path.read_text()) for path in files]
    parents, changes = docs[0::2], docs[1::2]
    for p, c in zip(parents, changes):
        if p["seed"] != c["seed"] or p["seconds"] != c["seconds"] or p["trace"] or c["trace"]:
            raise SystemExit(
                "each pair needs untraced runs with the same --seed and --seconds"
            )
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update(LEDGER_ONLY)
    rows = [
        f"{'workload':14} {'metric':14} {'parent median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'wins':>6} {'bound':>6}  verdict"
    ]
    ok = True
    for workload in parents[0]["workloads"]:
        runs = [
            (p["workloads"][workload], c["workloads"][workload])
            for p, c in zip(parents, changes)
        ]
        for metric in sorted(runs[0][0]["metrics"]):
            pv = [p["metrics"][metric]["value"] for p, _c in runs]
            cv = [c["metrics"][metric]["value"] for _p, c in runs]
            if metric in EXACT:
                same = pv == cv
                ok = ok and same
                rows.append(
                    f"{workload:14} {metric:14} {pv[0]:>30.6g} {cv[0]:>30.6g} "
                    f"{'':>6} {'exact':>6}  {'equal' if same else 'DIFFERS'}"
                )
                continue
            better, bound = rules[metric]
            result, wins = verdict(pv, cv, better, bound)
            ok = ok and result != "REGRESSION"
            rows.append(
                f"{workload:14} {metric:14} {_fmt(pv):>30} {_fmt(cv):>30} "
                f"{f'{wins}/{len(pv)}':>6} {bound:>6.2f}  {result}"
            )
        same = [p.get("digest") == c.get("digest") for p, c in runs]
        ok = ok and all(same)
        rows.append(
            f"{workload:14} {'digest':14} {'':>30} {'':>30} {'':>6} {'exact':>6}  "
            + ("equal" if all(same) else "DIFFERS")
        )
    return rows, ok


def main(argv: Optional[List[str]] = None) -> int:
    files = [Path(a) for a in (sys.argv[1:] if argv is None else argv)]
    if not files or len(files) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows, ok = compare(files, json.loads(SPEC_PATH.read_text()))
    print("\n".join(rows))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
