"""Performance ledger: end-to-end and per-layer metrics of PGSS-Sim.

Run from the repository root::

    python3 benchmarks/ledger/run.py --workload sample --seed 0 --seconds 20
    python3 benchmarks/ledger/run.py --workload reference --trace 1
    python3 benchmarks/ledger/run.py --out results/ledger      # all four

Before any workload runs, the golden pre-flight checks that
``tests/_golden.run_matrix()`` still equals ``tests/golden/*.json``.
Each workload then runs in its own child process (``workloads.py``), so
peak RSS and import state are the workload's own; untraced runs first
start 2 to 10 children that only set up, and ``setup_s`` is the median of
all the set-ups, each normalised by the gauge (``gauge.py``) read just
before its child starts and just after it has set up.  Scratch files (caches, queues, result documents) go to a
directory of the invocation's own under ``.ledger_work/``, removed when it
ends.

Standard output has one line per metric, and as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of ``BENCHMARK.json`` (or, with ``--trace 1``, its
per-layer metrics).  With several workloads the metric names are prefixed
``<workload>/``.  ``--out DIR`` also writes every measured value, check and
digest to ``DIR/BENCH_ledger.json``, the input of ``compare.py``.

Exit status: 0 when every check passed, 1 when one failed, 2 when run
outside a full checkout of the repository.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from compare import summary
from gauge import gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".ledger_work"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Extra child processes that only set up, before the measuring child:
#: at least the minimum, then more while probing has taken less than
#: ``SETUP_PROBE_S``, up to the maximum.  ``setup_s`` is the median of all
#: set-ups, so a cheap set-up is sampled more often than a costly one.
MIN_SETUP_PROBES = 2
MAX_SETUP_PROBES = 10
SETUP_PROBE_S = 6.0

#: Wall-clock budget of one workload, probes included.
WORKLOAD_BUDGET_S = 160.0


def golden_preflight() -> List[str]:
    """Golden fixtures that ``tests/_golden.run_matrix()`` no longer matches."""
    for path in (SRC, ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import _golden

    mismatched = []
    for workload, results in _golden.run_matrix().items():
        expected = json.loads(_golden.fixture_path(workload).read_text())
        for label in sorted(set(expected) | set(results)):
            if expected.get(label) != results.get(label):
                mismatched.append(f"{workload}/{label}")
    return mismatched


def spawn(
    name: str,
    args: argparse.Namespace,
    deadline: float,
    work: Path,
    setup_only: bool = False,
) -> Optional[Dict[str, Any]]:
    """Run ``workloads.py`` for *name* in the empty directory *work*.

    Returns the child's result document, or None.
    """
    work.mkdir()
    result = work / "result.json"
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        name,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--result",
        str(result),
        "--work",
        str(work),
    ]
    if args.out and args.trace and not setup_only:
        cmd += ["--spans", str(args.out / f"spans-{name}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--gauge0", repr(gauge()), "--t0", repr(time.monotonic())]
    # A session of its own lets a timeout kill the child's workers too.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"ledger: {name} exceeded its time budget", file=sys.stderr)
        return None
    if code != 0 or not result.exists():
        print(f"ledger: {name} child exited with status {code}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def run_workload(name: str, args: argparse.Namespace, work: Path) -> Dict[str, Any]:
    """Measure one workload in child processes; its result document."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    setups: List[Dict[str, float]] = []
    probing = time.monotonic()
    while (
        not args.trace
        and not args.smoke
        and len(setups) < MAX_SETUP_PROBES
        and (
            len(setups) < MIN_SETUP_PROBES
            or time.monotonic() - probing < SETUP_PROBE_S
        )
    ):
        probe = spawn(
            name, args, deadline, work / f"{name}-probe{len(setups)}", setup_only=True
        )
        if probe is None:
            break
        setups.append(probe["setup"])
    doc = spawn(name, args, deadline, work / name)
    if doc is None:
        return {
            "workload": name,
            "correct": False,
            "attempted": 1,
            "failed": 1,
            "checks": {"child process finished": False},
            "metrics": {},
            "layers": {},
        }
    if not args.trace:
        setups.append(doc["setup"])
        doc["metrics"]["setup_s"] = dict(
            summary([s["norm_s"] for s in setups]),
            unit="s",
            wall_s=statistics.median(s["wall_s"] for s in setups),
        )
    return doc


def print_workload(doc: Dict[str, Any]) -> None:
    name = doc["workload"]
    for section in ("metrics", "layers"):
        for metric, entry in sorted(doc.get(section, {}).items()):
            line = f"{name:14} {metric:40} {entry['value']:>14.6g} {entry['unit']}"
            if "n" in entry:
                line += f"  (q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']})"
            print(line)
    failed = sorted(check for check, ok in doc["checks"].items() if not ok)
    print(
        f"{name:14} {'digest':40} {doc.get('digest', '-')}\n"
        f"{name:14} {'checks':40} "
        + (f"FAILED: {'; '.join(failed)}" if failed else f"{len(doc['checks'])} ok")
    )
    for unit, error in sorted(doc.get("errors", {}).items()):
        print(f"{name:14} error {unit}: {error}")


def main(argv: Optional[List[str]] = None) -> int:
    missing = [
        str(path.relative_to(ROOT))
        for path in (SRC / "repro", ROOT / "tests" / "_golden.py", SPEC_PATH)
        if not path.exists()
    ]
    if missing:
        print(
            f"ledger: {', '.join(missing)} not found; run from the root of a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description="PGSS-Sim performance ledger.")
    parser.add_argument(
        "--workload",
        default=",".join(names),
        help=f"comma-separated workloads (default: all of {', '.join(names)})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="input seed; 0 keeps each program's built-in seed (7 is held out)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(spec["run_seconds"]),
        help="measuring time per workload",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: report per-layer metrics from traced passes",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="QUICK scale, one program, one pass, no golden pre-flight",
    )
    parser.add_argument("--out", type=Path, help="write DIR/BENCH_ledger.json")
    args = parser.parse_args(argv)
    chosen = args.workload.split(",")
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")

    if not args.smoke:
        mismatched = golden_preflight()
        if mismatched:
            print(
                f"ledger: golden pre-flight failed for {', '.join(mismatched)}",
                file=sys.stderr,
            )
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1

    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
    # Each invocation has a scratch directory of its own, so concurrent
    # runs (a test run beside a manual one) never share caches or queues.
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        docs = {name: run_workload(name, args, work) for name in chosen}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cross: Dict[str, bool] = {}
    if {"figures-local", "figures-fleet"} <= set(docs):
        cross["figures-local report == figures-fleet report"] = (
            docs["figures-local"].get("digest") == docs["figures-fleet"].get("digest")
        )

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics: Dict[str, Dict[str, Any]] = {}
    correct = all(cross.values())
    for name, doc in docs.items():
        print_workload(doc)
        correct = correct and doc["correct"]
        source = doc["layers" if args.trace else "metrics"]
        for entry in declared:
            key = entry["name"] if len(docs) == 1 else f"{name}/{entry['name']}"
            if entry["name"] in source:
                value = source[entry["name"]]
                metrics[key] = {"value": value["value"], "unit": value["unit"]}
            elif doc["correct"]:
                print(f"ledger: {name} did not report {entry['name']}", file=sys.stderr)
                correct = False
    for check, ok in cross.items():
        print(f"{'ledger':14} {check}: {'ok' if ok else 'FAILED'}")

    if args.out:
        ledger = {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "smoke": args.smoke,
            "host": {
                "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "machine": platform.machine(),
            },
            "checks": cross,
            "workloads": docs,
        }
        path = args.out / ("BENCH_ledger_trace.json" if args.trace else "BENCH_ledger.json")
        path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
        print(f"{'ledger':14} wrote {path}")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(doc["attempted"] for doc in docs.values()),
                "failed": sum(doc["failed"] for doc in docs.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
