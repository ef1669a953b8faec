"""Tests of the performance ledger (about 40 s on two cores).

    PYTHONPATH=src python -m pytest benchmarks/ledger

The ledger runs twice with ``--smoke`` (QUICK scale, one program, one
pass): untraced for the end-to-end metrics, traced for the per-layer ones.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


Run = Tuple[Dict[str, Any], Dict[str, Any], Path]


def _ledger(out: Path, *extra: str) -> Run:
    """The last output line, the ledger file and the output directory."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *extra],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    name = "BENCH_ledger_trace.json" if extra else "BENCH_ledger.json"
    return last, json.loads((out / name).read_text()), out


@pytest.fixture(scope="module")
def untraced(tmp_path_factory: pytest.TempPathFactory) -> Run:
    return _ledger(tmp_path_factory.mktemp("untraced"))


@pytest.fixture(scope="module")
def traced(tmp_path_factory: pytest.TempPathFactory) -> Run:
    return _ledger(tmp_path_factory.mktemp("traced"), "--trace", "1")


@pytest.mark.parametrize("mode, section", [("untraced", "end_to_end"), ("traced", "per_layer")])
def test_every_declared_metric_is_reported_with_its_unit(
    mode: str, section: str, request: pytest.FixtureRequest
) -> None:
    last, ledger, _out = request.getfixturevalue(mode)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    for name in NAMES:
        doc = ledger["workloads"][name]
        reported = doc["metrics" if section == "end_to_end" else "layers"]
        for metric in SPEC[section]:
            assert reported[metric["name"]]["unit"] == metric["unit"], (name, metric)
            assert last["metrics"][f"{name}/{metric['name']}"] == {
                "value": reported[metric["name"]]["value"],
                "unit": metric["unit"],
            }


def test_checks_pass_and_nothing_fails(untraced: Run) -> None:
    _last, ledger, _out = untraced
    assert all(ledger["checks"].values())
    for name in NAMES:
        doc = ledger["workloads"][name]
        assert doc["correct"], doc["checks"]
        assert doc["metrics"]["fail_frac"]["value"] == 0
    assert ledger["workloads"]["sample"]["metrics"]["detailed_ops"]["value"] > 0


def test_span_self_time_is_within_its_busy_time(traced: Run) -> None:
    _last, _ledger, out = traced
    for name in NAMES:
        spans = tracer.load(out / f"spans-{name}.jsonl")
        assert spans, name
        own = tracer.self_times(spans)
        for sid, _parent, span_name, _unit, start, end, _n in spans:
            assert -1e-9 <= own[sid] <= end - start + 1e-9, (name, span_name)


def test_tracer_leaves_no_wrapper_installed() -> None:
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in tracer.targets()}
    recorder = tracer.Tracer()
    program = workloads.get_workload("164.gzip", workloads.Scale.QUICK)
    with recorder:
        workloads.Pgss(workloads.PgssConfig.from_scale(workloads.Scale.QUICK)).run(program)
    names = {span[2] for span in recorder.take()}
    assert {"sampling.pgss", "sampling.session", "cpu.func_warm", "phase.observe"} <= names
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, (owner, attr)


def test_self_time_subtracts_direct_children_only() -> None:
    spans = [
        ("1:0", "1:1", "inner", "", 1.0, 2.0, 0),
        ("1:1", "1:2", "middle", "", 0.5, 3.0, 0),
        ("1:2", None, "outer", "", 0.0, 4.0, 0),
    ]
    assert tracer.self_times(spans) == {"1:0": 1.0, "1:1": 1.5, "1:2": 1.5}
    layers = tracer.layer_metrics(spans, (0.0, 4.0))
    assert layers["trace.coverage_pct"] == (100.0, "%")
    assert layers["outer.pct"] == (37.5, "%")


def test_catch_all_self_time_is_not_covered() -> None:
    # A technique's .run with no traced children: nothing is attributed.
    alone = [("1:0", None, "sampling.pgss", "", 0.0, 4.0, 0)]
    assert tracer.layer_metrics(alone, (0.0, 4.0))["trace.coverage_pct"] == (0.0, "%")
    # Its child's time counts; the gap after it, outside any span, does not.
    nested = [
        ("1:0", "1:1", "cpu.func_warm", "", 0.0, 2.0, 0),
        ("1:1", None, "sampling.pgss", "", 0.0, 3.0, 0),
    ]
    assert tracer.layer_metrics(nested, (0.0, 4.0))["trace.coverage_pct"] == (50.0, "%")
    # Fleet: the ledger's wait is not time to cover; each worker process
    # is, and its start-up and idle sleep count as covered.
    fleet = [
        ("1:0", "1:1", "fleet.queue.status", "", 3.0, 3.5, 0),
        ("1:1", None, tracer.WAIT, "", 1.0, 4.0, 0),
        ("1:2", None, "fleet.queue.submit", "", 0.0, 1.0, 0),
        ("2:0", "2:1", "cpu.detail", "", 0.5, 3.0, 0),
        ("2:1", None, tracer.PROCESS, "", 0.0, 4.0, 0),
        ("2:2", "2:1", tracer.STARTUP, "", 0.0, 0.4, 0),
        ("2:3", "2:1", tracer.SLEEP, "", 3.2, 3.7, 0),
    ]
    covered = (1.0 + 0.5 + 2.5 + 0.4 + 0.5) / (4.0 - 2.5 + 4.0)
    assert tracer.layer_metrics(fleet, (0.0, 4.0))["trace.coverage_pct"] == (
        pytest.approx(100.0 * covered),
        "%",
    )


def _ledger_file(path: Path, seed: int, wall: float, ops: int, digest: str) -> Path:
    doc = {
        "seed": seed,
        "seconds": 20.0,
        "trace": False,
        "workloads": {
            "sample": {
                "digest": digest,
                "metrics": {
                    "pass_norm_s": {"value": wall, "unit": "s"},
                    "detailed_ops": {"value": ops, "unit": "ops"},
                },
            }
        },
    }
    path.write_text(json.dumps(doc))
    return path


def test_compare_flags_regressions_and_output_changes(tmp_path: Path) -> None:
    files = []
    for i in range(10):
        files.append(_ledger_file(tmp_path / f"p{i}.json", i, 10.0 + 0.01 * i, 5, "a"))
        files.append(_ledger_file(tmp_path / f"c{i}.json", i, 14.0 + 0.01 * i, 5, "a"))
    rows, ok = compare.compare(files, SPEC)
    assert not ok
    assert rows[1].endswith("equal") and rows[2].endswith("REGRESSION")
    assert rows[3].endswith("equal")

    files = []
    for i in range(10):
        files.append(_ledger_file(tmp_path / f"p{i}.json", i, 10.0 + 0.01 * i, 5, "a"))
        files.append(_ledger_file(tmp_path / f"c{i}.json", i, 8.0 + 0.01 * i, 6, "b"))
    rows, ok = compare.compare(files, SPEC)
    assert not ok
    assert rows[1].endswith("DIFFERS") and rows[2].endswith("gain") and rows[3].endswith("DIFFERS")

    files = []
    for i in range(10):
        files.append(_ledger_file(tmp_path / f"p{i}.json", i, 10.0 + 0.01 * i, 5, "a"))
        files.append(_ledger_file(tmp_path / f"c{i}.json", i, 11.0 + 0.01 * i, 5, "a"))
    rows, ok = compare.compare(files, SPEC)
    assert ok and rows[2].endswith("slower")

    noisy = [9.0, 11.0, 8.0, 12.0]
    assert compare.verdict(noisy, [10.5, 10.4, 10.6, 10.5], "lower", 0.1)[0] == "unresolved"


def test_refuses_to_run_outside_a_full_checkout(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "sample", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
