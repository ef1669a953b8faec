"""Fleet worker entry point for a ledger pass.

    python3 fleet_worker.py spans PATH worker --queue DIR --drain --quiet
    python3 fleet_worker.py gauge PATH worker --queue DIR --drain --quiet

Runs ``repro.cli.main`` on the arguments after PATH (the same code path
as ``pgss-sim worker``, which calls ``repro.fleet.worker.run_worker``).

* ``spans`` (traced passes): installs the ledger's tracer and writes the
  recorded spans to PATH when the worker exits.  One span covers the
  whole process from before the simulator is imported, so start-up
  counts as worker time; its children time the start-up (imports) and
  each idle sleep between queue scans.
* ``gauge`` (untraced passes): reads the gauge after every task and
  writes the readings to PATH, as a JSON list, when the worker exits.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, List  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

from gauge import gauge  # noqa: E402
from tracer import PROCESS, SLEEP, STARTUP, Tracer, dump  # noqa: E402


def traced(path: Path, argv: List[str]) -> int:
    tracer = Tracer()
    sleep = time.sleep

    def traced_sleep(seconds: float) -> None:
        with tracer.span(SLEEP):
            sleep(seconds)

    try:
        with tracer.span(PROCESS, start=START):
            with tracer.span(STARTUP, start=START):
                from repro import cli

            tracer.install()
            # The worker's only sleep is its idle wait between queue scans.
            time.sleep = traced_sleep
            try:
                return cli.main(argv)
            finally:
                time.sleep = sleep
                tracer.uninstall()
    finally:
        dump(tracer.take(), path)


def gauged(path: Path, argv: List[str]) -> int:
    readings = [gauge()]
    try:
        from repro import cli
        from repro.fleet.worker import Worker

        run_one = Worker.run_one

        def run_one_gauged(self: Worker, task: Any) -> Any:
            try:
                return run_one(self, task)
            finally:
                readings.append(gauge())

        Worker.run_one = run_one_gauged
        return cli.main(argv)
    finally:
        path.write_text(json.dumps(readings))


def main() -> int:
    mode, path, argv = sys.argv[1], Path(sys.argv[2]), sys.argv[3:]
    return (traced if mode == "spans" else gauged)(path, argv)


if __name__ == "__main__":
    sys.exit(main())
