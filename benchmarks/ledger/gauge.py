"""The gauge: a fixed pure-Python loop whose time reads the host's speed.

The loop uses no code of the simulator, so no change to the simulator can
move it; a neighbour that slows the host slows the gauge as it slows the
work timed next to it.  README.md ("The gauge") says how the ledger uses
it.
"""

from __future__ import annotations

import time
from typing import Dict

#: Seconds :func:`gauge` takes on an idle core of the 2-core VM the bounds
#: were measured on (its fastest of 2000 runs).  Normalised times are
#: seconds on a host where the gauge takes this long.
GAUGE_REF_S = 0.004


def gauge() -> float:
    """Seconds the loop takes now."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(30_000):
        table[i & 1023] = total
        total += (i * 7) % 13
    return time.perf_counter() - start
