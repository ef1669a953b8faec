"""The cycle-accurate CPU simulator and its execution modes.

The simulated machine is the paper's evaluation processor: a 4-wide issue,
in-order superscalar with a split 4-way 64 KB L1 and a unified 1 MB L2
(Section 5).  Four execution modes mirror the paper's Figure 13 taxonomy:

* **detailed simulation** — full scoreboard timing, statistics recorded;
* **detailed warming** — identical timing, statistics discarded (the
  3000-op pre-sample warm-up of SMARTS/PGSS);
* **functional warming** — caches and branch predictor updated, no timing
  (SMARTS/PGSS fast-forwarding);
* **functional fast-forward** — nothing but op counting (SimPoint-style
  skipping).

An :class:`OutcomeRecord` keeps what one warming pass recorded, so that
later measurement passes replay their detailed timing from it instead of
simulating the caches again.
"""

from .pipeline import InOrderPipeline
from .engine import Mode, ModeAccounting, SimulationEngine
from .multicore import CoreResult, MultiCoreEngine, MultiCorePgss
from .record import OutcomeRecord

__all__ = [
    "InOrderPipeline",
    "Mode",
    "ModeAccounting",
    "OutcomeRecord",
    "SimulationEngine",
    "CoreResult",
    "MultiCoreEngine",
    "MultiCorePgss",
]
