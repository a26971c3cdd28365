"""Bounded exhaustive protocol exploration (a small-scope model checker).

This package drives the *real*, unmodified :mod:`repro.mutex` algorithms
through a controlled scheduler that owns every message delivery and
CS request, and exhaustively explores every admissible interleaving at
small scope.  A sleep-set dynamic partial-order reduction prunes
redundant interleavings without losing a single reachable state, so the
three checked properties stay exact:

* **safety** — at most one node in its critical section, ever;
* **deadlock-freedom** — no reachable state with outstanding requests
  and nothing enabled;
* **eventual entry** — no reachable terminal loop that starves a
  requester (exact for deadlock-shaped starvation; best-effort for
  livelocks, see :mod:`repro.analysis.explore.explorer`).

Entry points: :func:`explore` checks one :class:`ExploreScope` cell;
:func:`run_matrix` runs the default {naimi, suzuki, martin} x
{flat, composition} matrix plus a crash cell;
:mod:`repro.analysis.explore.schedule`
serializes violations into replayable JSON counterexamples.  All of it
is wired into ``python -m repro.analysis --explore``.
"""

from .cells import MatrixReport, default_cells, run_matrix
from .explorer import ExploreReport, Violation, explore
from .schedule import (
    ReplayStep,
    chrome_trace,
    counterexample_to_dict,
    load_counterexample,
    replay,
    write_chrome_trace,
    write_counterexample,
)
from .world import ExplorationError, ExploreScope, World

__all__ = [
    "ExplorationError",
    "ExploreReport",
    "ExploreScope",
    "MatrixReport",
    "ReplayStep",
    "Violation",
    "World",
    "chrome_trace",
    "counterexample_to_dict",
    "default_cells",
    "explore",
    "load_counterexample",
    "replay",
    "run_matrix",
    "write_chrome_trace",
    "write_counterexample",
]
