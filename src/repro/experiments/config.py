"""Experiment configuration.

One :class:`ExperimentConfig` fully determines one simulation run (it is
hashable, so sweeps can cache runs).  Defaults reproduce the paper's
setup: the Grid'5000 platform (9 clusters), 20 application processes per
cluster, α = 10 ms, 100 critical sections per process.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..errors import ConfigurationError
from ..mutex.registry import get_algorithm

__all__ = ["ExperimentConfig", "SYSTEMS", "PLATFORMS", "OBS_LEVELS"]

SYSTEMS = ("composition", "flat", "adaptive", "multilevel")
PLATFORMS = ("grid5000", "two-tier", "random-wan")
#: Observability verbosity (see :mod:`repro.obs`): ``off`` attaches
#: nothing (the hot path stays bare), ``counters`` adds cheap event
#: counters, ``paths`` adds vector clocks + critical-path breakdown,
#: ``trace`` additionally keeps per-CS rows and enables Chrome trace
#: export.  Mirrored by :data:`repro.obs.OBS_LEVELS`.
OBS_LEVELS = ("off", "counters", "paths", "trace")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulation run."""

    # --- mutual exclusion system ---------------------------------------
    system: str = "composition"
    intra: str = "naimi"
    inter: str = "naimi"
    #: multilevel only: one algorithm per level (bottom-up) ...
    algorithms: Tuple[str, ...] = ()
    #: ... and the hierarchy spec as nested tuples of cluster indices.
    hierarchy: object = None

    # --- platform -------------------------------------------------------
    platform: str = "grid5000"
    n_clusters: int = 9
    apps_per_cluster: int = 20
    jitter: float = 0.0
    #: Draw jitter factors in blocks from the same RNG stream (faster for
    #: jittered paper-scale sweeps).  Off by default: the default mode is
    #: draw-for-draw identical run to run and digest-pinned; batched mode
    #: is deterministic but consumes the jitter stream in a different
    #: pattern (see docs/performance.md).
    batch_jitter: bool = False
    fifo: bool = False
    #: two-tier platform parameters (ignored elsewhere)
    lan_ms: float = 0.05
    wan_ms: float = 10.0

    # --- workload (paper §4.1) ------------------------------------------
    alpha_ms: float = 10.0
    rho: float = 180.0
    n_cs: int = 100
    distribution: str = "exponential"

    # --- run control ------------------------------------------------------
    seed: int = 0
    #: Perturb the kernel's same-timestamp tie-breaking (see
    #: :class:`repro.sim.kernel.Simulator`).  ``None`` keeps the default
    #: FIFO order; the schedule-race sanitizer
    #: (:mod:`repro.analysis.sanitizer`) re-runs configs under several
    #: tie seeds and fails on any observable divergence.
    tie_seed: Optional[int] = None
    check_safety: bool = True
    deadline_ms: Optional[float] = None
    #: Observability verbosity (one of :data:`OBS_LEVELS`).  ``off``
    #: keeps the run bare; any other level attaches
    #: :class:`repro.obs.ObservabilityLayer` and stores its report on
    #: ``ExperimentResult.obs_report``.  Observation never perturbs the
    #: schedule: digests are bit-identical at every level.
    obs: str = "off"
    label: str = ""

    # ------------------------------------------------------------------ #
    @property
    def n_apps(self) -> int:
        return self.n_clusters * self.apps_per_cluster

    @property
    def rho_over_n(self) -> float:
        return self.rho / self.n_apps

    @property
    def reserved_slots(self) -> int:
        """Coordinator slots reserved per cluster (flat runs reserve one
        too, so the application populations are identical)."""
        if self.system == "multilevel":
            return max(1, len(self.algorithms) - 1)
        return 1

    @property
    def nodes_per_cluster(self) -> int:
        return self.apps_per_cluster + self.reserved_slots

    def default_deadline(self) -> float:
        """A generous upper bound on completion time: all CS executions
        fully serialised plus every process's think time, times a safety
        factor.  Hitting it means a liveness bug, not a slow run."""
        serial = self.n_apps * self.n_cs * self.alpha_ms
        thinking = self.n_cs * self.rho * self.alpha_ms
        return 10.0 * (serial + thinking) + 10_000.0

    def with_(self, **changes) -> "ExperimentConfig":
        """A modified copy (convenience for sweeps)."""
        return replace(self, **changes)

    def cache_key(self) -> str:
        """Canonical JSON serialization for content-addressed caching.

        Every behaviour-determining field participates (the seed
        included), keys are sorted so field order can never matter,
        nested ``hierarchy`` tuples render as JSON arrays, and floats
        use their shortest round-trip ``repr``.
        ``tests/cache/test_keys.py`` pins the
        exact output: any drift between Python versions or refactors
        fails loudly instead of silently splitting (or, worse,
        aliasing) cache keys.
        """
        from ..cache.keys import canonical_json

        return canonical_json(self)

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        if self.system not in SYSTEMS:
            raise ConfigurationError(
                f"unknown system {self.system!r}; choose from {SYSTEMS}"
            )
        if self.platform not in PLATFORMS:
            raise ConfigurationError(
                f"unknown platform {self.platform!r}; choose from {PLATFORMS}"
            )
        if self.system in ("composition", "adaptive"):
            get_algorithm(self.intra)
            get_algorithm(self.inter)
        elif self.system == "flat":
            get_algorithm(self.intra)
        elif self.system == "multilevel":
            if len(self.algorithms) < 2:
                raise ConfigurationError(
                    "multilevel needs >= 2 algorithms (bottom-up)"
                )
            for name in self.algorithms:
                get_algorithm(name)
            if self.hierarchy is None:
                raise ConfigurationError("multilevel needs a hierarchy spec")
        if self.platform == "grid5000" and self.n_clusters > 9:
            raise ConfigurationError(
                "the Grid'5000 platform has at most 9 sites"
            )
        if self.n_clusters < 1 or self.apps_per_cluster < 1:
            raise ConfigurationError("need >= 1 cluster and >= 1 app per cluster")
        if self.alpha_ms <= 0 or self.rho <= 0:
            raise ConfigurationError("alpha and rho must be positive")
        if self.n_cs < 1:
            raise ConfigurationError("n_cs must be >= 1")
        if self.jitter < 0:
            # A negative sigma would run jitter-free (identical outputs
            # to jitter=0.0) under a different cache key.
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter}")
        if self.distribution not in ("exponential", "fixed"):
            raise ConfigurationError(
                f"unknown distribution {self.distribution!r}"
            )
        if self.obs not in OBS_LEVELS:
            raise ConfigurationError(
                f"unknown obs level {self.obs!r}; choose from {OBS_LEVELS}"
            )

    def describe(self) -> str:
        """Short human-readable run descriptor."""
        if self.label:
            return self.label
        if self.system == "flat":
            algo = f"{self.intra} (flat)"
        elif self.system == "multilevel":
            algo = "/".join(self.algorithms)
        elif self.system == "adaptive":
            algo = f"{self.intra}-adaptive"
        else:
            algo = f"{self.intra}-{self.inter}"
        return (
            f"{algo} on {self.platform} {self.n_clusters}x"
            f"{self.apps_per_cluster}, rho/N={self.rho_over_n:.2f}"
        )
