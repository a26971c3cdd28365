"""Experiment runner: configuration -> simulation -> results.

``run_experiment`` performs one complete run: build the platform,
deploy the chosen mutual exclusion system and the α/β/ρ workload, run
the kernel with the safety checker attached, and aggregate the paper's
metrics.  ``run_many`` repeats over seeds like the paper's "every
experiment was executed 10 times".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..cache.store import ExperimentCache
from ..compile import CompiledNetwork
from ..core.adaptive import AdaptiveComposition
from ..core.composition import Composition, FlatMutex, MutexSystem
from ..core.multilevel import MultilevelComposition
from ..errors import ConfigurationError, LivenessViolation
from ..grid.builders import random_wan_grid, two_tier_grid
from ..grid.grid5000 import grid5000_latency, grid5000_topology
from ..metrics.analysis import SummaryStats, pooled
from ..metrics.collector import BoundedMetricsCollector
from ..net.network import Network
from ..net.topology import LARGE_GRID_NODES, GridTopology
from ..obs.layer import ObservabilityLayer
from ..obs.report import ObsReport
from ..sim.kernel import Simulator
from ..verify.safety import MutualExclusionChecker
from ..workload.scenario import deploy_workload
from .config import ExperimentConfig

__all__ = [
    "ExperimentResult",
    "AggregateResult",
    "PARALLEL_SEED_THRESHOLD",
    "run_experiment",
    "run_many",
    "run_composition",
    "run_flat",
    "build_platform",
    "build_system",
]


@dataclass(frozen=True)
class ExperimentResult:
    """Metrics of one run (one seed)."""

    config: ExperimentConfig
    name: str
    obtaining: SummaryStats
    cs_count: int
    total_messages: int
    inter_cluster_messages: int
    intra_cluster_messages: int
    total_bytes: int
    inter_cluster_bytes: int
    sim_time_ms: float
    per_cluster: Dict[int, SummaryStats]
    inter_algorithm_final: str = ""
    #: Observability report when ``config.obs != "off"`` (see repro.obs).
    obs_report: Optional[ObsReport] = None

    @property
    def inter_messages_per_cs(self) -> float:
        """The paper's Fig 4(b) metric: inter-cluster sent messages,
        normalised per executed critical section."""
        return self.inter_cluster_messages / self.cs_count if self.cs_count else 0.0

    @property
    def messages_per_cs(self) -> float:
        return self.total_messages / self.cs_count if self.cs_count else 0.0


@dataclass(frozen=True)
class AggregateResult:
    """Metrics pooled over several seeds (the paper averages 10 runs)."""

    name: str
    runs: Tuple[ExperimentResult, ...]
    obtaining: SummaryStats

    @property
    def inter_messages_per_cs(self) -> float:
        return sum(r.inter_messages_per_cs for r in self.runs) / len(self.runs)

    @property
    def messages_per_cs(self) -> float:
        return sum(r.messages_per_cs for r in self.runs) / len(self.runs)

    @property
    def cs_count(self) -> int:
        return sum(r.cs_count for r in self.runs)


# --------------------------------------------------------------------- #
# construction helpers
# --------------------------------------------------------------------- #
def build_platform(config: ExperimentConfig):
    """(topology, latency model) for the configured platform."""
    if config.platform == "grid5000":
        topo = grid5000_topology(
            nodes_per_cluster=config.nodes_per_cluster,
            n_sites=config.n_clusters,
        )
        return topo, grid5000_latency(topo, jitter=config.jitter)
    if config.platform == "two-tier":
        return two_tier_grid(
            config.n_clusters,
            config.nodes_per_cluster,
            lan_ms=config.lan_ms,
            wan_ms=config.wan_ms,
            jitter=config.jitter,
        )
    if config.platform == "random-wan":
        return random_wan_grid(
            config.n_clusters,
            config.nodes_per_cluster,
            seed=config.seed,
            jitter=config.jitter,
        )
    raise ConfigurationError(f"unknown platform {config.platform!r}")


def build_system(
    sim: Simulator,
    net: Network,
    topology: GridTopology,
    config: ExperimentConfig,
) -> MutexSystem:
    """Instantiate the configured mutual exclusion system."""
    if config.system == "composition":
        return Composition(
            sim, net, topology, intra=config.intra, inter=config.inter
        )
    if config.system == "flat":
        return FlatMutex(sim, net, topology, algorithm=config.intra)
    if config.system == "adaptive":
        return AdaptiveComposition(
            sim, net, topology, intra=config.intra, initial_inter=config.inter
        )
    if config.system == "multilevel":
        hierarchy = _to_lists(config.hierarchy)
        return MultilevelComposition(
            sim, net, topology, hierarchy, list(config.algorithms)
        )
    raise ConfigurationError(f"unknown system {config.system!r}")


def _to_lists(spec):
    if isinstance(spec, int):
        return spec
    return [_to_lists(s) for s in spec]


def _app_cs_filter(app_nodes) -> Callable:
    """Safety-checker predicate: application CS events only.

    Coordinators enter their intra/inter CSes as part of the bridging
    automaton; the paper's mutual exclusion invariant is over the
    *application* processes.  Reads the record's field dict directly —
    this runs on every CS entry/exit of every checked run.
    """
    app_set = frozenset(app_nodes)

    def include(rec) -> bool:
        fields = rec.fields
        if fields["node"] not in app_set:
            return False
        port = fields["port"]
        return port.startswith("intra") or port == "flat"

    return include


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #
def run_experiment(
    config: ExperimentConfig,
    obs_hook: Optional[Callable[[ObservabilityLayer], None]] = None,
    cache: Optional[ExperimentCache] = None,
) -> ExperimentResult:
    """Run one configured simulation to completion and aggregate.

    ``obs_hook``, if given, is called with the attached
    :class:`~repro.obs.ObservabilityLayer` after the run completes
    (before the report is frozen) — the CLI uses it to export Chrome
    traces.  It requires ``config.obs != "off"``.

    ``cache``, if given, consults a :class:`~repro.cache.ExperimentCache`
    before executing and stores the result afterwards.  Caching is
    strictly opt-in here: without an explicit cache this function always
    executes, so tier-1 correctness paths (which run with
    ``check_safety=True``) exercise the safety checker on every call.
    An ``obs_hook`` needs the live observability layer, so it bypasses
    the cache entirely.
    """
    config.validate()
    if obs_hook is not None and config.obs == "off":
        raise ConfigurationError("obs_hook requires config.obs != 'off'")
    if cache is None or obs_hook is not None:
        return _execute_experiment(config, obs_hook)
    cached = cache.get(config)
    if cached is not None:
        if cache.should_verify():
            fresh = _execute_experiment(config, None)
            if not cache.record_verification(cached, fresh):
                cache.put(config, fresh)  # replace the stale entry
            return fresh
        return cached
    result = _execute_experiment(config, None)
    cache.put(config, result)
    return result


def _execute_experiment(
    config: ExperimentConfig,
    obs_hook: Optional[Callable[[ObservabilityLayer], None]] = None,
) -> ExperimentResult:
    """The uncached run: build, simulate, check, aggregate."""
    sim = Simulator(seed=config.seed, tie_seed=config.tie_seed)
    topology, latency = build_platform(config)
    if config.batch_jitter:
        latency.enable_batched_jitter()
    # The compiled network picks the route per send: the table route
    # when it can serve it, the plain pipeline otherwise.
    net = CompiledNetwork(sim, topology, latency, fifo=config.fifo)
    return _run_on(config, sim, net, obs_hook)


def _run_on(
    config: ExperimentConfig,
    sim: Simulator,
    net: Network,
    obs_hook: Optional[Callable[[ObservabilityLayer], None]] = None,
) -> ExperimentResult:
    """Build the system and workload on ``net``, run, check, aggregate,
    then tear the world down."""
    topology = net.topology
    system = build_system(sim, net, topology, config)

    # Attach after build_system (every handler registered, so the
    # causality layer wraps them all) and before the workload deploys.
    obs: Optional[ObservabilityLayer] = None
    if config.obs != "off":
        obs = ObservabilityLayer(
            sim,
            net,
            level=config.obs,
            app_nodes=system.app_nodes,
            coordinator_nodes=tuple(
                c.node for c in getattr(system, "coordinators", ())
            ),
        )

    safety: Optional[MutualExclusionChecker] = None
    if config.check_safety:
        safety = MutualExclusionChecker(
            sim.trace, include=_app_cs_filter(system.app_nodes)
        )

    remaining = {"count": len(system.app_nodes)}

    def app_done(_app) -> None:
        remaining["count"] -= 1
        if remaining["count"] == 0:
            sim.stop()

    # Above the scale-out threshold the exact collector's per-CS record
    # list (n_apps * n_cs entries) dominates peak memory; switch to the
    # bounded collector, which keeps exact streaming moments plus a
    # reservoir sample (deterministic per seed, digest-neutral).
    collector_arg = None
    if config.n_apps >= LARGE_GRID_NODES:
        collector_arg = BoundedMetricsCollector(seed=config.seed)
    apps, collector = deploy_workload(
        system,
        alpha_ms=config.alpha_ms,
        rho=config.rho,
        n_cs=config.n_cs,
        collector=collector_arg,
        distribution=config.distribution,
        on_done=app_done,
    )
    deadline = (
        config.deadline_ms
        if config.deadline_ms is not None
        else config.default_deadline()
    )
    sim.run(until=deadline)
    unfinished = [a.name for a in apps if not a.done]
    if unfinished:
        raise LivenessViolation(
            f"{config.describe()}: {len(unfinished)} application "
            f"process(es) unfinished at t={sim.now:.0f}ms "
            f"(first: {unfinished[:5]})"
        )
    obs_report: Optional[ObsReport] = None
    if obs is not None:
        if obs_hook is not None:
            obs_hook(obs)
        obs_report = obs.report()
        obs.detach()
    stats = net.stats
    result = ExperimentResult(
        config=config,
        name=system.name,
        obtaining=collector.obtaining_stats(),
        cs_count=collector.cs_count,
        total_messages=stats.total,
        inter_cluster_messages=stats.inter_cluster,
        intra_cluster_messages=stats.intra_cluster,
        total_bytes=stats.bytes_total,
        inter_cluster_bytes=stats.bytes_inter_cluster,
        sim_time_ms=sim.now,
        per_cluster=collector.by_cluster(),
        inter_algorithm_final=getattr(system, "inter_name", ""),
        obs_report=obs_report,
    )
    # Break the run's reference cycles (processes <-> kernel, network
    # and each other, through bound-method callbacks) so reference
    # counting frees the world here.  Left to the cyclic collector, its
    # full collections land in later runs' set-up and walk every dead
    # world since the last one.
    system.close()
    for app in apps:
        app.close()
    net.close()
    sim.close()
    return result


#: ``run_many`` routes through the warm worker pool once a seed batch
#: reaches this size; smaller jobs stay serial in-process (a pool round
#: trip costs more than two or three quick runs).
PARALLEL_SEED_THRESHOLD = 4


def run_many(
    config: ExperimentConfig,
    seeds: Sequence[int] = (0, 1, 2),
    cache: Optional[ExperimentCache] = None,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
) -> AggregateResult:
    """Run the same configuration over several seeds and pool the stats.

    Seed batches of :data:`PARALLEL_SEED_THRESHOLD` or more run through
    the shared warm pool (``parallel=None`` is this auto mode; pass
    ``True``/``False`` to force either way).  Results are bit-identical
    to serial execution and come back in seed order.  ``cache`` streams
    known seeds from the experiment cache and only computes the misses.
    """
    if not seeds:
        raise ConfigurationError("run_many needs at least one seed")
    configs = [config.with_(seed=s) for s in seeds]
    if parallel is None:
        parallel = len(configs) >= PARALLEL_SEED_THRESHOLD
    if parallel and len(configs) > 1 and max_workers != 1:
        from .parallel import run_configs_cached  # runtime import: no cycle

        runs = tuple(run_configs_cached(
            configs, cache=cache, max_workers=max_workers, reuse_pool=True,
        ))
    else:
        runs = tuple(run_experiment(c, cache=cache) for c in configs)
    return AggregateResult(
        name=runs[0].name,
        runs=runs,
        obtaining=pooled([r.obtaining for r in runs]),
    )


# --------------------------------------------------------------------- #
# convenience front doors (re-exported at package top level)
# --------------------------------------------------------------------- #
def run_composition(
    intra: str = "naimi", inter: str = "naimi", rho: float = 180.0, **kw
) -> ExperimentResult:
    """One composition run with paper-like defaults (quick entry point)."""
    return run_experiment(
        ExperimentConfig(system="composition", intra=intra, inter=inter,
                         rho=rho, **kw)
    )


def run_flat(algorithm: str = "naimi", rho: float = 180.0, **kw) -> ExperimentResult:
    """One flat-baseline run with paper-like defaults."""
    return run_experiment(
        ExperimentConfig(system="flat", intra=algorithm, rho=rho, **kw)
    )
