"""Canonical benchmark scenarios.

Each scenario builds a deterministic simulation, times **only** the
``sim.run()`` hot loop (construction and teardown are excluded), and
returns raw counters.  Scenarios come in a ``quick`` flavour (seconds, used
by CI and the regression gate) and a full flavour (paper scale).

The scenarios are chosen to stress complementary paths:

* ``kernel_spin``      — pure event-queue churn, no network, no tracing:
                         the kernel's floor.
* ``fig4_composition`` — the paper's Fig. 4 workload (Naimi/Naimi
                         composition on the 9-site Grid'5000 matrix): the
                         canonical end-to-end microbench the acceptance
                         speedup is measured on.
* ``flat_suzuki``      — flat Suzuki-Kasami broadcast: message-heavy,
                         stresses the network send/deliver path.
* ``crash_recovery``   — coordinator crash + failover under the recovery
                         layer: stresses timer cancellation (heartbeat
                         re-arming) and the heap-compaction path.
* ``fig4_twotier_1k`` / ``fig4_twotier_5k`` — fig4-style compositions on
                         1000- and 5000-node two-tier grids: the O(N)-
                         memory scale-out path (block latency tables,
                         bounded metrics).  They carry a ``peak_rss_mb`` gauge
                         asserted against ``mem_budget_mb`` (2 GB) by
                         the bench driver.
* ``fig4_sweep_no_cache`` / ``fig4_sweep_cold_cache`` /
  ``fig4_sweep_warm_cache`` — the same small Fig. 4 ρ-sweep run without a
                         cache, against an empty cache (measures the
                         store's write-path overhead) and against a
                         pre-populated one (measures the hit path; the
                         acceptance criterion is warm ≥ 10× faster than
                         cold).  Wall-clock only: ``events`` is 0 so the
                         events/sec regression gate skips them.
"""

from __future__ import annotations

import resource
import tempfile
import time
from typing import Callable, Dict, List, Optional

from repro.cache import ExperimentCache
from repro.compile import CompiledNetwork
from repro.core import Composition, CompositionRecovery, RecoveryConfig
from repro.experiments import ExperimentConfig
from repro.experiments.runner import _app_cs_filter, build_platform, build_system
from repro.metrics import BoundedMetricsCollector
from repro.net import CrashController, Network, TwoTierLatency, uniform_topology
from repro.net.topology import LARGE_GRID_NODES
from repro.sim import Simulator
from repro.verify.safety import MutualExclusionChecker
from repro.workload import deploy_workload

__all__ = ["SCENARIO_FNS"]


def _timed_run(sim: Simulator, until: float) -> float:
    t0 = time.perf_counter()
    sim.run(until=until)
    return time.perf_counter() - t0


def _build_experiment(config: ExperimentConfig, network=CompiledNetwork):
    """Construct a ``run_experiment``-shaped simulation, ready to run.

    ``network=Network`` builds the interpreted reference: on a plain
    network every peer, coordinator and application process is built
    from its interpreted class."""
    config.validate()
    sim = Simulator(seed=config.seed)
    topology, latency = build_platform(config)
    net = network(sim, topology, latency, fifo=config.fifo)
    system = build_system(sim, net, topology, config)
    MutualExclusionChecker(sim.trace, include=_app_cs_filter(system.app_nodes))

    remaining = {"count": len(system.app_nodes)}

    def app_done(_app) -> None:
        remaining["count"] -= 1
        if remaining["count"] == 0:
            sim.stop()

    collector_arg = None
    if config.n_apps >= LARGE_GRID_NODES:
        collector_arg = BoundedMetricsCollector(seed=config.seed)
    apps, collector = deploy_workload(
        system,
        alpha_ms=config.alpha_ms,
        rho=config.rho,
        n_cs=config.n_cs,
        distribution=config.distribution,
        collector=collector_arg,
        on_done=app_done,
    )
    return sim, net, apps, collector


def _instrumented_experiment(
    config: ExperimentConfig, network=CompiledNetwork
) -> Dict[str, float]:
    """One ``run_experiment``-shaped run that exposes kernel counters."""
    sim, net, apps, collector = _build_experiment(config, network)
    wall = _timed_run(sim, config.default_deadline())
    assert all(a.done for a in apps), "benchmark run did not complete"
    return {
        "wall_s": wall,
        "events": sim.events_fired,
        "messages": net.stats.total,
        "cs": collector.cs_count,
        "sim_ms": sim.now,
    }


def _digest_of(config: ExperimentConfig, network=CompiledNetwork) -> str:
    """Digest of the scenario's observable event stream.

    Runs an *untimed* replica: a :class:`RunDigest` subscribes to the
    ``send`` kind, which would tax the timed loop of the measured run
    (and, on the fast path, tax it differently than on the interpreted
    reference — the very comparison the digest is meant to anchor)."""
    from repro.verify import RunDigest

    sim, _net, apps, _collector = _build_experiment(config, network)
    digest = RunDigest(sim)
    sim.run(until=config.default_deadline())
    assert all(a.done for a in apps), "digest run did not complete"
    return digest.hexdigest


# --------------------------------------------------------------------- #
# scenarios
# --------------------------------------------------------------------- #
def kernel_spin(quick: bool) -> Dict[str, float]:
    """Pure event-queue churn: schedule/fire cost with an empty payload.

    256 concurrent self-rescheduling chains keep the heap populated
    (a 1-deep heap would be degenerate: real runs hold hundreds of
    pending timers/deliveries, and heap depth is what the pop/push path
    is paid on)."""
    n_events = 150_000 if quick else 1_000_000
    chains = 256
    sim = Simulator(seed=0)
    state = {"left": n_events}

    def tick() -> None:
        state["left"] -= 1
        if state["left"] > 0:
            sim.schedule(1.0, tick)

    for i in range(chains):
        sim.schedule(1.0 + i / chains, tick)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "events": sim.events_fired,
        "messages": 0,
        "cs": 0,
        "sim_ms": sim.now,
    }


def _fig4_config(quick: bool) -> ExperimentConfig:
    apps = 6 if quick else 20
    n_cs = 15 if quick else 100
    return ExperimentConfig(
        system="composition",
        intra="naimi",
        inter="naimi",
        platform="grid5000",
        n_clusters=9,
        apps_per_cluster=apps,
        n_cs=n_cs,
        rho=float(9 * apps),
        seed=1,
    )


def fig4_composition(quick: bool) -> Dict[str, float]:
    """The acceptance microbench: Naimi/Naimi composition, Fig. 4 set-up,
    on the default (fast) path ``run_experiment`` takes."""
    return _instrumented_experiment(_fig4_config(quick))


def _fig4_leg(quick: bool, network) -> Dict[str, float]:
    """One leg of the tracked pair: the measured run plus the
    event-stream digest CI asserts equal across the two legs."""
    config = _fig4_config(quick)
    result = _instrumented_experiment(config, network)
    result["digest"] = _digest_of(config, network)
    return result


def fig4_composition_interpreted(quick: bool) -> Dict[str, float]:
    """Equivalence pair, interpreted leg: the reference built explicitly
    on a plain :class:`~repro.net.Network` (same workload as
    ``fig4_composition``; carries a digest for the CI equality gate)."""
    return _fig4_leg(quick, Network)


def fig4_composition_compiled(quick: bool) -> Dict[str, float]:
    """Equivalence pair, compiled leg: table-driven dispatch, the path
    ``run_experiment`` takes by default.

    The acceptance speedup (compiled ≥ 3x the seed kernel, toward the
    ROADMAP 10x) is read off this scenario's normalized events/s against
    the committed baseline's ``fig4_composition``."""
    return _fig4_leg(quick, CompiledNetwork)


def flat_suzuki(quick: bool) -> Dict[str, float]:
    """Flat Suzuki-Kasami: broadcast requests make this message-bound."""
    apps = 5 if quick else 20
    n_cs = 8 if quick else 50
    config = ExperimentConfig(
        system="flat",
        intra="suzuki",
        platform="grid5000",
        n_clusters=9,
        apps_per_cluster=apps,
        n_cs=n_cs,
        rho=float(9 * apps),
        seed=1,
    )
    return _instrumented_experiment(config)


def crash_recovery(quick: bool) -> Dict[str, float]:
    """Coordinator crash + heartbeat-driven failover: timer-cancel heavy."""
    cycles = 4 if quick else 12
    recovery = RecoveryConfig(
        heartbeat_ms=10.0,
        heartbeat_deadline_ms=35.0,
        request_deadline_ms=60.0,
        check_ms=10.0,
    )
    sim = Simulator(seed=11)
    topo = uniform_topology(3, 5)
    crashes = CrashController(sim)
    net = Network(
        sim, topo,
        TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.0),
        crashes=crashes,
    )
    comp = Composition(sim, net, topo, intra="naimi", inter="naimi", standbys=1)
    CompositionRecovery(sim, net, crashes, comp, config=recovery)
    served: list = []
    apps = [comp.peer_for(node) for node in comp.app_nodes]

    def drive(peer, hold_ms=2.0, gap_ms=4.0):
        state = {"left": cycles}

        def step_release():
            peer.release_cs()
            state["left"] -= 1
            if state["left"] > 0:
                sim.schedule(gap_ms, peer.request_cs)

        def on_granted():
            served.append(peer.node)
            sim.schedule(hold_ms, step_release)

        peer.on_granted.append(on_granted)
        peer.request_cs()

    sim.schedule_at(0.0, drive, apps[0], 60.0)
    crashes.schedule_crash(20.0, comp.coordinators[0].node)
    for k, peer in enumerate(apps[1:]):
        sim.schedule_at(30.0 + 2 * k, drive, peer)
    wall = _timed_run(sim, 60_000.0)
    expected = len(apps) * cycles
    assert len(served) == expected, (
        f"crash_recovery bench incomplete: {len(served)}/{expected}"
    )
    return {
        "wall_s": wall,
        "events": sim.events_fired,
        "messages": net.stats.total,
        "cs": len(served),
        "sim_ms": sim.now,
    }


def _peak_rss_mb() -> float:
    """Process-lifetime peak resident set size in MiB (Linux reports
    ``ru_maxrss`` in KiB).  Monotone over the process, so within one
    bench process it is an *upper bound* on any single scenario's peak —
    exactly the right direction for a memory-budget assertion."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _twotier_config(n_clusters: int, apps_per_cluster: int,
                    n_cs: int) -> ExperimentConfig:
    """A fig4-style Naimi/Naimi composition on the uniform two-tier
    platform, on the O(N)-memory scale-out path: the fast classes, block
    latency tables, and the bounded collector above
    :data:`LARGE_GRID_NODES` applications."""
    n_apps = n_clusters * apps_per_cluster
    return ExperimentConfig(
        system="composition",
        intra="naimi",
        inter="naimi",
        platform="two-tier",
        n_clusters=n_clusters,
        apps_per_cluster=apps_per_cluster,
        n_cs=n_cs,
        rho=float(n_apps),
        seed=1,
    )


def _scaleout_run(config: ExperimentConfig) -> Dict[str, float]:
    """One instrumented scale-out run plus the memory gauge.

    ``peak_rss_mb``/``mem_budget_mb`` ride along in the result; the
    bench driver fails the run when the gauge exceeds the budget
    (acceptance: a 5k-node run stays under 2 GB)."""
    result = _instrumented_experiment(config)
    result["peak_rss_mb"] = round(_peak_rss_mb(), 1)
    result["mem_budget_mb"] = 2048.0
    return result


def fig4_twotier_1k(quick: bool) -> Dict[str, float]:
    """Scale-out smoke: 20 clusters x (49 apps + 1 coordinator) = 1000
    nodes on the two-tier platform — past the 512-node cap, so the block
    latency tables engage (980 applications stay below the bounded
    collector's 1024).  CI runs this one (quick) under the regression
    gate."""
    n_cs = 3 if quick else 10
    return _scaleout_run(_twotier_config(20, 49, n_cs))


def fig4_twotier_5k(quick: bool) -> Dict[str, float]:
    """Scale-out acceptance: 50 clusters x (99 apps + 1 coordinator) =
    5000 nodes.  The acceptance criteria (>= 100k events/s, peak RSS
    < 2 GB) are read off this scenario."""
    n_cs = 2 if quick else 5
    return _scaleout_run(_twotier_config(50, 99, n_cs))


def _fig4_sweep_configs(quick: bool) -> List[ExperimentConfig]:
    """A small version of the Fig. 4 ρ/N sweep (one seed per cell)."""
    apps = 3 if quick else 20
    n_cs = 6 if quick else 100
    n_apps = 9 * apps
    return [
        ExperimentConfig(
            system="composition",
            intra="naimi",
            inter="naimi",
            platform="grid5000",
            n_clusters=9,
            apps_per_cluster=apps,
            n_cs=n_cs,
            rho=rho_over_n * n_apps,
            seed=1,
        )
        for rho_over_n in (0.25, 0.5, 1.0, 2.0)
    ]


def _timed_sweep(
    configs: List[ExperimentConfig], cache: Optional[ExperimentCache]
) -> Dict[str, float]:
    """Time one serial pass of the sweep through the cache-aware runner.

    Serial (``max_workers=1``) so the measurement is the cache code path
    itself, not process-pool scheduling.  ``events`` is 0: these are
    wall-clock scenarios and must stay invisible to the events/sec gate.
    """
    from repro.experiments.parallel import run_configs_cached

    t0 = time.perf_counter()
    results = run_configs_cached(configs, cache, max_workers=1)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "events": 0,
        "messages": sum(r.total_messages for r in results),
        "cs": sum(r.cs_count for r in results),
        "sim_ms": sum(r.sim_time_ms for r in results),
    }


def fig4_sweep_no_cache(quick: bool) -> Dict[str, float]:
    """Baseline: the ρ-sweep with caching off entirely."""
    return _timed_sweep(_fig4_sweep_configs(quick), None)


def fig4_sweep_cold_cache(quick: bool) -> Dict[str, float]:
    """Every cell misses: execution plus the store's write path."""
    configs = _fig4_sweep_configs(quick)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        return _timed_sweep(configs, ExperimentCache(cache_dir=tmp))


def fig4_sweep_warm_cache(quick: bool) -> Dict[str, float]:
    """Every cell hits: the read path only (population is untimed)."""
    configs = _fig4_sweep_configs(quick)
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        from repro.experiments.parallel import run_configs_cached

        run_configs_cached(configs, ExperimentCache(cache_dir=tmp),
                           max_workers=1)
        return _timed_sweep(configs, ExperimentCache(cache_dir=tmp))


#: name -> scenario callable taking ``quick`` and returning raw counters.
SCENARIO_FNS: Dict[str, Callable[[bool], Dict[str, float]]] = {
    "kernel_spin": kernel_spin,
    "fig4_composition": fig4_composition,
    "fig4_composition_interpreted": fig4_composition_interpreted,
    "fig4_composition_compiled": fig4_composition_compiled,
    "flat_suzuki": flat_suzuki,
    "crash_recovery": crash_recovery,
    "fig4_twotier_1k": fig4_twotier_1k,
    "fig4_twotier_5k": fig4_twotier_5k,
    "fig4_sweep_no_cache": fig4_sweep_no_cache,
    "fig4_sweep_cold_cache": fig4_sweep_cold_cache,
    "fig4_sweep_warm_cache": fig4_sweep_warm_cache,
}
