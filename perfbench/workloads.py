"""The benchmark's three workloads, driven through the public entry points.

Every workload leaves the execution-path knobs of
:class:`~repro.experiments.ExperimentConfig` (``backend``, ``queue``,
``batch_delivery``, ``horizon``, ``parallel_clusters``) at their
defaults, so a change of default shows up here the way users see it.

A workload function takes the workload seed and a
:class:`~probes.Recorder`, runs once, and returns one output row per
simulation run (see :func:`outputs_of`).  Correctness checks that need
no recorded reference (safety, liveness, all critical sections served,
warm cache equal to cold, a single live token after failover) raise
:class:`WorkloadError` or the program's own violation errors.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Callable, Dict, List

from repro.cache import ExperimentCache
from repro.core import Composition, CompositionRecovery
from repro.errors import LivenessViolation
from repro.experiments import ExperimentConfig, FigureScale
from repro.experiments.figures import figure_configs
from repro.experiments import runner
from repro.experiments.parallel import run_configs_cached
from repro.grid import grid5000_latency, grid5000_topology
from repro.net import CrashController, Network
from repro.sim import Simulator
from repro.verify import MutualExclusionChecker, assert_single_token
from repro.workload import deploy_workload

from probes import Recorder

__all__ = ["WORKLOADS", "WorkloadError", "outputs_of"]

#: Working directory for the fig4-sweep cache, inside the benchmark directory.
WORK_DIR = Path(__file__).resolve().parent / ".work"

# fig4-sweep: the paper's Fig. 4/5 inter sweep at 9x20 processes.
FIG4_APPS_PER_CLUSTER = 20
FIG4_N_CS = 10

# twotier-5k: 50 clusters x (99 applications + 1 coordinator).
TWOTIER_CLUSTERS = 50
TWOTIER_APPS_PER_CLUSTER = 99
TWOTIER_N_CS = 5

# crash-failover: Naimi/Naimi with one standby per Grid'5000 site.
CRASH_APPS_PER_CLUSTER = 20
CRASH_N_CS = 60
CRASH_ALPHA_MS = 10.0
CRASH_RHO = 180.0
#: (simulated ms, cluster) of each coordinator crash; clusters distinct.
CRASH_SCHEDULE = ((25_000.0, 2), (60_000.0, 5), (95_000.0, 8))
#: Simulated time run after the last application finishes so that no
#: token is in flight when the single-token invariant is checked.
CRASH_SETTLE_MS = 500.0


class WorkloadError(Exception):
    """A workload's own correctness check failed."""


def outputs_of(cs_count, stats, sim_time_ms, obtaining) -> List:
    """The simulated outputs compared against the recorded reference."""
    return [
        int(cs_count),
        int(stats["messages"]),
        int(stats["intra_messages"]),
        int(stats["inter_messages"]),
        int(stats["bytes"]),
        int(stats["inter_bytes"]),
        float(sim_time_ms),
        float(obtaining.mean),
        float(obtaining.std),
    ]


def _result_outputs(result) -> List:
    stats = {
        "messages": result.total_messages,
        "intra_messages": result.intra_cluster_messages,
        "inter_messages": result.inter_cluster_messages,
        "bytes": result.total_bytes,
        "inter_bytes": result.inter_cluster_bytes,
    }
    return outputs_of(result.cs_count, stats, result.sim_time_ms,
                      result.obtaining)


def _expect_all_served(cs_count: int, expected: int, what: str) -> None:
    if cs_count != expected:
        raise WorkloadError(
            f"{what}: {cs_count} critical sections served, expected {expected}"
        )


# --------------------------------------------------------------------- #
def fig4_sweep(seed: int, rec: Recorder) -> List[List]:
    """Cold sweep into a fresh cache, then one warm read of it."""
    scale = FigureScale(apps_per_cluster=FIG4_APPS_PER_CLUSTER,
                        n_cs=FIG4_N_CS, seeds=(seed,))
    configs = figure_configs("fig4a", scale)
    WORK_DIR.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
    try:
        with rec.setup():
            cache = ExperimentCache(cache_dir)
        cold = run_configs_cached(configs, cache=cache, max_workers=1)
        warm = run_configs_cached(configs, cache=cache, max_workers=1)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    rows = [_result_outputs(r) for r in cold]
    if [_result_outputs(r) for r in warm] != rows:
        raise WorkloadError("fig4-sweep: warm cache read differs from cold")
    for config, row in zip(configs, rows):
        _expect_all_served(row[0], config.n_apps * config.n_cs,
                           config.describe())
    return rows


def twotier_5k(seed: int, rec: Recorder) -> List[List]:
    """One 5000-node Naimi/Naimi composition on the two-tier platform."""
    config = ExperimentConfig(
        platform="two-tier",
        n_clusters=TWOTIER_CLUSTERS,
        apps_per_cluster=TWOTIER_APPS_PER_CLUSTER,
        n_cs=TWOTIER_N_CS,
        seed=seed,
    )
    with rec.run():
        result = runner.run_experiment(config)
    _expect_all_served(result.cs_count, config.n_apps * config.n_cs,
                       "twotier-5k")
    return [_result_outputs(result)]


def crash_failover(seed: int, rec: Recorder) -> List[List]:
    """Coordinator crashes on distinct sites under CompositionRecovery."""
    with rec.run():
        sim = Simulator(seed=seed)
        with rec.span("platform"):
            topology = grid5000_topology(
                nodes_per_cluster=CRASH_APPS_PER_CLUSTER + 2  # + coord, standby
            )
            latency = grid5000_latency(topology)
        with rec.span("system"):
            crashes = CrashController(sim)
            net = Network(sim, topology, latency, crashes=crashes)
            comp = Composition(sim, net, topology, intra="naimi",
                               inter="naimi", standbys=1)
            recovery = CompositionRecovery(sim, net, crashes, comp)
            app_nodes = frozenset(comp.app_nodes)
            safety = MutualExclusionChecker(
                sim.trace,
                include=lambda r: (r.fields["node"] in app_nodes
                                   and r.fields["port"].startswith("intra")),
            )
        remaining = [len(app_nodes)]
        finished_at = [0.0]

        def app_done(_app) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                finished_at[0] = sim.now
                sim.stop()

        with rec.span("deploy"):
            apps, collector = deploy_workload(
                comp, alpha_ms=CRASH_ALPHA_MS, rho=CRASH_RHO,
                n_cs=CRASH_N_CS, on_done=app_done,
            )
        for at_ms, cluster in CRASH_SCHEDULE:
            crashes.schedule_crash(at_ms, comp.coordinators[cluster].node)
        deadline = ExperimentConfig(
            apps_per_cluster=CRASH_APPS_PER_CLUSTER, n_cs=CRASH_N_CS,
            alpha_ms=CRASH_ALPHA_MS, rho=CRASH_RHO,
        ).default_deadline()
        sim.run(until=deadline)
        unfinished = [a.name for a in apps if not a.done]
        if unfinished:
            raise LivenessViolation(
                f"crash-failover: {len(unfinished)} application(s) unfinished "
                f"at t={sim.now:.0f}ms"
            )
        sim.run(until=sim.now + CRASH_SETTLE_MS)
        safety.assert_quiescent()
        for peers in (*comp.intra_instances, comp.inter_peers):
            assert_single_token(
                [p for p in peers if not crashes.is_down(p.node)]
            )
        if len(recovery.failovers) != len(CRASH_SCHEDULE):
            raise WorkloadError(
                f"crash-failover: {len(recovery.failovers)} failovers for "
                f"{len(CRASH_SCHEDULE)} coordinator crashes"
            )
        s = net.stats
        stats = {
            "messages": s.total,
            "intra_messages": s.intra_cluster,
            "inter_messages": s.inter_cluster,
            "bytes": s.bytes_total,
            "inter_bytes": s.bytes_inter_cluster,
        }
        row = outputs_of(collector.cs_count, stats, finished_at[0],
                         collector.obtaining_stats())
    _expect_all_served(row[0], len(app_nodes) * CRASH_N_CS, "crash-failover")
    return [row]


#: Workload name -> function.
WORKLOADS: Dict[str, Callable[[int, Recorder], List[List]]] = {
    "fig4-sweep": fig4_sweep,
    "twotier-5k": twotier_5k,
    "crash-failover": crash_failover,
}
