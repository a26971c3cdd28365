"""Digest scenario matrix shared by the optimization-equivalence tests.

The hot-path optimizations (kernel fast loop, heap compaction, handle-free
scheduling, precomputed latency tables, hoisted jitter constants) must be
*behaviourally invisible*: the same configuration and seed has to produce a
bit-identical :class:`~repro.verify.digest.RunDigest` before and after.  This
module defines the canonical scenario matrix

    {naimi, suzuki, martin} x {flat, composition} x {fault-free, crash}

as plain functions of (algorithm, system) so that

* ``tests/properties/test_optimization_equivalence.py`` can pin every cell
  against golden digests captured from the pre-optimization kernel, and
* the goldens can be (re)generated by running this file directly::

      PYTHONPATH=src python tests/properties/digest_scenarios.py

Fault-free cells run with jitter enabled so the lognormal draw sequence is
part of what the digest pins; crash cells run jitter-free (the recovery
matrix configuration of ``benchmarks/test_resilience.py``) and exercise the
timer-cancellation path instead.
"""

from __future__ import annotations

from repro.core import (
    Composition,
    CompositionRecovery,
    InstanceRecovery,
    RecoveryConfig,
)
from repro.experiments import ExperimentConfig, runner
from repro.experiments.runner import build_platform, build_system
from repro.metrics import MetricsCollector
from repro.mutex import get_algorithm
from repro.net import CrashController, Network, TwoTierLatency, uniform_topology
from repro.obs import ObservabilityLayer
from repro.sim import Simulator
from repro.verify import RunDigest
from repro.workload import deploy_workload

ALGOS = ("naimi", "suzuki", "martin")
SYSTEMS = ("flat", "composition")
FAULTS = ("fault-free", "crash")

#: Short recovery deadlines (same shape as the resilience bench) so the
#: crash cells finish quickly; correctness is deadline-independent.
RECOVERY = RecoveryConfig(
    heartbeat_ms=10.0,
    heartbeat_deadline_ms=35.0,
    request_deadline_ms=60.0,
    check_ms=10.0,
)


def fault_free_config(algo: str, system: str) -> ExperimentConfig:
    """A scaled-down Fig. 4-style configuration with jitter enabled."""
    return ExperimentConfig(
        system=system,
        intra=algo,
        inter="naimi",
        platform="grid5000",
        n_clusters=3,
        apps_per_cluster=3,
        n_cs=4,
        rho=9.0,
        jitter=0.05,
        seed=17,
    )


def _make_network(sim, topology, latency, backend: str, **kw):
    """The transport for ``backend`` (same constructor signature): the
    compiled network picks the route per send, a plain Network always
    delivers through Message objects."""
    if backend == "compiled":
        from repro.compile import CompiledNetwork

        return CompiledNetwork(sim, topology, latency, **kw)
    return Network(sim, topology, latency, **kw)


def run_reference(config: ExperimentConfig):
    """The plain-network reference for ``run_experiment(config)``.

    The runner's own wiring, but on a plain :class:`Network`, so every
    message travels as a :class:`~repro.net.message.Message` through the
    plain send/deliver pipeline."""
    config.validate()
    sim = Simulator(seed=config.seed, tie_seed=config.tie_seed)
    topology, latency = build_platform(config)
    if config.batch_jitter:
        latency.enable_batched_jitter()
    net = Network(sim, topology, latency, fifo=config.fifo)
    return runner._run_on(config, sim, net)


def _attach_obs(sim, net, obs: str, app_nodes=None, coordinator_nodes=()):
    """Attach an observability layer when ``obs != "off"``.

    Mirrors the experiment runner's wiring so the transparency property
    exercises exactly what figure runs with ``config.obs`` set would."""
    if obs == "off":
        return None
    return ObservabilityLayer(
        sim, net, level=obs,
        app_nodes=app_nodes, coordinator_nodes=coordinator_nodes,
    )


def run_fault_free(
    algo: str, system: str, obs: str = "off", backend: str = "interpreted",
):
    """Run one fault-free cell with a digest attached.

    Returns ``(hexdigest, cs_count, total_messages)``.
    """
    config = fault_free_config(algo, system)
    sim = Simulator(seed=config.seed)
    digest = RunDigest(sim)
    topology, latency = build_platform(config)
    net = _make_network(sim, topology, latency, backend, fifo=config.fifo)
    system_obj = build_system(sim, net, topology, config)
    _attach_obs(
        sim, net, obs,
        app_nodes=system_obj.app_nodes,
        coordinator_nodes=tuple(
            c.node for c in getattr(system_obj, "coordinators", ())
        ),
    )

    remaining = {"count": len(system_obj.app_nodes)}

    def app_done(_app) -> None:
        remaining["count"] -= 1
        if remaining["count"] == 0:
            sim.stop()

    apps, collector = deploy_workload(
        system_obj,
        alpha_ms=config.alpha_ms,
        rho=config.rho,
        n_cs=config.n_cs,
        distribution=config.distribution,
        on_done=app_done,
    )
    sim.run(until=config.default_deadline())
    unfinished = [a.name for a in apps if not a.done]
    assert not unfinished, f"{algo}/{system}: unfinished apps {unfinished}"
    return digest.hexdigest, collector.cs_count, net.stats.total


def _drive(sim, peer, served, cycles, hold_ms=2.0, gap_ms=4.0):
    state = {"left": cycles}

    def step_release():
        peer.release_cs()
        state["left"] -= 1
        if state["left"] > 0:
            sim.schedule(gap_ms, peer.request_cs)

    def on_granted():
        served.append((sim.now, peer.node))
        sim.schedule(hold_ms, step_release)

    peer.on_granted.append(on_granted)
    peer.request_cs()


def run_crash(
    algo: str, system: str, seed: int = 11, cycles: int = 2,
    obs: str = "off", backend: str = "interpreted",
):
    """Run one crash cell (in-CS holder / coordinator death) with a digest.

    Returns ``(hexdigest, cs_served, total_messages)``.
    """
    sim = Simulator(seed=seed)
    digest = RunDigest(sim)
    crashes = CrashController(sim)
    if system == "flat":
        n = 4
        topo = uniform_topology(1, n)
        net = _make_network(
            sim, topo,
            TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.0),
            backend, crashes=crashes,
        )
        cls = get_algorithm(algo).peer_class
        peers = [
            cls(sim, net, i, list(range(n)), "flat", initial_holder=0)
            for i in range(n)
        ]
        for p in peers:
            crashes.bind(p.node, p)
        InstanceRecovery(
            sim, net, crashes, peers, config=RECOVERY,
            metrics=MetricsCollector(),
        )
        _attach_obs(sim, net, obs, app_nodes=range(n))
        peers[0].request_cs()  # the initial holder enters synchronously
        crashes.schedule_crash(5.0, 0)
        served: list = []
        for k, p in enumerate(peers[1:]):
            sim.schedule_at(10.0 + k, _drive, sim, p, served, cycles)
        sim.run(until=5000.0)
        expected = (n - 1) * cycles
    else:
        topo = uniform_topology(2, 4)
        net = _make_network(
            sim, topo,
            TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.0),
            backend, crashes=crashes,
        )
        comp = Composition(
            sim, net, topo, intra=algo, inter="naimi", standbys=1
        )
        CompositionRecovery(
            sim, net, crashes, comp, config=RECOVERY,
            metrics=MetricsCollector(),
        )
        _attach_obs(
            sim, net, obs,
            app_nodes=comp.app_nodes,
            coordinator_nodes=tuple(c.node for c in comp.coordinators),
        )
        served = []
        apps = [comp.peer_for(node) for node in comp.app_nodes]
        # The first app camps in the CS long enough for its coordinator to
        # die mid-CS; everyone then wants the global lock.
        sim.schedule_at(0.0, _drive, sim, apps[0], served, cycles, 60.0)
        crashes.schedule_crash(20.0, comp.coordinators[0].node)
        for k, peer in enumerate(apps[1:]):
            sim.schedule_at(30.0 + 2 * k, _drive, sim, peer, served, cycles)
        sim.run(until=10_000.0)
        expected = len(apps) * cycles
    assert len(served) == expected, (
        f"{algo}/{system}/crash: served {len(served)}/{expected}"
    )
    return digest.hexdigest, len(served), net.stats.total


def run_cell(
    algo: str, system: str, fault: str, obs: str = "off",
    backend: str = "interpreted",
):
    """Dispatch one matrix cell; returns ``(hexdigest, cs, messages)``."""
    if fault == "crash":
        return run_crash(algo, system, obs=obs, backend=backend)
    return run_fault_free(algo, system, obs=obs, backend=backend)


def compute_matrix(obs: str = "off", backend: str = "interpreted"):
    """Every cell of the matrix: ``{(algo, system, fault): (digest, cs, msgs)}``."""
    return {
        (algo, system, fault): run_cell(
            algo, system, fault, obs=obs, backend=backend,
        )
        for algo in ALGOS
        for system in SYSTEMS
        for fault in FAULTS
    }


if __name__ == "__main__":  # golden-digest generator
    print("GOLDEN_DIGESTS = {")
    for key, (hexd, cs, msgs) in sorted(compute_matrix().items()):
        print(f"    {key!r}:")
        print(f'        ("{hexd}",')
        print(f"         {cs}, {msgs}),")
    print("}")
