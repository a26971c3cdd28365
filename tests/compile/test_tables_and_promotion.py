"""Unit tests for the compiled tables, the fast-class choice and the
deferred statistics."""

from repro.compile import (
    CompiledApplicationProcess,
    CompiledNetwork,
    check_table_conformance,
    compile_system,
    compiled_peer_registry,
    dispatch_table,
    fast_table,
)
from repro.compile.peers import CompiledCoordinator
from repro.experiments import ExperimentConfig, runner
from repro.experiments.runner import build_platform, build_system
from repro.net import CrashController, Network, TwoTierLatency, uniform_topology
from repro.sim import Simulator
from repro.workload import ApplicationProcess, deploy_workload


# --------------------------------------------------------------------- #
# tables
# --------------------------------------------------------------------- #
def test_dispatch_table_mirrors_getattr_protocol():
    for _name, base, compiled in compiled_peer_registry():
        for cls in (base, compiled):
            table = dispatch_table(cls)
            assert table, f"{cls.__name__}: empty dispatch table"
            for kind, fn in table.items():
                assert fn is getattr(cls, f"_on_{kind}")
            # the dispatcher itself must never appear as a kind
            assert "message" not in table


def test_fast_tables_cover_every_kind():
    for name, base, compiled in compiled_peer_registry():
        fast = fast_table(compiled)
        assert fast is not None, f"{name}: incomplete fast table"
        assert set(fast) == set(dispatch_table(base))


def test_base_classes_have_no_fast_table():
    # An interpreted peer class must never be table-dispatched onto the
    # single-frame path.
    for _name, base, _compiled in compiled_peer_registry():
        assert fast_table(base) is None


def test_table_conformance_against_declared_envelopes():
    assert check_table_conformance() == []


# --------------------------------------------------------------------- #
# fast-class choice
# --------------------------------------------------------------------- #
SMALL = ExperimentConfig(
    platform="two-tier", n_clusters=2, apps_per_cluster=2,
    n_cs=1, rho=4.0, seed=0,
)


def _composition(backend_net, before_build=None, **net_kw):
    sim = Simulator(seed=0)
    topology, latency = build_platform(SMALL)
    net = backend_net(sim, topology, latency, **net_kw)
    if before_build is not None:
        before_build(sim, net)
    system = build_system(sim, net, topology, SMALL)
    return sim, net, system


NOTHING_FAST = {"peers": 0, "coordinators": 0, "apps": 0}


def test_promotion_promotes_peers_coordinators():
    sim, net, system = _composition(CompiledNetwork)
    report = compile_system(net, system, ())
    assert report["peers"] == sum(map(len, system.intra_instances)) + len(
        system.inter_peers
    )
    assert report["coordinators"] == len(system.coordinators)
    for coord in system.coordinators:
        assert type(coord) is CompiledCoordinator
        # the automaton callbacks run the fast class's handlers
        for fn in coord.lower.on_granted:
            if getattr(fn, "__self__", None) is coord:
                assert fn.__func__ is CompiledCoordinator._on_lower_granted


def test_promotion_refused_on_interpreted_network():
    sim, net, system = _composition(Network)
    assert compile_system(net, system, ()) == NOTHING_FAST


def test_promotion_refused_on_crash_network():
    sim = Simulator(seed=0)
    _, net, system = _composition(
        CompiledNetwork, crashes=CrashController(sim)
    )
    apps, _ = deploy_workload(system, alpha_ms=5.0, rho=4.0, n_cs=1)
    assert compile_system(net, system, apps) == NOTHING_FAST


def test_promotion_refused_with_send_tap():
    def tap(sim, net):
        net.add_send_tap(lambda msg: None)

    sim, net, system = _composition(CompiledNetwork, before_build=tap)
    apps, _ = deploy_workload(system, alpha_ms=5.0, rho=4.0, n_cs=1)
    assert compile_system(net, system, apps) == NOTHING_FAST


def test_event_subscriber_keeps_apps_interpreted():
    sim, net, system = _composition(CompiledNetwork)
    sim.trace.subscribe("event", lambda rec: None)
    apps, _collector = deploy_workload(
        system, alpha_ms=5.0, rho=4.0, n_cs=1
    )
    report = compile_system(net, system, apps)
    assert report["peers"] > 0  # peers emit no timer labels: still fine
    assert report["apps"] == 0  # timer labels are observable via "event"
    assert all(type(a) is ApplicationProcess for a in apps)


def test_exact_type_promotion_skips_subclasses():
    from repro.core.composition import FlatMutex
    from repro.mutex import PriorityNaimiPeer

    sim = Simulator(seed=0)
    topo = uniform_topology(2, 3)
    net = CompiledNetwork(
        sim, topo, TwoTierLatency(topo, lan_ms=0.5, wan_ms=5.0, jitter=0.0)
    )
    assert net.fast_class(PriorityNaimiPeer) is PriorityNaimiPeer
    flat = FlatMutex(sim, net, topo, algorithm="priority-naimi")
    assert compile_system(net, flat, ())["peers"] == 0
    assert all(
        type(flat.peer_for(n)) is PriorityNaimiPeer for n in flat.app_nodes
    )


def test_adaptive_composition_builds_interpreted_classes():
    # Adaptive switching rewires coordinators and unregisters the old
    # inter instance mid-run, which the fast classes do not support.
    sim = Simulator(seed=0)
    topology, latency = build_platform(SMALL)
    net = CompiledNetwork(sim, topology, latency)
    system = build_system(sim, net, topology, SMALL.with_(system="adaptive"))
    assert compile_system(net, system.base, ()) == NOTHING_FAST


def test_run_experiment_takes_the_fast_path(monkeypatch):
    built = {}

    def capture(deploy):
        def wrapped(system, **kwargs):
            apps, collector = deploy(system, **kwargs)
            built.update(system=system, apps=apps)
            return apps, collector
        return wrapped

    monkeypatch.setattr(
        runner, "deploy_workload", capture(runner.deploy_workload)
    )
    runner.run_experiment(SMALL.with_(n_cs=2))
    report = compile_system(None, built["system"], built["apps"])
    assert report == {
        "peers": 2 * 3 + 2,  # two intra instances of 3, one inter of 2
        "coordinators": 2,
        "apps": 4,
    }
    assert all(type(a) is CompiledApplicationProcess for a in built["apps"])


# --------------------------------------------------------------------- #
# deferred stats
# --------------------------------------------------------------------- #
def _run_with_probe(backend: str):
    """Run a small composition, sampling net.stats.total per cs_enter."""
    config = ExperimentConfig(
        platform="two-tier", n_clusters=2, apps_per_cluster=2,
        n_cs=3, rho=4.0, seed=3,
    )
    sim = Simulator(seed=config.seed)
    topology, latency = build_platform(config)
    if backend == "compiled":
        net = CompiledNetwork(sim, topology, latency)
    else:
        net = Network(sim, topology, latency)
    system = build_system(sim, net, topology, config)
    samples = []
    sim.trace.subscribe(
        "cs_enter", lambda rec: samples.append((rec.time, net.stats.total))
    )
    apps, _ = deploy_workload(system, alpha_ms=5.0, rho=4.0, n_cs=3)
    sim.run(until=60_000.0)
    assert all(a.done for a in apps)
    return samples, net.stats


def test_deferred_stats_flush_is_mid_run_invisible():
    # The compiled network defers per-send counter updates, flushing on
    # read; an observer sampling `stats.total` mid-run must see the
    # interpreted network's values at the same instants.
    interpreted_samples, interpreted_stats = _run_with_probe("interpreted")
    compiled_samples, compiled_stats = _run_with_probe("compiled")
    assert compiled_samples == interpreted_samples
    assert compiled_stats.total == interpreted_stats.total
    assert compiled_stats.by_kind == interpreted_stats.by_kind
    assert compiled_stats.by_port == interpreted_stats.by_port
    assert compiled_stats.inter_cluster == interpreted_stats.inter_cluster
    assert compiled_stats.bytes_total == interpreted_stats.bytes_total


def test_deferred_stats_buffer_is_bounded_by_cluster_pairs():
    # 2 clusters x 512 nodes: thousands of distinct node pairs exchange
    # messages, but the buffer may only grow with the cluster pairs.
    config = ExperimentConfig(
        platform="two-tier", n_clusters=2, apps_per_cluster=511,
        n_cs=2, rho=400.0, seed=1,
    )
    sim = Simulator(seed=config.seed)
    topology, latency = build_platform(config)
    assert topology.n_nodes >= 1024
    net = CompiledNetwork(sim, topology, latency)
    system = build_system(sim, net, topology, config)
    apps, _ = deploy_workload(
        system, alpha_ms=config.alpha_ms, rho=config.rho, n_cs=config.n_cs
    )
    sim.run(until=config.default_deadline())
    assert all(a.done for a in apps)
    n_keys = len(net._pending_stats)  # read before `stats` flushes it
    stats = net.stats
    n_sizes = 1  # every Naimi-Tréhel message has the default size
    c = topology.n_clusters
    bound = len(stats.by_port) * len(stats.by_kind) * n_sizes * (c * c + 1)
    assert 0 < n_keys <= bound
    assert stats.total > 10 * bound  # the buffer really absorbed traffic


# --------------------------------------------------------------------- #
# inline-latency tiers (dense vs block) and the fall-off log
# --------------------------------------------------------------------- #
def test_block_table_topologies_stay_on_inline_path():
    from repro.net.latency import _NODE_TABLE_MAX_NODES

    sim = Simulator(seed=0)
    topo = uniform_topology(10, (_NODE_TABLE_MAX_NODES // 10) + 1)
    net = CompiledNetwork(sim, topo, TwoTierLatency(topo, wan_ms=10.0))
    assert net._inline_latency
    assert net._lat_table is None  # dense tier skipped above the cap
    assert net._lat_ctab is not None  # block tier engaged instead


def test_custom_latency_falls_off_inline_path_with_log(caplog):
    import logging

    from repro.net.latency import ConstantLatency

    class Custom(ConstantLatency):
        def one_way(self, src, dst, rng):
            return 1.0

    sim = Simulator(seed=0)
    topo = uniform_topology(2, 2)
    with caplog.at_level(logging.INFO, logger="repro.compile.network"):
        net = CompiledNetwork(sim, topo, Custom(1.0))
    assert not net._inline_latency
    assert any("falls off" in r.message for r in caplog.records)
