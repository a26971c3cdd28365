"""Unit tests for the handler tables, the route the compiled network
picks per send, and its deferred statistics."""

from pathlib import Path

import pytest

from repro.analysis.effects import (
    extract_algorithm_effects,
    find_algorithm_classes,
)
from repro.compile import CompiledNetwork, compile_system
from repro.core.composition import Composition, FlatMutex
from repro.errors import NetworkError
from repro.experiments import ExperimentConfig, runner
from repro.experiments.runner import build_platform, build_system
from repro.mutex import NaimiTrehelPeer, available_algorithms
from repro.mutex.base import handler_table
from repro.net import (
    CrashController,
    FaultInjector,
    Network,
    TwoTierLatency,
    uniform_topology,
)
from repro.sim import Simulator
from repro.workload import deploy_workload

ALGORITHMS = sorted(available_algorithms())


# --------------------------------------------------------------------- #
# tables
# --------------------------------------------------------------------- #
def test_dispatch_table_mirrors_getattr_protocol():
    for name, info in available_algorithms().items():
        cls = info.peer_class
        table = handler_table(cls)
        assert table, f"{name}: empty handler table"
        for kind, fn in table.items():
            assert fn is getattr(cls, f"_on_{kind}")
        # the dispatcher itself must never appear as a kind
        assert "message" not in table


def test_table_conformance_against_declared_envelopes():
    # The statically extracted handled-kind set of every algorithm (the
    # envelope the conformance checks and the model checker use) is
    # exactly the kind set its runtime handler table dispatches.
    import repro.mutex

    mutex_dir = Path(repro.mutex.__file__).resolve().parent
    declared = find_algorithm_classes(sorted(mutex_dir.glob("*.py")))
    for name, info in available_algorithms().items():
        path, cls_node = declared[name]
        envelope = extract_algorithm_effects(path, cls_node).handled_kinds
        assert set(handler_table(info.peer_class)) == envelope, name


# --------------------------------------------------------------------- #
# route choice
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


def _system_peers(system):
    if isinstance(system, Composition):
        return [p for inst in system.intra_instances for p in inst] + list(
            system.inter_peers
        )
    return [system.peer_for(n) for n in system.app_nodes]


def _run_small(net_kw=None, algorithm="naimi", system="flat", before=None):
    """Run a small workload; returns (net, system)."""
    sim = Simulator(seed=4)
    topo = uniform_topology(2, 3)
    kw = dict(net_kw or {})
    if kw.pop("crash", False):
        kw["crashes"] = CrashController(sim)
    net = CompiledNetwork(
        sim, topo, TwoTierLatency(topo, lan_ms=0.5, wan_ms=5.0, jitter=0.0),
        **kw,
    )
    if before is not None:
        before(sim, net)
    if system == "flat":
        built = FlatMutex(sim, net, topo, algorithm=algorithm)
    else:
        built = Composition(sim, net, topo, intra=algorithm, inter="naimi")
    apps, _ = deploy_workload(built, alpha_ms=2.0, rho=2.0, n_cs=3)
    sim.run(until=100_000.0)
    assert all(a.done for a in apps)
    return net, built


@pytest.mark.parametrize("system", ["flat", "composition"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_algorithm_takes_the_table_route(algorithm, system):
    net, built = _run_small(algorithm=algorithm, system=system)
    # the table route buffers its statistics; the Message path does not
    assert net._pending_stats
    for peer in _system_peers(built):
        route = net._route_for(peer.node, peer.port)
        assert route is not None and route.peer is peer
        assert route.table is handler_table(type(peer))


def _tap(sim, net):
    net.add_send_tap(lambda msg: None)


def _deliver_subscriber(sim, net):
    sim.trace.subscribe("deliver", lambda rec: None)


@pytest.mark.parametrize(
    "net_kw,before",
    [
        ({"crash": True}, None),
        ({"faults": FaultInjector()}, None),
        ({"fifo": True}, None),
        ({}, _tap),
        ({}, _deliver_subscriber),
    ],
    ids=["crash", "fault", "fifo", "tap", "deliver-subscriber"],
)
def test_refusing_networks_take_the_message_path(net_kw, before):
    net, built = _run_small(net_kw, before=before)
    assert not net._pending_stats
    assert net.stats.total > 0


def _drop_scenario(net_cls, unregister: bool):
    """A flat Naimi peer requests from the idle root (its request goes
    out through ``fast_send``), optionally unregistering the root while
    the request is in flight; returns ``(root, requester)``."""
    sim = Simulator(seed=0)
    topo = uniform_topology(1, 4)
    net = net_cls(
        sim, topo, TwoTierLatency(topo, lan_ms=0.5, wan_ms=5.0, jitter=0.0)
    )
    flat = FlatMutex(sim, net, topo, algorithm="naimi")
    root = flat.peer_for(flat.app_nodes[0])
    requester = flat.peer_for(flat.app_nodes[1])
    assert root.holds_token
    sim.schedule(0.0, requester.request_cs)
    if unregister:
        sim.schedule(0.0, net.unregister, root.node, "flat")
    sim.run()
    return root, requester


@pytest.mark.parametrize("net_cls", [Network, CompiledNetwork])
def test_fast_send_delivery_is_dropped_after_unregister(net_cls):
    # Control: delivered, the request makes the idle root hand over the
    # token and the requester enters.
    root, requester = _drop_scenario(net_cls, unregister=False)
    assert not root.holds_token and requester.in_cs
    # Unregistered in flight, the delivery is dropped: the handler never
    # runs, the (detached) root keeps its token, the requester waits.
    root, requester = _drop_scenario(net_cls, unregister=True)
    assert root.holds_token and requester.state.name == "REQ"


def test_wrap_handler_refuses_while_table_deliveries_are_in_flight():
    sim = Simulator(seed=0)
    topo = uniform_topology(1, 3)
    net = CompiledNetwork(sim, topo, TwoTierLatency(topo, jitter=0.0))
    peers = [
        NaimiTrehelPeer(sim, net, i, (0, 1, 2), "flat", initial_holder=0)
        for i in range(3)
    ]

    def burst():
        peers[1].request_cs()  # the request to the root is in flight
        sim.stop()

    sim.schedule(0.0, burst)
    sim.run()
    with pytest.raises(NetworkError, match="in flight"):
        net.wrap_handler(0, "flat", lambda inner: inner)
    net.wrap_handler(2, "flat", lambda inner: inner)  # nothing in flight
    sim.run()
    assert peers[1].in_cs  # the request was delivered


def test_set_up_sends_take_the_message_path():
    # Coordinators of a permission-based lower level send during set-up;
    # a wrapper attached before the run must see those deliveries.
    sim = Simulator(seed=0)
    topology, latency = build_platform(SMALL)
    net = CompiledNetwork(sim, topology, latency)
    system = build_system(
        sim, net, topology, SMALL.with_(intra="ricart-agrawala")
    )
    seen = []

    def wrap(inner):
        def observed(msg):
            seen.append(msg.kind)
            inner(msg)
        return observed

    for node, port in net.addresses():
        net.wrap_handler(node, port, wrap)
    sim.run()
    assert "request" in seen and "reply" in seen
    assert all(c.state.name == "OUT" for c in system.coordinators)


def test_sends_between_runs_take_the_message_path():
    sim = Simulator(seed=0)
    topo = uniform_topology(1, 4)
    net = CompiledNetwork(sim, topo, TwoTierLatency(topo, jitter=0.0))
    flat = FlatMutex(sim, net, topo, algorithm="naimi")
    first, second = flat.peer_for(2), flat.peer_for(3)
    sim.schedule(0.0, first.request_cs)
    sim.run()  # first's request travelled on the table route
    assert first.in_cs and net._pending_stats
    target = second.last
    second.request_cs()  # after run() returned: a Message
    seen = []

    def wrap(inner):
        def observed(msg):
            seen.append((msg.src, msg.kind))
            inner(msg)
        return observed

    net.wrap_handler(target, "flat", wrap)
    sim.run()
    assert seen == [(second.node, "request")]


def test_run_experiment_takes_the_fast_path(monkeypatch):
    built = {}

    def capture(deploy):
        def wrapped(system, **kwargs):
            apps, collector = deploy(system, **kwargs)
            # counted before the run's teardown detaches everything
            built.update(
                net=system.net,
                report=compile_system(system.net, system, apps),
            )
            return apps, collector
        return wrapped

    monkeypatch.setattr(
        runner, "deploy_workload", capture(runner.deploy_workload)
    )
    runner.run_experiment(SMALL.with_(n_cs=2))
    assert isinstance(built["net"], CompiledNetwork)
    assert built["report"] == {
        "peers": 2 * 3 + 2,  # two intra instances of 3, one inter of 2
        "coordinators": 2,
        "apps": 4,
    }


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
