"""Unit tests for the application process driver."""

import pytest

from repro.core import Composition
from repro.errors import ConfigurationError
from repro.metrics import MetricsCollector
from repro.net import ConstantLatency, Network, uniform_topology
from repro.sim import Simulator
from repro.workload import ApplicationProcess, deploy_workload


def single_cluster_system(n_apps=3, seed=0):
    sim = Simulator(seed=seed)
    topo = uniform_topology(1, n_apps + 1)
    net = Network(sim, topo, ConstantLatency(0.1))
    comp = Composition(sim, net, topo, intra="naimi", inter="naimi")
    return sim, topo, comp


def test_app_completes_configured_cs_count():
    sim, topo, comp = single_cluster_system(n_apps=1)
    collector = MetricsCollector()
    app = ApplicationProcess(
        comp.peer_for(1), cluster=0, alpha_ms=2.0, beta_ms=1.0, n_cs=5,
        collector=collector, distribution="fixed",
    )
    sim.run()
    assert app.done
    assert app.completed == 5
    assert collector.cs_count == 5


def test_fixed_distribution_timing():
    sim, topo, comp = single_cluster_system(n_apps=1)
    collector = MetricsCollector()
    ApplicationProcess(
        comp.peer_for(1), cluster=0, alpha_ms=2.0, beta_ms=10.0, n_cs=2,
        collector=collector, distribution="fixed",
    )
    sim.run()
    recs = collector.records
    assert recs[0].requested_at == pytest.approx(10.0)
    assert recs[0].cs_duration == pytest.approx(2.0)
    # Second think phase starts at release.
    assert recs[1].requested_at == pytest.approx(recs[0].released_at + 10.0)


def test_exponential_think_times_vary_but_average_beta():
    sim, topo, comp = single_cluster_system(n_apps=1, seed=7)
    collector = MetricsCollector()
    ApplicationProcess(
        comp.peer_for(1), cluster=0, alpha_ms=0.5, beta_ms=20.0, n_cs=200,
        collector=collector,
    )
    sim.run()
    recs = collector.records
    gaps = [
        recs[i + 1].requested_at - recs[i].released_at
        for i in range(len(recs) - 1)
    ]
    assert min(gaps) != max(gaps)
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap == pytest.approx(20.0, rel=0.25)


def test_obtaining_time_recorded_consistently():
    sim, topo, comp = single_cluster_system(n_apps=2)
    collector = MetricsCollector()
    for node in (1, 2):
        ApplicationProcess(
            comp.peer_for(node), cluster=0, alpha_ms=5.0, beta_ms=2.0,
            n_cs=4, collector=collector, distribution="fixed",
        )
    sim.run()
    assert collector.cs_count == 8
    for r in collector.records:
        assert r.obtaining_time >= 0.0
        assert r.cs_duration == pytest.approx(5.0)


def test_on_done_callback_and_zero_cs():
    sim, topo, comp = single_cluster_system(n_apps=2)
    done = []
    collector = MetricsCollector()
    ApplicationProcess(
        comp.peer_for(1), cluster=0, alpha_ms=1.0, beta_ms=1.0, n_cs=2,
        collector=collector, distribution="fixed", on_done=done.append,
    )
    ApplicationProcess(
        comp.peer_for(2), cluster=0, alpha_ms=1.0, beta_ms=1.0, n_cs=0,
        collector=collector, on_done=done.append,
    )
    assert len(done) == 1  # n_cs=0 finishes immediately
    sim.run()
    assert len(done) == 2


def test_parameter_validation():
    sim, topo, comp = single_cluster_system()
    collector = MetricsCollector()
    peer = comp.peer_for(1)
    with pytest.raises(ConfigurationError):
        ApplicationProcess(peer, 0, alpha_ms=0.0, beta_ms=1.0, n_cs=1,
                           collector=collector)
    with pytest.raises(ConfigurationError):
        ApplicationProcess(peer, 0, alpha_ms=1.0, beta_ms=-1.0, n_cs=1,
                           collector=collector)
    with pytest.raises(ConfigurationError):
        ApplicationProcess(peer, 0, alpha_ms=1.0, beta_ms=1.0, n_cs=-1,
                           collector=collector)
    with pytest.raises(ConfigurationError):
        ApplicationProcess(peer, 0, alpha_ms=1.0, beta_ms=1.0, n_cs=1,
                           collector=collector, distribution="weird")


def test_deploy_workload_covers_all_app_nodes():
    sim, topo, comp = single_cluster_system(n_apps=3)
    apps, collector = deploy_workload(
        comp, alpha_ms=1.0, rho=2.0, n_cs=3, distribution="fixed"
    )
    assert len(apps) == 3
    assert {a.peer.node for a in apps} == set(comp.app_nodes)
    sim.run()
    assert collector.cs_count == 9
    assert all(a.done for a in apps)


def test_deployed_apps_hold_no_timer_handles():
    # Every α/β timer is armed handle-free: no EventHandle, no tracking
    # list per application process at set-up (or later).
    sim, topo, comp = single_cluster_system(n_apps=3)
    apps, _ = deploy_workload(comp, alpha_ms=2.0, rho=3.0, n_cs=2)
    assert all(app._timers == () for app in apps)
    sim.run()
    assert all(app.done and app._timers == () for app in apps)


def test_event_subscribers_see_app_timer_labels():
    sim, topo, comp = single_cluster_system(n_apps=1)
    labels = []
    sim.trace.subscribe("event", lambda rec: labels.append(rec.label))
    apps, _ = deploy_workload(comp, alpha_ms=2.0, rho=3.0, n_cs=2)
    sim.run()
    assert apps[0].done
    app_labels = [label for label in labels if label.startswith("app@")]
    assert app_labels == [
        "app@1.first", "app@1.cs", "app@1.think", "app@1.cs",
    ]
