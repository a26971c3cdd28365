"""Unit tests for the experiment runner."""

import pytest

from repro.errors import LivenessViolation
from repro.experiments import (
    ExperimentConfig,
    run_composition,
    run_experiment,
    run_flat,
    run_many,
)

QUICK = dict(n_clusters=3, apps_per_cluster=2, n_cs=4)


def test_run_experiment_composition():
    cfg = ExperimentConfig(intra="naimi", inter="martin", rho=6.0, **QUICK)
    r = run_experiment(cfg)
    assert r.name == "naimi-martin"
    assert r.cs_count == 6 * 4
    assert r.obtaining.count == r.cs_count
    assert r.total_messages > 0
    assert r.inter_cluster_messages > 0
    assert r.total_bytes >= r.total_messages * 64
    assert r.sim_time_ms > 0
    assert set(r.per_cluster) == {0, 1, 2}


def test_run_experiment_flat():
    cfg = ExperimentConfig(system="flat", intra="suzuki", rho=6.0, **QUICK)
    r = run_experiment(cfg)
    assert r.name == "suzuki (flat)"
    assert r.cs_count == 24


def test_determinism_same_seed():
    cfg = ExperimentConfig(rho=12.0, seed=3, **QUICK)
    a, b = run_experiment(cfg), run_experiment(cfg)
    assert a.obtaining.mean == b.obtaining.mean
    assert a.total_messages == b.total_messages
    assert a.sim_time_ms == b.sim_time_ms


def test_different_seeds_differ():
    cfg = ExperimentConfig(rho=12.0, **QUICK)
    a = run_experiment(cfg.with_(seed=0))
    b = run_experiment(cfg.with_(seed=1))
    assert a.obtaining.mean != b.obtaining.mean


def test_derived_metrics():
    cfg = ExperimentConfig(rho=6.0, **QUICK)
    r = run_experiment(cfg)
    assert r.inter_messages_per_cs == pytest.approx(
        r.inter_cluster_messages / r.cs_count
    )
    assert r.messages_per_cs == pytest.approx(r.total_messages / r.cs_count)


def test_run_many_pools_runs():
    cfg = ExperimentConfig(rho=6.0, **QUICK)
    agg = run_many(cfg, seeds=(0, 1, 2))
    assert len(agg.runs) == 3
    assert agg.cs_count == 3 * 24
    assert agg.obtaining.count == agg.cs_count
    means = [r.obtaining.mean for r in agg.runs]
    assert min(means) <= agg.obtaining.mean <= max(means)


def test_run_many_requires_seeds():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_many(ExperimentConfig(rho=6.0, **QUICK), seeds=())


def test_deadline_triggers_liveness_error():
    cfg = ExperimentConfig(rho=6.0, deadline_ms=1.0, **QUICK)
    with pytest.raises(LivenessViolation):
        run_experiment(cfg)


def test_front_door_helpers():
    r = run_composition(intra="naimi", inter="suzuki", rho=6.0, **QUICK)
    assert r.name == "naimi-suzuki"
    r = run_flat(algorithm="martin", rho=6.0, **QUICK)
    assert r.name == "martin (flat)"


def test_lazy_top_level_reexport():
    import repro

    assert repro.run_composition is run_composition
    with pytest.raises(AttributeError):
        repro.does_not_exist


def test_two_tier_and_random_platforms():
    for platform in ("two-tier", "random-wan"):
        cfg = ExperimentConfig(platform=platform, rho=6.0, **QUICK)
        r = run_experiment(cfg)
        assert r.cs_count == 24


def test_fifo_and_jitter_options_run():
    cfg = ExperimentConfig(rho=6.0, jitter=0.3, fifo=True, **QUICK)
    r = run_experiment(cfg)
    assert r.cs_count == 24


def test_large_runs_use_bounded_collector(monkeypatch):
    # Lower the threshold instead of running a real 1024-app grid.
    import repro.experiments.runner as runner

    captured = {}
    real = runner.deploy_workload

    def spy(system, **kw):
        captured["collector"] = kw.get("collector")
        return real(system, **kw)

    monkeypatch.setattr(runner, "deploy_workload", spy)
    cfg = ExperimentConfig(rho=6.0, **QUICK)
    small = run_experiment(cfg)
    assert captured["collector"] is None

    monkeypatch.setattr(runner, "LARGE_GRID_NODES", cfg.n_apps)
    from repro.metrics import BoundedMetricsCollector

    bounded = run_experiment(cfg)
    assert isinstance(captured["collector"], BoundedMetricsCollector)
    assert bounded.cs_count == small.cs_count
    assert bounded.total_messages == small.total_messages
    assert bounded.obtaining.mean == pytest.approx(
        small.obtaining.mean, rel=1e-12
    )


@pytest.mark.parametrize(
    "changes",
    [
        {},
        {"system": "flat"},
        {"system": "adaptive"},
        {"system": "multilevel", "algorithms": ("suzuki", "naimi"),
         "hierarchy": (0, 1, 2)},
        {"fifo": True},
        {"obs": "trace"},
    ],
    ids=["composition", "flat", "adaptive", "multilevel", "fifo", "obs"],
)
def test_finished_run_is_freed_without_the_cyclic_collector(
    monkeypatch, changes
):
    # Processes, kernel, network and coordinators reference each other
    # through bound-method callbacks; the run must break those cycles
    # itself, or every full collection of later runs walks the world.
    import gc
    import weakref

    from repro.experiments import runner
    from repro.sim import Simulator

    sims = []

    class Recorded(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(weakref.ref(self))

    monkeypatch.setattr(runner, "Simulator", Recorded)
    cfg = ExperimentConfig(rho=6.0, **QUICK).with_(**changes)
    gc.collect()
    gc.disable()
    try:
        run_experiment(cfg)
        assert len(sims) == 1
        assert sims[0]() is None, "the run's Simulator outlived the run"
    finally:
        gc.enable()
