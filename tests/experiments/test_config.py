"""Unit tests for experiment configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig


def test_defaults_match_paper():
    cfg = ExperimentConfig()
    cfg.validate()
    assert cfg.n_apps == 180
    assert cfg.alpha_ms == 10.0
    assert cfg.n_cs == 100
    assert cfg.platform == "grid5000"
    assert cfg.nodes_per_cluster == 21  # 20 apps + coordinator slot


def test_rho_over_n():
    cfg = ExperimentConfig(rho=360.0)
    assert cfg.rho_over_n == pytest.approx(2.0)


def test_with_copies():
    cfg = ExperimentConfig()
    other = cfg.with_(rho=90.0, intra="martin")
    assert other.rho == 90.0 and other.intra == "martin"
    assert cfg.rho == 180.0  # original untouched


def test_reserved_slots():
    assert ExperimentConfig(system="flat").reserved_slots == 1
    assert ExperimentConfig(system="composition").reserved_slots == 1
    ml = ExperimentConfig(
        system="multilevel",
        algorithms=("naimi", "naimi", "martin"),
        hierarchy=((0, 1), (2, 3)),
        n_clusters=4,
    )
    assert ml.reserved_slots == 2
    assert ml.nodes_per_cluster == 22


def test_default_deadline_scales_with_workload():
    small = ExperimentConfig(apps_per_cluster=2, n_cs=5)
    large = ExperimentConfig(apps_per_cluster=20, n_cs=100)
    assert large.default_deadline() > small.default_deadline()


@pytest.mark.parametrize(
    "changes",
    [
        {"system": "nonsense"},
        {"platform": "ethernet"},
        {"intra": "unknown-algo"},
        {"inter": "unknown-algo"},
        {"system": "multilevel", "algorithms": ("naimi",)},
        {"system": "multilevel", "algorithms": ("naimi", "naimi")},  # no hierarchy
        {"platform": "grid5000", "n_clusters": 10},
        {"n_clusters": 0},
        {"apps_per_cluster": 0},
        {"alpha_ms": 0.0},
        {"rho": 0.0},
        {"n_cs": 0},
        {"distribution": "pareto"},
        {"obs": "verbose"},
        {"jitter": -0.3},
    ],
)
def test_validation_rejects(changes):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**changes).validate()


def test_describe():
    assert "naimi-martin" in ExperimentConfig(inter="martin").describe()
    assert "(flat)" in ExperimentConfig(system="flat").describe()
    assert ExperimentConfig(label="custom").describe() == "custom"
    ml = ExperimentConfig(
        system="multilevel",
        algorithms=("naimi", "martin"),
        hierarchy=(0,),
        n_clusters=1,
    )
    assert "naimi/martin" in ml.describe()
