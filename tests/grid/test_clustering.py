"""Unit tests for latency-derived hierarchy zones."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.grid import GRID5000_RTT_MS, GRID5000_SITES, derive_zones, zone_spread


def site(name):
    return GRID5000_SITES.index(name)


def test_zones_partition_sites():
    zones = derive_zones(GRID5000_RTT_MS, 3)
    flat = sorted(s for z in zones for s in z)
    assert flat == list(range(9))
    assert len(zones) == 3


def test_grid5000_close_pairs_land_together():
    # The two famously close pairs of the paper's matrix.
    zones = derive_zones(GRID5000_RTT_MS, 4)
    zone_of = {s: i for i, z in enumerate(zones) for s in z}
    assert zone_of[site("toulouse")] == zone_of[site("bordeaux")]  # 3.1 ms
    assert zone_of[site("grenoble")] == zone_of[site("lyon")]      # 3.3 ms


def test_extreme_zone_counts():
    assert derive_zones(GRID5000_RTT_MS, 1) == [list(range(9))]
    assert derive_zones(GRID5000_RTT_MS, 9) == [[i] for i in range(9)]


def test_zone_count_validation():
    with pytest.raises(TopologyError):
        derive_zones(GRID5000_RTT_MS, 0)
    with pytest.raises(TopologyError):
        derive_zones(GRID5000_RTT_MS, 10)
    with pytest.raises(TopologyError):
        derive_zones([[0.0, 1.0]], 1)  # not square


def test_zones_are_latency_coherent():
    zones = derive_zones(GRID5000_RTT_MS, 3)
    spread = zone_spread(GRID5000_RTT_MS, zones)
    assert spread["intra_mean_ms"] < spread["inter_mean_ms"]
    assert spread["separation"] > 1.0


def test_derived_zoning_beats_arbitrary_zoning():
    derived = derive_zones(GRID5000_RTT_MS, 3)
    arbitrary = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert (
        zone_spread(GRID5000_RTT_MS, derived)["separation"]
        > zone_spread(GRID5000_RTT_MS, arbitrary)["separation"]
    )


def test_zone_spread_validation():
    with pytest.raises(TopologyError):
        zone_spread(GRID5000_RTT_MS, [[0, 1], [1, 2]])  # overlap
    with pytest.raises(TopologyError):
        zone_spread(GRID5000_RTT_MS, [[0, 1, 2]])  # missing sites


def test_zone_spread_rejects_out_of_range_site():
    # Regression: site 9 does not exist in a 9-site matrix, but the
    # zoning still covers nine distinct indices — this used to escape
    # the coverage check and blow up as a KeyError mid-computation.
    zones = [[0, 1, 2], [3, 4, 5], [6, 7, 9]]
    with pytest.raises(TopologyError, match=r"site 9, outside 0\.\.8"):
        zone_spread(GRID5000_RTT_MS, zones)


def test_zone_spread_rejects_negative_site():
    zones = [[0, 1, 2], [3, 4, 5], [6, 7, -1]]
    with pytest.raises(TopologyError, match="site -1"):
        zone_spread(GRID5000_RTT_MS, zones)


def test_zone_spread_rejects_non_square_matrix():
    with pytest.raises(TopologyError, match="square"):
        zone_spread([[0.0, 1.0]], [[0, 1]])


def test_zones_feed_multilevel_composition():
    from repro.core import MultilevelComposition
    from repro.grid import grid5000_latency, grid5000_topology
    from repro.net import Network
    from repro.sim import Simulator
    from repro.workload import deploy_workload

    zones = derive_zones(GRID5000_RTT_MS, 3)
    sim = Simulator(seed=0)
    topo = grid5000_topology(nodes_per_cluster=3)  # 2 slots + 1 app
    net = Network(sim, topo, grid5000_latency(topo))
    ml = MultilevelComposition(
        sim, net, topo, zones, ["naimi", "naimi", "naimi"]
    )
    apps, collector = deploy_workload(ml, alpha_ms=5.0, rho=9.0, n_cs=4)
    sim.run(until=10_000_000.0)
    assert all(a.done for a in apps)
    assert collector.cs_count == len(apps) * 4


def test_symmetric_synthetic_matrix_two_blocks():
    # Two obvious latency islands.
    m = np.full((6, 6), 50.0)
    for block in ([0, 1, 2], [3, 4, 5]):
        for i in block:
            for j in block:
                m[i, j] = 2.0
    np.fill_diagonal(m, 0.0)
    assert derive_zones(m, 2) == [[0, 1, 2], [3, 4, 5]]


def test_importing_the_experiments_loads_no_scipy():
    # scipy is only needed by derive_zones; loading it with the package
    # roughly doubles the GC-tracked heap every run's collections scan.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, repro.experiments; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
