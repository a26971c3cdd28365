"""Network equivalence: the compiled network must be bit-identical.

Every experiment run sends over the compiled network, which delivers
peer-to-peer traffic on its Message-free table route whenever it can.
Its acceptance gate is *behavioural invisibility*: every cell of the
golden scenario matrix — {naimi, suzuki, martin} x {flat, composition} x
{fault-free, crash} — plus the multilevel, adaptive and FIFO
configurations must produce the identical
:class:`~repro.verify.digest.RunDigest` (or, for the runner-level
systems, an identical :class:`ExperimentResult`) as the same run on the
reference, a plain :class:`~repro.net.Network`.

A property test additionally pins the scheduling invariant the table
route relies on: per-link FIFO — two messages on the same (src, dst)
link dispatch in send order (equal due times fall back to the strictly
increasing schedule sequence).
"""

import heapq
import random

import pytest

from repro.compile import CompiledNetwork
from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.mutex.naimi_trehel import NaimiTrehelPeer
from repro.net import TwoTierLatency, uniform_topology
from repro.sim import Simulator

from .digest_scenarios import ALGOS, FAULTS, SYSTEMS, run_cell, run_reference

MATRIX_CELLS = [
    (algo, system, fault)
    for algo in ALGOS for system in SYSTEMS for fault in FAULTS
]


@pytest.mark.parametrize(
    "algo,system,fault",
    MATRIX_CELLS,
    ids=[f"{a}-{s}-{f}" for a, s, f in MATRIX_CELLS],
)
def test_matrix_cell_backends_bit_identical(algo, system, fault):
    interpreted = run_cell(algo, system, fault, backend="interpreted")
    compiled = run_cell(algo, system, fault, backend="compiled")
    assert compiled == interpreted, (
        f"{algo}/{system}/{fault}: compiled digest diverged"
    )


# --------------------------------------------------------------------- #
# runner-level systems the matrix does not cover
# --------------------------------------------------------------------- #
def _result_fingerprint(result):
    return (
        result.name,
        result.cs_count,
        result.total_messages,
        result.inter_cluster_messages,
        result.intra_cluster_messages,
        result.total_bytes,
        result.inter_cluster_bytes,
        result.sim_time_ms,
        result.obtaining,
        result.per_cluster,
    )


def _both_backends(config):
    """(interpreted reference, default run_experiment path) fingerprints."""
    return (
        _result_fingerprint(run_reference(config)),
        _result_fingerprint(run_experiment(config)),
    )


def test_multilevel_backend_equivalence():
    config = ExperimentConfig(
        system="multilevel",
        algorithms=("suzuki", "naimi"),
        hierarchy=tuple(range(4)),
        platform="two-tier",
        n_clusters=4,
        apps_per_cluster=2,
        n_cs=4,
        rho=8.0,
        seed=5,
    )
    interpreted, compiled = _both_backends(config)
    assert compiled == interpreted


def test_adaptive_backend_equivalence():
    config = ExperimentConfig(
        system="adaptive",
        intra="naimi",
        inter="naimi",
        platform="grid5000",
        n_clusters=3,
        apps_per_cluster=2,
        n_cs=4,
        rho=6.0,
        seed=9,
    )
    interpreted, compiled = _both_backends(config)
    assert compiled == interpreted


def test_fifo_flow_backend_equivalence():
    # FIFO flows force the plain per-flow queue; the compiled network
    # must refuse its fast routes and still match exactly.
    config = ExperimentConfig(
        platform="two-tier",
        n_clusters=3,
        apps_per_cluster=2,
        n_cs=3,
        rho=6.0,
        fifo=True,
        seed=2,
    )
    interpreted, compiled = _both_backends(config)
    assert compiled == interpreted


# --------------------------------------------------------------------- #
# per-link FIFO property of the fused dispatch
# --------------------------------------------------------------------- #
def _fast_flat_naimi(n_clusters=2, nodes_per_cluster=2):
    sim = Simulator(seed=0)
    topo = uniform_topology(n_clusters, nodes_per_cluster)
    net = CompiledNetwork(
        sim, topo,
        TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.0),
    )
    n = topo.n_nodes
    peers = [
        NaimiTrehelPeer(sim, net, i, list(range(n)), "flat", initial_holder=0)
        for i in range(n)
    ]
    return sim, net, peers


@pytest.mark.parametrize("seed", range(6))
def test_compiled_dispatch_preserves_per_link_fifo(seed):
    """Messages on one (src, dst) link dispatch in send order.

    Sends are interleaved randomly across four links (mixing LAN and
    WAN latencies) from the same instant, so same-link deliveries share
    a due time and the ordering rests entirely on the schedule sequence
    tie-break — the invariant the fused send path must preserve.
    """
    rng = random.Random(seed)
    sim, net, peers = _fast_flat_naimi()
    links = [(0, 1), (2, 1), (3, 1), (0, 2)]
    sent = {link: [] for link in links}

    def burst():
        # The table route serves sends made while the kernel runs.
        for k in range(80):
            src, dst = rng.choice(links)
            net.fast_send(src, dst, "flat", "request", {"origin": k}, 64)
            sent[(src, dst)].append(k)
        sim.stop()  # leave the deliveries pending for inspection

    sim.schedule(0.0, burst)
    sim.run()
    assert net._pending_stats  # proves the table route was taken
    arrivals = {link: [] for link in links}
    heap = sim._heap[:]  # a copy preserves the heap invariant
    while heap:
        _due, _seq, event = heapq.heappop(heap)
        receiver, src, payload = event.args
        arrivals[(src, receiver.node)].append(payload["origin"])
    for link in links:
        assert arrivals[link] == sent[link], f"link {link} reordered"
