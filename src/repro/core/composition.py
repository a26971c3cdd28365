"""Assembly of the two-level composition (paper §3) and the flat
baseline, behind a common :class:`MutexSystem` interface.

The application layer only ever sees ``system.peer_for(node)`` — a
:class:`~repro.mutex.base.MutexPeer` to call ``request_cs`` /
``release_cs`` on.  Whether that peer belongs to a flat system-wide
instance or to the intra level of a hierarchy is invisible to it, which
is exactly the transparency the paper claims for the approach.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Tuple

from ..errors import CompositionError
from ..mutex.base import MutexPeer
from ..mutex.registry import get_algorithm
from ..net.network import Network
from ..net.topology import GridTopology
from ..sim.kernel import Simulator
from .coordinator import Coordinator

__all__ = ["MutexSystem", "Composition", "FlatMutex"]


class MutexSystem(ABC):
    """A deployed mutual exclusion service over a grid topology.

    Concrete systems: :class:`FlatMutex` (one instance spanning every
    application node — the paper's "original algorithm") and
    :class:`Composition` (the paper's contribution).
    """

    def __init__(self, sim: Simulator, net: Network, topology: GridTopology):
        self.sim = sim
        self.net = net
        self.topology = topology

    @property
    @abstractmethod
    def name(self) -> str:
        """Display name, e.g. ``"naimi-martin"`` or ``"naimi (flat)"``."""

    @property
    @abstractmethod
    def app_nodes(self) -> Tuple[int, ...]:
        """Nodes hosting application processes.

        By convention the first node of every cluster is the coordinator
        slot and never hosts an application process — also in the flat
        baseline, so both systems serve identical app populations."""

    @abstractmethod
    def peer_for(self, node: int) -> MutexPeer:
        """The mutex peer an application process on ``node`` must use."""

    def close(self) -> None:
        """Break the cycles between this system's coordinators and peers
        so a finished run is freed by reference counting.  The system
        is unusable afterwards."""
        for coordinator in getattr(self, "coordinators", ()):
            coordinator.close()


def _split_cluster_nodes(topology: GridTopology, ci: int) -> Tuple[int, Tuple[int, ...]]:
    """(coordinator node, application nodes) of cluster ``ci``."""
    nodes = topology.cluster_nodes(ci)
    if len(nodes) < 2:
        raise CompositionError(
            f"cluster {ci} has {len(nodes)} node(s); need at least 2 "
            "(one coordinator slot + one application node)"
        )
    return nodes[0], nodes[1:]


class Composition(MutexSystem):
    """The paper's two-level hierarchy: one *intra* algorithm instance per
    cluster plus one *inter* instance over the per-cluster coordinators.

    Parameters
    ----------
    intra, inter:
        Algorithm names (see :mod:`repro.mutex.registry`).  Any
        registered algorithm can be plugged in at either level — the
        paper's "Intra-Inter" notation, e.g. ``Composition(..., intra=
        "naimi", inter="martin")`` is the paper's "Naimi-Martin".
    inter_initial_cluster:
        Cluster whose coordinator initially stores the (idle) inter token.
    standbys:
        Number of nodes per cluster reserved (after the coordinator
        slot) as *standby* application-process hosts for coordinator
        failover (:mod:`repro.core.recovery`).  A standby participates
        in its cluster's intra instance but hosts no application
        process, so it can take over as coordinator without first
        draining an application workload.  Default 0 — no node is
        reserved and the composition behaves exactly as before.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        topology: GridTopology,
        intra: str = "naimi",
        inter: str = "naimi",
        inter_initial_cluster: int = 0,
        standbys: int = 0,
    ) -> None:
        super().__init__(sim, net, topology)
        self.intra_name = get_algorithm(intra).name
        self.inter_name = get_algorithm(inter).name
        intra_cls = get_algorithm(intra).peer_class
        inter_cls = get_algorithm(inter).peer_class
        if not 0 <= inter_initial_cluster < topology.n_clusters:
            raise CompositionError(
                f"inter_initial_cluster {inter_initial_cluster} out of range"
            )
        if standbys < 0:
            raise CompositionError(f"standbys must be >= 0, got {standbys}")

        self._app_peers: Dict[int, MutexPeer] = {}
        self.intra_instances: List[List[MutexPeer]] = []
        #: per-cluster list of unused standby nodes (consumed by failover)
        self.standby_nodes: Dict[int, List[int]] = {}
        coord_lower: List[MutexPeer] = []
        coord_nodes: List[int] = []
        for ci in range(topology.n_clusters):
            coord_node, app_nodes = _split_cluster_nodes(topology, ci)
            if len(app_nodes) <= standbys:
                raise CompositionError(
                    f"cluster {ci} has {len(app_nodes)} non-coordinator "
                    f"node(s); need more than standbys={standbys} to keep "
                    "at least one application node"
                )
            self.standby_nodes[ci] = list(app_nodes[:standbys])
            reserved = set(self.standby_nodes[ci])
            cluster_nodes = topology.cluster_nodes(ci)
            port = f"intra/{ci}"
            instance: List[MutexPeer] = []
            for node in cluster_nodes:
                peer = intra_cls(
                    sim, net, node, cluster_nodes, port,
                    initial_holder=coord_node,
                )
                instance.append(peer)
                if node != coord_node and node not in reserved:
                    self._app_peers[node] = peer
            self.intra_instances.append(instance)
            coord_lower.append(instance[0])
            coord_nodes.append(coord_node)

        inter_holder = coord_nodes[inter_initial_cluster]
        # One shared tuple: every inter peer interns the same peer table.
        inter_peer_set = tuple(coord_nodes)
        self.inter_peers: List[MutexPeer] = [
            inter_cls(
                sim, net, node, inter_peer_set, "inter",
                initial_holder=inter_holder,
            )
            for node in coord_nodes
        ]
        self.coordinators: List[Coordinator] = [
            Coordinator(sim, lower, upper)
            for lower, upper in zip(coord_lower, self.inter_peers)
        ]

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return f"{self.intra_name}-{self.inter_name}"

    @property
    def app_nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._app_peers))

    def peer_for(self, node: int) -> MutexPeer:
        try:
            return self._app_peers[node]
        except KeyError:
            raise CompositionError(
                f"node {node} hosts no application peer (coordinator slot?)"
            ) from None

    def coordinator_for(self, cluster_index: int) -> Coordinator:
        """The coordinator of the cluster at ``cluster_index``."""
        return self.coordinators[cluster_index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Composition {self.name} clusters={self.topology.n_clusters} "
            f"apps={len(self._app_peers)}>"
        )


class FlatMutex(MutexSystem):
    """The paper's baseline: one algorithm instance spanning every
    application node, blind to the cluster structure ("original
    algorithm" in Fig 4).

    ``peer_factory`` overrides registry-based construction — it is
    called as ``factory(sim, net, node, peers, port, initial_holder=h)``
    per node, allowing per-peer configuration (e.g. a stateful
    scheduling policy for :class:`~repro.mutex.PriorityNaimiPeer`).
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        topology: GridTopology,
        algorithm: str = "naimi",
        initial_cluster: int = 0,
        peer_factory=None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, net, topology)
        if peer_factory is None:
            self.algorithm_name = get_algorithm(algorithm).name
            peer_factory = get_algorithm(algorithm).peer_class
        else:
            self.algorithm_name = name or algorithm
        app_list: List[int] = []
        for ci in range(topology.n_clusters):
            _, cluster_apps = _split_cluster_nodes(topology, ci)
            app_list.extend(cluster_apps)
        # One shared tuple: every flat peer interns the same peer table
        # (an O(N) copy per peer would make construction O(N^2)).
        app_nodes = tuple(app_list)
        holder = topology.cluster_nodes(initial_cluster)[1]
        self._app_peers: Dict[int, MutexPeer] = {
            node: peer_factory(
                sim, net, node, app_nodes, "flat", initial_holder=holder
            )
            for node in app_nodes
        }

    @property
    def name(self) -> str:
        return f"{self.algorithm_name} (flat)"

    @property
    def app_nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._app_peers))

    def peer_for(self, node: int) -> MutexPeer:
        try:
            return self._app_peers[node]
        except KeyError:
            raise CompositionError(f"node {node} hosts no application peer") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlatMutex {self.name} apps={len(self._app_peers)}>"
