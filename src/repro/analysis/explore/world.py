"""Controlled-scheduler world for the bounded model checker.

A :class:`World` builds one of the repo's real mutex systems — the very
same :class:`~repro.core.composition.Composition` / ``FlatMutex`` classes
the simulator runs, unmodified — on top of a :class:`ControlledTransport`
whose delivery interception hands every sent message to the explorer
instead of the latency model.  The explorer then owns the schedule: the
only sources of nondeterminism are the *actions* it chooses to fire,

* ``("request", n)`` — application node ``n`` calls ``request_cs``,
* ``("release", n)`` — node ``n`` leaves its critical section,
* ``("deliver", src, dst, port)`` — deliver the FIFO head of one flow,
* ``("crash", n)`` — crash-stop node ``n`` (at most once per run),
* ``("recover",)`` — membership reset + replay over the survivors,

and every handler runs synchronously to quiescence (``drain_current``)
before the next action, so a world state is exactly one point of the
protocol's reachable interleaving space.

States are summarised by :meth:`World.fingerprint` — the canonical tuple
of every peer's :meth:`~repro.mutex.base.MutexPeer.fingerprint`, every
coordinator automaton state, the pending message queues and the remaining
CS budgets — and hashed with :meth:`World.digest` for deduplication.
"""

from __future__ import annotations

import dataclasses
import hashlib
import numbers
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from ...errors import ReproError
from ...core.composition import Composition, FlatMutex, MutexSystem
from ...mutex.base import MutexPeer, PeerState
from ...net.latency import ConstantLatency
from ...net.message import Message
from ...net.network import Network
from ...net.topology import uniform_topology
from ...sim.kernel import Simulator

__all__ = [
    "Action",
    "ControlledTransport",
    "ExplorationError",
    "ExploreScope",
    "World",
]

#: An explorer action — one of the tuples documented in the module
#: docstring.  Hashable and totally ordered within each action kind, so
#: enabled sets, sleep sets and schedules are all deterministic.
Action = Tuple

#: A directed message flow: ``(src, dst, port)``.  Per-flow FIFO order is
#: the faithful model of the simulator's jitter-free runs (equal
#: latencies preserve per-link send order).
Flow = Tuple[int, int, str]

_SYSTEMS = ("flat", "composition")


class ExplorationError(ReproError):
    """The explorer was driven outside its supported envelope."""


@dataclasses.dataclass(frozen=True)
class ExploreScope:
    """One model-checking cell: a system configuration plus bounds.

    The checker is *bounded*: each application node performs at most
    ``requests_per_node`` critical sections.  Within that bound the
    exploration is exhaustive over every admissible interleaving of
    message deliveries and CS requests/releases.
    """

    system: str = "composition"
    intra: str = "naimi"
    inter: str = "naimi"
    n_clusters: int = 2
    nodes_per_cluster: int = 2
    requests_per_node: int = 1
    #: Restrict the requesting workload to these application nodes
    #: (None = every app node requests).  Non-requesters still relay
    #: messages; the knob tunes per-cell interleaving width.
    requesters: Optional[Tuple[int, ...]] = None
    #: Deliver flows in per-link FIFO order (one enabled action per
    #: flow).  Switching this off explores reorderings within a link —
    #: outside the simulator's jitter-free semantics, and incompatible
    #: with sleep-set reduction (the explorer forces full expansion).
    fifo_flows: bool = True
    #: Crash-stop this node (once, at any point of the schedule); a
    #: single ``("recover",)`` action becomes available afterwards.
    crash_node: Optional[int] = None
    #: Override peer construction (mutant fixtures).  Implies ``flat``
    #: system, and disables reduction + the static send-envelope check
    #: (the mutant is invisible to static analysis).
    peer_factory: Optional[Callable] = None
    label: str = ""

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        if self.system not in _SYSTEMS:
            raise ExplorationError(f"unknown system {self.system!r}")
        if self.n_clusters < 1 or self.nodes_per_cluster < 2:
            raise ExplorationError(
                "need >= 1 cluster of >= 2 nodes (coordinator slot + app)"
            )
        if self.requests_per_node < 1:
            raise ExplorationError("requests_per_node must be >= 1")
        if self.peer_factory is not None:
            if self.system != "flat":
                raise ExplorationError("peer_factory requires system='flat'")
            if self.crash_node is not None:
                raise ExplorationError("peer_factory cells cannot crash")
        if self.crash_node is not None and self.system != "flat":
            raise ExplorationError(
                "crash cells are supported for the flat system only "
                "(coordinator failover is driven by repro.core.recovery "
                "controllers, outside the explorer's synchronous envelope)"
            )

    def describe(self) -> str:
        if self.label:
            return self.label
        algo = (
            self.intra
            if self.system == "flat"
            else f"{self.intra}-{self.inter}"
        )
        tag = f"{self.system}:{algo}:{self.n_clusters}x{self.nodes_per_cluster}"
        tag += f":r{self.requests_per_node}"
        if self.requesters is not None:
            tag += f":q{','.join(str(n) for n in self.requesters)}"
        if self.crash_node is not None:
            tag += f":crash{self.crash_node}"
        return tag

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d.pop("peer_factory")
        if self.peer_factory is not None:
            d["peer_factory"] = getattr(
                self.peer_factory, "__name__", repr(self.peer_factory)
            )
        return d


class ControlledTransport(Network):
    """A :class:`~repro.net.network.Network` whose deliveries are owned
    by the explorer (the interceptor is installed before the system is
    built, so no message ever reaches the latency model)."""


class World:
    """One live instance of a scoped system under explorer control."""

    def __init__(self, scope: ExploreScope) -> None:
        scope.validate()
        self.scope = scope
        self.sim = Simulator(seed=0)
        self.topology = uniform_topology(scope.n_clusters, scope.nodes_per_cluster)
        self.net = ControlledTransport(
            self.sim, self.topology, ConstantLatency(0.1),
        )
        #: pending[(src, dst, port)] -> FIFO queue of captured messages,
        #: paired with their canonical (kind, payload) form — computed
        #: once at capture so state fingerprinting is O(pending) lookups
        self.pending: Dict[Flow, Deque[Tuple[Message, Tuple]]] = {}
        self.lost = 0
        self.down: Set[int] = set()
        self.crash_used = False
        self.recover_used = False
        #: declared send envelope per port (kind set), None = unchecked
        self._envelopes: Optional[Dict[str, frozenset]] = None
        self.net.set_delivery_intercept(self._capture)

        self.system: MutexSystem
        if scope.system == "composition":
            self.system = Composition(
                self.sim, self.net, self.topology,
                intra=scope.intra, inter=scope.inter,
            )
        else:
            self.system = FlatMutex(
                self.sim, self.net, self.topology,
                algorithm=scope.intra,
                peer_factory=scope.peer_factory,
                name=(None if scope.peer_factory is None else scope.label or None),
            )
        self._collect_peers()
        self.app_nodes: Tuple[int, ...] = self.system.app_nodes
        if scope.crash_node is not None and scope.crash_node not in self.app_nodes:
            raise ExplorationError(
                f"crash_node {scope.crash_node} is not an application node "
                f"{self.app_nodes}"
            )
        requesters = (
            self.app_nodes
            if scope.requesters is None
            else tuple(scope.requesters)
        )
        if not set(requesters) <= set(self.app_nodes):
            raise ExplorationError(
                f"requesters {requesters} not all application nodes "
                f"{self.app_nodes}"
            )
        self.budget: Dict[int, int] = {
            n: (scope.requests_per_node if n in requesters else 0)
            for n in self.app_nodes
        }
        self._drain()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _collect_peers(self) -> None:
        peers: List[MutexPeer] = []
        self.port_members: Dict[str, Tuple[str, Tuple[int, ...]]] = {}
        if isinstance(self.system, Composition):
            for ci, instance in enumerate(self.system.intra_instances):
                peers.extend(instance)
                self.port_members[f"intra/{ci}"] = (
                    self.system.intra_name,
                    self.topology.cluster_nodes(ci),
                )
            peers.extend(self.system.inter_peers)
            self.port_members["inter"] = (
                self.system.inter_name,
                self.topology.coordinator_nodes,
            )
            self.coordinators = list(self.system.coordinators)
            self.coordinator_nodes = frozenset(
                c.lower.node for c in self.coordinators
            )
        else:
            assert isinstance(self.system, FlatMutex)
            peers = [self.system.peer_for(n) for n in self.system.app_nodes]
            self.port_members["flat"] = (
                self.system.algorithm_name,
                self.system.app_nodes,
            )
            self.coordinators = []
            self.coordinator_nodes = frozenset()
        self.peers: List[MutexPeer] = sorted(
            peers, key=lambda p: (p.port, p.node)
        )

    # ------------------------------------------------------------------ #
    # message capture
    # ------------------------------------------------------------------ #
    def set_envelopes(self, envelopes: Dict[str, frozenset]) -> None:
        """Arm the static send-envelope check: every captured message
        kind must appear in its port's declared send graph (from
        :mod:`repro.analysis.effects`)."""
        self._envelopes = envelopes

    def _capture(self, msg: Message) -> None:
        if self._envelopes is not None:
            allowed = self._envelopes.get(msg.port)
            if allowed is not None and msg.kind not in allowed:
                raise ExplorationError(
                    f"message kind {msg.kind!r} on port {msg.port!r} is "
                    f"outside the declared send envelope {sorted(allowed)}"
                )
        if msg.dst in self.down:
            self.lost += 1
            return
        flow = (msg.src, msg.dst, msg.port)
        canonical = (msg.kind, _canon(msg.payload))
        self.pending.setdefault(flow, deque()).append((msg, canonical))

    def _drain(self) -> None:
        self.sim.drain_current()
        if self.sim.pending:
            raise ExplorationError(
                "future-scheduled kernel events (timers?) are outside the "
                "explorer's synchronous envelope; disable retry timers at "
                "explore scope"
            )

    # ------------------------------------------------------------------ #
    # enabled actions
    # ------------------------------------------------------------------ #
    def enabled(self) -> List[Action]:
        acts: List[Action] = []
        for n in self.app_nodes:
            if n in self.down:
                continue
            peer = self.system.peer_for(n)
            if peer.state is PeerState.NO_REQ and self.budget[n] > 0:
                acts.append(("request", n))
            elif peer.in_cs:
                acts.append(("release", n))
        for flow in sorted(self.pending):
            queue = self.pending[flow]
            if not queue:
                continue
            if self.scope.fifo_flows:
                acts.append(("deliver", *flow))
            else:
                acts.extend(("deliver", *flow, i) for i in range(len(queue)))
        if self.scope.crash_node is not None and not self.crash_used:
            acts.append(("crash", self.scope.crash_node))
        if self.down and not self.recover_used:
            acts.append(("recover",))
        return acts

    # ------------------------------------------------------------------ #
    # applying actions
    # ------------------------------------------------------------------ #
    def apply(self, action: Action) -> None:
        kind = action[0]
        if kind == "request":
            node = action[1]
            if node in self.down or self.budget.get(node, 0) <= 0:
                raise ExplorationError(f"request not enabled at node {node}")
            self.budget[node] -= 1
            self.system.peer_for(node).request_cs()
        elif kind == "release":
            self.system.peer_for(action[1]).release_cs()
        elif kind == "deliver":
            flow = (action[1], action[2], action[3])
            queue = self.pending.get(flow)
            if not queue:
                raise ExplorationError(f"no pending message on flow {flow}")
            index = action[4] if len(action) > 4 else 0
            msg = queue[index][0]
            del queue[index]
            if not queue:
                del self.pending[flow]
            self.net.deliver_intercepted(msg)
        elif kind == "crash":
            self._crash(action[1])
        elif kind == "recover":
            self._recover()
        else:
            raise ExplorationError(f"unknown action {action!r}")
        self._drain()

    def _crash(self, node: int) -> None:
        if self.crash_used or node in self.down:
            raise ExplorationError(f"crash not enabled at node {node}")
        self.crash_used = True
        self.down.add(node)
        for flow in [f for f in self.pending if f[1] == node]:
            self.lost += len(self.pending[flow])
            del self.pending[flow]

    def _recover(self) -> None:
        """Membership reset over the survivors (the flat-system recovery
        path from :mod:`repro.core.recovery`): drop the crashed epoch's
        in-flight messages, re-seat the token via ``elect_holder`` +
        the per-algorithm resetter, then replay every surviving
        requester through the unmodified ``_do_request`` path."""
        from ...core.recovery import _RESETTERS, elect_holder

        if not self.down or self.recover_used:
            raise ExplorationError("recover not enabled")
        algorithm = self.port_members["flat"][0]
        resetter = _RESETTERS.get(algorithm)
        if resetter is None:
            raise ExplorationError(
                f"no membership resetter for algorithm {algorithm!r}"
            )
        self.recover_used = True
        # Epoch fence: recovery assumes the old epoch's messages are
        # gone (the controller quiesces before resetting; the explorer
        # models the fence as a drop of all in-flight messages).
        self.lost += sum(len(q) for q in self.pending.values())
        self.pending.clear()
        live = [p for p in self.peers if p.node not in self.down]
        elected = elect_holder(live)
        resetter(live, [p.node for p in live], elected.node)
        for peer in live:
            if peer.state is PeerState.REQ:
                peer._do_request()

    # ------------------------------------------------------------------ #
    # observations
    # ------------------------------------------------------------------ #
    def live_app_peers(self) -> List[MutexPeer]:
        return [
            self.system.peer_for(n)
            for n in self.app_nodes
            if n not in self.down
        ]

    def cs_nodes(self) -> Tuple[int, ...]:
        return tuple(p.node for p in self.live_app_peers() if p.in_cs)

    def req_nodes(self) -> Tuple[int, ...]:
        return tuple(
            p.node for p in self.live_app_peers() if p.state is PeerState.REQ
        )

    # ------------------------------------------------------------------ #
    # canonical state fingerprint
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> Tuple:
        parts: List[Tuple] = [
            (peer.port, _canon(peer.fingerprint())) for peer in self.peers
        ]
        parts.extend(
            ("coordinator", c.lower.node, c.state.name)
            for c in self.coordinators
        )
        flows = tuple(
            (flow, tuple(canonical for _m, canonical in self.pending[flow]))
            for flow in sorted(self.pending)
            if self.pending[flow]
        )
        parts.append(("pending", flows))
        parts.append(("budget", tuple(sorted(self.budget.items()))))
        parts.append(
            ("faults", tuple(sorted(self.down)), self.crash_used, self.recover_used)
        )
        return tuple(parts)

    def digest(self) -> str:
        blob = repr(self.fingerprint()).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _canon(value):
    """Canonicalise a payload/fingerprint value: numeric subclasses
    become Python ints/floats, containers become sorted tuples."""
    # Exact-type fast paths first: fingerprints are overwhelmingly
    # plain ints/bools/strings/tuples and this function is the hottest
    # spot of the whole exploration.
    kind = type(value)
    if kind is int or kind is bool or kind is str or value is None:
        return value
    if kind is float:
        return value
    if kind is tuple or kind is list:
        return tuple(_canon(v) for v in value)
    if kind is dict:
        return tuple(sorted((_canon(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, dict):
        return tuple(sorted((_canon(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, deque)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_canon(v) for v in value))
    raise ExplorationError(
        f"cannot canonicalise payload value of type {type(value).__name__}"
    )
