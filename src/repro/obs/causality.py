"""Vector-clock causality over the unmodified algorithms.

The recorder interposes at the :class:`~repro.net.network.Network`
boundary only — a send tap on the outbound side and
:meth:`~repro.net.network.Network.wrap_handler` on the inbound side — so
**no algorithm changes** are needed, mirroring the composition's own
non-intrusive contract.  Clock state is kept entirely out-of-band (a side
table keyed by the network's delivery sequence number); message payloads
are never touched, which is why an instrumented run stays bit-identical
to a bare one (see ``tests/properties/test_observer_transparency.py``).

Clock protocol (Lamport happens-before, vector form; PAPERS.md:
Lamport 1978 and Mattern/Fidge):

* each *node* carries one vector clock (one component per node — the
  node granularity deliberately links a coordinator's intra and inter
  traffic, which is exactly the causal bridge the critical-path walker
  needs);
* on send: tick the sender's own component, stamp the message with a
  copy of the sender's clock;
* on delivery: merge the stamp into the receiver's clock (pointwise
  max), then tick the receiver's own component.

An event *e* with stamp ``V`` is causally after an event at node ``n``
whose send counter was ``r`` iff ``V[n] >= r`` — the single-component
test the critical-path walker uses to separate "this message exists
because of our request" from concurrent traffic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..net.message import Message
from ..net.network import Handler, Network
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecord

__all__ = ["DeliveryRecord", "CSWait", "CausalityRecorder", "is_app_cs_port"]


def is_app_cs_port(port: str) -> bool:
    """Whether ``port`` carries application-facing critical sections
    (the intra level of a composition, or a flat instance) — the same
    scoping rule the safety checker and the experiment runner use."""
    return port.startswith("intra") or port == "flat"


class DeliveryRecord:
    """One delivered message hop, with its sender-side vector stamp.

    ``stamp`` is ``None`` when the send predates the recorder (or was a
    fault-injected duplicate): the hop is still timed, just causally
    opaque.
    """

    __slots__ = (
        "seq", "src", "dst", "port", "kind",
        "sent_at", "delivered_at", "size", "stamp",
    )

    def __init__(
        self,
        seq: int,
        src: int,
        dst: int,
        port: str,
        kind: str,
        sent_at: float,
        delivered_at: float,
        size: int,
        stamp: Optional[Tuple[int, ...]],
    ) -> None:
        self.seq = seq
        self.src = src
        self.dst = dst
        self.port = port
        self.kind = kind
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        self.size = size
        self.stamp = stamp

    @property
    def latency(self) -> float:
        return self.delivered_at - self.sent_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DeliveryRecord {self.kind} {self.src}->{self.dst} "
            f"port={self.port} t={self.sent_at:.3f}->{self.delivered_at:.3f}>"
        )


class CSWait:
    """One application CS acquisition: request to grant, with the causal
    request mark ``req_mark`` (the requester's send counter at request
    time: any stamp whose requester component reaches it is causally
    after this request)."""

    __slots__ = ("node", "port", "requested_at", "granted_at", "req_mark")

    def __init__(
        self,
        node: int,
        port: str,
        requested_at: float,
        granted_at: float,
        req_mark: int,
    ) -> None:
        self.node = node
        self.port = port
        self.requested_at = requested_at
        self.granted_at = granted_at
        self.req_mark = req_mark

    @property
    def obtaining_time(self) -> float:
        return self.granted_at - self.requested_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CSWait node={self.node} req={self.requested_at:.3f} "
            f"grant={self.granted_at:.3f}>"
        )


class CausalityRecorder:
    """Stamps vector clocks onto every message and records every hop.

    Parameters
    ----------
    sim, net:
        Kernel and transport.  Attaching wraps every currently
        registered handler and hooks future registrations, so late
        joiners (e.g. peers rebuilt by the recovery layer) are covered
        too.
    app_nodes:
        Nodes whose CS requests/grants on application ports are tracked
        as :class:`CSWait` entries (``None`` = every node).
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        app_nodes=None,
    ) -> None:
        self.sim = sim
        self.net = net
        n = net.topology.n_nodes
        #: one vector clock per node
        self.clocks: List[List[int]] = [[0] * n for _ in range(n)]
        self._apps = None if app_nodes is None else frozenset(app_nodes)
        self._in_flight: Dict[int, Tuple[int, ...]] = {}
        #: per-destination-node hop log, in delivery order
        self.deliveries: List[List[DeliveryRecord]] = [[] for _ in range(n)]
        #: parallel delivered_at lists (bisect keys for the path walker)
        self.delivery_times: List[List[float]] = [[] for _ in range(n)]
        #: completed application CS waits, in grant order
        self.waits: List[CSWait] = []
        #: application CS occupancy spans (node, enter, exit)
        self.occupancy: List[Tuple[int, float, float]] = []
        self.sends = 0
        self._open_requests: Dict[Tuple[int, str], Tuple[float, int]] = {}
        self._open_cs: Dict[Tuple[int, str], float] = {}
        net.add_send_tap(self._on_send)
        net.add_register_hook(self._on_register)
        for node, port in net.addresses():
            net.wrap_handler(node, port, self._wrap)
        self._detach_trace = sim.trace.attach({
            "cs_request": self._on_cs_request,
            "cs_enter": self._on_cs_enter,
            "cs_exit": self._on_cs_exit,
        })
        self._attached = True

    def detach(self) -> None:
        """Stop observing new traffic (recorded data stays readable).

        Wrapped handlers stay in place but become pass-through; the send
        tap, register hook and trace subscriptions are removed."""
        if not self._attached:
            return
        self._attached = False
        self.net.remove_send_tap(self._on_send)
        self.net.remove_register_hook(self._on_register)
        self._detach_trace()
        # The closure holds bound methods of self: drop the cycle.
        self._detach_trace = None

    # ------------------------------------------------------------------ #
    # network interposition
    # ------------------------------------------------------------------ #
    def _on_send(self, msg: Message) -> None:
        clock = self.clocks[msg.src]
        clock[msg.src] += 1
        self.sends += 1
        if msg.seq >= 0:  # dropped-by-fault messages are never delivered
            self._in_flight[msg.seq] = tuple(clock)

    def _on_register(self, node: int, port: str) -> None:
        self.net.wrap_handler(node, port, self._wrap)

    def _wrap(self, handler: Handler) -> Handler:
        recorder = self

        def observed(msg: Message) -> None:
            if recorder._attached:
                recorder._on_deliver(msg)
            handler(msg)

        return observed

    def _on_deliver(self, msg: Message) -> None:
        stamp = self._in_flight.pop(msg.seq, None)
        clock = self.clocks[msg.dst]
        if stamp is not None:
            for i, v in enumerate(stamp):
                if v > clock[i]:
                    clock[i] = v
        clock[msg.dst] += 1
        self.deliveries[msg.dst].append(
            DeliveryRecord(
                msg.seq, msg.src, msg.dst, msg.port, msg.kind,
                msg.sent_at, msg.delivered_at, msg.size, stamp,
            )
        )
        self.delivery_times[msg.dst].append(msg.delivered_at)

    # ------------------------------------------------------------------ #
    # application CS tracking (trace-level, like the safety checker)
    # ------------------------------------------------------------------ #
    def _tracked(self, rec: TraceRecord) -> bool:
        return is_app_cs_port(rec.port) and (
            self._apps is None or rec.node in self._apps
        )

    def _on_cs_request(self, rec: TraceRecord) -> None:
        if not self._tracked(rec):
            return
        # The request's own sends (if any) will tick the node's clock
        # next, so "causally after this request" == component >= mark.
        mark = self.clocks[rec.node][rec.node] + 1
        self._open_requests[(rec.node, rec.port)] = (rec.time, mark)

    def _on_cs_enter(self, rec: TraceRecord) -> None:
        if not self._tracked(rec):
            return
        opened = self._open_requests.pop((rec.node, rec.port), None)
        self._open_cs[(rec.node, rec.port)] = rec.time
        if opened is None:
            return  # grant without a tracked request (pre-attach)
        requested_at, mark = opened
        self.waits.append(
            CSWait(rec.node, rec.port, requested_at, rec.time, mark)
        )

    def _on_cs_exit(self, rec: TraceRecord) -> None:
        if not self._tracked(rec):
            return
        entered = self._open_cs.pop((rec.node, rec.port), None)
        if entered is not None:
            self.occupancy.append((rec.node, entered, rec.time))

    # ------------------------------------------------------------------ #
    # happens-before queries (used by the property tests)
    # ------------------------------------------------------------------ #
    @staticmethod
    def stamp_less(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
        """Strict vector-clock order: ``a`` happens-before ``b``."""
        return all(x <= y for x, y in zip(a, b)) and a != b

    def all_deliveries(self) -> List[DeliveryRecord]:
        """Every recorded hop, in global delivery order."""
        merged = [rec for per_node in self.deliveries for rec in per_node]
        merged.sort(key=lambda r: (r.delivered_at, r.seq))
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        hops = sum(len(d) for d in self.deliveries)
        return (
            f"<CausalityRecorder sends={self.sends} hops={hops} "
            f"waits={len(self.waits)}>"
        )
