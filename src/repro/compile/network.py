"""The compiled transport: a fused send→schedule→dispatch fast path.

:class:`CompiledNetwork` is a drop-in :class:`~repro.net.network.Network`
whose hot path fuses, into one frame, what the plain pipeline does in
five (``send`` → ``stats.record`` → ``latency.one_way`` →
``_schedule_delivery`` → ``post_at``).

Equivalence is structural, not statistical: every inlined step
reproduces the plain network's code **exactly** — same statistics
counters, same trace records, same RNG draw sequence (local and
jitter-free sends draw nothing, exactly as ``one_way`` skips the draw),
same ``Message.seq`` and kernel ``seq`` consumption, same tie-salt
mixing — so a run's :class:`~repro.verify.digest.RunDigest` is
bit-identical to the same run on a plain network.  The golden matrix and
the digest corpus in ``tests/properties`` gate this.

The network picks the route per send:

* the **table route** (:meth:`CompiledNetwork.fast_send`, which every
  :class:`~repro.mutex.base.MutexPeer` sends through) skips the Message
  allocation entirely: the receiver's handler is looked up in its
  class's :func:`~repro.mutex.base.handler_table` at send time and the
  scheduled event *is* the dispatch — its callback is the
  ``_on_<kind>`` handler with ``(peer, src, payload)`` as arguments;
* the **fused send** (:meth:`CompiledNetwork.send`) carries any other
  traffic on a fault-free, FIFO-off, untapped network: it allocates the
  :class:`~repro.net.message.Message` so opaque handlers (recovery
  fences, observability wrappers, test hooks) see it, and delivery
  resolves the handler when the message lands.

Anything the fast routes cannot reproduce exactly — crash controllers,
fault injectors, per-flow FIFO, send taps, ``deliver`` subscribers,
batched jitter, latency models with overridden ``one_way`` — falls back
to the inherited plain code, which is equivalence by construction.
"""

from __future__ import annotations

import logging
from heapq import heappush
from typing import Any, Dict, List, Optional, Tuple

from ..errors import NetworkError
from ..mutex.base import MutexPeer, handler_table
from ..net.latency import LOCAL_DELIVERY_MS, MatrixLatency, TwoTierLatency
from ..net.message import DEFAULT_MESSAGE_SIZE, Message
from ..net.network import Network
from ..sim.event import Event
from ..sim.kernel import _mix64

__all__ = ["CompiledNetwork", "compile_system"]

logger = logging.getLogger(__name__)


def _dropped() -> None:
    """Callback of a table-route delivery whose receiver unregistered in
    flight: the delivery still fires (as the plain network's does) and
    does nothing, like a message to a closed UDP socket."""


class _Route:
    """One resolved ``(dst, port)`` delivery target.

    Dropped from the cache the moment the address is re-registered,
    unregistered or its handler wrapped, so every send resolves against
    the current registration."""

    __slots__ = ("peer", "table")

    def __init__(self, peer: MutexPeer, table: dict) -> None:
        self.peer = peer
        self.table = table


class CompiledNetwork(Network):
    """Table-driven :class:`~repro.net.network.Network` (see module doc)."""

    #: Deferred table-route counter buffer: ``(port, kind, size,
    #: src_cluster, dst_cluster) -> count``, folded into MessageStats at
    #: flush time; local sends use the cluster pair ``(-1, -1)``.  Every
    #: counter MessageStats keeps depends on a send only through these
    #: five fields, so the buffer is bounded by ports x kinds x sizes x
    #: (C^2 + 1) keys whatever the node count.  Class default ``None``
    #: keeps the :attr:`stats` property safe while the base constructor
    #: runs.
    _pending_stats: Optional[dict] = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pending_stats = {}
        # Immutable-for-the-run aliases: the kernel never rebinds its
        # heap (compaction mutates it in place) and the tie salt is set
        # once in Simulator.__init__.
        self._ev_heap = self.sim._heap
        self._salt = self.sim._tie_salt
        #: static for the network's lifetime: crash/fault/FIFO traffic
        #: must run the plain pipeline verbatim.
        self._slow = (
            self.crashes is not None
            or self.faults is not None
            or self.fifo
        )
        latency = self.latency
        # The latency inline is only exact for the stock table-backed
        # models; a subclass overriding one_way() keeps its own code.
        # Two inline tiers: the dense node-pair table below the 512-node
        # cap, or the O(N + C^2) cluster block table above it (same
        # float64 values, one extra index hop) — large grids no longer
        # fall off the compiled fast path.  The block tier indexes with
        # the network topology's cluster map (shared with the deferred
        # stats), so the model must map nodes to clusters the same way.
        self._n_nodes = self.topology.n_nodes
        self._cluster_of = self.topology._cluster_of
        one_way = type(latency).one_way
        self._inline_latency = one_way in (
            TwoTierLatency.one_way, MatrixLatency.one_way
        ) and latency._cluster_of == self._cluster_of
        if not self._inline_latency:
            logger.info(
                "latency model %s falls off the compiled inline fast "
                "path (no stock delay table over this topology); sends "
                "go through the model's one_way() per call",
                type(latency).__name__,
            )
        self._routes: Dict[Tuple[int, str], _Route] = {}
        # Table-route gate flags, snapshotted per tracer version so the
        # hot send pays one integer compare instead of re-testing the
        # subscriber sets and the tap tuple on every call.  A version of
        # -1 forces a refresh (tap mutations reset it below).
        self._flags_version = -1
        self._table_ok = False
        self._send_active = False
        # Static latency constants (the jitter sigma is fixed at model
        # construction; only the batch override is dynamic).
        if self._inline_latency:
            self._lat_table = latency._node_table
            self._lat_ctab = latency._cluster_table
            self._zero_jitter = latency._sigma <= 0.0
        else:
            self._lat_table = None
            self._lat_ctab = None
            self._zero_jitter = True

    def close(self) -> None:
        super().close()
        self._routes.clear()

    def _refresh_flags(self, trace) -> None:
        """Re-derive the table-route gate for the current tracer version."""
        active = trace.active_kinds
        self._table_ok = not (
            self._slow or self._send_taps or "deliver" in active
        )
        self._send_active = "send" in active
        self._flags_version = trace.version

    def add_send_tap(self, tap) -> None:
        super().add_send_tap(tap)
        self._flags_version = -1

    def remove_send_tap(self, tap) -> None:
        super().remove_send_tap(tap)
        self._flags_version = -1

    # ------------------------------------------------------------------ #
    # deferred statistics
    # ------------------------------------------------------------------ #
    # The table route buffers each send as one dict upsert and applies
    # the full `MessageStats.record` arithmetic lazily: every counter is
    # a plain sum, so replaying `n` equivalent sends in one step is
    # exact.  All reads go through the `stats` property, which
    # materialises the buffer first — so any observer (including one
    # called synchronously from a `send` trace record) sees the same
    # values the plain network would have at that instant.
    @property
    def stats(self):
        if self._pending_stats:
            self._flush_stats()
        return self._stats_obj

    @stats.setter
    def stats(self, value) -> None:
        self._stats_obj = value

    def _flush_stats(self) -> None:
        st = self._stats_obj
        pending = self._pending_stats
        self._pending_stats = {}
        for (port, kind, size, ci, cj), n in pending.items():
            st.total += n
            st.bytes_total += size * n
            st.by_port[port] += n
            st.by_kind[kind] += n
            if ci < 0:
                st.local += n
                continue
            st._matrix[ci][cj] += n
            if ci == cj:
                st.intra_cluster += n
            else:
                st.inter_cluster += n
                st.bytes_inter_cluster += size * n
                st.inter_by_port[port] += n

    # ------------------------------------------------------------------ #
    # route cache maintenance — every registration mutation invalidates
    # ------------------------------------------------------------------ #
    def register(self, node: int, port: str, handler) -> None:
        super().register(node, port, handler)
        self._routes.pop((node, port), None)

    def unregister(self, node: int, port: str) -> None:
        """Detach the handler; table-route deliveries already in flight
        to the address become drops, exactly as the Message path drops a
        message whose receiver is gone at delivery time."""
        super().unregister(node, port)
        route = self._routes.pop((node, port), None)
        if route is not None:
            for event in self._in_flight(route):
                event.callback = _dropped
                event.args = ()

    def wrap_handler(self, node: int, port: str, wrap) -> None:
        """Wrap the handler (see :meth:`Network.wrap_handler`).

        Table-route deliveries bypass handlers, so none may be in flight
        to the address: interpose outside a run, as the observability
        layer does (sends outside a run take the Message path), or on a
        network that routes everything through it (crash-enabled ones,
        as the recovery fence does)."""
        route = self._routes.get((node, port))
        if route is not None and any(True for _ in self._in_flight(route)):
            raise NetworkError(
                f"cannot wrap {(node, port)}: table-route deliveries to it "
                "are in flight"
            )
        super().wrap_handler(node, port, wrap)
        self._routes.pop((node, port), None)

    def _in_flight(self, route: _Route):
        """Pending table-route deliveries to ``route``'s peer."""
        peer = route.peer
        handlers = route.table.values()
        for entry in self._ev_heap:
            event = entry[2]
            args = event.args
            if (
                len(args) == 3
                and args[0] is peer
                and not event.cancelled
                and event.callback in handlers
            ):
                yield event

    def _route_for(self, dst: int, port: str) -> Optional[_Route]:
        """The table route to ``(dst, port)``, or ``None`` when the
        registered handler is not a peer's own ``_on_message`` (a wrapped
        or foreign handler must see a Message)."""
        key = (dst, port)
        route = self._routes.get(key)
        if route is not None:
            return route
        handler = self._handlers.get(key)
        if (
            handler is None
            or getattr(handler, "__func__", None) is not MutexPeer._on_message
        ):
            return None
        peer = handler.__self__
        route = _Route(peer, handler_table(type(peer)))
        self._routes[key] = route
        return route

    # ------------------------------------------------------------------ #
    # fused send (general traffic)
    # ------------------------------------------------------------------ #
    def send(
        self,
        src: int,
        dst: int,
        port: str,
        kind: str,
        payload: Optional[dict] = None,
        size: int = DEFAULT_MESSAGE_SIZE,
    ) -> Message:
        if self._slow or self._send_taps:
            return Network.send(self, src, dst, port, kind, payload, size)
        if (dst, port) not in self._handlers:
            raise NetworkError(f"no handler registered at ({dst}, {port!r})")
        if not 0 <= src < self._n_nodes:
            raise NetworkError(f"unknown source node {src}")
        msg = Message(src, dst, port, kind, payload, size)
        sim = self.sim
        now = sim._now
        msg.sent_at = now
        self._record_inline(src, dst, port, kind, size)
        trace = sim.trace
        if "send" in trace.active_kinds:
            trace.emit(
                "send", time=now, src=src, dst=dst, port=port,
                kind=kind, payload=msg.payload,
            )
        due = now + self._delay_inline(src, dst)
        msg.seq = self._seq
        self._seq += 1
        seq = sim._seq
        event = Event(due, seq, self._fast_deliver, (msg,))
        salt = sim._tie_salt
        if salt is not None:
            seq = _mix64(seq ^ salt)
        heappush(self._ev_heap, (due, seq, event))
        sim._seq += 1
        return msg

    def _record_inline(
        self, src: int, dst: int, port: str, kind: str, size: int
    ) -> None:
        """``MessageStats.record`` without the Message or the frame."""
        st = self.stats
        st.total += 1
        st.bytes_total += size
        st.by_port[port] += 1
        st.by_kind[kind] += 1
        if src == dst:
            st.local += 1
            return
        cluster_of = st._cluster_of
        ci = cluster_of[src]
        cj = cluster_of[dst]
        st._matrix[ci][cj] += 1
        if ci == cj:
            st.intra_cluster += 1
        else:
            st.inter_cluster += 1
            st.bytes_inter_cluster += size
            st.inter_by_port[port] += 1

    def _delay_inline(self, src: int, dst: int) -> float:
        """``latency.one_way`` with the table lookup and jitter constants
        inlined — identical values *and* identical RNG consumption."""
        latency = self.latency
        if not self._inline_latency or latency._batch is not None:
            return latency.one_way(src, dst, self._rng)
        if src == dst:
            return LOCAL_DELIVERY_MS  # no jitter draw, as in one_way
        table = self._lat_table
        if table is not None:
            base = table[src][dst]
        else:  # large grid: O(N + C^2) cluster block table
            cluster_of = self._cluster_of
            base = self._lat_ctab[cluster_of[src]][cluster_of[dst]]
        sigma = latency._sigma
        if sigma <= 0.0:
            return base
        return base * float(
            self._rng.lognormal(mean=latency._lognorm_mean, sigma=sigma)
        )

    # ------------------------------------------------------------------ #
    # delivery
    # ------------------------------------------------------------------ #
    def _fast_deliver(self, msg: Message) -> None:
        # No crash check: _slow traffic never schedules this callback.
        handler = self._handlers.get((msg.dst, msg.port))
        if handler is None:
            return  # deregistered in flight: drop like a closed socket
        sim = self.sim
        msg.delivered_at = sim._now
        if "deliver" in sim.trace.active_kinds:
            sim.trace.emit(
                "deliver", time=sim._now, src=msg.src, dst=msg.dst,
                port=msg.port, kind=msg.kind, payload=msg.payload,
            )
        handler(msg)

    # ------------------------------------------------------------------ #
    # table route
    # ------------------------------------------------------------------ #
    def fast_send(
        self,
        src: int,
        dst: int,
        port: str,
        kind: str,
        payload: Optional[dict],
        size: int,
    ) -> None:
        """Message-free send (single frame end to end).

        Falls back to :meth:`send` whenever an observer could tell the
        difference: taps, ``deliver`` subscribers, slow-path networks, a
        receiver that is not a peer's own ``_on_message``, a kind outside
        the receiver's handler table (the Message path raises the
        ``ProtocolError`` at delivery time), or a kernel that is not
        running — sends made at set-up or between runs take the Message
        path, so layers that wrap handlers outside a run (observability)
        see them.  The stats/emit/latency steps below are the bodies of
        ``_record_inline`` / ``_delay_inline`` fused into this frame —
        same counters, same trace records, same RNG consumption.

        The handler is scheduled *directly*, with no dispatch-time
        re-check of the registration: the route cache is invalidated on
        every registration mutation, :meth:`unregister` turns deliveries
        in flight into drops, and :meth:`wrap_handler` refuses while any
        are in flight — so between send and delivery the resolved
        handler cannot change.
        """
        sim = self.sim
        trace = sim.trace
        if trace.version != self._flags_version:
            self._refresh_flags(trace)
        if not self._table_ok or not sim._running:
            self.send(src, dst, port, kind, payload, size)
            return
        # EAFP subscripts: the route cache and the handler tables hit
        # on every send after the first per address, so the exception
        # branches are cold by construction.
        try:
            route = self._routes[(dst, port)]
        except KeyError:
            route = self._route_for(dst, port)
            if route is None:
                self.send(src, dst, port, kind, payload, size)
                return
        try:
            fn = route.table[kind]
        except KeyError:
            self.send(src, dst, port, kind, payload, size)
            return
        # No src validation here: the callers are peers sending from
        # their own (validated-at-registration) node; the fallback
        # `send` above still checks for the Message path.
        if src == dst:
            ci = cj = -1  # local: counted apart from every cluster pair
        else:
            cluster_of = self._cluster_of
            ci = cluster_of[src]
            cj = cluster_of[dst]
        pending = self._pending_stats
        key = (port, kind, size, ci, cj)
        try:
            pending[key] += 1
        except KeyError:
            pending[key] = 1
        now = sim._now
        if self._send_active:
            trace.emit(
                "send", time=now, src=src, dst=dst, port=port,
                kind=kind, payload={} if payload is None else payload,
            )
        latency = self.latency
        if self._inline_latency and latency._batch is None:
            if src == dst:
                due = now + LOCAL_DELIVERY_MS  # no jitter draw
            else:
                table = self._lat_table
                if table is not None:
                    base = table[src][dst]
                else:  # large grid: cluster block table
                    base = self._lat_ctab[ci][cj]
                if self._zero_jitter:
                    due = now + base
                else:
                    due = now + base * float(
                        self._rng.lognormal(
                            mean=latency._lognorm_mean, sigma=latency._sigma
                        )
                    )
        else:
            due = now + latency.one_way(src, dst, self._rng)
        self._seq += 1  # Message.seq watermark, identically consumed
        seq = sim._seq
        event = Event.__new__(Event)
        event.time = due
        event.seq = seq
        event.callback = fn
        event.args = (route.peer, src, payload)
        event.cancelled = False
        event.label = ""
        salt = self._salt
        if salt is not None:
            seq = _mix64(seq ^ salt)
        heappush(self._ev_heap, (due, seq, event))
        sim._seq += 1


def compile_system(
    net: Any, system: Any = None, apps: Any = ()
) -> Dict[str, int]:
    """Count the parts of a built system that run on the fast path.

    Returns ``{"peers": n, "coordinators": m, "apps": k}``: the peers
    whose address resolves to the table route on ``net``, and — when
    ``net`` serves that route at all — every coordinator and application
    process (they have one implementation; they are fast when their
    peers are).  All zeros means the network refuses the fast path
    (plain network, crashes, faults, FIFO, send taps).  Nothing is
    changed.
    """
    peers: List[Any] = []
    for instance in getattr(system, "intra_instances", ()):
        peers.extend(instance)
    peers.extend(getattr(system, "inter_peers", ()))
    if not peers and hasattr(system, "app_nodes"):
        peers = [system.peer_for(node) for node in system.app_nodes]
    if not isinstance(net, CompiledNetwork) or net._slow or net._send_taps:
        return {"peers": 0, "coordinators": 0, "apps": 0}
    return {
        "peers": sum(
            net._route_for(p.node, p.port) is not None for p in peers
        ),
        "coordinators": len(getattr(system, "coordinators", ())),
        "apps": len(apps),
    }
