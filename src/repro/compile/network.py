"""The compiled transport: a fused send→schedule→dispatch fast path.

:class:`CompiledNetwork` is a drop-in :class:`~repro.net.network.Network`
whose hot path fuses, into one frame, what the interpreted pipeline does
in five (``send`` → ``stats.record`` → ``latency.one_way`` →
``_schedule_delivery`` → ``post_at``), and whose delivery dispatches
through the per-class tables of :mod:`repro.compile.tables` instead of
the per-event ``getattr`` chain.

Equivalence is structural, not statistical: every inlined step
reproduces the interpreted code **exactly** — same statistics counters,
same trace records, same RNG draw sequence (local and jitter-free sends
draw nothing, exactly as ``one_way`` skips the draw), same
``Message.seq`` and kernel ``seq`` consumption, same tie-salt mixing —
so a compiled run's :class:`~repro.verify.digest.RunDigest` is
bit-identical to the interpreted run's.  The golden matrix in
``tests/properties`` gates this.

Two tiers of fast path:

* the **fused send** handles any traffic on a fault-free, FIFO-off,
  untapped network; it still allocates the :class:`Message` so opaque
  handlers (coordinator wrappers, recovery fences, test hooks) keep
  working, but delivery resolves the handler once and dispatches via
  the class table when the receiver is a pristine
  ``MutexPeer._on_message``;
* the **ultra send** (:meth:`CompiledNetwork.fast_send`, used by the
  fast peer classes of :mod:`repro.compile.peers`) skips the
  Message allocation entirely: the table handler is resolved at send
  time and the scheduled event *is* the dispatch — its callback is the
  single-frame ``_fast_on_<kind>`` handler with ``(peer, src,
  payload)`` as arguments.

Anything the fast paths cannot reproduce exactly — crash controllers,
fault injectors, per-flow FIFO, send taps, ``deliver`` subscribers,
batched jitter, latency models with overridden ``one_way`` — falls back
to the inherited interpreted code, which is equivalence by construction
(it *is* the interpreted code).  The same rules decide, in
:meth:`CompiledNetwork.fast_class`, whether systems built on the network
get the fast peer, coordinator and application classes at all.
"""

from __future__ import annotations

import logging
from heapq import heappush
from typing import Dict, Optional, Tuple

from ..errors import NetworkError, ProtocolError
from ..mutex.base import MutexPeer
from ..net.latency import LOCAL_DELIVERY_MS, MatrixLatency, TwoTierLatency
from ..net.message import DEFAULT_MESSAGE_SIZE, Message
from ..net.network import Network
from ..sim.event import Event
from ..sim.kernel import _mix64
from ..workload.application import ApplicationProcess
from .peers import FAST_CLASSES
from .tables import dispatch_table, fast_table

__all__ = ["CompiledNetwork"]

logger = logging.getLogger(__name__)


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

    #: Deferred ultra-path counter buffer: ``(port, kind, size,
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
        #: must run the interpreted pipeline verbatim.
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
                "go through the interpreted one_way() per call",
                type(latency).__name__,
            )
        self._routes: Dict[Tuple[int, str], _Route] = {}
        # Ultra-path gate flags, snapshotted per tracer version so the
        # hot send pays one integer compare instead of re-testing the
        # subscriber sets and the tap tuple on every call.  A version of
        # -1 forces a refresh (tap mutations reset it below).
        self._flags_version = -1
        self._ultra_ok = False
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

    def fast_class(self, cls: type) -> type:
        """The exact-type fast twin of ``cls`` (see
        :data:`~repro.compile.peers.FAST_CLASSES`), or ``cls`` itself on
        a network that must run the interpreted pipeline: crashes,
        faults, FIFO flows or a send tap attached before the build.  A
        tap attached later (the observability layer's) is honoured per
        send, by :meth:`fast_send` falling back to :meth:`send`.
        Application processes also stay interpreted while the ``event``
        trace kind has subscribers, which would see their timer labels.
        """
        if self._slow or self._send_taps:
            return cls
        if cls is ApplicationProcess and "event" in self.sim.trace.active_kinds:
            return cls
        return FAST_CLASSES.get(cls, cls)

    def add_send_tap(self, tap) -> None:
        super().add_send_tap(tap)
        self._flags_version = -1

    def remove_send_tap(self, tap) -> None:
        super().remove_send_tap(tap)
        self._flags_version = -1

    # ------------------------------------------------------------------ #
    # deferred statistics
    # ------------------------------------------------------------------ #
    # The ultra path buffers each send as one dict upsert and applies
    # the full `MessageStats.record` arithmetic lazily: every counter is
    # a plain sum, so replaying `n` equivalent sends in one step is
    # exact.  All reads go through the `stats` property, which
    # materialises the buffer first — so any observer (including one
    # called synchronously from a `send` trace record) sees the same
    # values the interpreted network would have at that instant.
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
        self._kill_route((node, port))

    def unregister(self, node: int, port: str) -> None:
        super().unregister(node, port)
        self._kill_route((node, port))

    def wrap_handler(self, node: int, port: str, wrap) -> None:
        super().wrap_handler(node, port, wrap)
        self._kill_route((node, port))

    def _kill_route(self, key: Tuple[int, str]) -> None:
        self._routes.pop(key, None)

    def _route_for(self, dst: int, port: str) -> Optional[_Route]:
        """The ultra-path route to ``(dst, port)``, or ``None`` when the
        registered handler is not a pristine table-dispatchable peer."""
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
        table = fast_table(type(peer))
        if table is None:
            return None
        route = _Route(peer, table)
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
        if getattr(handler, "__func__", None) is MutexPeer._on_message:
            peer = handler.__self__
            fn = dispatch_table(type(peer)).get(msg.kind)
            if fn is None:
                raise ProtocolError(
                    f"{peer.name}: unexpected message kind {msg.kind!r}"
                )
            fn(peer, msg)
        else:
            handler(msg)

    # ------------------------------------------------------------------ #
    # ultra send (fast peer classes only)
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
        """Message-free send for fast peers (single frame end to end).

        Falls back to :meth:`send` whenever an observer could tell the
        difference: taps, ``deliver`` subscribers, slow-path networks, a
        receiver that is not table-dispatchable, or a kind outside the
        receiver's table (the Message path raises the interpreted
        ``ProtocolError`` at delivery time, as the dynamic dispatch
        would).  The stats/emit/latency steps below are the bodies of
        ``_record_inline`` / ``_delay_inline`` fused into this frame —
        same counters, same trace records, same RNG consumption.

        The table handler is scheduled *directly* (no dispatch-time
        re-check of the registration): only fast peers call this method,
        systems that rewire or unregister handlers mid-run
        (crash/recovery, adaptive) build interpreted classes, and the
        route cache is invalidated on every registration mutation — so
        between send and delivery the resolved handler cannot change.
        """
        sim = self.sim
        trace = sim.trace
        if trace.version != self._flags_version:
            self._flags_version = trace.version
            active = trace.active_kinds
            self._ultra_ok = not (
                self._slow or self._send_taps or "deliver" in active
            )
            self._send_active = "send" in active
        if not self._ultra_ok:
            self.send(src, dst, port, kind, payload, size)
            return
        # EAFP subscripts: the route cache and the dispatch tables hit
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
        # No src validation here: the only callers are fast peers
        # sending from their own (validated-at-registration) node; the
        # fallback `send` above still checks for the Message path.
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
