"""The simulated network.

``Network.send`` stamps the message, records it in the statistics layer,
samples a one-way latency from the latency model and schedules delivery
on the kernel.  Delivery dispatches to the handler registered for the
``(node, port)`` destination address.

Ordering semantics
------------------
By default the network behaves like UDP (as in the paper's C
implementation): each message's delay is sampled independently, so two
messages on the same link may be delivered out of send order when jitter
is enabled.  ``fifo=True`` enforces per-``(src, dst, port)`` FIFO by
never delivering a message earlier than its predecessor on the same
flow — useful for isolating reordering effects in the ablation bench.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..errors import NetworkError
from ..sim.kernel import Simulator
from .faults import CrashController, FaultInjector
from .latency import LatencyModel
from .message import DEFAULT_MESSAGE_SIZE, Message
from .stats import MessageStats
from .topology import GridTopology

__all__ = ["Network"]

Handler = Callable[[Message], None]


class Network:
    """Message transport between agents on simulated nodes.

    Parameters
    ----------
    sim:
        The discrete-event kernel.
    topology:
        Grid topology (for statistics classification and validation).
    latency:
        Latency model producing one-way delays.
    fifo:
        Enforce per-flow FIFO delivery (default ``False`` = UDP-like).
    faults:
        Optional fault injector (tests only).
    crashes:
        Optional :class:`~repro.net.faults.CrashController`; without one
        every node is permanently up and the crash checks short-circuit.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: GridTopology,
        latency: LatencyModel,
        fifo: bool = False,
        faults: Optional[FaultInjector] = None,
        crashes: Optional[CrashController] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.latency = latency
        self.fifo = fifo
        self.faults = faults
        self.crashes = crashes
        self.stats = MessageStats(topology)
        self._handlers: Dict[Tuple[int, str], Handler] = {}
        self._flow_clock: Dict[Tuple[int, int, str], float] = {}
        self._seq = 0
        self._rng = sim.rng.stream("network/latency")
        self._fault_rng = sim.rng.stream("network/faults")
        # Interposition points for observers (repro.obs).  Both stay empty
        # tuples when unused so the hot send path pays one falsy check —
        # the same gating discipline as ``trace.active_kinds``.
        self._send_taps: Tuple[Callable[[Message], None], ...] = ()
        self._register_hooks: Tuple[Callable[[int, str], None], ...] = ()
        # Delivery interception (repro.analysis.explore): when set, sends
        # are captured instead of scheduled — see set_delivery_intercept.
        self._intercept: Optional[Handler] = None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(self, node: int, port: str, handler: Handler) -> None:
        """Attach ``handler`` to the address ``(node, port)``.

        Exactly one handler per address; re-registering is an error
        (it almost always means two agents were wired to the same port).
        """
        if not 0 <= node < self.topology.n_nodes:
            raise NetworkError(f"unknown node {node}")
        key = (node, port)
        if key in self._handlers:
            raise NetworkError(f"address {key} already has a handler")
        self._handlers[key] = handler
        if self._register_hooks:
            for hook in self._register_hooks:
                hook(node, port)

    def unregister(self, node: int, port: str) -> None:
        """Detach the handler at ``(node, port)``; missing address is an error."""
        try:
            del self._handlers[(node, port)]
        except KeyError:
            raise NetworkError(f"no handler at {(node, port)}") from None

    def wrap_handler(
        self, node: int, port: str, wrap: Callable[[Handler], Handler]
    ) -> None:
        """Replace the handler at ``(node, port)`` with
        ``wrap(current_handler)``.

        This is how an interposition layer (e.g. the recovery fence)
        filters an agent's inbound traffic without the agent — or its
        message handlers — knowing: exactly the non-intrusive contract
        the composition itself follows."""
        key = (node, port)
        try:
            current = self._handlers[key]
        except KeyError:
            raise NetworkError(f"no handler at {key}") from None
        wrapped = wrap(current)
        if not callable(wrapped):
            raise NetworkError(f"wrap() returned non-callable {wrapped!r}")
        self._handlers[key] = wrapped

    # ------------------------------------------------------------------ #
    # observer taps (repro.obs)
    # ------------------------------------------------------------------ #
    def add_send_tap(self, tap: Callable[[Message], None]) -> None:
        """Call ``tap(msg)`` after every successful :meth:`send`.

        The tap observes the already-scheduled message (``seq`` stamped
        unless a fault dropped it); it must not mutate the message or
        send traffic of its own.  This is the outbound mirror of
        :meth:`wrap_handler`: together they let an observability layer
        see every hop without touching any algorithm."""
        self._send_taps = (*self._send_taps, tap)

    def remove_send_tap(self, tap: Callable[[Message], None]) -> None:
        """Detach a tap added with :meth:`add_send_tap`."""
        if tap not in self._send_taps:
            raise NetworkError("send tap not attached")
        # Equality, not identity: bound methods are re-created on each
        # attribute access, so ``is`` would never match one.
        self._send_taps = tuple(t for t in self._send_taps if t != tap)

    def add_register_hook(self, hook: Callable[[int, str], None]) -> None:
        """Call ``hook(node, port)`` after every future :meth:`register`.

        Lets an interposition layer wrap handlers that appear *after* it
        attached (e.g. peers rebuilt by the recovery layer's failover)."""
        self._register_hooks = (*self._register_hooks, hook)

    def remove_register_hook(self, hook: Callable[[int, str], None]) -> None:
        """Detach a hook added with :meth:`add_register_hook`."""
        if hook not in self._register_hooks:
            raise NetworkError("register hook not attached")
        self._register_hooks = tuple(
            h for h in self._register_hooks if h != hook
        )

    def addresses(self) -> Tuple[Tuple[int, str], ...]:
        """All currently registered ``(node, port)`` addresses, sorted.

        Interposition layers use this to wrap every existing handler in
        one sweep (and :meth:`add_register_hook` for handlers that appear
        later)."""
        return tuple(sorted(self._handlers))

    def close(self) -> None:
        """Unregister every handler at once (teardown after the run).

        Handlers are bound methods of the processes, which hold the
        network: a finished run would otherwise be cyclic garbage."""
        self._handlers.clear()

    # ------------------------------------------------------------------ #
    # delivery interception (repro.analysis.explore)
    # ------------------------------------------------------------------ #
    def set_delivery_intercept(self, intercept: Optional[Handler]) -> None:
        """Capture every outbound message instead of scheduling delivery.

        While an interceptor is installed, :meth:`send` stamps the
        message's ``seq`` and hands it to ``intercept(msg)`` *instead of*
        sampling a latency and posting a kernel event — the latency RNG
        is never touched, per-flow FIFO clocks never advance, and no
        event enters the calendar.  The controlled scheduler of the model
        checker (:mod:`repro.analysis.explore`) uses this to take
        ownership of the delivery order: it holds captured messages in
        per-flow queues and feeds chosen ones back through
        :meth:`deliver_intercepted`.  Pass ``None`` to restore normal
        scheduling.  When no interceptor is set this feature costs one
        ``None`` check per send and is otherwise invisible (digests are
        unaffected).
        """
        self._intercept = intercept

    def deliver_intercepted(self, msg: Message) -> None:
        """Deliver a previously captured message to its handler, now.

        The counterpart of :meth:`set_delivery_intercept`: runs the exact
        delivery path (crash checks, trace emission, handler dispatch) at
        the current simulated instant.
        """
        self._deliver(msg)

    @property
    def seq_watermark(self) -> int:
        """The sequence number the *next* scheduled delivery will carry.

        Every message already scheduled has a strictly smaller ``seq``,
        so a recovery epoch fence set to this value drops exactly the
        in-flight traffic of the old epoch — including same-instant
        sends, which timestamps could not separate."""
        return self._seq

    # ------------------------------------------------------------------ #
    # sending
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
        """Send a message; returns the (already stamped) message object.

        Raises :class:`NetworkError` if the destination address has no
        registered handler — unlike real UDP, a misdirected message in a
        simulation is always a bug worth failing loudly on.
        """
        if (dst, port) not in self._handlers:
            raise NetworkError(f"no handler registered at ({dst}, {port!r})")
        if not 0 <= src < self.topology.n_nodes:
            raise NetworkError(f"unknown source node {src}")
        msg = Message(src, dst, port, kind, payload, size)
        sim = self.sim
        msg.sent_at = sim._now
        if self.crashes is not None and self.crashes.is_down(src):
            # A crashed node emits nothing: not even a *sent* statistic
            # (its processes are halted; this path only triggers when an
            # unbound caller keeps driving a peer on a dead node).
            return msg
        self.stats.record(msg)
        if "send" in sim.trace.active_kinds:
            sim.trace.emit(
                "send", time=sim._now, src=src, dst=dst, port=port,
                kind=kind, payload=msg.payload,
            )
        if self.faults is not None and self.faults.should_drop(
            self._fault_rng, kind
        ):
            if self._send_taps:
                for tap in self._send_taps:
                    tap(msg)  # seq stays -1: sent but never scheduled
            return msg
        self._schedule_delivery(msg, extra_factor=1.0)
        if self.faults is not None and self.faults.should_duplicate(
            self._fault_rng, kind
        ):
            copy = Message(src, dst, port, kind, dict(msg.payload), size)
            copy.sent_at = msg.sent_at
            # The copy obeys the flow's FIFO floor but must not raise it:
            # its delay_factor-inflated due time is an artefact of the
            # fault, and advancing the per-flow clock by it would delay
            # every subsequent genuine message on the flow.
            self._schedule_delivery(
                copy,
                extra_factor=self.faults.delay_factor,
                advance_flow=False,
            )
        if self._send_taps:
            for tap in self._send_taps:
                tap(msg)
        return msg

    def fast_send(
        self,
        src: int,
        dst: int,
        port: str,
        kind: str,
        payload: Optional[dict],
        size: int,
    ) -> None:
        """The send mutex peers use: :meth:`send` without the returned
        message, which leaves a network free to deliver without one
        (:class:`~repro.compile.network.CompiledNetwork`'s table route).
        Here it is exactly :meth:`send`."""
        self.send(src, dst, port, kind, payload, size)

    # ------------------------------------------------------------------ #
    # delivery
    # ------------------------------------------------------------------ #
    def _schedule_delivery(
        self, msg: Message, extra_factor: float, advance_flow: bool = True
    ) -> None:
        if self._intercept is not None:
            # Controlled-scheduler mode: stamp the seq (send order is
            # still meaningful to the captor) and hand the message over
            # without sampling a latency — the RNG stream stays untouched
            # so interception is invisible to everything else.
            msg.seq = self._seq
            self._seq += 1
            self._intercept(msg)
            return
        sim = self.sim
        delay = self.latency.one_way(msg.src, msg.dst, self._rng) * extra_factor
        due = sim._now + delay
        if self.fifo:
            flow = (msg.src, msg.dst, msg.port)
            due = max(due, self._flow_clock.get(flow, 0.0))
            if advance_flow:
                self._flow_clock[flow] = due
        msg.seq = self._seq
        self._seq += 1
        # Handle-free scheduling: deliveries are never cancelled, and one
        # is created per message — the dominant event source by far.
        sim.post_at(due, self._deliver, (msg,))

    def _deliver(self, msg: Message) -> None:
        if self.crashes is not None and self.crashes.lost_in_flight(
            msg.dst, msg.sent_at
        ):
            # Destination node crashed: in-flight messages die with it
            # (and messages sent before its restart are equally lost).
            return
        handler = self._handlers.get((msg.dst, msg.port))
        if handler is None:
            # The agent deregistered while the message was in flight
            # (e.g. teardown); drop silently like a closed UDP socket.
            return
        sim = self.sim
        msg.delivered_at = sim._now
        if "deliver" in sim.trace.active_kinds:
            sim.trace.emit(
                "deliver", time=sim._now, src=msg.src, dst=msg.dst,
                port=msg.port, kind=msg.kind, payload=msg.payload,
            )
        handler(msg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network nodes={self.topology.n_nodes} "
            f"handlers={len(self._handlers)} fifo={self.fifo}>"
        )
