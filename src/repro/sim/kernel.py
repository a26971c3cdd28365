"""The discrete-event simulation kernel.

The kernel is a binary-heap event-list simulator: a ``heapq`` list of
``(time, seq, event)`` entries ordered by ``(time, seq)``.  The
simulated clock only moves when an event fires, so a run is fully
deterministic given the same schedule and the same RNG seeds.

Time unit
---------
The library uses **milliseconds** throughout, matching the paper's
measurements (Grid'5000 RTTs of 3-100 ms, critical sections of 10 ms).
Nothing in the kernel depends on the unit, but mixing units across layers
is the easiest way to get nonsense results, so it is fixed by convention.

Hot path
--------
Paper-scale sweeps fire millions of events, so the kernel keeps the
per-event work minimal (see ``docs/performance.md``):

* heap entries are ``(time, seq, event)`` tuples, so ``heappush``/
  ``heappop`` compare keys entirely in C (``seq`` is unique: the
  comparison never reaches the event object);
* :meth:`Simulator.run` hoists the ``until``/``max_events`` bound checks
  out of the loop — a run without bounds executes a tight pop/fire loop;
* :meth:`Simulator.post_at` schedules without allocating an
  :class:`~repro.sim.event.EventHandle` for internal callers that never
  cancel (message delivery is the dominant source of events);
* cancelled events are removed *lazily* (tombstones popped on
  encounter), but the kernel counts them and compacts the heap in place
  once tombstones outnumber live events — heavy cancellers such as the
  recovery layer's re-armed deadline timers stay O(live) instead of
  growing the heap without bound.

Typical usage::

    sim = Simulator(seed=42)
    sim.schedule(5.0, lambda: print("fires at t=5ms"))
    sim.run()
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, Optional, Tuple

from ..errors import SimulationError
from .event import Event, EventHandle
from .rng import RngRegistry
from .trace import Tracer

__all__ = ["Simulator"]

#: Compaction is considered only past this many tombstones (a small heap
#: is cheap to scan anyway, and recovering a handful of slots is noise).
_COMPACT_MIN_CANCELLED = 64

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """The splitmix64 finalizer: a bijection on 64-bit integers.

    Used by the schedule-race sanitizer to permute heap tie-break keys —
    bijectivity keeps keys unique, so the heap stays totally ordered and
    events at *distinct* times fire in exactly the same order, while
    events sharing a timestamp fire in a pseudo-random (but fully
    deterministic) order instead of FIFO."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for every random stream derived through :attr:`rng`.
        ``None`` draws fresh OS entropy (non-reproducible runs).
    trace:
        Optional :class:`~repro.sim.trace.Tracer`; a fresh one is created
        when omitted.
    tie_seed:
        ``None`` (the default) keeps the documented FIFO tie-break:
        events sharing a timestamp fire in scheduling order.  An integer
        perturbs the tie-break deterministically — same-time events fire
        in an arbitrary but reproducible order derived from the seed.
        Every valid run must produce the same observable behaviour under
        any ``tie_seed``; the schedule-race sanitizer
        (:mod:`repro.analysis.sanitizer`) exploits this to turn latent
        event-ordering races into digest divergences.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        trace: Optional[Tracer] = None,
        tie_seed: Optional[int] = None,
    ) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        self._heap: list[Tuple[float, int, Event]] = []
        self._running = False
        self._stopped = False
        self._fired = 0
        self._cancelled = 0  # tombstones still physically in the heap
        self.tie_seed = tie_seed
        #: precomputed offset so distinct tie seeds yield distinct orders
        self._tie_salt: Optional[int] = (
            None if tie_seed is None else _mix64(int(tie_seed) ^ 0x9E3779B97F4A7C15)
        )
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else Tracer()

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._fired

    @property
    def pending(self) -> int:
        """Exact number of live (non-cancelled) events in the calendar."""
        return len(self._heap) - self._cancelled

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots (tombstones).

        Exposed for the compaction heuristic and for tests; drops to zero
        after a compaction or once the tombstones are popped."""
        return self._cancelled

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` ms from now.

        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current instant (FIFO within a
        timestamp).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self._now})"
            )
        if not callable(callback):
            raise SimulationError(f"callback must be callable, got {callback!r}")
        seq = self._seq
        event = Event(time, seq, callback, args, label=label)
        if self._tie_salt is not None:
            seq = _mix64(seq ^ self._tie_salt)
        heappush(self._heap, (time, seq, event))
        self._seq += 1
        return EventHandle(event, self)

    def post_at(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        label: str = "",
    ) -> Event:
        """Handle-free scheduling at absolute time ``time`` (hot path).

        Identical ordering semantics to :meth:`schedule_at` but skips the
        :class:`EventHandle` allocation and the callable check — for
        internal callers (message delivery, workload timers) that
        schedule in bulk and never cancel.  ``label`` is what ``event``
        trace subscribers see, as with :meth:`schedule_at`.  Returns the
        raw :class:`Event`; treat it as opaque.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self._now})"
            )
        seq = self._seq
        # Event(...) without the __init__ frame: this runs once per
        # delivery and per application timer.
        event = Event.__new__(Event)
        event.time = time
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.label = label
        if self._tie_salt is not None:
            # Sanitizer mode: permute the tie-break key (bijective, so
            # still unique — comparisons never reach the Event object).
            seq = _mix64(seq ^ self._tie_salt)
        heappush(self._heap, (time, seq, event))
        self._seq += 1
        return event

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Fire the next pending event.

        Returns ``True`` if an event fired, ``False`` if the calendar was
        empty.  Cancelled events are silently discarded.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = event.time
            event.cancelled = True  # a fired event can no longer be cancelled
            self._fired += 1
            if self.trace.event_active:
                self.trace.emit("event", time=event.time, label=event.label)
            event.callback(*event.args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the calendar drains, ``until`` is reached, or
        ``max_events`` have fired — whichever comes first.  Returns the
        final simulated time.

        Clock semantics on return:

        * ``stop()`` called during an event — the clock stays exactly
          where that event fired, even when ``until`` was given;
        * calendar drained, or next event due after ``until`` — the
          clock advances to exactly ``until`` (later events stay in the
          calendar);
        * ``max_events`` exhausted — the clock stays at the last fired
          event (no advance to ``until``: the run was cut short, not
          completed).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heappop
        trace = self.trace
        try:
            if until is None and max_events is None:
                # Fast path: no bound checks per iteration.  `heap` stays
                # a valid alias because compaction mutates it in place.
                # The fired counter accumulates in a local (an attribute
                # store per event otherwise) and lands in `_fired` on
                # every exit; nothing reads it mid-run — callbacks only
                # see `events_fired` after run() returns.
                fired = self._fired
                try:
                    while heap and not self._stopped:
                        event = pop(heap)[2]
                        if event.cancelled:
                            self._cancelled -= 1
                            continue
                        self._now = event.time
                        event.cancelled = True
                        fired += 1
                        if trace.event_active:
                            trace.emit(
                                "event", time=event.time, label=event.label
                            )
                        event.callback(*event.args)
                finally:
                    self._fired = fired
                return self._now

            if max_events is None:
                # `until`-only: the run_experiment path.  Pop first and
                # push the head back on the (rare) deadline overshoot —
                # cheaper than peeking then popping on every iteration.
                exhausted = False
                fired = self._fired
                try:
                    while not self._stopped:
                        if not heap:
                            exhausted = True
                            break
                        entry = pop(heap)
                        event = entry[2]
                        if event.cancelled:
                            self._cancelled -= 1
                            continue
                        t = entry[0]
                        if t > until:
                            heappush(heap, entry)
                            exhausted = True
                            break
                        self._now = t
                        event.cancelled = True
                        fired += 1
                        if trace.event_active:
                            trace.emit("event", time=t, label=event.label)
                        event.callback(*event.args)
                finally:
                    self._fired = fired
                if exhausted and self._now < until:
                    self._now = until
                return self._now

            fired = 0
            exhausted = False  # drained, or next event beyond `until`
            while not self._stopped:
                if fired >= max_events:
                    break
                event = self._peek()
                if event is None:
                    exhausted = True
                    break
                if until is not None and event.time > until:
                    exhausted = True
                    break
                pop(heap)  # the peeked head: live by construction
                self._now = event.time
                event.cancelled = True
                self._fired += 1
                fired += 1
                if trace.event_active:
                    trace.emit("event", time=event.time, label=event.label)
                event.callback(*event.args)
            if exhausted and until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def close(self) -> None:
        """Drop every pending event and trace subscriber.

        Teardown after the last run: both hold bound methods of the
        simulated processes, which hold the kernel, so a finished world
        would otherwise be cyclic garbage left to the cyclic collector.
        """
        self._heap.clear()
        self._cancelled = 0
        self.trace.clear()

    def drain_current(self) -> int:
        """Fire every event due at exactly the current instant.

        The controlled-scheduler entry point used by the model checker
        (:mod:`repro.analysis.explore`): zero-delay events posted during
        a handler run to completion in deterministic ``(time, seq)``
        order, but the clock never advances — events due strictly later
        stay in the calendar, so the caller keeps full control over
        which of them (if any) happens next.  Returns the number of
        events fired.
        """
        fired = 0
        while True:
            event = self._peek()
            if event is None or event.time > self._now:
                return fired
            self.step()
            fired += 1

    def _peek(self) -> Optional[Event]:
        """Return the next non-cancelled event without firing it."""
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event.cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            return event
        return None

    # ------------------------------------------------------------------ #
    # lazy-deletion accounting
    # ------------------------------------------------------------------ #
    def _note_cancelled(self) -> None:
        """Record one cancellation of a still-queued event (called by
        :meth:`EventHandle.cancel`) and compact when tombstones dominate."""
        self._cancelled += 1
        if (
            self._cancelled > _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone and re-heapify **in place**.

        In place matters: :meth:`run` holds a local alias to the heap
        list, and callbacks may trigger a compaction mid-run via
        ``cancel()``.  Rebuilding preserves firing order exactly because
        ``(time, seq)`` keys are unique."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------ #
    # introspection helpers (used by tests and the tracer)
    # ------------------------------------------------------------------ #
    def pending_events(self) -> Iterable[Event]:
        """Yield pending (non-cancelled) events in an unspecified order."""
        return (entry[2] for entry in self._heap if not entry[2].cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now:.3f}ms fired={self._fired} "
            f"pending={self.pending}>"
        )
