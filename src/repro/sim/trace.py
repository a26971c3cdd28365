"""Lightweight structured tracing.

The kernel, the network and the algorithms emit *trace records* — a kind
string plus keyword fields — through a shared :class:`Tracer`.  With no
subscribers the emit path is a single attribute check, so tracing costs
nothing in production runs; tests and the safety/liveness checkers attach
subscribers to observe the simulation without instrumenting the algorithms.

Per-kind gating
---------------
Subscribing to one kind must not tax emitters of every other kind: a run
with only a ``cs_enter`` checker attached fires millions of ``event`` and
``send`` records' worth of *emitter* work if emitters gate on the global
:attr:`Tracer.active` flag alone.  The tracer therefore maintains
:attr:`Tracer.active_kinds` — the set of kinds with at least one
subscriber (a match-everything sentinel when a ``"*"`` subscriber exists)
— and hot emitters guard with ``if "send" in trace.active_kinds:`` so the
keyword-argument packing and record construction are skipped entirely for
unobserved kinds.  :meth:`emit` applies the same gate internally, so
emitters that still check the coarse :attr:`active` flag stay correct,
just marginally slower.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List

__all__ = ["Tracer", "TraceRecord"]


class TraceRecord:
    """One trace record: ``kind`` plus arbitrary keyword fields."""

    __slots__ = ("kind", "fields")

    def __init__(self, kind: str, fields: Dict[str, Any]) -> None:
        self.kind = kind
        self.fields = fields

    def __getattr__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"<{self.kind} {inner}>"


class _AllKinds:
    """Sentinel for :attr:`Tracer.active_kinds` when a ``"*"`` subscriber
    exists: membership is true for every kind."""

    __slots__ = ()

    def __contains__(self, kind: object) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<all kinds>"


_ALL_KINDS = _AllKinds()


class Tracer:
    """Pub/sub hub for trace records.

    Subscribers register for a specific kind or for ``"*"`` (all kinds).
    :attr:`active` (any subscriber at all) and :attr:`active_kinds` (the
    per-kind active set) are maintained so emitters can skip building the
    record dict entirely when nobody is listening for that kind.
    """

    def __init__(self) -> None:
        self._subs: Dict[str, List[Callable[[TraceRecord], None]]] = defaultdict(list)
        self.active = False
        #: Kinds with >= 1 subscriber; supports ``kind in active_kinds``.
        self.active_kinds: Any = frozenset()
        #: ``"event" in active_kinds`` as a plain attribute: the kernel
        #: loop checks this once per fired event, so it skips the set
        #: membership call.
        self.event_active = False
        #: snapshot of the ``"*"`` subscriber list, hoisted out of emit
        self._star: tuple = ()
        #: bumped on every subscription change; hot emitters snapshot
        #: their per-kind gates and revalidate with one integer compare
        self.version = 0

    def _refresh(self) -> None:
        kinds = {k for k, subs in self._subs.items() if subs}
        self.active = bool(kinds)
        self.active_kinds = _ALL_KINDS if "*" in kinds else frozenset(kinds)
        self.event_active = "event" in self.active_kinds
        self._star = tuple(self._subs.get("*", ()))
        self.version += 1

    def subscribe(self, kind: str, fn: Callable[[TraceRecord], None]) -> None:
        """Register ``fn`` to receive every record of ``kind`` (or all
        records when ``kind == "*"``)."""
        self._subs[kind].append(fn)
        self._refresh()

    def unsubscribe(self, kind: str, fn: Callable[[TraceRecord], None]) -> None:
        """Remove a subscriber registered with :meth:`subscribe`."""
        self._subs[kind].remove(fn)
        self._refresh()

    def clear(self) -> None:
        """Remove every subscriber."""
        self._subs.clear()
        self._refresh()

    def wants(self, kind: str) -> bool:
        """Whether any subscriber would receive a record of ``kind``."""
        return kind in self.active_kinds

    def emit(self, kind: str, /, **fields: Any) -> None:
        """Deliver a record to the matching subscribers synchronously.

        ``kind`` is positional-only so protocols may carry their own
        ``kind`` field in ``fields`` without colliding (the record's own
        kind stays authoritative under ``record.kind``; a field of the
        same name is reachable via ``record.fields["kind"]``).
        """
        subs = self._subs.get(kind)
        star = self._star
        if not subs and not star:
            return
        record = TraceRecord(kind, fields)
        if subs:
            for fn in subs:
                fn(record)
        for fn in star:
            fn(record)

    def record_into(self, kind: str, sink: List[TraceRecord]) -> None:
        """Convenience: append every record of ``kind`` to ``sink``."""
        self.subscribe(kind, sink.append)

    def attach(
        self, handlers: Dict[str, Callable[[TraceRecord], None]]
    ) -> Callable[[], None]:
        """Subscribe a ``{kind: fn}`` bundle; returns a detach callable.

        Observers that listen on several kinds at once (checkers, the
        observability layer) attach and detach as one unit, so no
        subscription can leak when an observer is torn down."""
        items = tuple(handlers.items())
        for kind, fn in items:
            self.subscribe(kind, fn)

        def detach() -> None:
            for kind, fn in items:
                self.unsubscribe(kind, fn)

        return detach
