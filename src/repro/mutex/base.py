"""Common interface of every mutual exclusion algorithm.

The composition approach's central requirement (paper §3.1) is that the
composed algorithms need **no modification**: the coordinator drives each
level purely through the classical interface — request the CS, release
the CS, get told when the CS is granted.  One extension is needed for the
coordinator to work (paper Fig 2, lines 8 and 15): the process currently
*holding* the right to the CS must be able to learn that someone else is
waiting.  Every algorithm here therefore exposes:

``request_cs()`` / ``release_cs()``
    The classical entry points (the paper's ``IntraCSRequest`` /
    ``IntraCSRelease`` and ``InterCSRequest`` / ``InterCSRelease``).
``on_granted``
    Callbacks fired when this peer enters the CS.
``on_pending_request`` / ``has_pending_request``
    Callbacks fired (and a queryable flag) when this peer, while holding
    the token / being inside the CS, learns another peer wants in.  This
    is observable in every algorithm without modifying its protocol: it
    is exactly the event "a request reached the current holder and had to
    be queued or deferred".

Peers are state machines over three states (paper Fig 1a): ``NO_REQ``,
``REQ`` and ``CS``.
"""

from __future__ import annotations

import enum
from abc import abstractmethod
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..errors import ProtocolError
from ..net.message import DEFAULT_MESSAGE_SIZE, Message
from ..net.network import Network
from ..sim.kernel import Simulator
from ..sim.process import Process
from ..sim.trace import TraceRecord, Tracer

__all__ = ["PeerState", "MutexPeer", "handler_table"]

#: Identity memo of already-validated peer tuples: ``id(tuple) ->
#: tuple``.  The strong reference pins the id for the memo's lifetime,
#: so a hit is always the same live object.  Bounded: cleared wholesale
#: past the cap (re-validation is the only cost).
_PEER_TABLES: dict = {}
_PEER_TABLES_MAX = 4096


def _intern_peers(peers: Sequence[int]) -> Tuple[int, ...]:
    """Validated, canonical peer tuple — shared across an instance.

    Every peer of one algorithm instance receives the same ``peers``
    sequence; interning makes them share **one** tuple object (O(N)
    total instead of an O(N) copy per peer, i.e. O(N²) per instance) and
    runs the duplicate check once instead of once per peer.  Constructing
    a 5k-node flat instance goes from ~25M tuple slots to 5k.
    """
    if type(peers) is tuple and _PEER_TABLES.get(id(peers)) is peers:
        return peers
    canon = tuple(int(p) for p in peers)
    if len(set(canon)) != len(canon):
        raise ProtocolError(f"duplicate peers in {peers}")
    if type(peers) is tuple and canon == peers:
        canon = peers  # reuse the caller's tuple: later peers hit the memo
    if len(_PEER_TABLES) >= _PEER_TABLES_MAX:
        _PEER_TABLES.clear()
    _PEER_TABLES[id(canon)] = canon
    return canon


class PeerState(enum.Enum):
    """The classical mutual exclusion automaton states (paper Fig 1a)."""

    NO_REQ = "NO_REQ"
    REQ = "REQ"
    CS = "CS"


#: A trace subscriber, as cached for the cs_enter/cs_exit emits.
_Subscriber = Callable[[TraceRecord], None]


def handler_table(cls: "Type[MutexPeer]") -> Dict[str, Callable[..., None]]:
    """``{kind: unbound _on_<kind> handler}`` of a peer class.

    Built once per class, when the class is created, from every
    ``_on_<kind>`` attribute reachable on it (inherited ones included;
    the dispatcher ``_on_message`` is not a kind).  Both delivery routes
    use it: :meth:`MutexPeer._on_message` on the
    :class:`~repro.net.message.Message` path, and the compiled network's
    table route, which schedules the handler itself.
    """
    return cls._kind_handlers


class MutexPeer(Process):
    """One participant in a distributed mutual exclusion algorithm.

    Parameters
    ----------
    sim, net:
        Kernel and transport.
    node:
        The node this peer runs on.
    peers:
        Node ids of **all** participants of this algorithm instance (in a
        composition: the nodes of one cluster for an intra instance, the
        coordinator nodes for the inter instance).  Must include ``node``.
    port:
        Network port shared by the instance's peers; also its identity
        for message statistics (ports starting with ``"inter"`` are
        counted as inter-algorithm traffic).
    initial_holder:
        The peer initially holding the token (or, for permission-based
        algorithms, the notional favourite).  Defaults to ``peers[0]``.

    Message handlers are methods ``_on_<kind>(self, src, payload)``:
    ``src`` is the sending node and ``payload`` the dict the sender
    passed (``None`` or ``{}`` when it passed none).  Subclasses send
    with :meth:`_send` / :meth:`_broadcast`.
    """

    #: ``{kind: handler}`` of this class (see :func:`handler_table`)
    _kind_handlers: Dict[str, Callable[..., None]] = {}
    #: tracer-version watermark for the cached cs_enter/cs_exit
    #: subscriber tuples below (kind subscribers + ``"*"`` subscribers,
    #: concatenated in emit's delivery order)
    _emit_version: int = -1
    _enter_subs: Tuple[_Subscriber, ...] = ()
    _exit_subs: Tuple[_Subscriber, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._kind_handlers = {
            name[len("_on_"):]: getattr(cls, name)
            for name in dir(cls)
            if name.startswith("_on_")
            and name != "_on_message"
            and callable(getattr(cls, name))
        }

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        node: int,
        peers: Sequence[int],
        port: str,
        initial_holder: Optional[int] = None,
    ) -> None:
        super().__init__(sim, f"{port}@{node}")
        if node not in peers:
            raise ProtocolError(f"node {node} not in peer set {peers}")
        self.net = net
        self.node = int(node)
        self.peers: Tuple[int, ...] = _intern_peers(peers)
        self.port = port
        if initial_holder is None:
            initial_holder = self.peers[0]
        if initial_holder not in self.peers:
            raise ProtocolError(
                f"initial holder {initial_holder} not in peer set"
            )
        self.initial_holder = int(initial_holder)
        self._state = PeerState.NO_REQ
        self.on_granted: List[Callable[[], None]] = []
        self.on_pending_request: List[Callable[[], None]] = []
        #: number of times this peer entered the CS
        self.cs_count = 0
        net.register(node, port, self._on_message)

    # ------------------------------------------------------------------ #
    # public state
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> PeerState:
        """Current automaton state (Fig 1a)."""
        return self._state

    @property
    def in_cs(self) -> bool:
        return self._state is PeerState.CS

    @property
    @abstractmethod
    def holds_token(self) -> bool:
        """Whether this peer currently holds the algorithm's token.

        Permission-based algorithms report ``True`` exactly while in the
        CS (the moment they hold every permission)."""

    @property
    @abstractmethod
    def has_pending_request(self) -> bool:
        """Whether this peer knows of another peer waiting for the CS.

        Only meaningful (and only guaranteed accurate) while this peer
        holds the token / is in the CS — which is the only situation the
        coordinator consults it in."""

    # ------------------------------------------------------------------ #
    # state fingerprinting (model checker support)
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> Tuple:
        """Canonical, hashable snapshot of this peer's protocol state.

        Used by the bounded model checker (:mod:`repro.analysis.explore`)
        to deduplicate explored global states.  The snapshot must be a
        pure function of protocol state, free of kernel/transport
        artefacts such as timestamps or sequence numbers.  Reading it
        never mutates anything.
        """
        return (
            self.algorithm_name,
            self.node,
            self._state.value,
            *self._fingerprint_state(),
        )

    def _fingerprint_state(self) -> Tuple:
        """Algorithm-specific part of :meth:`fingerprint`.

        Subclasses return a flat tuple of hashable values covering every
        protocol variable that influences future behaviour (token
        position, queues, sequence counters ...).  Values must be
        canonical: e.g. dict contents listed in ``self.peers`` order.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the state-"
            "fingerprint protocol required by repro.analysis.explore"
        )

    # ------------------------------------------------------------------ #
    # public operations
    # ------------------------------------------------------------------ #
    def request_cs(self) -> None:
        """Ask for the critical section (``NO_REQ -> REQ``, or straight
        to ``CS`` when the request can be granted locally).

        Raises :class:`ProtocolError` if called while already requesting
        or inside the CS.
        """
        if self._state is not PeerState.NO_REQ:
            raise ProtocolError(
                f"{self.name}: request_cs() in state {self._state.value}"
            )
        self._state = PeerState.REQ
        trace = self.sim.trace
        if "cs_request" in trace.active_kinds:
            trace.emit(
                "cs_request", time=self.sim._now, node=self.node,
                port=self.port,
            )
        self._do_request()

    def release_cs(self) -> None:
        """Leave the critical section (``CS -> NO_REQ``).

        Raises :class:`ProtocolError` if not currently in the CS.
        """
        if self._state is not PeerState.CS:
            raise ProtocolError(
                f"{self.name}: release_cs() in state {self._state.value}"
            )
        self._state = PeerState.NO_REQ
        trace = self.sim.trace
        if trace.version != self._emit_version:
            self._refresh_emit(trace)
        fns = self._exit_subs
        if fns:
            # What trace.emit("cs_exit", ...) would deliver (see
            # _refresh_emit), built in this frame.
            record = TraceRecord.__new__(TraceRecord)
            record.kind = "cs_exit"
            record.fields = {
                "time": self.sim._now, "node": self.node, "port": self.port,
            }
            for fn in fns:
                fn(record)
        self._do_release()

    # ------------------------------------------------------------------ #
    # subclass protocol
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _do_request(self) -> None:
        """Algorithm-specific request logic (state already set to REQ)."""

    @abstractmethod
    def _do_release(self) -> None:
        """Algorithm-specific release logic (state already set to NO_REQ)."""

    # ------------------------------------------------------------------ #
    # helpers for subclasses
    # ------------------------------------------------------------------ #
    def _grant(self) -> None:
        """Enter the CS and notify subscribers.  Subclasses call this when
        the token arrives (or all permissions are in)."""
        if self._state is PeerState.CS:
            raise ProtocolError(f"{self.name}: double grant")
        self._state = PeerState.CS
        self.cs_count += 1
        trace = self.sim.trace
        if trace.version != self._emit_version:
            self._refresh_emit(trace)
        fns = self._enter_subs
        if fns:
            # Mirror of the cs_exit block in release_cs.
            record = TraceRecord.__new__(TraceRecord)
            record.kind = "cs_enter"
            record.fields = {
                "time": self.sim._now, "node": self.node, "port": self.port,
            }
            for fn in fns:
                fn(record)
        # Copy: a subscriber may remove itself while the list is walked
        # (recovery's one-shot failover callback does).
        for fn in tuple(self.on_granted):
            fn()

    def _notify_pending(self) -> None:
        """Tell subscribers that, while we hold the CS right, another peer
        asked for it.  May fire more than once per holding period;
        subscribers must be idempotent."""
        for fn in tuple(self.on_pending_request):
            fn()

    def _refresh_emit(self, trace: Tracer) -> None:
        """Re-snapshot the cs_enter/cs_exit delivery lists.

        ``kind in active_kinds`` is true iff the kind's subscriber list
        or the ``"*"`` list is non-empty, so the concatenated tuple being
        truthy is exactly ``emit``'s gate, and iterating it delivers in
        ``emit``'s order (kind subscribers, then star).  Grant and
        release run twice per CS; this saves ``emit``'s frame, keyword
        packing and subscriber lookup on both.
        """
        self._emit_version = trace.version
        subs = trace._subs
        star = trace._star
        self._enter_subs = tuple(subs.get("cs_enter") or ()) + star
        self._exit_subs = tuple(subs.get("cs_exit") or ()) + star

    def _send(self, dst: int, kind: str, payload: Optional[dict] = None,
              size: int = DEFAULT_MESSAGE_SIZE) -> None:
        """Send a protocol message to peer ``dst`` on this instance's port."""
        self.net.fast_send(self.node, dst, self.port, kind, payload, size)

    def _broadcast(self, kind: str, payload: Optional[dict] = None,
                   size: int = DEFAULT_MESSAGE_SIZE) -> None:
        """Send ``kind`` to every other peer (N-1 messages), each with
        its own copy of ``payload``."""
        node, port, send = self.node, self.port, self.net.fast_send
        for dst in self.peers:
            if dst != node:
                send(node, dst, port, kind,
                     dict(payload) if payload else {}, size)

    def _on_message(self, msg: Message) -> None:
        """Dispatch an incoming message to ``_on_<kind>(src, payload)``."""
        handler = self._kind_handlers.get(msg.kind)
        if handler is None:
            raise ProtocolError(
                f"{self.name}: unexpected message kind {msg.kind!r}"
            )
        handler(self, msg.src, msg.payload)

    def shutdown(self) -> None:
        """Detach from the network and cancel timers (test teardown)."""
        self.cancel_timers()
        self.net.unregister(self.node, self.port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name} state={self._state.value} "
            f"token={self.holds_token}>"
        )
