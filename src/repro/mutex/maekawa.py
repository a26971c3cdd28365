"""Maekawa's √N quorum algorithm (extension; paper ref [9]).

The second permission-based family member the paper cites: instead of
asking *all* other peers, each peer asks only its **quorum** — a set of
size ≈ √N arranged so any two quorums intersect.  Each peer grants a
single ``locked`` vote at a time; a peer enters the CS once its whole
quorum has voted for it.  Because votes are exclusive, intersecting
quorums serialise critical sections.

Deadlock avoidance uses Maekawa's classic inquire/relinquish machinery:
requests carry Lamport ``(timestamp, id)`` priorities; an arbiter that
has voted for a *younger* request than a newly arrived older one sends
``inquire`` to its current candidate, who gives the vote back
(``relinquish``) unless it is already in the CS; younger arrivals are
answered with ``failed`` so the candidate knows a relinquish may be
required.

Quorums here are the standard grid construction: peers are laid out on a
⌈√N⌉ × ⌈√N⌉ grid; a peer's quorum is its row plus its column (including
itself), giving |Q| ≈ 2√N and pairwise intersection.

Message cost: 3|Q| per CS uncontended (request/locked/release), up to
5|Q| under contention — the ``O(√N)`` the paper's taxonomy refers to.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import ProtocolError
from .base import MutexPeer, PeerState

__all__ = ["MaekawaPeer", "grid_quorums"]


def grid_quorums(peers: Sequence[int]) -> Dict[int, Tuple[int, ...]]:
    """Row+column quorums over a √N × √N layout of ``peers``.

    Every quorum contains its owner; any two quorums intersect (two grid
    positions always share a row-column crossing).  The last grid row may
    be partial; column walks simply skip the missing cells.
    """
    n = len(peers)
    side = math.ceil(math.sqrt(n))
    quorums: Dict[int, Tuple[int, ...]] = {}
    for idx, peer in enumerate(peers):
        row, col = divmod(idx, side)
        members: Set[int] = set()
        for c in range(side):  # the row
            j = row * side + c
            if j < n:
                members.add(peers[j])
        for r in range(side):  # the column
            j = r * side + col
            if j < n:
                members.add(peers[j])
        quorums[peer] = tuple(sorted(members))
    return quorums


class MaekawaPeer(MutexPeer):
    """One peer of Maekawa's quorum-based mutual exclusion algorithm.

    Message kinds: ``request``, ``locked`` (vote), ``failed``,
    ``inquire``, ``relinquish``, ``release``.
    """

    algorithm_name = "maekawa"
    topology = "sqrt-N grid quorums"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.quorum: Tuple[int, ...] = grid_quorums(self.peers)[self.node]
        self.clock = 0
        # --- requester side ------------------------------------------- #
        self._my_ts: Optional[Tuple[int, int]] = None
        self._votes: Set[int] = set()
        self._failed_seen = False
        # Inquires that overtook their own "locked" message (UDP-like
        # reordering): answered the moment the vote arrives.
        self._pending_inquires: Set[int] = set()
        # --- arbiter side ---------------------------------------------- #
        #: request currently holding our vote: (ts, origin) or None
        self._voted_for: Optional[Tuple[int, int]] = None
        #: deferred requests, kept sorted by (ts, id)
        self._wait: List[Tuple[int, int]] = []
        self._inquired = False
        #: whether this arbiter already hinted its vote holder that a
        #: request is waiting (one hint per holding period)
        self._hinted = False
        #: holder side: a "waiting" hint was received while in the CS
        self._remote_pending = False

    # ------------------------------------------------------------------ #
    @property
    def holds_token(self) -> bool:
        return self.state is PeerState.CS

    @property
    def has_pending_request(self) -> bool:
        # A waiter is visible either through our own arbiter queue (its
        # quorum contains us) or through a "waiting" hint from an arbiter
        # whose vote we hold (its quorum intersects ours elsewhere).
        return self._remote_pending or any(
            origin != self.node for _, origin in self._wait
        )

    # ------------------------------------------------------------------ #
    # requester side
    # ------------------------------------------------------------------ #
    def _tick(self, seen: int = 0) -> int:
        self.clock = max(self.clock, seen) + 1
        return self.clock

    def _do_request(self) -> None:
        ts = self._tick()
        self._my_ts = (ts, self.node)
        self._votes = set()
        self._failed_seen = False
        self._pending_inquires = set()
        self._remote_pending = False
        for member in self.quorum:
            if member == self.node:
                self._arbiter_request(ts, self.node)
            else:
                self._send(member, "request", {"ts": ts, "origin": self.node})

    def _do_release(self) -> None:
        self._my_ts = None
        self._votes = set()
        self._remote_pending = False
        for member in self.quorum:
            if member == self.node:
                self._arbiter_release(self.node)
            else:
                self._send(member, "release")

    def _got_vote(self, arbiter: int) -> None:
        if self.state is not PeerState.REQ:
            return  # stale vote after relinquish bookkeeping
        if arbiter in self._pending_inquires:
            # The inquire overtook this vote: give it straight back.
            self._pending_inquires.discard(arbiter)
            self._return_vote(arbiter)
            return
        self._votes.add(arbiter)
        if len(self._votes) == len(self.quorum):
            self._pending_inquires.clear()
            self._grant()

    # ------------------------------------------------------------------ #
    # arbiter side
    # ------------------------------------------------------------------ #
    def _arbiter_request(self, ts: int, origin: int) -> None:
        entry = (ts, origin)
        if self._voted_for is None:
            self._voted_for = entry
            self._vote(origin)
            return
        self._enqueue(entry)
        holder = self._voted_for[1]
        if holder == self.node:
            if self.state is PeerState.CS:
                self._notify_pending()
        elif not self._hinted:
            # Hint the peer our vote currently backs that someone is
            # waiting.  Not part of classic Maekawa: it is the extra
            # observable the composition interface needs, since the
            # waiter's quorum may not contain the CS holder itself.
            self._hinted = True
            self._send(holder, "waiting")
        if entry < self._voted_for and not self._inquired:
            # An older request lost the race: ask our candidate to give
            # the vote back (it refuses only if already in the CS).
            self._inquired = True
            self._ask_relinquish(self._voted_for[1])
        elif entry > self._voted_for:
            self._fail(origin)

    def _arbiter_release(self, origin: int) -> None:
        if self._voted_for is None or self._voted_for[1] != origin:
            raise ProtocolError(
                f"{self.name}: release from {origin} but vote is held by "
                f"{self._voted_for}"
            )
        self._voted_for = None
        self._inquired = False
        self._hinted = False
        if self._wait:
            self._voted_for = self._wait.pop(0)
            self._vote(self._voted_for[1])
            self._hint_remaining()

    def _arbiter_relinquished(self, origin: int) -> None:
        """Our candidate gave the vote back: hand it to the queue head."""
        if self._voted_for is None or self._voted_for[1] != origin:
            return  # stale (release crossed the inquire)
        self._enqueue(self._voted_for)
        self._voted_for = self._wait.pop(0)
        self._inquired = False
        self._hinted = False
        self._vote(self._voted_for[1])
        self._hint_remaining()

    def _hint_remaining(self) -> None:
        """After handing the vote to a new candidate, tell it about
        entries still queued behind it — otherwise a candidate whose own
        quorum does not overlap the waiters would enter the CS blind to
        them (fatal for the composition's holder-observable semantics)."""
        if (
            self._wait
            and self._voted_for is not None
            and self._voted_for[1] != self.node
        ):
            self._hinted = True
            self._send(self._voted_for[1], "waiting")

    def _enqueue(self, entry: Tuple[int, int]) -> None:
        if entry not in self._wait:
            self._wait.append(entry)
            self._wait.sort()

    # local-vs-remote helpers: the arbiter may be voting for itself.
    def _vote(self, origin: int) -> None:
        if origin == self.node:
            self._got_vote(self.node)
        else:
            self._send(origin, "locked")

    def _fail(self, origin: int) -> None:
        if origin == self.node:
            self._failed_seen = True
        else:
            self._send(origin, "failed")

    def _ask_relinquish(self, origin: int) -> None:
        if origin == self.node:
            self._maybe_relinquish(self.node)
        else:
            self._send(origin, "inquire")

    def _maybe_relinquish(self, arbiter: int) -> None:
        """Inquire handling on the requester side: give the vote back
        unless we already won (then our release frees it).  Priorities
        guarantee an inquire only ever serves a strictly older request,
        so relinquishing cannot livelock the oldest requester."""
        if self.state is PeerState.CS:
            return  # we won; the release will free the vote
        if self.state is not PeerState.REQ:
            return  # stale inquire
        if arbiter in self._votes:
            self._votes.discard(arbiter)
            self._return_vote(arbiter)
        else:
            # The vote itself is still in flight (reordered link);
            # answer as soon as it lands.
            self._pending_inquires.add(arbiter)

    def _return_vote(self, arbiter: int) -> None:
        if arbiter == self.node:
            self._arbiter_relinquished(self.node)
        else:
            self._send(arbiter, "relinquish")

    # ------------------------------------------------------------------ #
    # message handlers
    # ------------------------------------------------------------------ #
    def _on_request(self, src: int, payload: dict) -> None:
        self._tick(payload["ts"])
        self._arbiter_request(payload["ts"], payload["origin"])

    def _on_locked(self, src: int, payload: Optional[dict]) -> None:
        self._got_vote(src)

    def _on_failed(self, src: int, payload: Optional[dict]) -> None:
        if self.state is PeerState.REQ:
            self._failed_seen = True

    def _on_inquire(self, src: int, payload: Optional[dict]) -> None:
        self._maybe_relinquish(src)

    def _on_relinquish(self, src: int, payload: Optional[dict]) -> None:
        self._arbiter_relinquished(src)

    def _on_release(self, src: int, payload: Optional[dict]) -> None:
        self._arbiter_release(src)

    def _on_waiting(self, src: int, payload: Optional[dict]) -> None:
        # Arbiter hint: a request queued behind the vote backing us.
        if self.state is PeerState.CS:
            self._remote_pending = True
            self._notify_pending()
        elif self.state is PeerState.REQ:
            # The hint raced ahead of our own CS entry (the arbiter voted
            # for us before we collected the full quorum).  Remember it:
            # has_pending_request must already be true when we enter, or
            # a composition coordinator would park in IN forever.
            self._remote_pending = True
        # NO_REQ: stale (we released before the hint landed) — ignore;
        # _do_request resets the flag for the next cycle.
