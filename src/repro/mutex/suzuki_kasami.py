"""Suzuki-Kasami's broadcast algorithm (paper §2.3).

A requester broadcasts ``request(i, x)`` — its id and a per-peer sequence
number — to all other peers.  Every peer keeps ``RN[j]``, the highest
request number seen from each ``j``.  The token carries ``LN[j]`` (the
sequence number of ``j``'s most recently *satisfied* request) and a FIFO
queue ``Q`` of peers with granted-pending requests.  On release the
holder appends every ``j`` with ``RN[j] == LN[j] + 1`` not already in
``Q``, then sends the token to the queue head.

Per-CS cost: ``N`` messages (``N-1`` requests + 1 token);
``T_req = T_token = T``.  The token message size grows with ``N``
(it carries ``LN`` and ``Q``), which the statistics layer accounts for.

Optional request retransmission (``retry_ms``): the paper (§2) notes
that "by diffusing the request to all sites, Suzuki-Kasami's is more
resilient to failures than the other two".  The RN/LN sequence numbers
make a re-broadcast request idempotent, so a requester can simply
re-send its (unchanged) request after a timeout, recovering from lost
request messages — something neither the ring nor the tree algorithm
can do without extra machinery.  Disabled by default (the paper's
evaluation assumes a reliable network).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional

from ..errors import ProtocolError
from ..net.message import DEFAULT_MESSAGE_SIZE
from .base import MutexPeer, PeerState

__all__ = ["SuzukiKasamiPeer"]


class SuzukiKasamiPeer(MutexPeer):
    """One peer of the Suzuki-Kasami token algorithm.

    Message kinds: ``request`` (broadcast, carries origin + sequence
    number), ``token`` (carries ``LN`` and ``Q``).
    """

    algorithm_name = "suzuki"
    topology = "complete-graph"

    def __init__(self, *args: Any, retry_ms: Optional[float] = None, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if retry_ms is not None and retry_ms <= 0:
            raise ProtocolError(f"retry_ms must be positive, got {retry_ms}")
        self.retry_ms = retry_ms
        self.retries = 0
        self._retry_timer = None
        self.rn: Dict[int, int] = {p: 0 for p in self.peers}
        self._holds_token = self.node == self.initial_holder
        # Token state; only meaningful while holding the token.
        self.ln: Optional[Dict[int, int]] = (
            {p: 0 for p in self.peers} if self._holds_token else None
        )
        self.queue: Optional[Deque[int]] = (
            deque() if self._holds_token else None
        )

    # ------------------------------------------------------------------ #
    @property
    def holds_token(self) -> bool:
        return self._holds_token

    @property
    def has_pending_request(self) -> bool:
        if not self._holds_token:
            return False
        if self.queue:
            return True
        rn, ln, node = self.rn, self.ln, self.node
        assert ln is not None
        for j in self.peers:
            if j != node and rn[j] == ln[j] + 1:
                return True
        return False

    def _fingerprint_state(self) -> tuple:
        rn = tuple(self.rn[p] for p in self.peers)
        if not self._holds_token:
            return (False, rn, None, None)
        assert self.ln is not None and self.queue is not None
        ln = tuple(self.ln[p] for p in self.peers)
        return (True, rn, ln, tuple(self.queue))

    # ------------------------------------------------------------------ #
    # requesting
    # ------------------------------------------------------------------ #
    def _do_request(self) -> None:
        if self._holds_token:
            self._grant()
            return
        node = self.node
        seq = self.rn[node] + 1
        self.rn[node] = seq
        self._broadcast("request", {"origin": node, "seq": seq})
        if self.retry_ms is not None:
            self._arm_retry()

    def _arm_retry(self) -> None:
        self._retry_timer = self.set_timer(
            self.retry_ms, self._retry, label=f"{self.name}.retry"
        )

    def _retry(self) -> None:
        """Re-broadcast the outstanding request (same sequence number —
        receivers that already saw it ignore the duplicate via RN)."""
        if self._state is not PeerState.REQ:
            return
        self.retries += 1
        self._broadcast(
            "request", {"origin": self.node, "seq": self.rn[self.node]}
        )
        self._arm_retry()

    # ------------------------------------------------------------------ #
    # releasing
    # ------------------------------------------------------------------ #
    def _do_release(self) -> None:
        rn, ln, queue, node = self.rn, self.ln, self.queue, self.node
        assert ln is not None and queue is not None
        ln[node] = rn[node]
        for j in self.peers:
            if j != node and rn[j] == ln[j] + 1 and j not in queue:
                queue.append(j)
        if queue:
            self._send_token(queue.popleft())

    # ------------------------------------------------------------------ #
    # message handlers
    # ------------------------------------------------------------------ #
    def _on_request(self, src: int, payload: dict) -> None:
        origin = payload["origin"]
        seq = payload["seq"]
        rn = self.rn
        if seq <= rn[origin]:
            return  # outdated or duplicated request
        rn[origin] = seq
        if not self._holds_token:
            return
        ln = self.ln
        assert ln is not None
        if seq == ln[origin] + 1:
            if self._state is PeerState.NO_REQ:
                # Idle holder grants immediately.
                self._send_token(origin)
            else:
                # In the CS: the request will be queued at release time.
                self._notify_pending()

    def _on_token(self, src: int, payload: dict) -> None:
        if self._holds_token:
            raise ProtocolError(f"{self.name}: received a second token")
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
        self._holds_token = True
        self.ln = dict(payload["ln"])
        self.queue = deque(payload["queue"])
        if self._state is not PeerState.REQ:
            raise ProtocolError(
                f"{self.name}: token arrived in state {self._state.value}"
            )
        self._grant()

    # ------------------------------------------------------------------ #
    def _send_token(self, dst: int) -> None:
        """Transfer the token (with its LN array and queue) to ``dst``."""
        ln, queue = self.ln, self.queue
        assert ln is not None and queue is not None
        self._holds_token = False
        self.ln = None
        self.queue = None
        # The token payload scales with N: LN has one entry per peer.
        # LN itself travels (we just gave it up); the receiver copies it.
        size = DEFAULT_MESSAGE_SIZE + 8 * len(self.peers) + 8 * len(queue)
        self._send(dst, "token", {"ln": ln, "queue": list(queue)}, size=size)
