"""Raymond's static-tree token algorithm (extension; paper ref [14]).

Not part of the paper's evaluated trio, but cited by the related work
(Housni et al. use it inside groups) and a natural fourth plug-in for the
composition framework: peers form a **static** tree; each peer keeps

* ``holder``: which neighbour (or itself) is in the direction of the
  token;
* ``request_q``: FIFO of neighbours (or itself) whose requests await the
  token;
* ``asked``: whether a request has already been sent toward the holder
  (collapses concurrent requests into one message per edge).

Per-CS cost: ``O(log N)`` messages on a balanced tree.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Optional, Sequence

from ..errors import ProtocolError
from .base import MutexPeer, PeerState

__all__ = ["RaymondPeer", "balanced_tree_parents"]


def balanced_tree_parents(peers: Sequence[int], root: int) -> Dict[int, Optional[int]]:
    """Lay ``peers`` out as a balanced binary tree rooted at ``root``.

    Returns a parent map (``root`` maps to ``None``).  The layout is by
    peer order: index 0 is the root, index ``i`` has parent ``(i-1)//2``
    — with the peer list rotated so ``root`` lands at index 0.
    """
    ordered = list(peers)
    ri = ordered.index(root)
    ordered[0], ordered[ri] = ordered[ri], ordered[0]
    parents: Dict[int, Optional[int]] = {ordered[0]: None}
    for i in range(1, len(ordered)):
        parents[ordered[i]] = ordered[(i - 1) // 2]
    return parents


class RaymondPeer(MutexPeer):
    """One peer of Raymond's tree-based token algorithm.

    Message kinds: ``request`` (one hop toward the holder), ``token``
    (one hop toward the requester).
    """

    algorithm_name = "raymond"
    topology = "static-tree"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        parents = balanced_tree_parents(self.peers, self.initial_holder)
        parent = parents[self.node]
        # ``holder`` points at ourselves when we have the token, else at
        # the neighbour in the token's direction — initially the parent,
        # since the initial holder is the tree root.
        self.holder: int = self.node if parent is None else parent
        self.request_q: Deque[int] = deque()
        self.asked = False

    # ------------------------------------------------------------------ #
    @property
    def holds_token(self) -> bool:
        return self.holder == self.node

    @property
    def has_pending_request(self) -> bool:
        return any(q != self.node for q in self.request_q)

    # ------------------------------------------------------------------ #
    def _do_request(self) -> None:
        self.request_q.append(self.node)
        self._assign_or_ask()

    def _do_release(self) -> None:
        self._assign_or_ask()

    # ------------------------------------------------------------------ #
    def _on_request(self, src: int, payload: Optional[dict]) -> None:
        sender = src
        if sender not in self.peers:
            raise ProtocolError(f"{self.name}: request from stranger {sender}")
        self.request_q.append(sender)
        if self.holds_token and self.state is PeerState.CS:
            self._notify_pending()
        self._assign_or_ask()

    def _on_token(self, src: int, payload: Optional[dict]) -> None:
        self.holder = self.node
        self.asked = False
        self._assign_or_ask()

    # ------------------------------------------------------------------ #
    def _assign_or_ask(self) -> None:
        """Raymond's core step: if privileged and idle, serve the queue
        head; otherwise make sure a request is on its way to the holder."""
        if self.holds_token and self.state is not PeerState.CS and self.request_q:
            head = self.request_q.popleft()
            if head == self.node:
                if self.state is not PeerState.REQ:
                    raise ProtocolError(
                        f"{self.name}: queued self while not requesting"
                    )
                self._grant()
            else:
                self.holder = head
                self._send(head, "token")
        if not self.holds_token and self.request_q and not self.asked:
            self.asked = True
            self._send(self.holder, "request")
