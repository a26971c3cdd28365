"""Martin's ring algorithm (paper §2.1).

Peers form a logical ring (the order of the ``peers`` tuple).  Token
*requests* travel in one direction — each peer sends requests to its ring
**successor** — while the *token* travels in the opposite direction, from
holder to **predecessor**.

Two optimisations from the paper are implemented:

* a peer that is itself requesting absorbs an incoming request instead of
  forwarding it: the token it is waiting for will pass through here
  anyway, and it remembers to hand it onward after its own CS;
* when the token passes a peer that merely relayed a request, that peer
  forwards the token toward its predecessor (the ``_owe_pred`` flag keeps
  the promise made when the request was relayed).

Per-CS cost: ``2(x+1)`` messages, where ``x`` is the number of peers
between requester and holder — ``N`` on average.  ``T_req`` and
``T_token`` are both ``(x+1)·T``.
"""

from __future__ import annotations

from typing import Any, Optional

from .base import MutexPeer, PeerState

__all__ = ["MartinPeer"]


class MartinPeer(MutexPeer):
    """One peer of Martin's ring-based token algorithm.

    Message kinds: ``request`` (to successor), ``token`` (to predecessor).
    """

    #: registry name
    algorithm_name = "martin"
    topology = "ring"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        index = self.peers.index(self.node)
        self.successor = self.peers[(index + 1) % len(self.peers)]
        self.predecessor = self.peers[(index - 1) % len(self.peers)]
        self._holds_token = self.node == self.initial_holder
        # True when the token, once through with our own needs, must be
        # passed to our predecessor (a request came from that side and has
        # not been satisfied yet).
        self._owe_pred = False

    # ------------------------------------------------------------------ #
    @property
    def holds_token(self) -> bool:
        return self._holds_token

    @property
    def has_pending_request(self) -> bool:
        return self._owe_pred

    def _fingerprint_state(self) -> tuple:
        return (self._holds_token, self._owe_pred)

    # ------------------------------------------------------------------ #
    # requesting
    # ------------------------------------------------------------------ #
    def _do_request(self) -> None:
        if self._holds_token:
            # Already privileged: enter directly, zero messages.
            self._grant()
            return
        if len(self.peers) == 1:
            # Degenerate single-peer ring without the token cannot happen
            # (the single peer is always the initial holder).
            raise AssertionError("single-peer ring lost its token")
        self._send(self.successor, "request")

    # ------------------------------------------------------------------ #
    # releasing
    # ------------------------------------------------------------------ #
    def _do_release(self) -> None:
        if self._owe_pred:
            self._pass_token()
        # Otherwise keep the token idle; a later request will collect it.

    # ------------------------------------------------------------------ #
    # message handlers
    # ------------------------------------------------------------------ #
    def _on_request(self, src: int, payload: Optional[dict]) -> None:
        if self._holds_token:
            if self._state is PeerState.CS:
                # Serve the predecessor side after our own CS.
                first = not self._owe_pred
                self._owe_pred = True
                if first:
                    self._notify_pending()
            else:
                # Idle holder: hand the token over immediately.
                self._owe_pred = True
                self._pass_token()
        else:
            if self._state is PeerState.REQ or self._owe_pred:
                # Our own pending request (or an earlier relayed one)
                # already guarantees the token will come through here;
                # absorb the duplicate and remember the obligation.
                self._owe_pred = True
            else:
                self._owe_pred = True
                self._send(self.successor, "request")

    def _on_token(self, src: int, payload: Optional[dict]) -> None:
        self._holds_token = True
        if self._state is PeerState.REQ:
            self._grant()
        elif self._owe_pred:
            # We only relayed a request: keep the token moving.
            self._pass_token()
        # A token arriving with no local interest and no obligation would
        # be a protocol violation, but it legitimately happens transiently
        # under fault injection; holding it keeps the system safe.

    # ------------------------------------------------------------------ #
    def _pass_token(self) -> None:
        """Send the token to our predecessor, discharging the obligation."""
        self._holds_token = False
        self._owe_pred = False
        self._send(self.predecessor, "token")
