"""Prioritized Naimi-Tréhel with pluggable token scheduling
(extension; paper refs [11] Mueller and [3] Bertier et al.).

The related work offers an *alternative* to the paper's composition:
keep one flat token algorithm but make its scheduling hierarchy-aware.
Mueller [11] extends Naimi-Tréhel with priorities; Bertier et al. [3]
"treat intra-cluster requests before inter-cluster ones".  This module
implements that family so the benchmarks can pit it against the
composition:

* the **last tree** routes requests exactly as in Naimi-Tréhel
  (path-reversal, ``O(log N)`` hops);
* instead of the single distributed ``next`` pointer, pending requests
  live in explicit queues: the **token carries the global queue**, and a
  requesting peer that receives someone else's request **buffers** it
  locally, merging the buffer into the token queue when the token
  arrives (Mueller's local queues);
* on release the holder picks the next peer through a pluggable
  :class:`SchedulingPolicy`:

  - :class:`FifoPolicy` — oldest request first (≈ classic fairness);
  - :class:`PriorityPolicy` — explicit priority levels, FIFO within a
    level (Mueller);
  - :class:`ClusterAffinityPolicy` — same-cluster requests first, with a
    bounded streak and aging so remote clusters cannot starve (the
    Bertier-style hierarchy-aware scheduler).

Liveness: every buffered request eventually reaches the token queue
(buffers only exist at requesting peers, which eventually obtain the
token and merge), and every policy here is *finitely unfair* — it must
pick an entry whose ``skips`` counter is below its aging bound, so
every entry's rank eventually dominates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, List, Optional, Sequence

from ..errors import ProtocolError
from ..net.message import DEFAULT_MESSAGE_SIZE
from ..net.topology import GridTopology
from .base import MutexPeer, PeerState

__all__ = [
    "QueueEntry",
    "SchedulingPolicy",
    "FifoPolicy",
    "PriorityPolicy",
    "ClusterAffinityPolicy",
    "PriorityNaimiPeer",
]


class QueueEntry:
    """One pending request travelling with the token."""

    __slots__ = ("origin", "ts", "priority", "skips")

    def __init__(
        self, origin: int, ts: float, priority: int = 0, skips: int = 0
    ) -> None:
        self.origin = origin
        self.ts = ts
        self.priority = priority
        self.skips = skips

    def to_wire(self) -> dict:
        return {
            "origin": self.origin, "ts": self.ts,
            "priority": self.priority, "skips": self.skips,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "QueueEntry":
        return cls(data["origin"], data["ts"], data["priority"], data["skips"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QueueEntry {self.origin} ts={self.ts:.3f} "
            f"prio={self.priority} skips={self.skips}>"
        )


class SchedulingPolicy(ABC):
    """Chooses which queue entry the released token goes to."""

    #: entries skipped more than this many times must be chosen next
    #: (finite unfairness bound; subclasses may tighten it).
    aging_bound = 16

    @abstractmethod
    def select(self, queue: Sequence[QueueEntry], holder: int) -> int:
        """Index of the entry to serve next (queue is non-empty)."""

    def pick(self, queue: List[QueueEntry], holder: int) -> QueueEntry:
        """Apply :meth:`select`, honour aging, update skip counters and
        remove the winner from the queue."""
        overdue = [
            i for i, e in enumerate(queue) if e.skips >= self.aging_bound
        ]
        if overdue:
            # Serve the most-skipped, oldest entry first.
            index = max(
                overdue, key=lambda i: (queue[i].skips, -queue[i].ts)
            )
        else:
            index = self.select(queue, holder)
            if not 0 <= index < len(queue):
                raise ProtocolError(
                    f"scheduling policy returned invalid index {index}"
                )
        winner = queue.pop(index)
        for entry in queue:
            entry.skips += 1
        return winner


class FifoPolicy(SchedulingPolicy):
    """Oldest request first (global FIFO by enqueue timestamp)."""

    def select(self, queue: Sequence[QueueEntry], holder: int) -> int:
        return min(range(len(queue)), key=lambda i: (queue[i].ts, queue[i].origin))


class PriorityPolicy(SchedulingPolicy):
    """Mueller [11]: highest priority level first, FIFO within a level."""

    def select(self, queue: Sequence[QueueEntry], holder: int) -> int:
        return min(
            range(len(queue)),
            key=lambda i: (-queue[i].priority, queue[i].ts, queue[i].origin),
        )


class ClusterAffinityPolicy(SchedulingPolicy):
    """Bertier et al. [3]: intra-cluster requests before inter-cluster
    ones, with a bounded local streak.

    Parameters
    ----------
    topology:
        Used to compare the holder's cluster with each entry's.
    max_streak:
        After this many consecutive same-cluster grants the policy must
        serve a remote entry (if any) — Bertier's threshold guarding
        against remote starvation, on top of the generic aging bound.
    """

    def __init__(self, topology: GridTopology, max_streak: int = 8) -> None:
        if max_streak < 1:
            raise ProtocolError(f"max_streak must be >= 1, got {max_streak}")
        self.topology = topology
        self.max_streak = max_streak
        self._streak = 0
        self._streak_cluster: Optional[int] = None

    def select(self, queue: Sequence[QueueEntry], holder: int) -> int:
        cluster = self.topology.cluster_of(holder)
        local = [
            i for i, e in enumerate(queue)
            if self.topology.cluster_of(e.origin) == cluster
        ]
        remote = [i for i in range(len(queue)) if i not in local]
        streak_ok = not (
            self._streak_cluster == cluster and self._streak >= self.max_streak
        )
        if local and (streak_ok or not remote):
            if self._streak_cluster == cluster:
                self._streak += 1
            else:
                self._streak_cluster, self._streak = cluster, 1
            pool = local
        else:
            self._streak_cluster, self._streak = None, 0
            pool = remote if remote else local
        return min(pool, key=lambda i: (queue[i].ts, queue[i].origin))


class PriorityNaimiPeer(MutexPeer):
    """Naimi-Tréhel routing with queue-carrying token and pluggable
    scheduling.

    Message kinds: ``request`` (carries origin/ts/priority, forwarded
    along ``last`` pointers), ``token`` (carries the global queue).

    Parameters
    ----------
    policy:
        The :class:`SchedulingPolicy` applied when this peer releases
        the token.  Defaults to :class:`FifoPolicy`.  (Each peer applies
        its own policy instance; give stateful policies one instance per
        peer.)
    priority:
        Fixed priority level attached to this peer's requests.
    """

    algorithm_name = "priority-naimi"
    topology = "dynamic tree + token queue"

    def __init__(
        self,
        *args: Any,
        policy: Optional[SchedulingPolicy] = None,
        priority: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.policy = policy if policy is not None else FifoPolicy()
        self.priority = int(priority)
        self._holds_token = self.node == self.initial_holder
        self.last: int = self.initial_holder
        #: global queue; only meaningful while holding the token
        self.token_queue: List[QueueEntry] = []
        #: requests buffered here while we are ourselves waiting
        self.local_buffer: List[QueueEntry] = []

    # ------------------------------------------------------------------ #
    @property
    def holds_token(self) -> bool:
        return self._holds_token

    @property
    def has_pending_request(self) -> bool:
        return bool(self.token_queue) or bool(self.local_buffer)

    @property
    def is_root(self) -> bool:
        return self.last == self.node

    # ------------------------------------------------------------------ #
    def _do_request(self) -> None:
        if self._holds_token:
            self._grant()
            return
        entry = QueueEntry(self.node, self.now, self.priority)
        self._send(self.last, "request", entry.to_wire())
        self.last = self.node

    def _do_release(self) -> None:
        if self.token_queue:
            self._pass_token()
        # else: keep the token idle; we stay the tree root.

    # ------------------------------------------------------------------ #
    def _on_request(self, src: int, payload: dict) -> None:
        entry = QueueEntry.from_wire(payload)
        if self._holds_token:
            if self.state is PeerState.CS:
                self.token_queue.append(entry)
                self._notify_pending()
            else:
                # Idle holder: serve through the policy so a freshly
                # arrived remote request still respects affinity rules.
                self.token_queue.append(entry)
                self._pass_token()
        elif self.state is PeerState.REQ or self.local_buffer:
            # We are waiting ourselves: buffer, merge on token arrival.
            self.local_buffer.append(entry)
        else:
            self._send(self.last, "request", entry.to_wire())
        self.last = entry.origin

    def _on_token(self, src: int, payload: dict) -> None:
        if self._holds_token:
            raise ProtocolError(f"{self.name}: received a second token")
        if self.state is not PeerState.REQ:
            raise ProtocolError(
                f"{self.name}: token arrived in state {self.state.value}"
            )
        self._holds_token = True
        self.token_queue = [
            QueueEntry.from_wire(d) for d in payload["queue"]
        ]
        if self.local_buffer:
            self.token_queue.extend(self.local_buffer)
            self.local_buffer = []
        self._grant()

    # ------------------------------------------------------------------ #
    def _pass_token(self) -> None:
        winner = self.policy.pick(self.token_queue, self.node)
        queue, self.token_queue = self.token_queue, []
        self._holds_token = False
        size = DEFAULT_MESSAGE_SIZE + 16 * len(queue)
        self._send(
            winner.origin, "token",
            {"queue": [e.to_wire() for e in queue]}, size=size,
        )
        # The winner is the most probable owner now.
        self.last = winner.origin
