"""Application processes (paper §4.1).

One application process runs per (application) node.  Its life is a loop
of ``n_cs`` iterations:

    think for ~β ms  →  request the CS  →  wait (obtaining time)
    →  hold the CS for α ms  →  release

Think times are drawn from an exponential distribution with mean β by
default (``distribution="exponential"``), modelling independent
processes; ``"fixed"`` uses β exactly, which synchronises request waves
and is useful in deterministic tests.  The very first think time is also
drawn (so processes do not all request at t=0 unless asked to).
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from ..metrics.collector import MetricsCollector
from ..metrics.records import CSRecord
from ..mutex.base import MutexPeer
from ..sim.process import Process

__all__ = ["ApplicationProcess"]

_DISTRIBUTIONS = ("exponential", "fixed")


class ApplicationProcess(Process):
    """Drives one mutex peer through the α/β request cycle.

    Parameters
    ----------
    peer:
        The application-facing mutex peer
        (:meth:`repro.core.composition.MutexSystem.peer_for`).
    cluster:
        Cluster index, stamped into the metric records.
    alpha_ms, beta_ms:
        CS duration and mean think time.
    n_cs:
        Critical sections to execute (100 in the paper).
    collector:
        Destination for the per-CS records.
    distribution:
        ``"exponential"`` (default) or ``"fixed"`` think times.
    first_request_at:
        Optional absolute time of the first *think phase start*
        (defaults to 0; the first request happens one think time later).
    """

    def __init__(
        self,
        peer: MutexPeer,
        cluster: int,
        alpha_ms: float,
        beta_ms: float,
        n_cs: int,
        collector: MetricsCollector,
        distribution: str = "exponential",
        first_request_at: float = 0.0,
        on_done=None,
    ) -> None:
        super().__init__(peer.sim, f"app@{peer.node}")
        if alpha_ms <= 0:
            raise ConfigurationError(f"alpha must be positive, got {alpha_ms}")
        if beta_ms < 0:
            raise ConfigurationError(f"beta must be >= 0, got {beta_ms}")
        if n_cs < 0:
            raise ConfigurationError(f"n_cs must be >= 0, got {n_cs}")
        if distribution not in _DISTRIBUTIONS:
            raise ConfigurationError(
                f"unknown distribution {distribution!r}; "
                f"choose from {_DISTRIBUTIONS}"
            )
        self.peer = peer
        self.cluster = cluster
        self.alpha = float(alpha_ms)
        self.beta = float(beta_ms)
        self.n_cs = int(n_cs)
        self.collector = collector
        self.distribution = distribution
        self.completed = 0
        #: called once, when the last CS completes
        self.on_done = on_done
        self._requested_at: Optional[float] = None
        self._granted_at: Optional[float] = None
        self._rng = self.rng("think")
        # Timer labels hoisted off the per-CS path (2 f-strings per CS).
        self._cs_label = f"{self.name}.cs"
        self._think_label = f"{self.name}.think"
        peer.on_granted.append(self._on_granted)
        if self.n_cs == 0 and on_done is not None:
            on_done(self)
        if self.n_cs > 0:
            # Handle-free timers throughout: nothing ever cancels them,
            # and an EventHandle plus a tracking list per process would
            # be set-up allocations for every application node.
            delay = first_request_at + self._draw_think()
            self.sim.post_at(
                self.sim._now + delay, self._request, (),
                f"{self.name}.first",
            )

    def close(self) -> None:
        """Detach from the peer (teardown after the run): the peer's
        callback list references this process back."""
        self.peer.on_granted.remove(self._on_granted)

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """Whether all ``n_cs`` critical sections have completed."""
        return self.completed >= self.n_cs

    def _draw_think(self) -> float:
        if self.beta == 0.0:
            return 0.0
        if self.distribution == "fixed":
            return self.beta
        return float(self._rng.exponential(self.beta))

    # ------------------------------------------------------------------ #
    def _request(self) -> None:
        sim = self.sim
        self._requested_at = sim._now
        if "app_request" in sim.trace.active_kinds:
            sim.trace.emit(
                "app_request", time=sim._now, node=self.peer.node,
                cluster=self.cluster,
            )
        self.peer.request_cs()

    def _on_granted(self) -> None:
        if self._requested_at is None:
            if self.done:
                # A later process phase may legitimately drive the same
                # peer once this one has finished (multi-phase workloads);
                # its grants are not ours.
                return
            raise ConfigurationError(
                f"{self.name}: CS granted without an outstanding request"
            )
        sim = self.sim
        now = sim._now
        self._granted_at = now
        sim.post_at(now + self.alpha, self._release, (), self._cs_label)

    def _release(self) -> None:
        assert self._requested_at is not None and self._granted_at is not None
        sim = self.sim
        self.peer.release_cs()
        # The frozen-dataclass constructor costs five object.__setattr__
        # calls plus a timestamp validation; the invariant it checks
        # (requested <= granted <= released) holds by construction here
        # — granted_at was stamped at grant time and alpha > 0.
        record = CSRecord.__new__(CSRecord)
        record.__dict__.update(
            node=self.peer.node,
            cluster=self.cluster,
            requested_at=self._requested_at,
            granted_at=self._granted_at,
            released_at=sim._now,
        )
        self.collector.add(record)
        self._requested_at = None
        self._granted_at = None
        self.completed += 1
        if self.completed < self.n_cs:
            sim.post_at(
                sim._now + self._draw_think(), self._request, (),
                self._think_label,
            )
        elif self.on_done is not None:
            self.on_done(self)
