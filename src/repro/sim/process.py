"""Simulated processes.

A :class:`Process` is anything with behaviour in simulated time: an
application process, a mutual exclusion peer, a coordinator.  The base
class only provides naming, access to the kernel clock, and managed
timers; message passing lives one layer up in :mod:`repro.net`.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .event import Event, EventHandle
from .kernel import Simulator

__all__ = ["Process"]


class Process:
    """Base class for simulated processes.

    Parameters
    ----------
    sim:
        The kernel this process lives on.
    name:
        Stable identifier used for tracing and RNG stream derivation.
    """

    #: Outstanding timer handles: a shared empty tuple until the first
    #: :meth:`set_timer`.  Most peers never arm a timer, and a list per
    #: process would be one more GC-tracked object per node at set-up.
    _timers: "list[EventHandle] | tuple" = ()

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._halted = False
        self._timer_label = f"{name}.timer"  # hoisted off the set_timer path

    # ------------------------------------------------------------------ #
    # time helpers
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time (ms)."""
        return self.sim.now

    def set_timer(
        self, delay: float, fn: Callable[..., Any], *args: Any, label: str = ""
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to fire ``delay`` ms from now.

        The handle is tracked so :meth:`cancel_timers` can sweep every
        outstanding timer of the process (used at teardown).

        On a halted process (see :meth:`halt`) nothing is scheduled and
        an inert, already-cancelled handle is returned: a crashed node
        cannot arm timers, and callers need not special-case it."""
        if self._halted:
            dead = Event(self.sim.now, -1, fn, args, label=label)
            dead.cancelled = True
            return EventHandle(dead)
        handle = self.sim.schedule(
            delay, fn, *args, label=label or self._timer_label
        )
        timers = self._timers
        if not timers:
            timers = self._timers = []
        timers.append(handle)
        # Opportunistically compact the tracking list so long-lived
        # processes do not accumulate dead handles.
        if len(timers) > 64:
            self._timers = [h for h in timers if h.active]
        return handle

    def cancel_timers(self) -> None:
        """Cancel every outstanding timer of this process."""
        for handle in self._timers:
            handle.cancel()
        self._timers = ()

    # ------------------------------------------------------------------ #
    # crash semantics (driven by repro.net.faults.CrashController)
    # ------------------------------------------------------------------ #
    @property
    def halted(self) -> bool:
        """Whether this process is halted (its node has crashed)."""
        return self._halted

    def halt(self) -> None:
        """Crash-stop this process: cancel every outstanding timer and
        refuse new ones until :meth:`resume`.  Idempotent."""
        self._halted = True
        self.cancel_timers()

    def resume(self) -> None:
        """Allow the process to arm timers again (node restart).  Its
        protocol state is whatever it was at the crash — rejoining a
        distributed structure is the recovery layer's job, not ours."""
        self._halted = False

    def rng(self, purpose: str = "default") -> "np.random.Generator":
        """Return this process's named random stream for ``purpose``."""
        return self.sim.rng.stream(f"{self.name}/{purpose}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
