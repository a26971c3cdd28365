"""Cheap always-on observability counters.

The counters subscribe to trace kinds through the tracer's per-kind
gating (:attr:`~repro.sim.trace.Tracer.active_kinds`): subscribing is
what switches each emit site on, so with no :class:`ObsCounters`
attached the hot loops pay only the existing ``kind in active_kinds``
membership test — the disabled path stays off the hot loop entirely.
Attached, each record costs one dict increment.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..net.topology import GridTopology
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecord

__all__ = ["ObsCounters"]


class ObsCounters:
    """Message and CS event counters with per-kind send breakdown."""

    def __init__(
        self, sim: Simulator, topology: Optional[GridTopology] = None
    ) -> None:
        self.sends = 0
        self.delivers = 0
        self.intra_sends = 0
        self.inter_sends = 0
        self.cs_requests = 0
        self.cs_entries = 0
        self.cs_exits = 0
        self.by_kind: Dict[str, int] = {}
        self._topology = topology
        self._detach = sim.trace.attach({
            "send": self._on_send,
            "deliver": self._on_deliver,
            "cs_request": self._on_cs_request,
            "cs_enter": self._on_cs_enter,
            "cs_exit": self._on_cs_exit,
        })

    def detach(self) -> None:
        """Unsubscribe; the emit sites go cold again."""
        if self._detach is not None:
            self._detach()
            # The closure holds bound methods of self: drop the cycle.
            self._detach = None

    def _on_send(self, rec: TraceRecord) -> None:
        self.sends += 1
        # Message kind travels in fields; record.kind is "send" itself.
        kind = rec.fields["kind"]
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1
        topo = self._topology
        if topo is not None:
            if topo.same_cluster(rec.src, rec.dst):
                self.intra_sends += 1
            else:
                self.inter_sends += 1

    def _on_deliver(self, rec: TraceRecord) -> None:
        self.delivers += 1

    def _on_cs_request(self, rec: TraceRecord) -> None:
        self.cs_requests += 1

    def _on_cs_enter(self, rec: TraceRecord) -> None:
        self.cs_entries += 1

    def _on_cs_exit(self, rec: TraceRecord) -> None:
        self.cs_exits += 1

    def snapshot(self) -> Dict[str, int]:
        """Flat, deterministically ordered counter dump."""
        out: Dict[str, int] = {
            "sends": self.sends,
            "delivers": self.delivers,
            "intra_sends": self.intra_sends,
            "inter_sends": self.inter_sends,
            "cs_requests": self.cs_requests,
            "cs_entries": self.cs_entries,
            "cs_exits": self.cs_exits,
        }
        for kind in sorted(self.by_kind):
            out[f"send.{kind}"] = self.by_kind[kind]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ObsCounters sends={self.sends} delivers={self.delivers} "
            f"cs={self.cs_entries}>"
        )
