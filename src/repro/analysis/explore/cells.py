"""The default verification matrix and its cross-backend runner.

Six fault-free cells cover {naimi, suzuki, martin} x {flat, composition}
(composition cells run the algorithm at both levels), each at a scope
tuned so the sleep-set reduction demonstrably prunes >= 10x of the naive
schedule enumeration while staying within a few seconds of wall clock.
One crash cell exercises the crash-stop + recovery path (flat naimi,
crashing the initial token holder at every possible point of the
schedule).

Fault-free cells run under both the interpreted and the compiled
backend and must explore the *identical* state set (order-insensitive
fingerprint equality) — the dynamic counterpart of the static RPR009
handler-equivalence lint.  Crash cells run interpreted only, mirroring
the compiled network's refusal of the fast classes on crash-enabled
runs.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from .explorer import ExploreReport, explore
from .world import ExploreScope

__all__ = ["CellResult", "MatrixReport", "default_cells", "run_matrix"]

#: Scopes chosen so every fault-free cell is exhaustive in seconds with
#: a reduction ratio >= 10 (measured; see docs/analysis.md).  The
#: three-requester workload keeps the interleaving width meaningful
#: without the factorial blow-up of a fourth concurrent requester.
_THREE = (1, 2, 4)


def default_cells(crash: bool = True) -> List[ExploreScope]:
    """The default model-checking matrix (backend-agnostic scopes)."""
    cells = [
        ExploreScope(
            system="flat", intra="naimi",
            nodes_per_cluster=3, requests_per_node=2, requesters=_THREE,
        ),
        ExploreScope(
            system="flat", intra="suzuki",
            nodes_per_cluster=3, requests_per_node=1, requesters=_THREE,
        ),
        ExploreScope(
            system="flat", intra="martin",
            nodes_per_cluster=3, requests_per_node=1,
        ),
        ExploreScope(
            system="composition", intra="naimi", inter="naimi",
            nodes_per_cluster=3, requests_per_node=2, requesters=_THREE,
        ),
        ExploreScope(
            system="composition", intra="suzuki", inter="suzuki",
            nodes_per_cluster=3, requests_per_node=1, requesters=_THREE,
        ),
        ExploreScope(
            system="composition", intra="martin", inter="martin",
            nodes_per_cluster=3, requests_per_node=1, requesters=_THREE,
        ),
    ]
    if crash:
        cells.append(
            ExploreScope(
                system="flat", intra="naimi",
                nodes_per_cluster=2, requests_per_node=1, crash_node=1,
            )
        )
    return cells


@dataclasses.dataclass
class CellResult:
    """One matrix cell: interpreted run, optional compiled run, and the
    cross-backend fingerprint verdict."""

    scope: ExploreScope
    interpreted: ExploreReport
    compiled: Optional[ExploreReport] = None
    #: None when the cell runs interpreted-only (crash / mutant cells)
    backends_agree: Optional[bool] = None

    @property
    def ok(self) -> bool:
        if not self.interpreted.ok:
            return False
        if self.compiled is not None:
            return self.compiled.ok and bool(self.backends_agree)
        return True

    def to_dict(self) -> dict:
        return {
            "cell": self.scope.describe(),
            "ok": self.ok,
            "backends_agree": self.backends_agree,
            "interpreted": self.interpreted.to_dict(),
            "compiled": (
                None if self.compiled is None else self.compiled.to_dict()
            ),
        }


@dataclasses.dataclass
class MatrixReport:
    cells: List[CellResult]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def violations(self) -> int:
        total = 0
        for cell in self.cells:
            total += len(cell.interpreted.violations)
            if cell.compiled is not None:
                total += len(cell.compiled.violations)
        return total

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def run_matrix(
    cells: Optional[Sequence[ExploreScope]] = None,
    *,
    backends: Sequence[str] = ("interpreted", "compiled"),
    reduce: bool = True,
    max_states: int = 250_000,
    max_transitions: int = 2_000_000,
    wall_budget_s: Optional[float] = None,
) -> MatrixReport:
    """Run every cell under each applicable backend.

    ``wall_budget_s`` bounds each individual exploration; a cell that
    exhausts it reports ``complete=False`` (and therefore fails).
    """
    if cells is None:
        cells = default_cells()
    results: List[CellResult] = []
    for scope in cells:
        base = dataclasses.replace(scope, backend="interpreted")
        kwargs: Dict = dict(
            reduce=reduce,
            max_states=max_states,
            max_transitions=max_transitions,
            wall_budget_s=wall_budget_s,
        )
        interpreted = explore(base, **kwargs)
        compilable = (
            "compiled" in backends
            and scope.crash_node is None
            and scope.peer_factory is None
        )
        if not compilable:
            results.append(CellResult(scope=base, interpreted=interpreted))
            continue
        compiled = explore(
            dataclasses.replace(scope, backend="compiled"), **kwargs
        )
        results.append(
            CellResult(
                scope=base,
                interpreted=interpreted,
                compiled=compiled,
                backends_agree=(
                    interpreted.state_fingerprint == compiled.state_fingerprint
                ),
            )
        )
    return MatrixReport(cells=results)
