"""The default verification matrix and its runner.

Six fault-free cells cover {naimi, suzuki, martin} x {flat, composition}
(composition cells run the algorithm at both levels), each at a scope
tuned so the sleep-set reduction demonstrably prunes >= 10x of the naive
schedule enumeration while staying within a few seconds of wall clock.
One crash cell exercises the crash-stop + recovery path (flat naimi,
crashing the initial token holder at every possible point of the
schedule).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from .explorer import ExploreReport, explore
from .world import ExploreScope

__all__ = ["MatrixReport", "default_cells", "run_matrix"]

#: Scopes chosen so every fault-free cell is exhaustive in seconds with
#: a reduction ratio >= 10 (measured; see docs/analysis.md).  The
#: three-requester workload keeps the interleaving width meaningful
#: without the factorial blow-up of a fourth concurrent requester.
_THREE = (1, 2, 4)


def default_cells(crash: bool = True) -> List[ExploreScope]:
    """The default model-checking matrix."""
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
class MatrixReport:
    cells: List[ExploreReport]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def violations(self) -> int:
        return sum(len(cell.violations) for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def run_matrix(
    cells: Optional[Sequence[ExploreScope]] = None,
    *,
    reduce: bool = True,
    max_states: int = 250_000,
    max_transitions: int = 2_000_000,
    wall_budget_s: Optional[float] = None,
) -> MatrixReport:
    """Explore every cell.

    ``wall_budget_s`` bounds each individual exploration; a cell that
    exhausts it reports ``complete=False`` (and therefore fails).
    """
    if cells is None:
        cells = default_cells()
    return MatrixReport(cells=[
        explore(
            scope,
            reduce=reduce,
            max_states=max_states,
            max_transitions=max_transitions,
            wall_budget_s=wall_budget_s,
        )
        for scope in cells
    ])
