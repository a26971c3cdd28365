"""Deriving hierarchy levels from measured latencies.

The paper groups machines by *cluster membership*, which on Grid'5000
coincides with the latency structure.  For platforms where the grouping
is not given (or for building the §6 multi-level hierarchy's *zones*),
this module derives it from the RTT matrix itself: sites are
agglomeratively clustered (average linkage over symmetrised RTT
distances), so WAN-close sites — e.g. toulouse/bordeaux at 3.1 ms or
grenoble/lyon at 3.3 ms on the paper's own matrix — end up in one zone.

The output plugs directly into
:class:`~repro.core.multilevel.MultilevelComposition` as its hierarchy
spec.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import TopologyError

__all__ = ["derive_zones", "zone_spread"]


def derive_zones(
    rtt_ms: Sequence[Sequence[float]] | np.ndarray,
    n_zones: int,
) -> List[List[int]]:
    """Group sites into ``n_zones`` latency-coherent zones.

    Parameters
    ----------
    rtt_ms:
        Square (possibly asymmetric) RTT matrix between sites.
    n_zones:
        Number of zones wanted, ``1 <= n_zones <= n_sites``.

    Returns
    -------
    A list of ``n_zones`` site-index lists (each sorted, jointly covering
    every site exactly once), ordered by their smallest member — ready to
    use as a :class:`~repro.core.multilevel.MultilevelComposition`
    hierarchy level.
    """
    matrix = np.asarray(rtt_ms, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise TopologyError(f"RTT matrix must be square, got {matrix.shape}")
    n = matrix.shape[0]
    if not 1 <= n_zones <= n:
        raise TopologyError(
            f"n_zones must be in 1..{n}, got {n_zones}"
        )
    if n_zones == n:
        return [[i] for i in range(n)]
    if n_zones == 1:
        return [list(range(n))]
    # scipy is imported here, not with the package: it roughly doubles
    # the interpreter's GC-tracked heap, which every full collection of
    # every run would then scan.
    from scipy.cluster.hierarchy import fcluster, linkage
    from scipy.spatial.distance import squareform

    # Symmetrise (measured matrices are directionally noisy) and zero
    # the diagonal so it is a valid dissimilarity.
    sym = (matrix + matrix.T) / 2.0
    np.fill_diagonal(sym, 0.0)
    condensed = squareform(sym, checks=False)
    tree = linkage(condensed, method="average")
    labels = fcluster(tree, t=n_zones, criterion="maxclust")
    zones: dict[int, List[int]] = {}
    for site, label in enumerate(labels):
        zones.setdefault(int(label), []).append(site)
    out = [sorted(members) for members in zones.values()]
    out.sort(key=lambda z: z[0])
    if len(out) != n_zones:
        # fcluster can merge below the requested count on degenerate
        # matrices (all-equal distances); fail loudly rather than hand
        # back a surprise hierarchy.
        raise TopologyError(
            f"could not split {n} sites into {n_zones} zones "
            f"(got {len(out)}); the latency matrix may be degenerate"
        )
    return out


def zone_spread(
    rtt_ms: Sequence[Sequence[float]] | np.ndarray,
    zones: Sequence[Sequence[int]],
) -> dict:
    """Quality measures of a zoning: mean intra-zone vs inter-zone RTT.

    A good zoning for a multi-level hierarchy maximises the gap —
    cheap token circulation inside a zone, rare expensive hops between
    zones.
    """
    matrix = np.asarray(rtt_ms, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise TopologyError(f"RTT matrix must be square, got {matrix.shape}")
    n = matrix.shape[0]
    intra, inter = [], []
    zone_of = {}
    for zi, members in enumerate(zones):
        for site in members:
            # Validate membership against the matrix, not just the count:
            # an out-of-range index would otherwise satisfy the coverage
            # check below and surface as a raw KeyError in the pair loop.
            if not 0 <= site < n:
                raise TopologyError(
                    f"zone {zi} contains site {site}, outside 0..{n - 1}"
                )
            if site in zone_of:
                raise TopologyError(f"site {site} in two zones")
            zone_of[site] = zi
    if len(zone_of) != n:
        raise TopologyError("zones do not cover every site")
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            (intra if zone_of[i] == zone_of[j] else inter).append(matrix[i, j])
    return {
        "intra_mean_ms": float(np.mean(intra)) if intra else 0.0,
        "inter_mean_ms": float(np.mean(inter)) if inter else 0.0,
        "separation": (
            float(np.mean(inter) / np.mean(intra)) if intra and inter else
            float("inf")
        ),
    }
