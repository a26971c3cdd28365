"""Scalability study (paper §4.7).

The paper argues the composition scales better than the original (flat)
algorithms: "Suzuki-Suzuki" needs per-CS messages proportional to the
number of clusters (inter) plus cluster size (intra) instead of the
total node count N — and flat Suzuki's token also *grows* with N.
"Naimi-Naimi" similarly beats flat Naimi by never routing a request
through a WAN cycle.

This module sweeps the grid size and reports per-CS message counts and
bytes for flat vs composed deployments, on the uniform two-tier platform
(so the trend is not confounded by the Grid'5000 matrix's heterogeneity).

Large sweeps route through :func:`repro.experiments.parallel.run_configs_cached`
— the cache-aware batch entry point (incremental re-sweeps hit the
experiment cache, misses run in the warm worker pool).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache.store import ExperimentCache
from .config import ExperimentConfig
from .parallel import run_configs_cached

__all__ = ["ScalabilityPoint", "scalability_study"]


@dataclass(frozen=True)
class ScalabilityPoint:
    """Per-CS costs of one deployment at one grid size."""

    label: str
    n_clusters: int
    apps_per_cluster: int
    inter_messages_per_cs: float
    total_messages_per_cs: float
    bytes_per_cs: float
    obtaining_mean_ms: float

    @property
    def n_apps(self) -> int:
        return self.n_clusters * self.apps_per_cluster


def scalability_study(
    algorithm: str = "suzuki",
    cluster_counts: Sequence[int] = (2, 4, 8),
    apps_per_cluster: int = 4,
    n_cs: int = 10,
    rho_over_n: float = 1.0,
    seed: int = 0,
    cache: Optional[ExperimentCache] = None,
) -> Dict[str, Tuple[ScalabilityPoint, ...]]:
    """Flat ``algorithm`` vs the ``algorithm-algorithm`` composition over
    growing cluster counts.  Returns ``{label: points}``.

    ``cache`` makes repeated sweeps incremental.
    """
    flat_label = f"{algorithm} (flat)"
    comp_label = f"{algorithm}-{algorithm}"
    labels: List[str] = []
    configs: List[ExperimentConfig] = []
    for n_clusters in cluster_counts:
        n_apps = n_clusters * apps_per_cluster
        base = ExperimentConfig(
            platform="two-tier",
            n_clusters=n_clusters,
            apps_per_cluster=apps_per_cluster,
            n_cs=n_cs,
            rho=rho_over_n * n_apps,
            seed=seed,
        )
        labels.append(flat_label)
        configs.append(base.with_(system="flat", intra=algorithm))
        labels.append(comp_label)
        configs.append(
            base.with_(system="composition", intra=algorithm, inter=algorithm)
        )
    results = run_configs_cached(configs, cache=cache)
    out: Dict[str, list] = {flat_label: [], comp_label: []}
    for label, cfg, r in zip(labels, configs, results):
        out[label].append(
            ScalabilityPoint(
                label=label,
                n_clusters=cfg.n_clusters,
                apps_per_cluster=apps_per_cluster,
                inter_messages_per_cs=r.inter_messages_per_cs,
                total_messages_per_cs=r.messages_per_cs,
                bytes_per_cs=r.total_bytes / r.cs_count,
                obtaining_mean_ms=r.obtaining.mean,
            )
        )
    return {label: tuple(points) for label, points in out.items()}
