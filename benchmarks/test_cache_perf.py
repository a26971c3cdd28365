"""Acceptance benchmarks for the experiment cache.

The tracked scenarios in :mod:`benchmarks.perf.scenarios` record the
trajectory; these tests assert the two cache acceptance criteria hold
on the machine at hand:

* a warm-cache Fig. 4 ρ-sweep is at least 10x faster than a cold one;
* a cold cache costs at most a few percent over running with no cache
  at all (median of interleaved no-cache/cold pair ratios).
"""

import gc
import statistics
import tempfile

from benchmarks.perf.scenarios import (
    SCENARIO_FNS,
    _fig4_sweep_configs,
    _timed_sweep,
)
from repro.cache import ExperimentCache

#: The cold-cache overhead sweep: the scenario's 4 quick ρ cells for 8
#: seeds, ~0.3 s of simulation per leg and pass.
_OVERHEAD_SEEDS = range(1, 9)
_OVERHEAD_PAIRS = 7


def _best_of(name: str, repeats: int = 3) -> float:
    return min(SCENARIO_FNS[name](True)["wall_s"] for _ in range(repeats))


def test_warm_sweep_is_at_least_10x_faster_than_cold():
    cold = _best_of("fig4_sweep_cold_cache", repeats=1)
    warm = _best_of("fig4_sweep_warm_cache", repeats=3)
    speedup = cold / warm
    print(f"fig4 sweep: cold {cold:.3f}s, warm {warm:.4f}s "
          f"({speedup:.0f}x)")
    assert speedup >= 10.0, (
        f"warm cache only {speedup:.1f}x faster than cold"
    )


def _cell_wall(config, cache) -> float:
    """One cell through the cache-aware sweep front door, timed."""
    return _timed_sweep([config], cache)["wall_s"]


def test_cold_cache_overhead_is_small():
    # Each pair runs the whole sweep twice per leg, cell by cell in
    # ABBA order: both legs see the same host speed to within a few
    # ~10 ms cells (whole-sweep pairs swung 0.7x-1.5x on a shared
    # 2-vCPU host), and a config's repeat run being faster than its
    # first cannot favour either leg.  The heap present before timing is
    # frozen out of the cyclic GC: a full collection otherwise walks
    # every loaded module and lands in whichever leg happens to trip
    # it, which swung pair ratios by +-15%.  The gate reads the median
    # of the pair ratios.
    configs = [
        config.with_(seed=seed)
        for seed in _OVERHEAD_SEEDS
        for config in _fig4_sweep_configs(quick=True)
    ]
    _timed_sweep(configs[:4], None)  # warm imports and first-call paths
    ratios = []
    gc.collect()
    gc.freeze()
    try:
        for _ in range(_OVERHEAD_PAIRS):
            no_cache = cold = 0.0
            with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as a, \
                    tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as b:
                first = ExperimentCache(cache_dir=a)
                second = ExperimentCache(cache_dir=b)
                for config in configs:
                    no_cache += _cell_wall(config, None)
                    cold += _cell_wall(config, first)
                    cold += _cell_wall(config, second)
                    no_cache += _cell_wall(config, None)
            ratios.append(cold / no_cache)
    finally:
        gc.unfreeze()
    overhead = statistics.median(ratios) - 1.0
    print(f"fig4 sweep x{len(configs)} cells: cold/no-cache ratios "
          f"{', '.join(f'{r:.3f}' for r in ratios)} "
          f"(median overhead {overhead:+.1%})")
    assert overhead <= 0.05, (
        f"cold-cache overhead {overhead:.1%} exceeds 5%"
    )
