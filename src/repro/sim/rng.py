"""Deterministic random-stream management.

Every source of randomness in a simulation (per-node think times, latency
jitter, workload shuffles...) pulls from its own named stream derived from a
single master seed.  Two properties follow:

* **Reproducibility** — the same master seed gives bit-identical runs.
* **Independence from iteration order** — a stream's values depend only on
  its *label*, not on how many other streams were created before it, so
  adding a new random consumer does not perturb existing ones.

Streams are :class:`numpy.random.Generator` instances (PCG64), the idiom
recommended by the scientific-Python optimization guides.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

import numpy as np
# numpy 2 loads the numpy.random subpackage lazily, on first attribute
# access; import it with the package so that cost is not paid inside
# the first run's set-up.
import numpy.random  # noqa: F401

__all__ = ["RngRegistry", "stable_hash"]


def stable_hash(label: str) -> int:
    """Map ``label`` to a stable 64-bit integer (process-independent,
    unlike the built-in ``hash``)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngRegistry:
    """Factory of named, independent random generators.

    Parameters
    ----------
    seed:
        Master entropy.  ``None`` draws fresh OS entropy.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        if seed is None:
            seed = int(np.random.SeedSequence().entropy)
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed this registry was built from."""
        return self._seed

    def stream(self, label: str) -> np.random.Generator:
        """Return the generator for ``label``, creating it on first use.

        Repeated calls with the same label return the *same* generator
        object (so its state advances across calls), which is what a
        long-lived consumer such as a workload process wants.
        """
        gen = self._streams.get(label)
        if gen is None:
            seq = np.random.SeedSequence([self._seed, stable_hash(label)])
            gen = np.random.default_rng(seq)
            self._streams[label] = gen
        return gen

    def fresh(self, label: str) -> np.random.Generator:
        """Return a *new* generator for ``label`` with pristine state,
        bypassing the cache.  Useful in tests that want to replay a
        stream from its beginning."""
        seq = np.random.SeedSequence([self._seed, stable_hash(label)])
        return np.random.default_rng(seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngRegistry seed={self._seed} streams={len(self._streams)}>"
