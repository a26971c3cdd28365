"""Equivalence tests for the scale-out execution path.

The compiled backend is the path 1k-10k-node runs take; it must be
*behaviourally invisible*.  Every cell of the canonical {naimi, suzuki,
martin} x {flat, composition} fault-free matrix is pinned on it against
the same ``GOLDEN_DIGESTS`` the seed kernel produced.
"""

import pytest

from .digest_scenarios import ALGOS, SYSTEMS, run_cell
from .test_optimization_equivalence import GOLDEN_DIGESTS


@pytest.mark.parametrize("algo,system", [(a, s) for a in ALGOS for s in SYSTEMS])
def test_full_scaleout_stack_on_compiled_backend(algo, system):
    """The compiled backend reproduces the seed kernel bit for bit."""
    assert run_cell(algo, system, "fault-free", backend="compiled") == \
        GOLDEN_DIGESTS[(algo, system, "fault-free")]
