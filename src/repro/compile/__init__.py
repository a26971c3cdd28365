"""The compiled fast path every experiment run takes when it qualifies.

Lowers each registered algorithm's message protocol into table-driven
dispatch: per-kind handler tables resolved once per class
(:mod:`~repro.compile.tables`), per-peer hot state in numpy arrays
(:mod:`~repro.compile.state`), and a network whose send→schedule→
dispatch pipeline is fused into single frames
(:mod:`~repro.compile.network`).  Systems built on a
:class:`CompiledNetwork` get the fast peer, coordinator and application
classes of :mod:`~repro.compile.peers` unless the network refuses them
(crashes, faults, FIFO flows, send taps, non-exact types); refused runs
execute the interpreted classes on the same network.

The fast path is **equivalence-gated**: a run on it must produce a
:class:`~repro.verify.digest.RunDigest` bit-identical to the same run
on a plain :class:`~repro.net.network.Network` with the interpreted
classes, checked across the golden matrix in
``tests/properties/test_backend_equivalence.py``.
"""

from .network import CompiledNetwork
from .peers import (
    CompiledApplicationProcess,
    CompiledMartinPeer,
    CompiledNaimiPeer,
    CompiledSuzukiPeer,
    FAST_CLASSES,
    compile_system,
    compiled_peer_registry,
)
from .state import ArrayMap, StateLayout, capture_state, layout_for
from .tables import check_table_conformance, dispatch_table, fast_table

__all__ = [
    "CompiledNetwork",
    "CompiledNaimiPeer",
    "CompiledSuzukiPeer",
    "CompiledMartinPeer",
    "CompiledApplicationProcess",
    "FAST_CLASSES",
    "compile_system",
    "compiled_peer_registry",
    "dispatch_table",
    "fast_table",
    "check_table_conformance",
    "StateLayout",
    "ArrayMap",
    "capture_state",
    "layout_for",
]
