"""The compiled network: the fast path every experiment run takes.

:class:`CompiledNetwork` fuses the send→schedule→dispatch pipeline into
single frames and, for messages between
:class:`~repro.mutex.base.MutexPeer` objects, delivers through the
receiver's per-class handler table without allocating a
:class:`~repro.net.message.Message` (the *table route*).  There is one
implementation of every algorithm, coordinator and application process;
the network picks the route per send, and falls back to the plain
:class:`~repro.net.network.Network` pipeline whenever an observer could
tell the difference (crashes, faults, FIFO flows, send taps, ``deliver``
subscribers).

The fast path is **equivalence-gated**: a run on it must produce a
:class:`~repro.verify.digest.RunDigest` bit-identical to the same run
on a plain :class:`~repro.net.network.Network`, checked across the
golden matrix and the digest corpus in ``tests/properties``.
"""

from .network import CompiledNetwork, compile_system

__all__ = ["CompiledNetwork", "compile_system"]
