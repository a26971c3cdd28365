"""The coordinator process (paper §3, Fig 1(b) and Fig 2).

A coordinator bridges two mutual exclusion algorithm instances through
their *unmodified* public interfaces:

* a **lower** (intra) instance, in which it participates alongside the
  cluster's application processes and whose token it initially holds;
* an **upper** (inter) instance, in which it participates alongside the
  other coordinators.

The pseudo-code of Fig 2 maps onto four event handlers:

* lower pending request while ``OUT``  → ``upper.request_cs()``
  (Fig 2 line 9) → ``WAIT_FOR_IN``;
* upper granted while ``WAIT_FOR_IN`` → ``lower.release_cs()``
  (line 11) → ``IN``;
* upper pending request while ``IN``  → ``lower.request_cs()``
  (line 16) → ``WAIT_FOR_OUT``;
* lower granted while ``WAIT_FOR_OUT`` → ``upper.release_cs()``
  (line 18) → ``OUT``.

On entering ``OUT`` and ``IN`` the coordinator re-checks the respective
``has_pending_request`` flag: a request that arrived while the automaton
was in the opposite wait state produced no fresh notification, but must
still be served (otherwise the composition loses liveness).

The same class implements every level of a **multi-level** hierarchy
(paper §6): a zone coordinator is simply a coordinator whose *lower*
instance is the inter algorithm of its zone.
"""

from __future__ import annotations

from typing import Optional

from ..errors import CompositionError
from ..mutex.base import MutexPeer
from ..sim.kernel import Simulator
from ..sim.process import Process
from .states import CoordinatorState

__all__ = ["Coordinator"]

# Module-level automaton state handles: the four event handlers test and
# assign these on every CS cycle, and a global load is cheaper than the
# class-attribute chain ``CoordinatorState.IN`` (two dict lookups).
_STARTING = CoordinatorState.STARTING
_OUT = CoordinatorState.OUT
_WAIT_FOR_IN = CoordinatorState.WAIT_FOR_IN
_IN = CoordinatorState.IN
_WAIT_FOR_OUT = CoordinatorState.WAIT_FOR_OUT
_OUT_I = _OUT.index
_WAIT_FOR_IN_I = _WAIT_FOR_IN.index
_IN_I = _IN.index
_WAIT_FOR_OUT_I = _WAIT_FOR_OUT.index


class Coordinator(Process):
    """Hybrid process bridging a lower and an upper mutex instance.

    Parameters
    ----------
    sim:
        The kernel.
    lower:
        Peer in the lower (intra) instance.  The coordinator must be this
        instance's initial holder (the paper's "initially, every
        coordinator holds the intra token of its cluster"); it acquires
        the lower CS at construction time — synchronously for token-based
        algorithms, after a startup round-trip for permission-based ones.
    upper:
        Peer in the upper (inter) instance.
    name:
        Display name (defaults to ``coord@<node>``).
    """

    def __init__(
        self,
        sim: Simulator,
        lower: MutexPeer,
        upper: MutexPeer,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name or f"coord@{lower.node}")
        if lower.node != upper.node:
            raise CompositionError(
                f"coordinator peers live on different nodes "
                f"({lower.node} vs {upper.node})"
            )
        if lower.port == upper.port:
            raise CompositionError(
                f"lower and upper instances share port {lower.port!r}"
            )
        self.lower = lower
        self.upper = upper
        self._trace = sim.trace  # hot: read on every state transition
        self._state = CoordinatorState.STARTING
        #: Optional reconfiguration gate (see adaptive composition): a
        #: callable consulted before issuing an upper-level request.
        #: Returning True defers the request — the gate owner must later
        #: call :meth:`resume_upper_request`.
        self.upper_request_gate = None
        # State-transition counters, list-indexed by CoordinatorState.index
        # (dict-of-enum pays two Python-level Enum.__hash__ calls per
        # increment); read through the `transitions` property.
        self._transitions = [0] * len(CoordinatorState)
        if lower.initial_holder != lower.node:
            raise CompositionError(
                f"{self.name}: the coordinator must be the lower "
                f"instance's initial holder (got {lower.initial_holder})"
            )
        self._attach(lower, upper)
        # Fig 2, initialisation: grab the lower CS.  Token-based lower
        # algorithms grant synchronously (the coordinator holds the
        # token); permission-based ones need a startup round-trip, during
        # which their request outranks any application request — the
        # coordinator has the cluster's smallest node id and requests at
        # time zero — so no application process can slip into the CS
        # before the automaton reaches OUT.
        lower.request_cs()

    # ------------------------------------------------------------------ #
    def _attach(self, lower: MutexPeer, upper: MutexPeer) -> None:
        lower.on_pending_request.append(self._on_lower_pending)
        lower.on_granted.append(self._on_lower_granted)
        upper.on_pending_request.append(self._on_upper_pending)
        upper.on_granted.append(self._on_upper_granted)

    def _detach(self) -> None:
        self.lower.on_pending_request.remove(self._on_lower_pending)
        self.lower.on_granted.remove(self._on_lower_granted)
        self.upper.on_pending_request.remove(self._on_upper_pending)
        self.upper.on_granted.remove(self._on_upper_granted)

    def close(self) -> None:
        """Detach from both peers and drop the gate (teardown after the
        run): the peers' callback lists and the gate owner hold this
        coordinator, which holds the peers."""
        self._detach()
        self.upper_request_gate = None

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> CoordinatorState:
        return self._state

    @property
    def transitions(self) -> dict:
        """State-transition counters, exposed for tests and metrics."""
        counts = self._transitions
        return {s: counts[s.index] for s in CoordinatorState}

    @property
    def node(self) -> int:
        return self.lower.node

    def _enter(self, state: CoordinatorState) -> None:
        self._state = state
        self._transitions[state.index] += 1
        # Per-kind gate: `active` is coarse (any subscriber at all, e.g.
        # the safety checker), which had every benchmarked run paying for
        # ~2 state-change records per CS that nobody consumed.
        if "coordinator_state" in self._trace.active_kinds:
            self._emit_state(state)

    def _emit_state(self, state: CoordinatorState) -> None:
        self._trace.emit(
            "coordinator_state",
            time=self.now,
            node=self.node,
            state=state.value,
        )

    # ------------------------------------------------------------------ #
    # automaton transitions
    # ------------------------------------------------------------------ #
    # The four handlers run on every CS cycle, so each transition is
    # written out in place (what `_enter` and `_request_upper` do, without
    # their frames); the cold paths below use the helpers.
    def _on_lower_pending(self) -> None:
        """An application process (or lower-level coordinator) wants the
        CS while we hold the lower token."""
        if self._state is _OUT:
            self._state = _WAIT_FOR_IN
            self._transitions[_WAIT_FOR_IN_I] += 1
            if "coordinator_state" in self._trace.active_kinds:
                self._emit_state(_WAIT_FOR_IN)
            gate = self.upper_request_gate
            if gate is not None and gate(self):
                return
            self.upper.request_cs()  # Fig 2 line 9
        # STARTING: the request stays queued in the lower instance and is
        # re-examined via has_pending_request when we reach OUT.
        # WAIT_FOR_IN: the upper request is already out — nothing to do.
        # IN / WAIT_FOR_OUT: cannot occur (we do not hold the lower
        # token), but some algorithms notify redundantly; ignore.

    def _on_upper_granted(self) -> None:
        """The inter token arrived: let the cluster in."""
        if self._state is not _WAIT_FOR_IN:
            raise CompositionError(
                f"{self.name}: upper CS granted in state {self._state}"
            )
        self._state = _IN
        self._transitions[_IN_I] += 1
        if "coordinator_state" in self._trace.active_kinds:
            self._emit_state(_IN)
        self.lower.release_cs()  # Fig 2 line 11: intra token to the apps
        # A remote request may have travelled *with* the token (e.g. in
        # Suzuki-Kasami's queue) or arrived while we were waiting.
        if self.upper.has_pending_request:
            self._state = _WAIT_FOR_OUT
            self._transitions[_WAIT_FOR_OUT_I] += 1
            if "coordinator_state" in self._trace.active_kinds:
                self._emit_state(_WAIT_FOR_OUT)
            self.lower.request_cs()

    def _on_upper_pending(self) -> None:
        """Another coordinator wants the inter token we hold."""
        if self._state is _IN:
            self._state = _WAIT_FOR_OUT
            self._transitions[_WAIT_FOR_OUT_I] += 1
            if "coordinator_state" in self._trace.active_kinds:
                self._emit_state(_WAIT_FOR_OUT)
            self.lower.request_cs()  # Fig 2 line 16
        # WAIT_FOR_OUT: already re-acquiring — nothing to do.
        # OUT: the upper peer idle-holds the token and grants without our
        # involvement; nothing to do.

    def _on_lower_granted(self) -> None:
        """We (re-)obtained the lower token."""
        if self._state is _STARTING:
            # Startup acquisition completed.
            self._enter(CoordinatorState.OUT)
            if self.lower.has_pending_request:
                self._enter(CoordinatorState.WAIT_FOR_IN)
                self._request_upper()
            return
        if self._state is not _WAIT_FOR_OUT:
            raise CompositionError(
                f"{self.name}: lower CS granted in state {self._state}"
            )
        self._state = _OUT
        self._transitions[_OUT_I] += 1
        if "coordinator_state" in self._trace.active_kinds:
            self._emit_state(_OUT)
        self.upper.release_cs()  # Fig 2 line 18: inter token moves on
        # Local requests that queued up while we were re-acquiring the
        # lower token must restart the cycle.
        if self.lower.has_pending_request:
            self._state = _WAIT_FOR_IN
            self._transitions[_WAIT_FOR_IN_I] += 1
            if "coordinator_state" in self._trace.active_kinds:
                self._emit_state(_WAIT_FOR_IN)
            gate = self.upper_request_gate
            if gate is not None and gate(self):
                return
            self.upper.request_cs()

    def _request_upper(self) -> None:
        """Issue the upper-level CS request, unless a reconfiguration
        gate defers it (the automaton still reads WAIT_FOR_IN; the
        request enters the upper algorithm once the gate owner calls
        :meth:`resume_upper_request`)."""
        gate = self.upper_request_gate
        if gate is not None and gate(self):
            return
        self.upper.request_cs()

    def resume_upper_request(self) -> None:
        """Re-issue an upper request deferred by the gate."""
        if self._state is not CoordinatorState.WAIT_FOR_IN:
            raise CompositionError(
                f"{self.name}: resume_upper_request in state {self._state}"
            )
        self.upper.request_cs()

    # ------------------------------------------------------------------ #
    # reconfiguration (used by the adaptive composition)
    # ------------------------------------------------------------------ #
    def rewire_upper(self, new_peer: MutexPeer) -> None:
        """Swap the upper instance for ``new_peer`` (same node).

        Only legal while the automaton is quiescent at the upper level
        (state ``OUT`` or ``IN``).  If this coordinator is ``IN``, the new
        peer must be its instance's initial holder: the coordinator
        re-enters the new instance's CS synchronously so the safety
        invariant (inter CS membership) carries over to the new epoch.
        """
        gated_wait = (
            self._state is CoordinatorState.WAIT_FOR_IN
            and not self.upper.state.name == "REQ"
        )
        if self._state not in (CoordinatorState.OUT, CoordinatorState.IN) and not gated_wait:
            raise CompositionError(
                f"{self.name}: cannot rewire upper level in state {self._state}"
            )
        if new_peer.node != self.node:
            raise CompositionError(
                f"{self.name}: replacement upper peer lives on node "
                f"{new_peer.node}"
            )
        old = self.upper
        old.on_pending_request.remove(self._on_upper_pending)
        old.on_granted.remove(self._on_upper_granted)
        if self._state is CoordinatorState.IN:
            # Enter the new instance's CS before callbacks attach, so the
            # synchronous grant does not re-trigger the automaton.
            new_peer.request_cs()
            if not new_peer.in_cs:
                raise CompositionError(
                    f"{self.name}: could not transfer inter CS ownership "
                    "to the new instance (is this node its initial holder?)"
                )
        new_peer.on_pending_request.append(self._on_upper_pending)
        new_peer.on_granted.append(self._on_upper_granted)
        self.upper = new_peer
        # Demand that surfaced at the lower level during the swap window
        # must restart the cycle against the new upper instance.
        if self._state is CoordinatorState.OUT and self.lower.has_pending_request:
            self._enter(CoordinatorState.WAIT_FOR_IN)
            self._request_upper()
        elif self._state is CoordinatorState.IN and self.upper.has_pending_request:
            self._enter(CoordinatorState.WAIT_FOR_OUT)
            self.lower.request_cs()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Coordinator {self.name} state={self._state}>"
