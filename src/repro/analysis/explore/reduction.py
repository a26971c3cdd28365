"""Partial-order reduction oracles for the explorer.

The explorer performs a *sleep-set* dynamic partial-order reduction
(Godefroid): when two enabled actions are independent, only one of their
two interleavings is executed — the other is put to sleep, because the
state it leads to is reached (and fully explored) through the sibling
branch.  Sleep sets prune redundant *transitions* while still visiting
every reachable state, which keeps all reachability properties (mutual
exclusion, deadlock-freedom) exact.

Independence is structural, derived from how the controlled world
executes actions (:mod:`repro.analysis.explore.world`):

* an action runs the handler/entry code of exactly one *node* and its
  synchronous continuation on that node;
* the only shared structures it touches are the per-flow FIFO queues —
  it pops the head of its own flow (a delivery) and appends to flows
  keyed by its node as source.

Hence two actions at *different* nodes commute: their state writes are
disjoint and their queue appends target disjoint flows (appends behind a
pending head do not move the head).  Crash and recovery actions touch
global membership and every queue, so they are dependent on everything.

The static send graphs from :mod:`repro.analysis.effects` feed two
further oracles:

* :func:`build_envelopes` — the per-port declared send envelope the
  world checks on every captured message (a conformance-in-the-loop
  guard: a handler emitting an undeclared kind aborts the exploration
  as a protocol error rather than silently growing the state space);
* :func:`visibility_oracle` — whether delivering a kind at a node may
  enter the CS (``grants``) or drive a coordinator automaton; the
  explorer orders such actions first so counterexample schedules stay
  short.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..effects import check_conformance
from .world import Action, World

__all__ = [
    "action_node",
    "build_envelopes",
    "independent",
    "visibility_oracle",
]


def action_node(action: Action) -> Optional[int]:
    """The node whose code an action executes (``None`` = global)."""
    kind = action[0]
    if kind == "deliver":
        return action[2]  # the destination runs the handler
    if kind in ("request", "release", "crash"):
        return action[1]
    return None  # recover


def independent(a: Action, b: Action) -> bool:
    """Unconditional (all-states) independence of two actions."""
    na = action_node(a)
    nb = action_node(b)
    if na is None or nb is None or a[0] == "crash" or b[0] == "crash":
        # crash/recover rewrite membership and queues globally
        return False
    return na != nb


_EFFECTS_CACHE: Optional[Dict[str, object]] = None


def _effects_by_algorithm() -> Dict[str, object]:
    global _EFFECTS_CACHE
    if _EFFECTS_CACHE is None:
        _, _EFFECTS_CACHE = check_conformance()
    return _EFFECTS_CACHE


def build_envelopes(world: World) -> Optional[Dict[str, frozenset]]:
    """Per-port declared send-kind sets for the world's algorithms, or
    ``None`` when a port runs an algorithm unknown to the static
    analysis (mutant fixtures)."""
    if world.scope.peer_factory is not None:
        return None
    effects = _effects_by_algorithm()
    envelopes: Dict[str, frozenset] = {}
    for port, (algorithm, _members) in world.port_members.items():
        eff = effects.get(algorithm)
        if eff is None:
            return None
        envelopes[port] = frozenset(eff.sent_kinds)
    return envelopes


def visibility_oracle(world: World) -> Callable[[Action], bool]:
    """A predicate: may this action enter a critical section (or drive a
    coordinator automaton)?  Used to order exploration, not to prune."""
    if world.scope.peer_factory is not None:
        return lambda action: True
    effects = _effects_by_algorithm()
    grants_by_port: Dict[str, Dict[str, bool]] = {}
    for port, (algorithm, _members) in world.port_members.items():
        eff = effects.get(algorithm)
        if eff is None:
            return lambda action: True
        grants_by_port[port] = {
            kind: bool(eff.grants.get(handler, True))
            for kind, handler in eff.handlers.items()
        }
    coordinator_nodes = world.coordinator_nodes

    def visible(action: Action) -> bool:
        kind = action[0]
        if kind != "deliver":
            return True
        dst, port = action[2], action[3]
        if dst in coordinator_nodes:
            return True
        queue = world.pending.get((action[1], dst, port))
        if not queue:
            return True
        head = queue[0][0]
        return grants_by_port.get(port, {}).get(head.kind, True)

    return visible
