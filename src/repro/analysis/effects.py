"""Static handler-effect extraction and protocol conformance.

Walks each algorithm class's AST into a **send graph**: which message
kinds each protocol phase (``_do_request`` / ``_do_release``) and each
``_on_<kind>`` handler emits, with per-site multiplicities (a unicast
counts 1, a ``_broadcast`` or a send inside a loop counts ``n-1``).
From the graph it derives a *static worst-case* per-CS message count
``W(n)`` — an over-approximation that treats every conditional branch as
taken and caps forwarding chains (kinds on an emission cycle, e.g. a
``request`` that handlers re-forward) at ``n-1`` hops, since no peer
forwards the same logical message twice per CS in any of these
protocols.

Three checks fall out (:func:`check_conformance`):

* **graph closure** — every kind the class sends has an ``_on_<kind>``
  handler and vice versa (no dead or unhandled message kinds);
* **bound conformance** — ``W(n)`` stays within the algorithm's declared
  static envelope (:data:`STATIC_BOUNDS`); a handler growing a new
  broadcast silently changes the complexity class and fails here;
* **theory consistency** — the paper's *average* per-CS count
  (:mod:`repro.experiments.theory`) never exceeds the static worst case,
  pinning the two models to each other.

Everything is AST-only: algorithms are never imported, let alone run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "AlgorithmEffects",
    "ConformanceFinding",
    "SendSite",
    "STATIC_BOUNDS",
    "check_conformance",
    "extract_algorithm_effects",
    "find_algorithm_classes",
]


@dataclass(frozen=True)
class SendSite:
    """One ``self._send`` / ``self._broadcast`` call site."""

    kind: str  # literal message kind, or "<dynamic>"
    method: str
    line: int
    broadcast: bool
    in_loop: bool

    @property
    def multiplicity_is_n(self) -> bool:
        """Whether this site emits up to ``n-1`` messages per execution."""
        return self.broadcast or self.in_loop


def _emission_multiset(
    sites: Sequence[SendSite],
) -> Dict[str, Tuple[int, int]]:
    """Kind -> (flat_count, per_n_count) over ``sites``: total emissions
    = ``flat + per_n * (n-1)``."""
    out: Dict[str, Tuple[int, int]] = {}
    for site in sites:
        if site.kind == "<dynamic>":
            continue
        flat, per_n = out.get(site.kind, (0, 0))
        if site.multiplicity_is_n:
            per_n += 1
        else:
            flat += 1
        out[site.kind] = (flat, per_n)
    return out


@dataclass
class AlgorithmEffects:
    """The extracted send graph of one algorithm class."""

    class_name: str
    path: str
    #: message kind -> handler method name (``_on_<kind>``)
    handlers: Dict[str, str] = field(default_factory=dict)
    #: phase/handler method -> transitively reachable send sites
    sends: Dict[str, Tuple[SendSite, ...]] = field(default_factory=dict)
    #: phase/handler method -> whether its call closure can enter the CS
    #: (reaches ``self._grant``); the model checker's visibility oracle
    grants: Dict[str, bool] = field(default_factory=dict)
    dynamic_sites: Tuple[SendSite, ...] = ()

    # ------------------------------------------------------------------ #
    @property
    def sent_kinds(self) -> Set[str]:
        return {
            s.kind
            for sites in self.sends.values()
            for s in sites
            if s.kind != "<dynamic>"
        }

    @property
    def handled_kinds(self) -> Set[str]:
        return set(self.handlers)

    def emissions(self, source: str) -> Dict[str, Tuple[int, int]]:
        """Kind -> (flat_count, per_n_count) emitted from ``source``:
        total emissions = ``flat + per_n * (n-1)``."""
        return _emission_multiset(self.sends.get(source, ()))

    # ------------------------------------------------------------------ #
    def cyclic_kinds(self) -> Set[str]:
        """Kinds on an emission cycle (``k`` handler re-emits ``k``, or a
        longer loop such as Maekawa's locked/relinquish ping-pong)."""
        kinds = sorted(self.sent_kinds | self.handled_kinds)
        edges: Dict[str, Set[str]] = {k: set() for k in kinds}
        for k in kinds:
            handler = self.handlers.get(k)
            if handler is None:
                continue
            edges[k].update(self.emissions(handler))
        # Transitive closure on a handful of kinds.
        reach: Dict[str, Set[str]] = {k: set(edges[k]) for k in kinds}
        changed = True
        while changed:
            changed = False
            for k in kinds:
                add = set()
                for j in reach[k]:
                    add |= reach.get(j, set())
                if not add <= reach[k]:
                    reach[k] |= add
                    changed = True
        return {k for k in kinds if k in reach[k]}

    def worst_case_messages(self, n: int) -> float:
        """Static worst-case per-CS message count at ``n`` peers.

        Over-approximate by construction: every branch counts, every
        loop/broadcast counts ``n-1``, and every kind on an emission
        cycle is capped at ``n-1`` total messages per CS.
        """
        if n < 2:
            return 0.0
        cap = float(n - 1)
        cyclic = self.cyclic_kinds()
        kinds = sorted(self.sent_kinds | self.handled_kinds)

        # Phase (seed) emissions from request + release.
        seeds: Dict[str, float] = {}
        for phase in ("_do_request", "_do_release"):
            for kind, (flat, per_n) in self.emissions(phase).items():
                seeds[kind] = seeds.get(kind, 0.0) + flat + per_n * cap

        # Boolean reachability: which kinds ever hit the wire at all.
        reachable: Set[str] = set(seeds)
        changed = True
        while changed:
            changed = False
            for k in sorted(reachable):
                handler = self.handlers.get(k)
                if handler is None:
                    continue
                emitted = set(self.emissions(handler)) - reachable
                if emitted:
                    reachable |= emitted
                    changed = True

        # A reachable kind on an emission cycle is pinned at the chain
        # cap: no peer forwards the same logical message twice per CS, so
        # <= n-1 copies regardless of how the cycle is entered.
        totals: Dict[str, float] = dict(seeds)
        for k in cyclic & reachable:
            totals[k] = cap

        def contribution(k: str) -> float:
            return cap if k in cyclic else totals.get(k, 0.0)

        # The remaining (acyclic) kinds form a DAG, so |kinds| rounds of
        # recomputation reach the fixpoint.
        for _ in range(len(kinds) + 1):
            new: Dict[str, float] = dict(seeds)
            for k in cyclic & reachable:
                new[k] = cap
            for k in kinds:
                if k not in reachable:
                    continue
                handler = self.handlers.get(k)
                receipts = contribution(k)
                if handler is None or receipts == 0.0:
                    continue
                for kind, (flat, per_n) in self.emissions(handler).items():
                    if kind in cyclic:
                        continue  # already pinned at the cap
                    new[kind] = new.get(kind, 0.0) + (flat + per_n * cap) * receipts
            if new == totals:
                break
            totals = new
        return sum(totals.values())


# --------------------------------------------------------------------- #
# extraction
# --------------------------------------------------------------------- #
def find_algorithm_classes(
    paths: Sequence[Path],
) -> Dict[str, Tuple[Path, ast.ClassDef]]:
    """``algorithm_name -> (file, class node)`` for every class in
    ``paths`` that declares a literal ``algorithm_name`` attribute."""
    found: Dict[str, Tuple[Path, ast.ClassDef]] = {}
    for path in sorted(paths):
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "algorithm_name"
                    and isinstance(stmt.value, ast.Constant)
                    and isinstance(stmt.value.value, str)
                ):
                    found[stmt.value.value] = (path, node)
    return found


def _direct_sends(fn: ast.FunctionDef) -> List[SendSite]:
    """``self._send`` / ``self._broadcast`` call sites in one method, with
    loop-nesting recorded (a send inside any loop may run ``n-1`` times)."""
    sites: List[SendSite] = []

    def walk(node: ast.AST, in_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_in_loop = in_loop or isinstance(
                child, (ast.For, ast.AsyncFor, ast.While)
            )
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "self"
                and child.func.attr in ("_send", "_broadcast")
            ):
                broadcast = child.func.attr == "_broadcast"
                kind_arg_index = 0 if broadcast else 1
                kind = "<dynamic>"
                if len(child.args) > kind_arg_index:
                    arg = child.args[kind_arg_index]
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        kind = arg.value
                sites.append(
                    SendSite(
                        kind=kind,
                        method=fn.name,
                        line=child.lineno,
                        broadcast=broadcast,
                        in_loop=child_in_loop,
                    )
                )
            walk(child, child_in_loop)

    walk(fn, False)
    return sites


def extract_algorithm_effects(path: Path, cls: ast.ClassDef) -> AlgorithmEffects:
    """Build the send graph of one algorithm class.

    Each handler/phase's sends are the transitive closure over direct
    ``self.<helper>()`` calls (so ``_do_release -> _send_token ->
    _send("token")`` is attributed to ``_do_release``); other ``_on_*``
    handlers are not followed — they are accounted through the message
    graph itself, not the call graph.
    """
    methods: Dict[str, ast.FunctionDef] = {
        n.name: n
        for n in cls.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    direct: Dict[str, List[SendSite]] = {
        name: _direct_sends(fn) for name, fn in methods.items()
    }
    calls: Dict[str, Set[str]] = {}
    for name, fn in methods.items():
        called: Set[str] = set()
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                called.add(node.func.attr)
        calls[name] = called

    def closure(seed: str) -> Tuple[Tuple[SendSite, ...], bool]:
        sites: List[SendSite] = []
        grants = False
        visited: Set[str] = set()
        stack = [seed]
        while stack:
            name = stack.pop()
            if name in visited or name not in methods:
                continue
            visited.add(name)
            sites.extend(direct.get(name, ()))
            if "_grant" in calls.get(name, ()):
                grants = True
            for callee in sorted(calls.get(name, ())):
                if callee.startswith("_on_") and callee != seed:
                    continue  # handlers are message-graph edges
                stack.append(callee)
        return tuple(sorted(sites, key=lambda s: (s.line, s.kind))), grants

    effects = AlgorithmEffects(class_name=cls.name, path=str(path))
    seeds = ["_do_request", "_do_release"] + sorted(
        name for name in methods if name.startswith("_on_") and name != "_on_message"
    )
    dynamic: List[SendSite] = []
    for seed in seeds:
        if seed not in methods:
            continue
        sites, grants = closure(seed)
        effects.sends[seed] = sites
        effects.grants[seed] = grants
        dynamic.extend(s for s in sites if s.kind == "<dynamic>")
        if seed.startswith("_on_"):
            effects.handlers[seed[len("_on_"):]] = seed
    effects.dynamic_sites = tuple(dict.fromkeys(dynamic))
    return effects


# --------------------------------------------------------------------- #
# conformance
# --------------------------------------------------------------------- #
#: Declared static worst-case envelopes ``W(n) <= bound(n)``.  These are
#: bounds on the *extractor's over-approximation* (every branch taken,
#: cycles capped at n-1), not on the tighter true protocol cost — see
#: each note.  Tightening an algorithm loosens nothing; a handler that
#: starts broadcasting, or a new forwarding loop, breaks the envelope.
STATIC_BOUNDS: Dict[str, Tuple[str, object]] = {
    # requests chain around the ring (<= n-1), token chases back (<= n-1);
    # matches the paper's 2(x+1) with x <= n-1
    "martin": ("2(n-1)", lambda n: 2 * (n - 1)),
    # request forwards along `last` pointers (cycle-capped at n-1); the
    # token edge is seeded by release *and* by the idle-root grant branch
    # of _on_request, each counted once per chain hop -> (n-1) + n.  The
    # true cost is O(log n) average / n worst — the envelope bounds the
    # branch-insensitive over-approximation, not the protocol.
    "naimi": ("2n - 1", lambda n: 2 * n - 1),
    # one request broadcast (n-1) + a token per receipt's idle-holder
    # branch + the release hand-off -> (n-1) + n; true cost is n
    "suzuki": ("2n - 1", lambda n: 2 * n - 1),
    # request up the tree and token down, both cycle-capped at n-1
    "raymond": ("2(n-1)", lambda n: 2 * (n - 1)),
    # request broadcast + a reply per receiver (immediate branch) + the
    # deferred replies flushed at release; true cost is 2(n-1)
    "ricart-agrawala": ("3(n-1)", lambda n: 3 * (n - 1)),
    # request broadcast + ack per receiver + release broadcast — the
    # over-approximation is exact here
    "lamport": ("3(n-1)", lambda n: 3 * (n - 1)),
    # every arbiter helper branch of every handler counted, the
    # locked/relinquish ping-pong cycle-capped; true cost is O(sqrt n)
    # (quorum size is a runtime construct the AST cannot see)
    "maekawa": ("12(n-1) + 6", lambda n: 12 * (n - 1) + 6),
    # request/grant/waiting/release with both local-serve branches
    "centralized": ("8", lambda n: 8.0),
    # naimi-shaped; the priority queue rides inside the token payload
    "priority-naimi": ("2n - 1", lambda n: 2 * n - 1),
}

#: theory.py names -> registry names used by the extractor
_THEORY_NAMES = {"martin": "martin", "naimi": "naimi", "suzuki": "suzuki"}

_CHECK_SIZES = (2, 3, 5, 9, 17)


@dataclass(frozen=True)
class ConformanceFinding:
    """One conformance failure (or informational note)."""

    algorithm: str
    kind: str  # "graph" | "bound" | "theory" | "dynamic"
    message: str

    def format(self) -> str:
        return f"{self.algorithm}: [{self.kind}] {self.message}"


def check_conformance(
    mutex_dir: Optional[Path] = None,
) -> Tuple[List[ConformanceFinding], Dict[str, AlgorithmEffects]]:
    """Run all static protocol-conformance checks over ``repro.mutex``.

    Returns ``(findings, effects_by_algorithm)``; an empty findings list
    means every algorithm conforms.
    """
    if mutex_dir is None:
        mutex_dir = Path(__file__).resolve().parent.parent / "mutex"
    classes = find_algorithm_classes(sorted(mutex_dir.glob("*.py")))
    findings: List[ConformanceFinding] = []
    all_effects: Dict[str, AlgorithmEffects] = {}
    for name, (path, cls) in sorted(classes.items()):
        effects = extract_algorithm_effects(path, cls)
        all_effects[name] = effects
        findings.extend(_check_one(name, effects))
    return findings, all_effects


def _check_one(name: str, effects: AlgorithmEffects) -> Iterator[ConformanceFinding]:
    # 1. dynamic sends are unverifiable
    for site in effects.dynamic_sites:
        yield ConformanceFinding(
            name,
            "dynamic",
            f"non-literal message kind at {effects.path}:{site.line} "
            f"({site.method}) — the send graph cannot be verified",
        )
    # 2. graph closure
    unhandled = sorted(effects.sent_kinds - effects.handled_kinds)
    if unhandled:
        yield ConformanceFinding(
            name,
            "graph",
            f"sent kind(s) with no _on_<kind> handler: {unhandled}",
        )
    orphaned = sorted(effects.handled_kinds - effects.sent_kinds)
    if orphaned:
        yield ConformanceFinding(
            name,
            "graph",
            f"handler(s) for kind(s) nobody sends: {orphaned}",
        )
    # 3. declared static envelope
    declared = STATIC_BOUNDS.get(name)
    if declared is None:
        yield ConformanceFinding(
            name,
            "bound",
            "no declared static bound in repro.analysis.effects.STATIC_BOUNDS "
            "— add one for every registered algorithm",
        )
        return
    label, bound = declared
    for n in _CHECK_SIZES:
        w = effects.worst_case_messages(n)
        limit = float(bound(n))  # type: ignore[operator]
        if w > limit + 1e-9:
            yield ConformanceFinding(
                name,
                "bound",
                f"static worst case W({n}) = {w:g} exceeds the declared "
                f"envelope {label} = {limit:g} — a handler grew new "
                f"message traffic (update the envelope only with a "
                f"matching theory/docs change)",
            )
            break
    # 4. theory consistency (average <= static worst case)
    theory_name = _THEORY_NAMES.get(name)
    if theory_name is not None:
        from ..experiments.theory import ALGORITHM_MODELS

        model = ALGORITHM_MODELS[theory_name]
        for n in _CHECK_SIZES:
            avg = float(model.messages(n))
            w = effects.worst_case_messages(n)
            if avg > w + 1e-9:
                yield ConformanceFinding(
                    name,
                    "theory",
                    f"theory.py average messages({n}) = {avg:g} exceeds the "
                    f"static worst case {w:g} — the analytical model and "
                    f"the implementation have diverged",
                )
                break
