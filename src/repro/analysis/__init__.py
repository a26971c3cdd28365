"""Static analysis for the reproduction's determinism contracts.

The simulator's central promise — one ``(configuration, seed)`` pair maps
to exactly one observable event stream (pinned by the golden
:class:`~repro.verify.digest.RunDigest` matrix) — and the paper's
composition-purity invariant ("the composed algorithms need **no
modification**", §3.1) are behavioural properties.  This package enforces
them *statically*, before a single event fires:

* :mod:`repro.analysis.rules` / :mod:`repro.analysis.engine` — an
  AST-based linter with repro-specific rules (RPR001-RPR007): no
  wall-clock reads, no stdlib ``random``, no unordered ``set``/``dict``
  iteration inside message handlers, no kernel re-entry from handlers, no
  coordinator imports from ``repro.mutex``, no mutable default arguments,
  no figure/suite sweep that bypasses the experiment cache.
* :mod:`repro.analysis.effects` — a handler-effect extractor that walks
  each algorithm's AST into a per-message-kind send graph and
  cross-checks worst-case message counts against the paper's analytical
  models in :mod:`repro.experiments.theory`.
* :mod:`repro.analysis.sanitizer` — a schedule-race sanitizer that
  re-runs configurations under perturbed same-timestamp tie-breaking
  (:attr:`repro.experiments.config.ExperimentConfig.tie_seed`) and fails
  on any observable divergence.

Command line: ``python -m repro.analysis --help`` (see ``docs/analysis.md``).
"""

from .effects import (
    AlgorithmEffects,
    ConformanceFinding,
    check_conformance,
    extract_algorithm_effects,
)
from .engine import AnalysisReport, Baseline, Engine, Violation
from .rules import DEFAULT_RULES, Rule
from .sanitizer import (
    CanonicalDigest,
    SanitizerReport,
    default_sanitizer_matrix,
    sanitize_config,
    sanitize_matrix,
)

__all__ = [
    "AlgorithmEffects",
    "AnalysisReport",
    "Baseline",
    "CanonicalDigest",
    "ConformanceFinding",
    "DEFAULT_RULES",
    "Engine",
    "Rule",
    "SanitizerReport",
    "Violation",
    "check_conformance",
    "default_sanitizer_matrix",
    "extract_algorithm_effects",
    "sanitize_config",
    "sanitize_matrix",
]
