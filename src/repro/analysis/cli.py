"""``python -m repro.analysis`` — the review-time correctness gate.

Modes (combinable; all requested modes run, the exit code is the OR):

* default / ``--lint`` — run the RPR rules over the given paths
  (default ``src/repro``, falling back to the installed package);
* ``--conformance`` — static protocol-conformance checks over
  ``repro.mutex`` (send-graph closure, worst-case bounds vs theory);
* ``--sanitize`` — run the schedule-race sanitizer matrix (executes
  simulations; seconds, not milliseconds);
* ``--explore`` — exhaustive small-scope model checking: drive the real
  algorithms through every admissible interleaving at small scope and
  check safety / deadlock-freedom / eventual entry (see
  :mod:`repro.analysis.explore` and ``docs/analysis.md``);
* ``--replay FILE`` — re-execute a counterexample produced by
  ``--explore`` (optionally rendering it with ``--trace-out``);
* ``--check`` — shorthand for ``--lint --conformance`` (the CI gate).

``--json`` switches the combined output of all requested modes to one
machine-readable document (schema pinned by
``tests/analysis/test_cli.py``).

Exit codes: 0 clean, 1 violations/divergence found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from .engine import Baseline, Engine

__all__ = ["main"]

#: bumped when the shape of the ``--json`` document changes
JSON_SCHEMA_VERSION = 2


def _default_paths() -> List[Path]:
    src = Path("src/repro")
    if src.is_dir():
        return [src]
    return [Path(__file__).resolve().parent.parent]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism lint, protocol conformance, schedule-race "
        "sanitizing and small-scope model checking for the repro tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument("--lint", action="store_true", help="run the RPR lint rules")
    parser.add_argument(
        "--conformance",
        action="store_true",
        help="run static protocol-conformance checks over repro.mutex "
        "and the repro.compile fast tables",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run the schedule-race sanitizer matrix (runs simulations)",
    )
    parser.add_argument(
        "--explore",
        action="store_true",
        help="run the small-scope model-checking matrix (runs simulations)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI gate: --lint --conformance",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="JSON baseline of accepted violations (stale entries are "
        "reported and fail the run)",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the current violations as a baseline file and exit 0",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="lint report format (text mode only; see --json)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document combining every "
        "requested mode",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list the RPR rules and exit"
    )
    parser.add_argument(
        "--tie-seeds",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="tie seeds for --sanitize (default: 1 2 3)",
    )
    explore = parser.add_argument_group("explore options")
    explore.add_argument(
        "--explore-cells",
        metavar="SUBSTR",
        default=None,
        help="only run matrix cells whose name contains SUBSTR "
        "(e.g. 'flat:naimi', 'crash')",
    )
    explore.add_argument(
        "--explore-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-exploration wall-clock budget (a cell that exhausts it "
        "is reported incomplete and fails)",
    )
    explore.add_argument(
        "--full-expansion",
        action="store_true",
        help="disable the sleep-set reduction (debug aid; explores the "
        "same states through every redundant interleaving)",
    )
    explore.add_argument(
        "--counterexamples",
        type=Path,
        default=None,
        metavar="DIR",
        help="write each violation as a replayable counterexample JSON "
        "under DIR",
    )
    replay = parser.add_argument_group("replay options")
    replay.add_argument(
        "--replay",
        type=Path,
        default=None,
        metavar="FILE",
        help="re-execute a counterexample document step by step",
    )
    replay.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="with --replay: write a Chrome traceEvents rendering of the "
        "counterexample (load in ui.perfetto.dev)",
    )
    return parser


def _run_lint(
    args: argparse.Namespace, json_out: Optional[Dict[str, Any]]
) -> int:
    paths = list(args.paths) or _default_paths()
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(map(str, missing))}")
        return 2
    baseline: Optional[Baseline] = None
    if args.baseline is not None:
        if not args.baseline.exists():
            print(f"error: baseline file not found: {args.baseline}")
            return 2
        baseline = Baseline.load(args.baseline)
    engine = Engine()
    report = engine.check_paths(paths, baseline=baseline, root=Path.cwd())
    if args.write_baseline is not None:
        Baseline.from_violations(report.violations).save(args.write_baseline)
        print(
            f"wrote {len(report.violations)} suppression(s) to "
            f"{args.write_baseline} — fill in the reasons"
        )
        return 0
    status = 1 if (report.stale_suppressions or not report.ok) else 0
    if json_out is not None:
        json_out["lint"] = json.loads(report.to_json())
        json_out["lint"]["ok"] = status == 0
    else:
        print(report.to_json() if args.format == "json" else report.format())
    return status


def _run_conformance(json_out: Optional[Dict[str, Any]]) -> int:
    from .effects import check_conformance

    findings, effects = check_conformance()
    status = 0 if not findings else 1
    if json_out is not None:
        json_out["conformance"] = {
            "ok": status == 0,
            "algorithms": sorted(effects),
            "findings": [
                {
                    "algorithm": f.algorithm,
                    "kind": f.kind,
                    "message": f.message,
                }
                for f in findings
            ],
        }
    else:
        for finding in findings:
            print(finding.format())
        print(
            f"conformance: {len(effects)} algorithm(s) checked, "
            f"{len(findings)} finding(s)"
        )
    return status


def _run_sanitizer(
    tie_seeds: Optional[Sequence[int]], json_out: Optional[Dict[str, Any]]
) -> int:
    from .sanitizer import DEFAULT_TIE_SEEDS, sanitize_matrix

    quiet = json_out is not None
    report = sanitize_matrix(
        tie_seeds=tuple(tie_seeds) if tie_seeds else DEFAULT_TIE_SEEDS,
        progress=(lambda _msg: None) if quiet else print,
    )
    summary = report.format().splitlines()[-1]
    if json_out is not None:
        json_out["sanitize"] = {"ok": report.ok, "summary": summary}
    else:
        print(summary)
    return 0 if report.ok else 1


def _cell_slug(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def _run_explore(
    args: argparse.Namespace, json_out: Optional[Dict[str, Any]]
) -> int:
    from .explore import default_cells, run_matrix, write_counterexample

    cells = default_cells()
    if args.explore_cells:
        cells = [c for c in cells if args.explore_cells in c.describe()]
        if not cells:
            print(
                f"error: no matrix cell matches {args.explore_cells!r}; "
                f"cells: {', '.join(c.describe() for c in default_cells())}"
            )
            return 2
    report = run_matrix(
        cells,
        reduce=not args.full_expansion,
        wall_budget_s=args.explore_budget,
    )
    written: List[str] = []
    if args.counterexamples is not None:
        args.counterexamples.mkdir(parents=True, exist_ok=True)
        for run in report.cells:
            for i, violation in enumerate(run.violations):
                name = (
                    f"{_cell_slug(run.scope.describe())}"
                    f"-{violation.property}-{i}.json"
                )
                path = args.counterexamples / name
                write_counterexample(str(path), run.scope, violation)
                written.append(str(path))
    if json_out is not None:
        doc = report.to_dict()
        doc["counterexamples_written"] = written
        json_out["explore"] = doc
    else:
        for run in report.cells:
            flags = "" if run.complete else " INCOMPLETE"
            print(
                f"explore: {run.scope.describe():44s} "
                f"states={run.states} transitions={run.transitions} "
                f"reduction={run.reduction_ratio:.1f}x "
                f"violations={len(run.violations)}{flags}"
            )
            for violation in run.violations:
                print(
                    f"  {violation.property}: {violation.message} "
                    f"(schedule length {len(violation.schedule)})"
                )
        for path in written:
            print(f"  counterexample written: {path}")
        total_states = sum(run.states for run in report.cells)
        print(
            f"explore: {len(report.cells)} cell(s), {total_states} "
            f"state(s), {report.violations} violation(s) — "
            f"{'ok' if report.ok else 'FAIL'}"
        )
    return 0 if report.ok else 1


def _run_replay(
    args: argparse.Namespace, json_out: Optional[Dict[str, Any]]
) -> int:
    from ..errors import ReproError
    from .explore import load_counterexample, replay, write_chrome_trace

    try:
        scope, violation = load_counterexample(str(args.replay))
        steps = replay(scope, violation.schedule)
    except (OSError, ReproError, KeyError, ValueError, TypeError) as exc:
        print(f"replay failed: {exc}")
        return 1
    if args.trace_out is not None:
        write_chrome_trace(str(args.trace_out), scope, violation, steps=steps)
    if json_out is not None:
        json_out["replay"] = {
            "ok": True,
            "cell": scope.describe(),
            "property": violation.property,
            "steps": [s.to_dict() for s in steps],
            "trace_out": (
                None if args.trace_out is None else str(args.trace_out)
            ),
        }
    else:
        print(
            f"replay: {scope.describe()} — {violation.property}: "
            f"{violation.message}"
        )
        for step in steps:
            action = "(initial)" if step.action is None else repr(step.action)
            cs = ",".join(map(str, step.cs_nodes)) or "-"
            req = ",".join(map(str, step.req_nodes)) or "-"
            print(f"  [{step.index:3d}] {action:40s} cs={cs} req={req}")
        if args.trace_out is not None:
            print(f"  trace written: {args.trace_out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        from .rules import DEFAULT_RULES

        for cls in DEFAULT_RULES:
            print(f"{cls.id}  {cls.summary}")
        return 0

    explicit = (
        args.conformance or args.sanitize or args.explore
        or args.replay is not None
    )
    run_lint = args.lint or args.check or not explicit
    run_conformance = args.conformance or args.check
    json_out: Optional[Dict[str, Any]] = (
        {"schema": "repro.analysis", "version": JSON_SCHEMA_VERSION}
        if args.json
        else None
    )
    status = 0
    if run_lint:
        status = max(status, _run_lint(args, json_out))
    if status != 2 and run_conformance:
        status = max(status, _run_conformance(json_out))
    if status != 2 and args.sanitize:
        status = max(status, _run_sanitizer(args.tie_seeds, json_out))
    if status != 2 and args.explore:
        status = max(status, _run_explore(args, json_out))
    if status != 2 and args.replay is not None:
        status = max(status, _run_replay(args, json_out))
    if json_out is not None and status != 2:
        json_out["ok"] = status == 0
        print(json.dumps(json_out, indent=2))
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
