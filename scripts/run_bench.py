#!/usr/bin/env python
"""Run the performance-benchmark suite and record the trajectory.

Usage (from the repository root)::

    python scripts/run_bench.py                  # quick mode, write benchmarks/results/BENCH_<stamp>.json
    python scripts/run_bench.py --full           # paper-scale (minutes)
    python scripts/run_bench.py --check latest   # also gate vs newest committed report
    python scripts/run_bench.py --check benchmarks/results/BENCH_20260807T000000Z.json --threshold 0.2
    python scripts/run_bench.py --out /tmp/b.json  # write the report elsewhere
    python scripts/run_bench.py --no-write       # measure only, e.g. while iterating
    python scripts/run_bench.py --history        # events/s trajectory across all committed reports

The regression gate normalizes events/sec by each report's
``machine_score`` so reports from different machines stay comparable; see
``docs/performance.md`` for how to read the output.

Exit status: 0 on success, 1 when the regression gate fails.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.perf import (  # noqa: E402
    SCENARIOS,
    check_memory_budget,
    check_regression,
    format_history,
    history_rows,
    latest_bench_file,
    load_report,
    machine_score,
    machine_score_probes,
    probe_spread,
    run_suite,
    write_report,
)

#: Digest-equality gate: each pair is (interpreted reference leg, built
#: on a plain Network; compiled leg, the default fast path); any
#: divergence means the fast path is no longer bit-identical and its
#: speedup number is meaningless.
DIGEST_PAIRS = (
    ("fig4_composition_interpreted", "fig4_composition_compiled"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--full", action="store_true",
                        help="paper-scale scenarios (default: quick)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timings per scenario; best (min wall) is kept")
    parser.add_argument("--scenario", action="append", choices=SCENARIOS,
                        help="run only this scenario (repeatable)")
    parser.add_argument("--check", metavar="BASELINE",
                        help="compare against a BENCH_*.json file, or "
                             "'latest' for the newest committed report")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed fractional events/sec regression "
                             "(default 0.20)")
    parser.add_argument("--out", metavar="PATH",
                        help="report destination: a file path, or a "
                             "directory to receive BENCH_<stamp>.json "
                             "(default: benchmarks/results/)")
    parser.add_argument("--no-write", action="store_true",
                        help="do not write a benchmark report")
    parser.add_argument("--history", action="store_true",
                        help="print the events/s trajectory across every "
                             "committed BENCH_*.json and exit")
    args = parser.parse_args(argv)

    if args.history:
        print(format_history(history_rows(ROOT), threshold=args.threshold))
        return 0

    mode = "full" if args.full else "quick"
    print(f"# benchmark suite ({mode} mode, repeats={args.repeats})")
    probes = machine_score_probes()
    score = machine_score(probes)
    spread = probe_spread(probes)
    print(f"machine_score: {score:,.0f} ops/s "
          f"(median of {len(probes)} probes, spread {spread:.1%})")
    results = run_suite(quick=not args.full, repeats=args.repeats,
                        scenarios=args.scenario)

    width = max(len(n) for n in results)
    header = (f"{'scenario':<{width}}  {'events':>9}  {'events/s':>11}  "
              f"{'msgs/s':>11}  {'wall s':>8}")
    print(header)
    print("-" * len(header))
    for name, r in results.items():
        print(f"{name:<{width}}  {r['events']:>9,}  {r['events_per_s']:>11,.0f}  "
              f"{r['messages_per_s']:>11,.0f}  {r['wall_s']:>8.3f}")

    # Equivalence gate: each tracked pair carries the event-stream
    # digest of both legs; any divergence means the fast path is
    # no longer bit-identical and its speedup number is meaningless —
    # fail before writing anything else.
    for serial_name, variant_name in DIGEST_PAIRS:
        serial = results.get(serial_name)
        variant = results.get(variant_name)
        if not (serial and variant):
            continue
        if serial["digest"] != variant["digest"]:
            print(f"digest gate: FAIL — {variant_name} diverged from "
                  f"{serial_name}")
            print(f"  {serial_name}: {serial['digest']}")
            print(f"  {variant_name}: {variant['digest']}")
            return 1
        print(f"digest gate ({variant_name} vs {serial_name}): "
              f"ok ({str(serial['digest'])[:16]}...)")

    # Memory gauge: the scale-out scenarios carry a peak-RSS reading and
    # an absolute budget; a breach means O(N) memory regressed.
    mem_failures = check_memory_budget(results)
    gauged = [n for n, r in results.items() if "peak_rss_mb" in r]
    if mem_failures:
        print("memory budget gate: FAIL")
        for line in mem_failures:
            print(f"  {line}")
        return 1
    if gauged:
        peak = max(results[n]["peak_rss_mb"] for n in gauged)
        print(f"memory budget gate: ok (peak RSS {peak:,.1f} MB)")

    written = None
    if not args.no_write:
        written = write_report(results, mode, ROOT, score=score,
                               out=args.out, spread=spread)
        print(f"wrote {os.path.relpath(written, ROOT)}")

    if args.check:
        base_path = args.check
        if base_path == "latest":
            base_path = latest_bench_file(ROOT, exclude=written)
            if base_path is None:
                print("no committed BENCH_*.json to compare against; "
                      "gate skipped")
                return 0
        baseline = load_report(base_path)
        current = {"machine_score": score, "machine_score_spread": spread,
                   "scenarios": results}
        failures = check_regression(baseline, current, args.threshold)
        print(f"regression gate vs {os.path.basename(base_path)} "
              f"(threshold {args.threshold:.0%}):", end=" ")
        if failures:
            print("FAIL")
            for line in failures:
                print(f"  {line}")
            return 1
        print("ok")
        # informative: speedup on the acceptance microbench
        base = baseline.get("scenarios", {}).get("fig4_composition")
        cur = results.get("fig4_composition")
        if base and cur:
            print(f"fig4_composition speedup vs baseline: "
                  f"{cur['events_per_s'] / base['events_per_s']:.2f}x raw")
    return 0


if __name__ == "__main__":
    sys.exit(main())
