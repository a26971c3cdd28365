"""The repository's benchmark: end-to-end time, set-up and memory of what
users run, with per-layer attribution measured from outside the program.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig4-sweep --seed 1 --seconds 30 --trace 0

Each workload pass runs in a fresh child process, one at a time, so the
reported peak resident memory belongs to that pass alone.  Passes repeat
while another fits in ``--seconds`` (at least three untraced passes);
the result reports medians.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and sampled passes, adds one call-count
pass, and reports the per-layer metrics.  Every simulation run's outputs
are compared with ``reference.json``; ``--record SEEDS`` (re)writes it.

The last line of standard output is the result::

    {"correct": true, "attempted": 72, "failed": 0, "metrics": {...}}

The line before it holds the full record: seed, per-pass values, host
context (CPU count, Python version, load averages), reference status.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from probes import LAYERS, PHASES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

#: Workload name -> simulation runs per pass (the unit of ``attempted``).
RUNS = {"fig4-sweep": 24, "twotier-5k": 1, "crash-failover": 1}
#: Untraced passes made even when they overrun ``--seconds``.
MIN_PASSES = 3
#: No new pass starts when it would end after this many seconds.
TIME_CAP_S = 140.0
CHILD_TIMEOUT_S = 170.0

#: Per-layer counters and their units (as in BENCHMARK.json).
COUNTERS = {
    "sim.events": "count", "sim.queue_ops": "count", "sim.cancels": "count",
    "net.messages": "count", "net.inter_messages": "count", "net.bytes": "B",
    "verify.checks": "count", "cache.puts": "count", "cache.bytes": "B",
    "cache.hits": "count", "cache.get_s": "s",
}


def row_digest(row: List) -> str:
    """Exact fingerprint of one run's outputs (floats by their repr)."""
    text = json.dumps(row, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# --------------------------------------------------------------------- #
# child: one workload pass
# --------------------------------------------------------------------- #
def child(workload: str, seed: int, mode: str, inject_us: float) -> None:
    sys.path.insert(0, str(SRC))
    import contextlib
    import cProfile

    import probes
    import workloads

    if not Path(sys.modules["repro"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"repro imported from outside {SRC}")
    run = workloads.WORKLOADS[workload]
    rec = probes.Recorder(detailed=mode != "plain")
    meter = probes.SpeedMeter() if mode == "plain" else None
    sampler = probes.Sampler() if mode == "traced" else None
    profile = cProfile.Profile() if mode == "profiled" else None
    rows: Optional[List] = None
    error = None
    gc.collect()
    with contextlib.ExitStack() as stack:
        if inject_us:
            stack.enter_context(probes.inject_send_delay(inject_us * 1e-6))
        stack.enter_context(probes.install(rec))
        if meter is not None:
            stack.enter_context(meter)
        if sampler is not None:
            stack.enter_context(sampler)
        if profile is not None:
            profile.enable()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rows = run(seed, rec)
        except Exception as exc:  # reported as failed runs
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        wall = t1 - t0
        cpu = time.process_time() - c0
        if profile is not None:
            profile.disable()
    out: Dict = {
        "mode": mode,
        "error": error,
        "rows": rows,
        "wall_s": wall,
        "cpu_s": cpu,
        "setup_s": rec.setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if meter is not None:
        out["wall_ref_s"] = meter.ref_seconds(t0, t1)
        out["setup_ref_s"] = sum(meter.ref_seconds(a, b)
                                 for a, b in rec.setup_spans)
        out["meter"] = {
            "samples": len(meter.samples),
            "seconds": meter.meter_seconds(t0, t1),
            "median_s": statistics.median(e - a for _, a, e in meter.samples),
        }
    if mode != "plain":
        out["phases"] = rec.phases
        out["counters"] = rec.counters
    if sampler is not None:
        shares = sampler.self_seconds(wall)
        out["self_s"] = {k: shares.get(k, 0.0) for k in LAYERS}
        out["unattributed_s"] = shares.get(None, 0.0)
    if profile is not None:
        out["calls"] = probes.call_counts(profile)
    print(json.dumps(out))


def run_child(workload: str, seed: int, mode: str,
              inject_us: float = 0.0) -> Dict:
    """Run one pass in a fresh interpreter and return its record."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--child", mode,
           "--workload", workload, "--seed", str(seed)]
    if inject_us:
        cmd += ["--inject-send-us", repr(inject_us)]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": "pass timed out", "rows": None}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"mode": mode, "rows": None,
                "error": f"exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


# --------------------------------------------------------------------- #
# parent: passes, reference gate, result
# --------------------------------------------------------------------- #
def load_reference() -> Dict:
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {"workloads": {}}


def check_pass(record: Dict, expected: Optional[List[str]], runs: int) -> List[str]:
    """Failure descriptions of one pass (one per failed run)."""
    rows = record.get("rows")
    if rows is None or record.get("error"):
        return [f"{record.get('mode')}: {record.get('error')}"] * runs
    if len(rows) != runs:
        return [f"{record['mode']}: {len(rows)} runs reported"] * runs
    if expected is None:
        return []
    return [
        f"run {i}: outputs {row} differ from the reference"
        for i, (row, digest) in enumerate(zip(rows, expected))
        if row_digest(row) != digest
    ]


def host_context() -> Dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "loadavg_before": list(os.getloadavg())}


def passes_for(workload: str, seed: int, seconds: float, trace: bool,
               inject_us: float = 0.0) -> List[Dict]:
    """Run passes while another one still fits in ``seconds``.

    Untraced invocations make at least :data:`MIN_PASSES` passes; traced
    ones alternate untraced and sampled passes, then add one call-count
    pass.
    """
    modes = ("plain", "traced") if trace else ("plain",)
    least = 1 if trace else MIN_PASSES
    records: List[Dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for mode in modes:
            records.append(run_child(workload, seed, mode, inject_us))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if elapsed + last > TIME_CAP_S:
            break
        if elapsed + last > seconds and len(records) >= least * len(modes):
            break
    if trace:
        records.append(run_child(workload, seed, "profiled", inject_us))
    return records


def _median(records: List[Dict], key: str) -> float:
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0


def end_to_end(records: List[Dict]) -> Dict:
    return {
        "wall_ref_s": {"value": _median(records, "wall_ref_s"), "unit": "s"},
        "setup_s": {"value": _median(records, "setup_ref_s"), "unit": "s"},
        "peak_rss_mb": {"value": _median(records, "peak_rss_mb"), "unit": "MB"},
    }


def per_layer(records: List[Dict]) -> Dict:
    plain = [r for r in records if r["mode"] == "plain" and "wall_s" in r]
    traced = [r for r in records if r["mode"] == "traced" and "phases" in r]
    profiled = [r for r in records if r["mode"] == "profiled" and "calls" in r]
    metrics: Dict[str, Dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def med(get) -> float:
        values = [get(r) for r in traced]
        return statistics.median(values) if values else 0.0

    for phase in PHASES:
        put(f"phase.{phase}_s", med(lambda r: r["phases"][phase]), "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", med(lambda r: r["self_s"][layer]), "s")
    calls = profiled[0]["calls"] if profiled else {}
    for layer in LAYERS:
        put(f"{layer}.calls", calls.get(f"{layer}.calls", 0), "count")
    rows = next((r["rows"] for r in traced if r["rows"]), [])
    counters = dict(traced[0]["counters"]) if traced else {}
    counters.update({
        "sim.queue_ops": calls.get("sim.queue_ops", 0),
        "sim.cancels": calls.get("sim.cancels", 0),
        "verify.checks": calls.get("verify.checks", 0),
        "net.messages": sum(row[1] for row in rows),
        "net.inter_messages": sum(row[3] for row in rows),
        "net.bytes": sum(row[4] for row in rows),
    })
    counters["cache.get_s"] = med(lambda r: r["counters"]["cache.get_s"])
    for name, unit in COUNTERS.items():
        put(name, counters.get(name, 0), unit)
    events = profiled[0]["counters"]["sim.events"] if profiled else 0
    total_calls = sum(calls.get(f"{layer}.calls", 0) for layer in LAYERS)
    put("calls_per_event", total_calls / events if events else 0.0,
        "calls/event")
    # The untraced passes' own time, without their speed meter's.
    plain_wall = statistics.median(
        [r["wall_s"] - r["meter"]["seconds"] for r in plain]) if plain else 0.0
    put("trace.overhead",
        _median(traced, "wall_s") / plain_wall if plain_wall else 0.0, "ratio")
    put("trace.unattributed_s", med(lambda r: r["unattributed_s"]), "s")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool,
            inject_us: float = 0.0) -> Dict:
    """Run one benchmark invocation; returns the full record."""
    host = host_context()
    records = passes_for(workload, seed, seconds, trace, inject_us)
    host["loadavg_after"] = list(os.getloadavg())
    runs = RUNS[workload]
    expected = load_reference()["workloads"].get(workload, {}).get(str(seed))
    if inject_us:
        expected = None  # a deliberately altered program: no reference gate
    failures: List[str] = []
    for record in records:
        failures += check_pass(record, expected, runs)
    metrics = per_layer(records) if trace else end_to_end(records)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host,
        "reference": "recorded" if expected is not None else "unrecorded",
        "runs": runs * len(records),
        "runs_failed": len(failures),
        "failures": failures[:10],
        "passes": [
            {k: r.get(k) for k in ("mode", "wall_s", "wall_ref_s", "cpu_s",
                                   "setup_s", "setup_ref_s", "peak_rss_mb",
                                   "meter", "error")}
            for r in records
        ],
        "metrics": metrics,
    }


def record_reference(seeds: List[int]) -> None:
    reference = load_reference()
    table = reference.setdefault("workloads", {})
    for workload in tuple(RUNS):
        for seed in seeds:
            rec = run_child(workload, seed, "plain")
            rows = rec.get("rows")
            if rec.get("error") or rows is None or (
                len(rows) != RUNS[workload]
            ):
                raise SystemExit(f"{workload} seed {seed}: {rec.get('error')}")
            table.setdefault(workload, {})[str(seed)] = [
                row_digest(row) for row in rows
            ]
            print(f"{workload} seed {seed}: {len(rows)} runs", flush=True)
    for workload in table:
        table[workload] = dict(sorted(table[workload].items(),
                                      key=lambda kv: int(kv[0])))
    reference["format"] = (
        "workload -> seed -> per-run sha256[:16] of the outputs "
        "[cs, messages, intra, inter, bytes, inter_bytes, sim_end_ms, "
        "obtaining_mean_ms, obtaining_std_ms]"
    )
    # One line per seed keeps the file short and its diffs readable.
    lines = ["{", f' "format": {json.dumps(reference["format"])},',
             ' "workloads": {']
    for w, (workload, seeds_of) in enumerate(table.items()):
        lines.append(f"  {json.dumps(workload)}: {{")
        for i, (seed, digests) in enumerate(seeds_of.items()):
            comma = "," if i < len(seeds_of) - 1 else ""
            lines.append(f"   {json.dumps(seed)}: {json.dumps(digests)}{comma}")
        lines.append("  }" + ("," if w < len(table) - 1 else ""))
    lines += [" }", "}"]
    REFERENCE.write_text("\n".join(lines) + "\n")


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=tuple(RUNS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS",
                        help="record reference outputs, e.g. 0-31")
    parser.add_argument("--inject-send-us", type=float, default=0.0,
                        help="busy-wait this long in every Network.send "
                             "(attribution self-test)")
    parser.add_argument("--child", choices=("plain", "traced", "profiled"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        child(args.workload, args.seed, args.child, args.inject_send_us)
        return 0
    if args.record:
        record_reference(parse_seeds(args.record))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.inject_send_us)
    print(json.dumps(result))
    print(json.dumps({
        "correct": result["runs_failed"] == 0,
        "attempted": result["runs"],
        "failed": result["runs_failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
