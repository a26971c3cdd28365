"""Attribution self-test: an injected slowdown is flagged and attributed.

``Network.send`` is wrapped at run time (no source edit) with a fixed
busy-wait per call.  The untraced ``wall_ref_s`` of ``fig4-sweep`` must move
past its bound, and the traced run must put most of the added time in
``net.self_s``.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

WORKLOAD = "fig4-sweep"
SEED = 1


def wall_bound() -> float:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"]
                if m["name"] == "wall_ref_s")


def test_injected_send_delay_is_flagged_and_attributed_to_net():
    bound = wall_bound()
    base = run.measure(WORKLOAD, SEED, seconds=0, trace=False)
    assert base["runs_failed"] == 0, base["failures"]
    base_wall = base["metrics"]["wall_ref_s"]["value"]

    # One fixed busy-wait per send, sized so the sends add three bounds'
    # worth of the baseline wall time.
    traced = run.run_child(WORKLOAD, SEED, "traced")
    sends = sum(row[1] for row in traced["rows"])
    added_s = 3 * bound * base_wall
    delay_us = added_s / sends * 1e6

    slow = run.measure(WORKLOAD, SEED, seconds=0, trace=False,
                       inject_us=delay_us)
    assert slow["runs_failed"] == 0, slow["failures"]
    slow_wall = slow["metrics"]["wall_ref_s"]["value"]
    assert slow_wall > base_wall * (1 + bound), (base_wall, slow_wall)

    slow_traced = run.run_child(WORKLOAD, SEED, "traced", delay_us)
    grew = {
        layer: slow_traced["self_s"][layer] - traced["self_s"][layer]
        for layer in run.LAYERS
    }
    added_wall = slow_traced["wall_s"] - traced["wall_s"]
    assert grew["net"] > 0.5 * added_wall, grew
    assert grew["net"] == max(grew.values()), grew
    # The unchanged layers keep their share: none absorbs the added time.
    others = statistics.fmean(
        abs(v) for k, v in grew.items() if k != "net"
    )
    assert others < 0.1 * grew["net"], grew
