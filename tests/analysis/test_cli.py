"""End-to-end tests for ``python -m repro.analysis``.

The two acceptance-critical facts live here: the shipped tree lints
clean (exit 0) and the intentionally-bad fixture tree fails (exit != 0).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis.cli import main

REPO_SRC = Path(repro.__file__).resolve().parent  # .../src/repro
FIXTURES = Path(__file__).parent / "fixtures"


class TestExitCodes:
    def test_shipped_tree_is_clean(self, capsys):
        assert main([str(REPO_SRC)]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_bad_fixture_tree_fails(self, capsys):
        assert main([str(FIXTURES / "bad_tree")]) == 1
        out = capsys.readouterr().out
        for rule in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006"):
            assert rule in out

    def test_broken_fixture_tree_fails(self, capsys):
        assert main([str(FIXTURES / "broken")]) == 1
        assert "syntax error" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        assert main([str(FIXTURES / "no_such_dir")]) == 2

    def test_missing_baseline_is_usage_error(self, capsys):
        assert (
            main([str(FIXTURES / "bad_tree"), "--baseline", "no_such_baseline.json"])
            == 2
        )


class TestBaselineWorkflow:
    def test_write_then_check_with_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main([str(FIXTURES / "bad_tree"), "--write-baseline", str(baseline)]) == 0
        data = json.loads(baseline.read_text())
        assert len(data["suppressions"]) == 6

        capsys.readouterr()
        assert main([str(FIXTURES / "bad_tree"), "--baseline", str(baseline)]) == 0
        assert "6 suppressed" in capsys.readouterr().out

    def test_stale_baseline_fails(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "suppressions": [
                        {"rule": "RPR001", "path": "repro/gone.py", "context": "f"}
                    ],
                }
            )
        )
        assert main([str(REPO_SRC), "--baseline", str(baseline)]) == 1
        assert "stale" in capsys.readouterr().out


class TestModes:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert out.count("RPR") == 7

    def test_json_format(self, capsys):
        assert main([str(FIXTURES / "bad_tree"), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert len(data["violations"]) == 6

    def test_conformance_mode_is_clean(self, capsys):
        assert main(["--conformance"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_check_combines_lint_and_conformance(self, capsys):
        assert main([str(REPO_SRC), "--check"]) == 0
        out = capsys.readouterr().out
        assert "violation(s)" in out
        assert "conformance" in out



#: the pinned shape of the ``--json`` document — update deliberately,
#: and bump JSON_SCHEMA_VERSION when you do
EXPLORE_REPORT_KEYS = {
    "cell", "scope", "ok", "complete", "states", "transitions",
    "enabled_total", "sleep_pruned", "schedules_covered", "naive_visits",
    "reduction_ratio", "max_depth", "state_fingerprint", "violations",
    "elapsed_s",
}


class TestJsonOutput:
    def test_check_json_schema(self, capsys):
        assert main([str(REPO_SRC), "--check", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.analysis"
        assert doc["version"] == 2
        assert doc["ok"] is True
        assert set(doc) == {"schema", "version", "ok", "lint", "conformance"}
        assert doc["lint"]["ok"] is True
        conf = doc["conformance"]
        assert conf["ok"] is True
        assert {"naimi", "suzuki", "martin"} <= set(conf["algorithms"])
        assert set(conf) == {"ok", "algorithms", "findings"}
        assert conf["findings"] == []

    def test_explore_json_schema(self, capsys):
        # the crash cell is the fastest in the matrix (~60 states)
        assert main(["--explore", "--explore-cells", "crash", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"schema", "version", "ok", "explore"}
        explore_doc = doc["explore"]
        assert explore_doc["ok"] is True
        assert explore_doc["counterexamples_written"] == []
        (report,) = explore_doc["cells"]
        assert set(report) == EXPLORE_REPORT_KEYS
        assert report["complete"] is True
        assert report["violations"] == []
        assert report["states"] > 0


class TestExploreCli:
    def test_explore_crash_cell_text(self, capsys):
        assert main(["--explore", "--explore-cells", "crash"]) == 0
        out = capsys.readouterr().out
        assert "crash1" in out
        assert "— ok" in out

    def test_explore_unknown_cell_is_usage_error(self, capsys):
        assert main(["--explore", "--explore-cells", "nonexistent"]) == 2
        assert "no matrix cell matches" in capsys.readouterr().out

    def test_replay_workflow(self, tmp_path, capsys):
        from repro.analysis.explore import (
            ExploreScope, Violation, World, write_counterexample,
        )

        scope = ExploreScope(
            system="flat", intra="naimi", nodes_per_cluster=2,
            requesters=(1,),
        )
        world = World(scope)
        schedule = []
        while world.enabled():
            schedule.append(world.enabled()[0])
            world.apply(schedule[-1])
        ce = tmp_path / "ce.json"
        trace = tmp_path / "trace.json"
        write_counterexample(
            str(ce), scope,
            Violation(property="safety", message="synthetic",
                      schedule=tuple(schedule)),
        )
        assert main(["--replay", str(ce), "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "replay:" in out and "(initial)" in out
        assert json.loads(trace.read_text())["traceEvents"]

    def test_replay_mismatched_document_fails(self, tmp_path, capsys):
        ce = tmp_path / "bogus.json"
        ce.write_text(json.dumps({"schema": "nope"}))
        assert main(["--replay", str(ce)]) == 1
        assert "replay failed" in capsys.readouterr().out


def test_module_entry_point_nonzero_on_fixture():
    """``python -m repro.analysis <bad tree>`` exits non-zero — the exact
    invocation CI uses, run as a real subprocess."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(FIXTURES / "bad_tree")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "RPR" in proc.stdout
