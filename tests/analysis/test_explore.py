"""Acceptance tests for the small-scope model checker.

The load-bearing facts:

* the default {naimi, suzuki, martin} x {flat, composition} matrix (plus
  the crash cell) verifies clean, exhaustively, with pinned explored-state
  fingerprints and >= 10x reduction on every fault-free cell;
* the sleep-set reduction visits exactly the state set of a full
  expansion (soundness of the pruning);
* every seeded mutant yields the expected counterexample — the checker
  has teeth;
* counterexamples round-trip through JSON and replay deterministically.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.analysis.explore import (
    ExplorationError,
    ExploreScope,
    Violation,
    World,
    chrome_trace,
    default_cells,
    explore,
    load_counterexample,
    replay,
    run_matrix,
    write_counterexample,
)
from repro.errors import ReproError

from .fixtures.mutants import (
    BrokenCentralizedPeer,
    BrokenNaimiPeer,
    BrokenSuzukiPeer,
)


# --------------------------------------------------------------------- #
# the default matrix
# --------------------------------------------------------------------- #
class TestDefaultMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return run_matrix(wall_budget_s=240)

    def test_all_cells_verify_clean(self, matrix):
        assert matrix.ok, [c.to_dict() for c in matrix.cells if not c.ok]
        assert matrix.violations == 0

    def test_matrix_covers_all_algorithms_and_systems(self, matrix):
        names = [c.scope.describe() for c in matrix.cells]
        for algo in ("naimi", "suzuki", "martin"):
            assert any(n.startswith(f"flat:{algo}:") for n in names)
            assert any(f"composition:{algo}-{algo}:" in n for n in names)
        assert any("crash" in n for n in names)

    def test_explorations_are_exhaustive(self, matrix):
        for cell in matrix.cells:
            assert cell.complete, cell.scope.describe()

    def test_explored_state_sets_are_pinned(self, matrix):
        # Any change to a protocol's reachable states (or to what a
        # peer's fingerprint covers) moves these; update them only with
        # the change that explains why.
        pinned = {
            "flat:naimi:2x3:r2:q1,2,4": (1432, "32d6182d43be0a51"),
            "flat:suzuki:2x3:r1:q1,2,4": (3635, "1c2af706829ead41"),
            "flat:martin:2x3:r1": (3816, "6dad9bfc432f0593"),
            "composition:naimi-naimi:2x3:r2:q1,2,4": (2948, "45dab3aae1d3f652"),
            "composition:suzuki-suzuki:2x3:r1:q1,2,4": (3249, "a5b578080abacf52"),
            "composition:martin-martin:2x3:r1:q1,2,4": (695, "5fec159e05b375f2"),
            "flat:naimi:2x2:r1:crash1": (57, "d5832a6a3805968a"),
        }
        got = {
            cell.scope.describe(): (cell.states, cell.state_fingerprint)
            for cell in matrix.cells
        }
        assert got == pinned

    def test_fault_free_cells_reduce_at_least_10x(self, matrix):
        for cell in matrix.cells:
            if cell.scope.crash_node is not None:
                continue
            ratio = cell.reduction_ratio
            assert ratio >= 10.0, (cell.scope.describe(), ratio)

    def test_crash_cell_exercises_recovery(self, matrix):
        crash = [c for c in matrix.cells if c.scope.crash_node is not None]
        assert len(crash) == 1
        assert crash[0].ok


# --------------------------------------------------------------------- #
# reduction soundness
# --------------------------------------------------------------------- #
class TestReductionSoundness:
    @pytest.mark.parametrize(
        "scope",
        [
            ExploreScope(system="flat", intra="naimi", nodes_per_cluster=2),
            ExploreScope(system="flat", intra="suzuki", nodes_per_cluster=2),
            ExploreScope(
                system="composition", intra="martin", inter="naimi",
                nodes_per_cluster=2,
            ),
        ],
        ids=lambda s: s.describe(),
    )
    def test_reduced_and_full_expansion_visit_the_same_states(self, scope):
        reduced = explore(scope, reduce=True)
        full = explore(scope, reduce=False)
        assert reduced.ok and full.ok
        assert reduced.state_fingerprint == full.state_fingerprint
        assert reduced.states == full.states
        assert reduced.transitions <= full.transitions

    def test_reduction_prunes_transitions(self):
        scope = ExploreScope(system="flat", intra="naimi", nodes_per_cluster=3)
        reduced = explore(scope, reduce=True)
        assert reduced.sleep_pruned > 0
        assert reduced.reduction_ratio > 1.0


# --------------------------------------------------------------------- #
# mutants: the checker has teeth
# --------------------------------------------------------------------- #
class TestMutants:
    def _explore_mutant(self, algo, factory, requests=1):
        scope = ExploreScope(
            system="flat", intra=algo, nodes_per_cluster=2,
            requests_per_node=requests, peer_factory=factory,
            label=f"mutant:{algo}",
        )
        return scope, explore(scope, stop_on_violation=False)

    def test_naimi_dropped_request_deadlocks(self):
        _scope, report = self._explore_mutant("naimi", BrokenNaimiPeer)
        props = {v.property for v in report.violations}
        assert "deadlock" in props
        assert "safety" not in props  # the bug starves, it never doubles

    def test_suzuki_unclear_holder_breaks_safety(self):
        _scope, report = self._explore_mutant(
            "suzuki", BrokenSuzukiPeer, requests=2
        )
        assert any(v.property == "safety" for v in report.violations)

    def test_centralized_grant_without_queue_breaks_safety(self):
        _scope, report = self._explore_mutant(
            "centralized", BrokenCentralizedPeer
        )
        assert any(v.property == "safety" for v in report.violations)

    def test_counterexamples_are_minimal_and_replayable(self):
        scope, report = self._explore_mutant("naimi", BrokenNaimiPeer)
        deadlocks = [v for v in report.violations if v.property == "deadlock"]
        shortest = min(deadlocks, key=lambda v: len(v.schedule))
        # 4 steps: both request, the doomed request reaches the busy
        # root and is dropped, the holder releases
        assert len(shortest.schedule) == 4
        steps = replay(scope, shortest.schedule)
        final = steps[-1]
        assert final.req_nodes and not final.enabled  # a real deadlock

    def test_clean_algorithm_has_no_violations_at_mutant_scope(self):
        # negative control for the negative controls
        scope = ExploreScope(
            system="flat", intra="naimi", nodes_per_cluster=2,
        )
        report = explore(scope, stop_on_violation=False)
        assert report.ok


# --------------------------------------------------------------------- #
# counterexample serialization + replay
# --------------------------------------------------------------------- #
class TestScheduleRoundTrip:
    def _valid_schedule(self, scope):
        world = World(scope)
        schedule = []
        while True:
            enabled = world.enabled()
            if not enabled:
                return tuple(schedule)
            schedule.append(enabled[0])
            world.apply(enabled[0])

    def test_json_round_trip(self):
        scope = ExploreScope(
            system="flat", intra="naimi", nodes_per_cluster=2,
            requesters=(1,),
        )
        violation = Violation(
            property="safety", message="synthetic",
            schedule=self._valid_schedule(scope),
        )
        buf = io.StringIO()
        write_counterexample(buf, scope, violation)
        buf.seek(0)
        scope2, violation2 = load_counterexample(buf)
        assert scope2 == scope
        assert violation2.schedule == violation.schedule
        assert violation2.property == "safety"

    def test_document_carries_experiment_mapping(self):
        from repro.analysis.explore.schedule import counterexample_to_dict
        from repro.experiments import ExperimentConfig

        scope = ExploreScope(system="composition", intra="suzuki",
                             inter="martin", nodes_per_cluster=3)
        doc = counterexample_to_dict(
            scope, Violation(property="deadlock", message="m", schedule=())
        )
        cfg = ExperimentConfig(**doc["experiment_config"])
        assert cfg.system == "composition"
        assert cfg.intra == "suzuki" and cfg.inter == "martin"
        assert cfg.apps_per_cluster == 2

    def test_replay_rejects_disabled_action(self):
        scope = ExploreScope(system="flat", intra="naimi",
                             nodes_per_cluster=2)
        with pytest.raises(ReproError, match="not enabled"):
            replay(scope, (("release", 1),))

    def test_mutant_counterexamples_do_not_round_trip(self, tmp_path):
        scope = ExploreScope(
            system="flat", intra="naimi", nodes_per_cluster=2,
            peer_factory=BrokenNaimiPeer,
        )
        path = tmp_path / "ce.json"
        write_counterexample(
            str(path), scope,
            Violation(property="deadlock", message="m", schedule=()),
        )
        with pytest.raises(ReproError, match="peer_factory"):
            load_counterexample(str(path))

    def test_chrome_trace_shape(self):
        scope = ExploreScope(system="flat", intra="naimi",
                             nodes_per_cluster=2, requesters=(1,))
        violation = Violation(
            property="safety", message="synthetic",
            schedule=self._valid_schedule(scope),
        )
        trace = chrome_trace(scope, violation)
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert phases == {"M", "X", "i"}  # metadata, spans, the marker
        json.dumps(trace)  # must be serializable as-is


# --------------------------------------------------------------------- #
# scope validation
# --------------------------------------------------------------------- #
class TestScopeValidation:
    def test_crash_requires_flat(self):
        with pytest.raises(ExplorationError):
            World(ExploreScope(system="composition", crash_node=1))

    def test_crash_node_must_be_an_app_node(self):
        with pytest.raises(ExplorationError, match="application node"):
            World(ExploreScope(
                system="flat", intra="naimi", crash_node=0,
            ))

    def test_default_cells_are_well_formed(self):
        cells = default_cells()
        assert len(cells) == 7
        for cell in cells:
            cell.validate()
