"""CLI coverage for the multilevel and adaptive system paths."""

import pytest

from repro.experiments.cli import main


def test_cli_run_multilevel(capsys):
    code = main([
        "run", "--system", "multilevel", "--clusters", "3", "--apps", "2",
        "--n-cs", "3", "--platform", "two-tier",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "naimi/naimi" in out
    assert "critical sections : 18" in out


def test_cli_run_multilevel_honours_intra_inter_flags(capsys):
    # Regression: --system multilevel used to hard-code naimi/naimi,
    # silently ignoring --intra and --inter.
    code = main([
        "run", "--system", "multilevel", "--intra", "suzuki",
        "--inter", "martin", "--clusters", "3", "--apps", "2",
        "--n-cs", "3", "--platform", "two-tier",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "suzuki/martin" in out
    assert "naimi" not in out


def test_cli_run_rejects_unregistered_algorithm(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "run", "--system", "multilevel", "--intra", "nope",
            "--clusters", "2", "--apps", "2", "--n-cs", "1",
        ])
    msg = str(exc.value)
    assert "unknown algorithm 'nope'" in msg
    assert "naimi" in msg  # the registered list is spelled out


def test_cli_run_flat_ignores_inter_algorithm(capsys):
    # A flat system never builds the inter level, so a bogus --inter
    # must not block it.
    code = main([
        "run", "--system", "flat", "--intra", "naimi", "--inter", "nope",
        "--clusters", "2", "--apps", "2", "--n-cs", "2",
        "--platform", "two-tier",
    ])
    assert code == 0


def test_cli_run_matches_interpreted_reference(capsys):
    # `run` takes the fast path; its result must equal, field for field,
    # the interpreted reference built on a plain Network.
    from repro.experiments import ExperimentConfig
    from repro.experiments.export import results_to_json

    from ..properties.digest_scenarios import run_reference

    argv = [
        "run", "--clusters", "3", "--apps", "2", "--n-cs", "4",
        "--platform", "two-tier", "--seed", "3", "--json",
    ]
    assert main(argv) == 0
    reference = run_reference(ExperimentConfig(
        n_clusters=3, apps_per_cluster=2, n_cs=4, rho=6.0,
        platform="two-tier", seed=3,
    ))
    assert capsys.readouterr().out == results_to_json([reference]) + "\n"


def test_cli_run_adaptive(capsys):
    code = main([
        "run", "--system", "adaptive", "--clusters", "3", "--apps", "2",
        "--n-cs", "3", "--platform", "two-tier",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "adaptive" in out


def test_cli_run_with_jitter_and_seed(capsys):
    code = main([
        "run", "--clusters", "2", "--apps", "2", "--n-cs", "2",
        "--jitter", "0.3", "--seed", "7", "--platform", "two-tier",
    ])
    assert code == 0
    assert "naimi-naimi" in capsys.readouterr().out


def test_cli_rejects_unknown_system():
    with pytest.raises(SystemExit):
        main(["run", "--system", "quantum"])


def test_cli_rejects_unknown_platform():
    with pytest.raises(SystemExit):
        main(["run", "--platform", "ethernet"])
