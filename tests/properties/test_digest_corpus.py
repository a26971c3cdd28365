"""Differential digest corpus over generated experiment configurations.

The 12 golden digests of ``test_optimization_equivalence.py`` cover
naimi, suzuki and martin only.  This corpus widens the behaviour pin to
every registered algorithm: :func:`corpus` draws ~40 small
:class:`~repro.experiments.ExperimentConfig` objects from a fixed seed,
covering

* all 9 registered algorithms at the intra level (composition and
  flat), every token-based algorithm also at the inter level, plus
  adaptive and multilevel systems;
* the grid5000 and two-tier platforms, jitter 0 and 0.3, both
  think-time distributions;
* ρ in the paper's three regimes (ρ/N below 1, between 1 and 3, and
  above 3).

For each configuration the :class:`~repro.verify.digest.RunDigest`,
``cs_count`` and message count of ``run_experiment`` are pinned in
:data:`PINNED`, and the plain-``Network`` reference
(``digest_scenarios.run_reference``) must give the same digest and the
same :class:`~repro.experiments.runner.ExperimentResult` figures.

Regenerate the table (only when a behaviour change is intended) with::

    PYTHONPATH=src python -m tests.properties.test_digest_corpus
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.experiments import ExperimentConfig, runner
from repro.experiments.runner import run_experiment
from repro.mutex import available_algorithms
from repro.sim import Simulator
from repro.verify import RunDigest

from . import digest_scenarios

#: Seed of the configuration generator; changing it changes every entry.
CORPUS_SEED = 20261018

_ALGORITHMS = sorted(available_algorithms())
_TOKEN_BASED = sorted(
    name for name, info in available_algorithms().items() if info.token_based
)
#: ρ/N drawn per regime: heavily loaded, intermediate, lightly loaded.
_REGIMES = ((0.3, 0.9), (1.2, 2.8), (3.2, 6.0))


def corpus() -> List[ExperimentConfig]:
    """The generated configurations, in a fixed order."""
    rng = random.Random(CORPUS_SEED)
    cells = []
    for algo in _ALGORITHMS:
        cells.append(("composition", algo, rng.choice(_TOKEN_BASED)))
        cells.append(("flat", algo, "naimi"))
    for algo in _TOKEN_BASED:
        cells.append(("composition", rng.choice(_ALGORITHMS), algo))
    # Adaptive runs long enough to switch their inter algorithm.
    cells.append(("adaptive", rng.choice(_ALGORITHMS), "martin"))
    cells.append(("adaptive", "naimi", "suzuki"))
    cells.append(("multilevel", "naimi", "martin"))
    cells.append(("multilevel", "suzuki", "naimi"))
    while len(cells) < 40:
        cells.append(
            ("composition", rng.choice(_ALGORITHMS), rng.choice(_TOKEN_BASED))
        )

    configs = []
    for i, (system, intra, inter) in enumerate(cells):
        n_clusters = rng.choice((2, 3, 4))
        apps_per_cluster = rng.choice((2, 3))
        lo, hi = _REGIMES[i % 3]
        rho_over_n = round(rng.uniform(lo, hi), 2)
        extra = {}
        if system == "multilevel":
            n_clusters = 4
            extra = dict(
                algorithms=(intra, inter, "naimi"),
                hierarchy=((0, 1), (2, 3)),
            )
        configs.append(ExperimentConfig(
            system=system,
            intra=intra,
            inter=inter,
            platform=("grid5000", "two-tier")[i % 2],
            n_clusters=n_clusters,
            apps_per_cluster=apps_per_cluster,
            jitter=(0.0, 0.3)[(i // 2) % 2],
            distribution=("exponential", "fixed")[(i // 4) % 2],
            rho=rho_over_n * n_clusters * apps_per_cluster,
            n_cs=rng.choice((3, 4, 5)) * (4 if system == "adaptive" else 1),
            seed=rng.randrange(1000),
            **extra,
        ))
    return configs


def _digesting(module, monkeypatch, sink: list) -> None:
    """Make ``module`` build simulators with a RunDigest attached."""

    class DigestingSimulator(Simulator):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            sink.append(RunDigest(self))

    monkeypatch.setattr(module, "Simulator", DigestingSimulator)


def _figures(result):
    return (
        result.name,
        result.cs_count,
        result.total_messages,
        result.inter_cluster_messages,
        result.intra_cluster_messages,
        result.total_bytes,
        result.inter_cluster_bytes,
        result.sim_time_ms,
        result.obtaining,
        result.per_cluster,
        result.inter_algorithm_final,
    )


def _run(config: ExperimentConfig, monkeypatch):
    """(default-path digest, result), (reference digest, result)."""
    default_sink: list = []
    reference_sink: list = []
    with monkeypatch.context() as patch:
        _digesting(runner, patch, default_sink)
        default = run_experiment(config)
    with monkeypatch.context() as patch:
        _digesting(digest_scenarios, patch, reference_sink)
        reference = digest_scenarios.run_reference(config)
    return (
        (default_sink[0].hexdigest, default),
        (reference_sink[0].hexdigest, reference),
    )


CONFIGS = corpus()

#: ``(digest, cs_count, total_messages)`` per :func:`corpus` entry.
PINNED = [
    ("973e78d7f471f5fbea448c1ca6b75e0bf331cf94d5f9068306666c1056097fcb", 24, 127),  # 00
    ("87672cfb33d25c3036f25eef16dca5b364cfbd4d5a62375d47c52e4eac08ad78", 16, 41),  # 01
    ("2f74c4c9d9f3f08f1b3ad904b551e3766ec35ed525bef22061fcd09518374a71", 24, 354),  # 02
    ("d6f86c2c9f3f2edad19cd3334e013ca87a06bc6ea2d90852be5da3076de5d7b7", 16, 144),  # 03
    ("f4949b93f752d2f8d4fcbde7695eba2c3270f1acb4ef081564dc719e4f78d313", 24, 260),  # 04
    ("657a5eadc567a2ec7af2bbed5bcae37758a88e8a0fe197abdc86c06c267221cd", 24, 339),  # 05
    ("8c3d3487a6b8d7d379640c9a04e007ac455180a2c464f8cc55da04d440aeca32", 24, 76),  # 06
    ("1dca30ffb70c5e69006bb40497a703fad243d206fdda30c0257c6b95db65c615", 12, 22),  # 07
    ("5163f23bca3b62fd75ff782fb50977eafa79537ae7f092d03973b8b1f4c33fac", 12, 29),  # 08
    ("22643c83acc08fdb00ad05e3990e4ad7ae2a0a223986fc9e430eab057305e058", 36, 117),  # 09
    ("fc3192ab14f1830b8c5864356d2d6c2de800cf9c2447da0b26368d69370a21c4", 60, 368),  # 10
    ("c5e1d2add53cc51484242d41cb78c146daa229ca049a43928da3b88870ca6a48", 24, 44),  # 11
    ("77223ba79c349a33ad86cb470444bce26456bac4b36ea41470946cb5d8c8f46a", 36, 171),  # 12
    ("6cc80340d05962d632c3333d12629d92f7ab568b66d16e96ecbe7fc652cd0108", 12, 34),  # 13
    ("d0bb8178b560015548c0c6369114ecbf7212714963dec23d4f80a3c9af2193a7", 48, 432),  # 14
    ("d19adaa895acb1bdcd83b26ec14bcdfb574a50d9549929a12edaddcd2b1d3b40", 24, 240),  # 15
    ("4ea8218bbaef282d9dbccbda1d085c1b49e664b77bcbbabde9340aef7bad475a", 27, 238),  # 16
    ("cab640e51581429f38223a2f06550bef744773b5e0b30d72696a81587c6c3125", 18, 108),  # 17
    ("224b12899bc280eb05f0fb9f98660748c5c9812b8a23d98e4eebd61994bf35c5", 12, 52),  # 18
    ("ca5a0cb3f22adc64eeda788051487ce1f07dae288f510a1009fe5c32ecfa6b74", 40, 251),  # 19
    ("3b19e1c3ce10827e389f5f03416e08ba6dc7bd33a1d9e4b7d7d9a659d8d7735a", 60, 803),  # 20
    ("869ba9e60cd6ae0cd577cd6fd320074c9e14779a4100912a089257a15074bc30", 48, 288),  # 21
    ("f9ea92c9eb8d76bc25d4dc5e01dfdd7818dc7debd536202a722450a33cfd6752", 27, 174),  # 22
    ("fa2f7c0cbf1d1b783cdfb3dae82fda511ef63b02fa51cbdcdfd69d3783c63f12", 24, 92),  # 23
    ("b8ab7331554b56fa363372fa4d8abfbe4eb29f6910aa5d274846e8b724b21007", 144, 905),  # 24
    ("692662a1fa814345e6de532344cd1458c8303ddee76f98e57ed09a1e8ce8d1a5", 96, 593),  # 25
    ("318a38d5b6605dca2ba4b39bcf3385d0ead7dd696200d78b785d4408997f83bd", 36, 276),  # 26
    ("cc1dca20e5b6d2cb468a473971fa3074ba3d8c5b2c3233df851ea3ca00c1a619", 48, 356),  # 27
    ("7f44417a7bc3ba8ff2d2a2233b26a783ae92fd2f0cc3e4dbb77b50b71154e672", 18, 194),  # 28
    ("619d10b17228382c2ce0ce6d62e9e135fa7ef7aa1af87e895d28d2ef1e5d86d4", 40, 428),  # 29
    ("0e2a1bf968ef1aafba328c550896c212d00080a448b2e3847ee249cf3dc330c7", 20, 76),  # 30
    ("cc82a02f38ae3f2a49b66f00cd8abf5160e7b905e4c0804846d1c1e003a3f0e8", 48, 172),  # 31
    ("9460477db18bccf10fe17a9cdfa0f56c5c3b204b5b80daa09df87862159ca970", 24, 180),  # 32
    ("7a5789b6bdbabf58d557e0755e0dcf353ea14dca7f113b8ef5d7e790330f713b", 40, 512),  # 33
    ("138d2d473ccb72855cc707c5680aee7a07121ea7ff755f529228c4b6fe762225", 18, 194),  # 34
    ("2b31eecaa16392d0aa1abaf97de9ed47f447cc378a35b3eb2b810bdda48d37c1", 24, 320),  # 35
    ("9fc8459a26294cb8c530275e49e3adcf119b9f4d2980326078990a506f89a0ff", 40, 448),  # 36
    ("e17c73089f8af427cc53ac3b4d8a0c2de1969e99b629f439d44ad68b354a2b0b", 20, 198),  # 37
    ("b8f68f5405ec5cf7d9fe7cc2a0e4e5914d8e958c4abc33feac6cafc5c1cd9ca3", 20, 82),  # 38
    ("2406dfd250955f72994938f6f16547b1517af0e2cfb75b19cafca137d258ac0d", 30, 139),  # 39
]


def test_corpus_covers_the_declared_space():
    assert len(CONFIGS) == len(PINNED) == 40
    assert {c.intra for c in CONFIGS if c.system in ("composition", "flat")} \
        == set(_ALGORITHMS)
    assert {c.inter for c in CONFIGS if c.system == "composition"} \
        >= set(_TOKEN_BASED)
    assert {c.system for c in CONFIGS} \
        == {"composition", "flat", "adaptive", "multilevel"}
    assert {c.platform for c in CONFIGS} == {"grid5000", "two-tier"}
    assert {c.jitter for c in CONFIGS} == {0.0, 0.3}
    assert {c.distribution for c in CONFIGS} == {"exponential", "fixed"}
    ratios = [c.rho_over_n for c in CONFIGS]
    assert min(ratios) < 1.0 and max(ratios) > 3.0
    assert any(1.0 < r < 3.0 for r in ratios)


@pytest.mark.parametrize(
    "index", range(len(CONFIGS)),
    ids=[
        f"{i:02d}-{c.system}-{c.intra}-{c.inter}"
        for i, c in enumerate(CONFIGS)
    ],
)
def test_corpus_entry(index, monkeypatch):
    config = CONFIGS[index]
    (digest, result), (ref_digest, reference) = _run(config, monkeypatch)
    assert (digest, result.cs_count, result.total_messages) \
        == PINNED[index], config.describe()
    assert result.cs_count == config.n_apps * config.n_cs
    assert ref_digest == digest
    assert _figures(reference) == _figures(result)


if __name__ == "__main__":  # regenerate PINNED
    import sys

    print("PINNED = [")
    for i, config in enumerate(CONFIGS):
        (digest, result), (ref_digest, _) = _run(config, pytest.MonkeyPatch)
        if ref_digest != digest:
            sys.exit(f"entry {i}: reference digest differs")
        print(
            f'    ("{digest}", {result.cs_count}, '
            f"{result.total_messages}),  # {i:02d}"
        )
    print("]")
