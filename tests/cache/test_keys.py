"""Canonical serialization and code-fingerprint tests.

The golden string below is the contract: any drift in field order,
float formatting or tuple rendering splits (or aliases) cache keys, so
it must fail loudly here first.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

import repro
from repro.cache.keys import (
    CACHE_SCHEMA_VERSION,
    DIGEST_RELEVANT_PACKAGES,
    canonical_json,
    code_fingerprint,
    config_key,
)
from repro.experiments import ExperimentConfig

TINY = ExperimentConfig(n_clusters=2, apps_per_cluster=2, n_cs=3, rho=4.0,
                        platform="two-tier", seed=7)

#: Exact canonical rendering of ``TINY`` — update deliberately (and bump
#: CACHE_SCHEMA_VERSION) when ExperimentConfig gains or renames a field.
GOLDEN = (
    '{"algorithms":[],"alpha_ms":10.0,"apps_per_cluster":2,'
    '"batch_jitter":false,"check_safety":true,"deadline_ms":null,'
    '"distribution":"exponential","fifo":false,"hierarchy":null,'
    '"inter":"naimi","intra":"naimi","jitter":0.0,"label":"",'
    '"lan_ms":0.05,"n_clusters":2,"n_cs":3,"obs":"off",'
    '"platform":"two-tier","rho":4.0,"seed":7,"system":"composition",'
    '"tie_seed":null,"wan_ms":10.0}'
)


class TestCanonicalJson:
    def test_golden_rendering_is_pinned(self):
        assert TINY.cache_key() == GOLDEN

    def test_every_config_field_participates(self):
        import json
        from dataclasses import fields

        rendered = json.loads(TINY.cache_key())
        assert sorted(rendered) == sorted(f.name for f in fields(TINY))

    def test_keys_are_sorted_regardless_of_field_order(self):
        # dict insertion order must never leak into the rendering
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
        assert canonical_json({"a": 2, "b": 1}) == '{"a":2,"b":1}'

    def test_float_formatting_is_shortest_roundtrip_repr(self):
        assert canonical_json(0.1) == "0.1"
        assert canonical_json(1.0) == "1.0"
        assert canonical_json(1e22) == "1e+22"
        assert canonical_json(0.1 + 0.2) == "0.30000000000000004"

    def test_non_finite_floats_are_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))
        with pytest.raises(ValueError):
            canonical_json(float("inf"))

    def test_int_and_float_render_distinctly(self):
        assert canonical_json(1) == "1"
        assert canonical_json(1.0) == "1.0"

    def test_nested_hierarchy_tuples_become_arrays(self):
        cfg = TINY.with_(
            system="multilevel",
            algorithms=("naimi", "suzuki", "martin"),
            hierarchy=((0, 1), (2, (3, 4))),
        )
        text = cfg.cache_key()
        assert '"algorithms":["naimi","suzuki","martin"]' in text
        assert '"hierarchy":[[0,1],[2,[3,4]]]' in text

    def test_strings_are_ascii_escaped(self):
        assert canonical_json("café") == '"caf\\u00e9"'

    def test_uncacheable_values_raise(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def test_distinct_configs_get_distinct_keys(self):
        assert TINY.cache_key() != TINY.with_(seed=8).cache_key()
        assert TINY.cache_key() != TINY.with_(rho=5.0).cache_key()


class TestConfigKey:
    def test_is_sha256_of_canonical_json(self):
        expected = hashlib.sha256(GOLDEN.encode("utf-8")).hexdigest()
        assert config_key(TINY) == expected

    def test_falls_back_to_canonical_json_without_cache_key_method(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Plain:
            x: int = 3

        expected = hashlib.sha256(b'{"x":3}').hexdigest()
        assert config_key(Plain()) == expected


class TestCodeFingerprint:
    def test_stable_within_a_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert code_fingerprint(refresh=True) == code_fingerprint()

    def test_is_short_hex(self):
        fp = code_fingerprint()
        assert len(fp) == 16
        int(fp, 16)  # raises if not hex

    def test_covers_exactly_the_digest_relevant_closure(self):
        assert DIGEST_RELEVANT_PACKAGES == (
            "sim", "net", "mutex", "core", "grid", "workload"
        )
        root = Path(repro.__file__).resolve().parent
        for package in DIGEST_RELEVANT_PACKAGES:
            assert (root / package).is_dir(), package

    def test_source_edit_changes_fingerprint(self, tmp_path, monkeypatch):
        """Editing any digest-relevant module must invalidate the cache."""
        fake = tmp_path / "repro"
        for package in DIGEST_RELEVANT_PACKAGES:
            (fake / package).mkdir(parents=True)
            (fake / package / "mod.py").write_text("X = 1\n")
        (fake / "__init__.py").write_text("")
        monkeypatch.setattr(repro, "__file__", str(fake / "__init__.py"))

        before = code_fingerprint(refresh=True)
        (fake / "sim" / "mod.py").write_text("X = 2\n")
        after = code_fingerprint(refresh=True)
        assert before != after

        # a non-digest-relevant edit (e.g. experiments/) does not
        (fake / "experiments").mkdir()
        (fake / "experiments" / "mod.py").write_text("Y = 1\n")
        assert code_fingerprint(refresh=True) == after

        code_fingerprint(refresh=True)  # leave the memo pointing at fake
        monkeypatch.undo()
        code_fingerprint(refresh=True)  # restore the real fingerprint

    def test_schema_version_participates(self, monkeypatch):
        import repro.cache.keys as keys

        before = code_fingerprint(refresh=True)
        monkeypatch.setattr(keys, "CACHE_SCHEMA_VERSION",
                            CACHE_SCHEMA_VERSION + 1)
        assert code_fingerprint(refresh=True) != before
        monkeypatch.undo()
        assert code_fingerprint(refresh=True) == before
