"""Cache key material: canonical serialization and the code fingerprint.

A cache entry is addressed by two independent components:

* the **configuration key** — a canonical JSON rendering of every
  behaviour-determining :class:`~repro.experiments.config.ExperimentConfig`
  field (the seed is a field, so it participates).  Canonical means:
  object keys sorted, no whitespace, tuples rendered as JSON arrays,
  floats rendered by ``repr`` (the shortest round-trip form, stable
  across CPython 3.x).
  ``tests/cache/test_keys.py`` pins the exact rendering so it cannot
  silently drift between Python versions;
* the **code fingerprint** — a digest over the source text of every
  module that can influence a run's behaviour (``sim``, ``net``,
  ``mutex``, ``core``, ``grid``, ``workload`` — the same closure the
  golden :class:`~repro.verify.digest.RunDigest` matrix pins).  Editing
  any of those files changes the fingerprint and therefore invalidates
  every cached result automatically; entries written under older
  fingerprints are left behind for the LRU sweep to collect.

Nothing here imports from :mod:`repro.experiments`, so the experiments
layer can depend on this module without a cycle.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Optional

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DIGEST_RELEVANT_PACKAGES",
    "canonical_json",
    "config_key",
    "text_key",
    "code_fingerprint",
]

#: Bumped whenever the pickled payload layout changes (e.g. a new field
#: on ``ExperimentResult``); participates in the fingerprint so stale
#: payload shapes can never be unpickled into current code.
CACHE_SCHEMA_VERSION = 1

#: Packages whose source text determines simulated behaviour — the same
#: closure the golden-digest equivalence matrix certifies.  The
#: ``experiments`` package itself is deliberately excluded: it only wires
#: runs together, and schema-level drift is covered by
#: :data:`CACHE_SCHEMA_VERSION`.
DIGEST_RELEVANT_PACKAGES = ("sim", "net", "mutex", "core", "grid", "workload")


def _canonical(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return repr(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite float {value!r} is not cacheable")
        return repr(value)
    if isinstance(value, str):
        # JSON string escaping, ASCII-only: stable everywhere.
        import json

        return json.dumps(value, ensure_ascii=True)
    if isinstance(value, (tuple, list)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted((str(k), v) for k, v in value.items())
        body = ",".join(f"{_canonical(k)}:{_canonical(v)}" for k, v in items)
        return "{" + body + "}"
    if is_dataclass(value) and not isinstance(value, type):
        return canonical_json(value)
    raise TypeError(f"uncacheable value of type {type(value).__name__}: {value!r}")


def canonical_json(config: Any) -> str:
    """Canonical JSON for a dataclass instance (or plain value).

    Field order never matters (keys are sorted), nested tuples become
    JSON arrays, and float rendering is the ``repr`` shortest round-trip
    form — so the same configuration always produces the same bytes.
    """
    if is_dataclass(config) and not isinstance(config, type):
        payload = {f.name: getattr(config, f.name) for f in fields(config)}
        return _canonical(payload)
    return _canonical(config)


def config_key(config: Any) -> str:
    """SHA-256 hex digest of a configuration's canonical serialization.

    Uses ``config.cache_key()`` when the object provides one (so the
    config class stays the single owner of its serialization), falling
    back to :func:`canonical_json`.
    """
    key_fn = getattr(config, "cache_key", None)
    return text_key(key_fn() if callable(key_fn) else canonical_json(config))


def text_key(text: str) -> str:
    """SHA-256 hex digest of an already rendered canonical key text
    (lets a caller that also stores the text render it only once)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_fingerprint: Optional[str] = None


def code_fingerprint(refresh: bool = False) -> str:
    """Digest of every digest-relevant source file (cached per process).

    Walks :data:`DIGEST_RELEVANT_PACKAGES` under the installed
    ``repro`` package, hashing relative path and file bytes in sorted
    order, plus :data:`CACHE_SCHEMA_VERSION`.  Any edit to the simulated
    world changes the fingerprint, so the cache invalidates itself.
    """
    global _fingerprint
    if _fingerprint is not None and not refresh:
        return _fingerprint
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    h.update(f"schema={CACHE_SCHEMA_VERSION}".encode())
    for package in DIGEST_RELEVANT_PACKAGES:
        base = root / package
        if not base.is_dir():  # stubbed-out trees still get a stable key
            h.update(f"missing:{package}".encode())
            continue
        for path in sorted(base.rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    _fingerprint = h.hexdigest()[:16]
    return _fingerprint
