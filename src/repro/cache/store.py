"""The persistent, content-addressed experiment-result store.

Layout (one directory tree per code fingerprint, so editing any
digest-relevant module simply starts a fresh subtree and the old one
ages out through the LRU sweep)::

    .repro-cache/
      <fingerprint>/<key[:2]>/<key>.pkl

Each blob is a pickled ``{"key": <canonical config json>, "result":
ExperimentResult}`` pair; ``get`` re-checks the stored canonical key
against the requested configuration so a hash collision (or a
canonicalization bug) degrades to a miss, never to a wrong result.

Concurrency contract
--------------------
Many processes (the warm worker pool, several sweeps, CI shards) may
share one cache directory:

* **writes are atomic** — blobs are written to a temporary file in the
  destination directory and published with ``os.replace``, so a reader
  can never observe a half-written entry;
* **reads are self-healing** — any failure to load a blob (truncated
  file, unpicklable bytes, stale schema) deletes the entry and counts a
  miss, so corruption costs a recomputation, not an exception;
* **eviction is advisory** — racing deletes are tolerated
  (``FileNotFoundError`` is ignored); recency comes from file mtimes,
  which ``get`` refreshes on every hit.

Verification
------------
With ``verify_every=N``, every N-th hit is *re-executed* by the caller
and compared field-for-field against the cached result
(:meth:`ExperimentCache.record_verification`); runs are deterministic,
so any mismatch means a stale or corrupted entry, which is replaced and
counted.  The experiments layer drives this (the store never runs
simulations itself).
"""

from __future__ import annotations

import io
import os
import pickle
import re
import tempfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .keys import code_fingerprint, config_key, text_key

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MAX_BYTES",
    "CacheStats",
    "CacheSpec",
    "ExperimentCache",
    "cache_from_env",
    "canonical_dumps",
    "resolve_cache",
]

#: Default on-disk location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default LRU size cap (bytes).  Quick-scale results are a few KiB
#: each; paper-scale sweeps with observability reports run larger.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Eviction drains to this fraction of the cap so every put near the
#: cap does not trigger a fresh directory scan.
_EVICT_TO = 0.8

#: Path components accepted by the raw blob API (fingerprints and
#: SHA-256 config keys are hex, but stay permissive for test doubles).
#: The leading character may not be a dot, so ``.``/``..`` (and hidden
#: files) are rejected; ``/`` is excluded entirely.
_SAFE_COMPONENT = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]{0,127}")


def canonical_dumps(obj: Any) -> bytes:
    """Pickle ``obj`` into identity-independent canonical bytes.

    Ordinary pickling records every object in the memo and emits a
    back-reference (``BINGET``) when the *same object* reappears, so the
    byte stream depends on identity sharing — which differs between a
    result computed in-process (its strings alias the caller's config
    literals) and the same result computed by a farm worker from an
    *unpickled* config.  The C pickler's fast mode skips the memo, so
    every value is written out in full wherever it occurs and the blob
    is a pure function of the value: equal results serialize to equal
    bytes no matter which process produced them, which is what lets the
    farm promise byte-identical results and the content-addressed store
    deduplicate honestly.  (Fast mode refuses self-referential objects;
    results are plain trees.)
    """
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(obj)
    return buf.getvalue()


@dataclass
class CacheStats:
    """Hit/miss/eviction/verification counters for one cache handle.

    Counters are per-:class:`ExperimentCache` instance (per process);
    the on-disk store itself is shared and unaware of them.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0
    verified: int = 0
    verify_failures: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.evictions += other.evictions
        self.corrupt += other.corrupt
        self.verified += other.verified
        self.verify_failures += other.verify_failures

    def snapshot(self) -> "CacheStats":
        return replace(self)

    def as_dict(self) -> Dict[str, int]:
        """Plain-int dict form, for JSON done-markers and farm status."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "CacheStats":
        """Inverse of :meth:`as_dict`; unknown keys are rejected loudly."""
        return cls(**{k: int(v) for k, v in data.items()})

    def format(self) -> str:
        parts = (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} store(s), {self.evictions} evicted"
        )
        if self.corrupt:
            parts += f", {self.corrupt} corrupt"
        if self.verified or self.verify_failures:
            parts += (
                f", {self.verified} verified"
                f" ({self.verify_failures} failed)"
            )
        return f"cache: {parts}"


@dataclass(frozen=True)
class CacheSpec:
    """Picklable description of a cache, for shipping to worker processes.

    ``fingerprint`` carries the parent's already-computed code
    fingerprint so each worker process does not re-hash the source tree
    per chunk; ``None`` recomputes (the pre-farm behaviour).
    """

    cache_dir: str
    max_bytes: int = DEFAULT_MAX_BYTES
    verify_every: int = 0
    fingerprint: Optional[str] = None

    def open(self) -> "ExperimentCache":
        return ExperimentCache(
            cache_dir=self.cache_dir,
            max_bytes=self.max_bytes,
            verify_every=self.verify_every,
            fingerprint=self.fingerprint,
        )


class ExperimentCache:
    """Content-addressed persistent store for experiment results."""

    def __init__(
        self,
        cache_dir: "str | os.PathLike[str] | None" = None,
        max_bytes: Optional[int] = None,
        verify_every: int = 0,
        fingerprint: Optional[str] = None,
    ) -> None:
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        if max_bytes is None:
            env_cap = os.environ.get("REPRO_CACHE_MAX_BYTES", "")
            max_bytes = int(env_cap) if env_cap.isdigit() else DEFAULT_MAX_BYTES
        if verify_every < 0:
            raise ValueError("verify_every must be >= 0")
        self.root = Path(cache_dir)
        self.max_bytes = max_bytes
        self.verify_every = verify_every
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = CacheStats()
        #: Running size estimate so every put does not rescan the tree;
        #: None until the first put pays for one full scan.  Advisory
        #: only (concurrent writers each keep their own): the authority
        #: is the rescan inside :meth:`_evict_if_needed`.
        self._approx_bytes: Optional[int] = None

    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> CacheSpec:
        return CacheSpec(
            cache_dir=str(self.root),
            max_bytes=self.max_bytes,
            verify_every=self.verify_every,
            fingerprint=self.fingerprint,
        )

    def key_for(self, config: Any) -> str:
        return config_key(config)

    def path_for(self, config: Any) -> Path:
        return self._entry_path(self.key_for(config))

    def _entry_path(self, key: str) -> Path:
        return self.root / self.fingerprint / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------ #
    def get(self, config: Any) -> Optional[Any]:
        """The cached result for ``config``, or ``None`` (a miss).

        Any defect in the stored blob — truncation, unpicklable bytes,
        a canonical-key mismatch — deletes the entry and reports a miss,
        so callers recompute instead of failing.
        """
        # Render the canonical key once: it addresses the entry and
        # guards against hash collisions below.
        canonical = config.cache_key()
        path = self._entry_path(text_key(canonical))
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            payload = pickle.loads(blob)
            stored_key = payload["key"]
            result = payload["result"]
        except Exception:
            self._discard(path)
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        if stored_key != canonical:
            # Hash collision or serialization drift: never trust it.
            self._discard(path)
            self.stats.corrupt += 1
            self.stats.misses += 1
            return None
        try:
            os.utime(path)  # refresh LRU recency
        except OSError:
            pass
        self.stats.hits += 1
        return result

    def put(self, config: Any, result: Any) -> None:
        """Store ``result`` atomically; may trigger an LRU eviction pass."""
        canonical = config.cache_key()
        blob = canonical_dumps({"key": canonical, "result": result})
        self.put_blob(self.fingerprint, text_key(canonical), blob)

    # ------------------------------------------------------------------ #
    # raw blob access (the farm's HTTP cache proxy speaks this layer:
    # the proxy moves opaque bytes, and the *client* re-checks the
    # stored canonical key, so a proxy can never launder a wrong blob)
    # ------------------------------------------------------------------ #
    def blob_path(self, fingerprint: str, key: str) -> Path:
        """On-disk path for ``(fingerprint, key)``; validates both parts.

        Both components come off the wire in the proxy case, so they are
        constrained to hex-ish path-safe tokens — a traversal attempt
        (``../``, absolute paths) raises instead of escaping the root.
        """
        if not _SAFE_COMPONENT.fullmatch(fingerprint):
            raise ValueError(f"malformed fingerprint {fingerprint!r}")
        if not _SAFE_COMPONENT.fullmatch(key):
            raise ValueError(f"malformed cache key {key!r}")
        return self.root / fingerprint / key[:2] / f"{key}.pkl"

    def get_blob(self, fingerprint: str, key: str) -> Optional[bytes]:
        """The raw stored bytes for an entry, or ``None``.

        Does not count in :attr:`stats` (the proxy's *client* keeps the
        hit/miss ledger; counting both sides would double-book)."""
        try:
            return self.blob_path(fingerprint, key).read_bytes()
        except OSError:
            return None

    def put_blob(self, fingerprint: str, key: str, blob: bytes) -> None:
        """Store raw bytes atomically (same tmp+replace path as ``put``)."""
        path = self.blob_path(fingerprint, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=".pkl", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        if self.max_bytes > 0:
            if self._approx_bytes is None:
                self._approx_bytes = self.total_bytes()
            else:
                self._approx_bytes += len(blob)
            if self._approx_bytes > self.max_bytes:
                self._evict_if_needed()

    # ------------------------------------------------------------------ #
    def should_verify(self) -> bool:
        """Whether the *next* hit is selected for re-execution.

        Deterministic sampling: with ``verify_every=N`` the 1st, then
        every N-th, hit of this handle is verified (``N=1`` verifies all
        hits; ``N=0`` disables verification).
        """
        if self.verify_every <= 0:
            return False
        return self.stats.hits % self.verify_every == 1 % self.verify_every

    def record_verification(self, cached: Any, fresh: Any) -> bool:
        """Compare a cached result against its re-executed twin.

        Runs are deterministic, so full equality is the contract.  On a
        mismatch the entry is counted as a verification failure; the
        caller replaces it with the fresh result.
        """
        self.stats.verified += 1
        if cached == fresh:
            return True
        self.stats.verify_failures += 1
        return False

    # ------------------------------------------------------------------ #
    def entries(self) -> Iterator[Tuple[Path, int, float]]:
        """Every stored blob as ``(path, size, mtime)`` (all fingerprints)."""
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if not sub.is_dir():
                continue
            for path in sorted(sub.rglob("*.pkl")):
                if path.name.startswith(".tmp-"):
                    continue
                try:
                    st = path.stat()
                except OSError:
                    continue
                yield path, st.st_size, st.st_mtime

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self.entries())

    def clear(self) -> int:
        """Remove every entry (all fingerprints); returns entries removed."""
        removed = 0
        for path, _, _ in list(self.entries()):
            if self._discard(path):
                removed += 1
        return removed

    def _discard(self, path: Path) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def _evict_if_needed(self) -> None:
        """LRU sweep: oldest-mtime entries go first, across fingerprints.

        Old-fingerprint subtrees are never freshened by hits, so they
        are always the first to drain once the cap is under pressure.
        Rescans the tree (the running estimate only decides *when* to
        come here), so racing writers converge on the true size.
        """
        if self.max_bytes <= 0:
            return
        listing: List[Tuple[float, Path, int]] = [
            (mtime, path, size) for path, size, mtime in self.entries()
        ]
        total = sum(size for _, _, size in listing)
        if total <= self.max_bytes:
            self._approx_bytes = total
            return
        target = int(self.max_bytes * _EVICT_TO)
        listing.sort()
        for _, path, size in listing:
            if total <= target:
                break
            if self._discard(path):
                total -= size
                self.stats.evictions += 1
        self._approx_bytes = total


# --------------------------------------------------------------------- #
# environment-driven activation
# --------------------------------------------------------------------- #
_FALSEY = ("", "0", "false", "no", "off")


def cache_from_env() -> Optional[ExperimentCache]:
    """A cache when ``REPRO_CACHE`` is set truthy, else ``None``.

    ``REPRO_CACHE_DIR``, ``REPRO_CACHE_MAX_BYTES`` and
    ``REPRO_CACHE_VERIFY`` refine it.  This is only consulted by the
    sweep/CLI layer (``figures``, ``suites``, ``repro-mutex``): plain
    ``run_experiment`` calls — the tier-1 correctness paths — never
    cache unless handed a cache explicitly, so safety checks always
    execute there.
    """
    if os.environ.get("REPRO_CACHE", "").strip().lower() in _FALSEY:
        return None
    verify_env = os.environ.get("REPRO_CACHE_VERIFY", "")
    verify_every = int(verify_env) if verify_env.isdigit() else 0
    return ExperimentCache(verify_every=verify_every)


def resolve_cache(
    cache: "ExperimentCache | CacheSpec | str | None",
) -> Optional[ExperimentCache]:
    """Normalise the ``cache=`` argument convention used by sweeps.

    ``None`` → caching off; an :class:`ExperimentCache` → itself; a
    :class:`CacheSpec` → opened; the string ``"auto"`` → whatever the
    environment dictates (:func:`cache_from_env`).  Any other object
    exposing the ``get``/``put``/``stats`` surface (the farm's
    :class:`~repro.farm.httpcache.HttpCache` tier) passes through
    unchanged — sweeps only ever duck-type that surface.
    """
    if cache is None:
        return None
    if isinstance(cache, ExperimentCache):
        return cache
    if isinstance(cache, CacheSpec):
        return cache.open()
    if isinstance(cache, str):
        if cache == "auto":
            return cache_from_env()
        raise TypeError(
            f"cache must be None, 'auto', an ExperimentCache or a "
            f"CacheSpec; got {cache!r}"
        )
    if all(hasattr(cache, a) for a in ("get", "put", "stats")):
        return cache  # duck-typed tier (e.g. the farm's HttpCache)
    raise TypeError(
        f"cache must be None, 'auto', an ExperimentCache or a CacheSpec; "
        f"got {cache!r}"
    )
