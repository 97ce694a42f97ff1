"""Content-addressed result cache for replication sweeps.

Every figure of the paper reruns the same paired NONE baseline, and the
larger scheme x load grids the ROADMAP targets repeat whole sub-sweeps.
Since ``run_single(config, replication)`` is a pure function of
``(config, replication)`` (the RNG tree is derived from the config seed
and the replication index only), its results can be cached and shared
across :func:`~repro.core.runner.compare_schemes`,
:func:`~repro.core.runner.paired_nonadopter_penalty` and every registry
experiment.

Keys are *content addresses*: a SHA-256 fingerprint over the canonical
JSON form of every :class:`~repro.core.config.ExperimentConfig` field
plus :data:`CACHE_SCHEMA_VERSION`.  Any config change produces a new
key, and bumping the schema version (done whenever a simulator change
alters results) invalidates every old entry at once.

Storage is two-layer:

* a bounded in-process LRU (always on) so the baseline is computed once
  per process even without a cache directory;
* an optional on-disk layer (one pickle per ``(config, replication)``,
  written atomically) that survives across processes and CLI runs.

Disk entries are *verified on load*: the payload embeds the schema
version, fingerprint and replication index, and any mismatch or
unpickling error discards the file instead of trusting it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Union

from ..contracts import declared_pure
from .config import ExperimentConfig
from .results import ExperimentResult, plain

#: bump whenever simulator/scheduler changes alter results for an
#: unchanged config — every older on-disk entry then misses
#: (2: fault-injection fields on ExperimentConfig/ExperimentResult)
#: (3: observability fields — backfilled, events_executed,
#:  heap_compactions, phase_timings — on ClusterOutcome/ExperimentResult)
#: (4: fraction schemes now guarantee >= 2 copies on >= 2 clusters —
#:  HALF results change on small platforms without a config change —
#:  plus cancellation_policy/placement/service_regime config fields)
#: (5: online_metrics field on ExperimentResult — streaming Welford/P²
#:  snapshots now ride every cached result; older pickles lack the
#:  attribute and must miss)
#: (6: online_metrics quantiles are exact, computed at end of run —
#:  cached P² payloads must never be mixed with exact ones)
CACHE_SCHEMA_VERSION = 6

#: default bound on the in-process LRU layer (entries, i.e. replications)
DEFAULT_MEMORY_ENTRIES = 128


@declared_pure
def config_fingerprint(
    config: ExperimentConfig, schema_version: int = CACHE_SCHEMA_VERSION
) -> str:
    """Stable content address of a configuration.

    Canonical JSON (sorted keys, tuples as lists) over *all* dataclass
    fields plus the cache schema version, hashed with SHA-256.  Two
    configs share a fingerprint iff they are equal, so the fingerprint
    doubles as the dedup key for grid flattening.
    """
    payload = {
        "schema": int(schema_version),
        "config": plain(config),
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class CacheStats:
    """Hit/miss/store counters (the warm-cache benchmark reads these)."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.discarded = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "discarded": self.discarded,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheStats({self.as_dict()})"


def write_atomic(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path`` whole: a reader sees the old file or
    the new one, never a torn one (temp file, then ``os.replace``)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Two-layer (memory + optional disk) cache of experiment results.

    Parameters
    ----------
    root:
        Directory for the on-disk layer; ``None`` keeps the cache
        memory-only.  The directory is created lazily on first store.
    memory_entries:
        Bound on the in-process LRU layer; 0 disables it (useful when a
        huge paper-scale sweep should stream through the disk only).
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.memory_entries = int(memory_entries)
        self._mem: OrderedDict[tuple[str, int], ExperimentResult] = OrderedDict()
        self.stats = CacheStats()

    # -- keys ------------------------------------------------------------

    def _path(self, fingerprint: str, replication: int) -> Path:
        assert self.root is not None
        return self.root / fingerprint[:2] / f"{fingerprint}-r{replication}.pkl"

    # -- memory layer ----------------------------------------------------

    def _mem_get(self, key: tuple[str, int]) -> Optional[ExperimentResult]:
        result = self._mem.get(key)
        if result is not None:
            self._mem.move_to_end(key)
        return result

    def _mem_put(self, key: tuple[str, int], result: ExperimentResult) -> None:
        if self.memory_entries <= 0:
            return
        self._mem[key] = result
        self._mem.move_to_end(key)
        while len(self._mem) > self.memory_entries:
            self._mem.popitem(last=False)

    # -- public API ------------------------------------------------------

    def get(
        self, config: ExperimentConfig, replication: int,
        fingerprint: Optional[str] = None,
    ) -> Optional[ExperimentResult]:
        """Cached result for ``(config, replication)``, or ``None``.

        ``fingerprint`` may be passed to avoid recomputing it in grid
        loops that already hold it.
        """
        fp = fingerprint or config_fingerprint(config)
        key = (fp, replication)
        result = self._mem_get(key)
        if result is not None:
            self.stats.hits += 1
            return result
        if self.root is not None:
            result = self._disk_get(fp, replication)
            if result is not None:
                self._mem_put(key, result)
                self.stats.hits += 1
                return result
        self.stats.misses += 1
        return None

    def put(
        self, config: ExperimentConfig, replication: int,
        result: ExperimentResult, fingerprint: Optional[str] = None,
    ) -> None:
        """Store a freshly computed result in both layers."""
        fp = fingerprint or config_fingerprint(config)
        self._mem_put((fp, replication), result)
        if self.root is not None:
            self._disk_put(fp, replication, result)
        self.stats.stores += 1

    def clear_memory(self) -> None:
        """Drop the in-process layer (disk entries are untouched)."""
        self._mem.clear()

    def prune_stale(self) -> int:
        """Delete disk entries written under a superseded schema version.

        Fingerprints embed :data:`CACHE_SCHEMA_VERSION`, so after a
        schema bump old entries are never *read* again (a lookup
        computes a new-schema fingerprint and probes new-schema paths
        only) — which also means the read-path discard never fires on
        them and they grow the cache directory without bound.  This
        scans the whole tree, removes every entry whose payload schema
        is not current (plus unreadable ones), and returns the count.
        Current-schema entries are untouched.
        """
        if self.root is None or not self.root.is_dir():
            return 0
        removed = 0
        for path in sorted(self.root.glob("*/*.pkl")):
            try:
                with open(path, "rb") as fh:
                    payload = pickle.load(fh)
            except (pickle.UnpicklingError, EOFError, AttributeError,
                    ValueError, ImportError):
                # Unreadable under this build: it can never hit either.
                self._discard(path)
                removed += 1
                continue
            except OSError:
                # Transient I/O failure: leave the file for next time.
                continue
            schema = payload.get("schema") if isinstance(payload, dict) else None
            if schema != CACHE_SCHEMA_VERSION:
                self._discard(path)
                removed += 1
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir():
                try:
                    shard.rmdir()  # only succeeds once emptied
                except OSError:
                    pass
        return removed

    # -- disk layer ------------------------------------------------------

    def _disk_get(self, fp: str, replication: int) -> Optional[ExperimentResult]:
        path = self._path(fp, replication)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return None
        except (pickle.UnpicklingError, EOFError, AttributeError, ValueError):
            # Truncated/corrupted pickle (or one referencing classes that
            # no longer unpickle): never trust it, delete the entry.
            self._discard(path)
            return None
        except OSError:
            # Transient I/O failure (permissions, NFS hiccup): the file
            # may be perfectly valid — treat as a miss, leave it alone.
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA_VERSION
            or payload.get("fingerprint") != fp
            or payload.get("replication") != replication
            or not isinstance(payload.get("result"), ExperimentResult)
        ):
            self._discard(path)
            return None
        return payload["result"]

    def _disk_put(self, fp: str, replication: int, result: ExperimentResult) -> None:
        path = self._path(fp, replication)
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "fingerprint": fp,
            "replication": replication,
            "result": result,
        }
        # Atomic publish: concurrent writers of the same key race
        # harmlessly (identical content), readers never see a torn file.
        write_atomic(
            path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )

    def _discard(self, path: Path) -> None:
        self.stats.discarded += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = str(self.root) if self.root else "memory"
        return f"ResultCache({where}, {self.stats.as_dict()})"


# -- process-wide default (env-driven) ----------------------------------

_MEMORY_CACHE: Optional[ResultCache] = None
_DISK_CACHES: dict[str, ResultCache] = {}


def shared_cache() -> Optional[ResultCache]:
    """The cache the registry and CLI use, resolved from the environment.

    * ``REPRO_NO_CACHE=1`` — caching off entirely;
    * ``REPRO_CACHE_DIR=/path`` — disk-backed cache rooted there (one
      instance per directory, so the memory layer persists too);
    * otherwise — a process-wide memory-only cache, which is what makes
      the NONE baseline shared across registry figures in one run.
    """
    if os.environ.get("REPRO_NO_CACHE", "").strip().lower() in ("1", "true", "yes"):
        return None
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if cache_dir:
        cache = _DISK_CACHES.get(cache_dir)
        if cache is None:
            # repro-lint: disable=PAR001 -- parent-process memoisation of
            # cache handles; workers never call shared_cache(), and a
            # per-process duplicate would only cost memory, not results
            cache = _DISK_CACHES[cache_dir] = ResultCache(cache_dir)
        return cache
    global _MEMORY_CACHE
    if _MEMORY_CACHE is None:
        # repro-lint: disable=PAR001 -- same parent-only memoisation
        _MEMORY_CACHE = ResultCache(None)
    return _MEMORY_CACHE
