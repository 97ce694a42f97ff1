"""Run manifests: everything needed to reproduce a sweep from its artifact.

A manifest answers, months later, "what exactly produced this trace /
bench payload?": the content-addressed fingerprint of every config, the
master seed and the RNG derivation rule, the package and cache schema
versions, the platform it ran on, and how long it took.  Together with
the determinism guarantees of the sweep engine (results and traces are
pure functions of ``(config, replication)``), a manifest plus the repo
at the recorded version regenerates the artifact bit-for-bit.
"""

from __future__ import annotations

import json
import os
import platform as _platform
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from ..core.cache import (
    CACHE_SCHEMA_VERSION,
    config_fingerprint,
    write_atomic,
)
from ..core.config import ExperimentConfig
from ..core.results import plain
from .stream import ONLINE_SCHEMA_VERSION

#: bump when the manifest layout changes incompatibly
#: (2: online_schema_version field — every result now carries streaming
#:  Welford/P² statistics, and an auditable replay must know which
#:  payload layout was in force)
MANIFEST_SCHEMA_VERSION = 2

#: canonical manifest file name inside a recording directory
MANIFEST_FILENAME = "manifest.json"

#: one-line statement of how every random stream is derived; recorded
#: verbatim so an artifact is interpretable without reading the code
RNG_DERIVATION = (
    "numpy SeedSequence([master_seed, *sha256(key)]) per component key; "
    "replication r of a config uses keys ('rep', r, <component>) only"
)


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record written alongside every traced sweep."""

    schema: int
    created_unix: float
    created_iso: str
    repro_version: str
    python: str
    platform: str
    cpu_count: Optional[int]
    cache_schema_version: int
    #: layout version of the online-metrics payloads riding the results
    #: (:data:`repro.obs.stream.ONLINE_SCHEMA_VERSION` at record time)
    online_schema_version: int
    rng_derivation: str
    configs: list[dict]
    n_replications: int
    first_replication: int
    n_workers: int
    wall_time_s: float
    grid_stats: dict = field(default_factory=dict)
    command: Optional[list[str]] = None
    extra: dict = field(default_factory=dict)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        return {"kind": "repro-manifest", **plain(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def write(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        write_atomic(path, (self.to_json() + "\n").encode("utf-8"))
        return path

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        if payload.get("kind") != "repro-manifest":
            raise ValueError("not a repro manifest (bad 'kind')")
        if payload.get("schema") != MANIFEST_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported manifest schema {payload.get('schema')!r} "
                f"(this build reads {MANIFEST_SCHEMA_VERSION})"
            )
        fields = {k: v for k, v in payload.items() if k != "kind"}
        return cls(**fields)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunManifest":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


class RunJournal:
    """Append-only JSONL progress journal for resumable sweeps.

    The orchestrator appends one entry per lifecycle event (grid
    prepared, executor attached, chunk completed); ``repro serve``
    keeps one journal per job next to its manifest.  Together with the
    disk result cache the journal is what makes a killed server or
    worker resumable: completed work is *recovered* through the cache,
    while the journal records — auditable after the fact — which chunks
    completed when, so tests and operators can verify a resume really
    did re-run only the incomplete remainder.

    Entries are flushed and fsynced per append (events are chunk-, not
    task-grained, so durability costs little) and a torn final line
    from a crash mid-write is skipped on read.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._seq = len(self.entries()) if self.path.exists() else 0

    def append(self, entry: dict) -> dict:
        """Durably append one event; returns the record as written."""
        with self._lock:
            record = {
                "seq": self._seq,
                # repro-lint: disable=DET001 -- journal timestamps are
                # provenance metadata (when did this chunk land), never
                # simulation input
                "unix": time.time(),
                **entry,
            }
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            self._seq += 1
        return record

    def entries(self) -> list[dict]:
        """Every intact record, in append order."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return []
        out: list[dict] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except ValueError:
                # Torn tail from a crash mid-append: ignore it; the
                # cache, not the journal, is the source of truth.
                continue
        return out


def describe_config(config: ExperimentConfig, index: int = 0) -> dict:
    """The manifest entry for one config: identity plus content address."""
    return {
        "index": index,
        "scheme": config.scheme,
        "algorithm": config.algorithm,
        "seed": config.seed,
        "describe": config.describe(),
        "fingerprint": config_fingerprint(config),
    }


def build_manifest(
    configs: Sequence[ExperimentConfig],
    n_replications: int,
    first_replication: int = 0,
    n_workers: int = 1,
    wall_time_s: float = 0.0,
    grid_stats: Optional[dict] = None,
    command: Optional[list[str]] = None,
    extra: Optional[dict] = None,
) -> RunManifest:
    """Assemble a manifest for a sweep over ``configs``."""
    from .. import __version__

    # repro-lint: disable=DET001 -- the manifest's entire job is to
    # record when/where a run happened; host timestamps are provenance
    # metadata, never simulation input
    now = time.time()
    return RunManifest(
        schema=MANIFEST_SCHEMA_VERSION,
        created_unix=now,
        # repro-lint: disable=DET001 -- provenance timestamp, see above
        created_iso=time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(now)),
        repro_version=__version__,
        python=sys.version.split()[0],
        platform=_platform.platform(),
        cpu_count=os.cpu_count(),
        cache_schema_version=CACHE_SCHEMA_VERSION,
        online_schema_version=ONLINE_SCHEMA_VERSION,
        rng_derivation=RNG_DERIVATION,
        configs=[describe_config(cfg, i) for i, cfg in enumerate(configs)],
        n_replications=n_replications,
        first_replication=first_replication,
        n_workers=n_workers,
        wall_time_s=wall_time_s,
        grid_stats=dict(grid_stats) if grid_stats is not None else {},
        command=command,
        extra=dict(extra) if extra is not None else {},
    )
