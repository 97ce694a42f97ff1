"""Job model, canonical result payloads and the persistent job store.

A *job* is one sweep grid submitted to ``repro serve``: a
:class:`JobSpec` (configs + replications + executor choice) that the
server turns into an :class:`~repro.core.orchestrator.Orchestrator`
run.  The :class:`JobStore` persists everything a restart needs under
the service state directory::

    <state_dir>/
      cache/                  shared disk ResultCache (all jobs)
      jobs/<job_id>/
        spec.json             the JobSpec, exactly as submitted
        status.json           terminal state (pending/running/done/...)
        journal.jsonl         RunJournal of grid lifecycle events
        manifest.json         RunManifest, written at completion
        results.json          canonical grid payload, written at completion

Resume semantics: a job found ``pending``/``running`` at server startup
is re-executed from its spec; because every computed task went through
the shared disk cache, the rebuilt orchestrator resolves completed work
in its prepare step and only incomplete chunks reach an executor.

Canonical payloads: :func:`canonical_grid_payload` is the one
serialisation used for byte-identity checks — results as sorted-key
JSON with the host-timing fields (``wall_time_s``, ``phase_timings``)
stripped, numpy scalars converted.  The service-smoke CI job diffs the
served payload against an in-process ``run_grid`` of the same spec.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import pickle
import threading
from pathlib import Path
from typing import Any, Optional, Sequence, Union

from ..contracts import declared_pure
from ..core.cache import ResultCache, write_atomic
from ..core.config import ExperimentConfig, config_from_dict
from ..core.results import ExperimentResult, plain
from ..validation import check_int, check_number

#: layout version of results.json / the canonical grid payload
RESULTS_SCHEMA_VERSION = 1

#: per-result fields carrying host timing, stripped for byte-identity
NONDETERMINISTIC_RESULT_FIELDS = ("wall_time_s", "phase_timings")

JOB_STATES = ("pending", "running", "done", "failed", "cancelled")
EXECUTORS = ("inprocess", "pool", "workqueue")


def _json_default(obj: Any) -> Any:
    """Convert numpy scalars/arrays so canonical JSON is plain."""
    import numpy as np

    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON-serialisable: {type(obj).__name__}")


@declared_pure
def canonical_grid_payload(
    grids: Sequence[Sequence[ExperimentResult]],
) -> dict:
    """Deterministic, JSON-ready view of a reassembled grid.

    Strips :data:`NONDETERMINISTIC_RESULT_FIELDS` from every result —
    the exact fields the tier-1 determinism tests pop before comparing
    serial and parallel runs — so two payloads are equal iff the sweeps
    were byte-identical.
    """
    grid = []
    for per_config in grids:
        rows = []
        for result in per_config:
            d = plain(result)
            for key in NONDETERMINISTIC_RESULT_FIELDS:
                d.pop(key, None)
            rows.append(d)
        grid.append(rows)
    return {"schema": RESULTS_SCHEMA_VERSION, "grid": grid}


@declared_pure
def canonical_grid_json(
    grids: Sequence[Sequence[ExperimentResult]],
) -> str:
    """The payload as sorted-key JSON — the unit of `diff` in CI."""
    return json.dumps(
        canonical_grid_payload(grids),
        sort_keys=True,
        separators=(",", ":"),
        default=_json_default,
    )


def encode_chunk_results(
    results: Sequence[tuple[int, int, ExperimentResult]],
) -> str:
    """Pack a completed chunk for the JSON completion envelope.

    Base64-wrapped pickle: exact (ExperimentResult round-trips with
    full float precision, which JSON would not guarantee) and simple.
    The trust model is the transport's: ``repro serve`` binds loopback
    by default and unpickling completions from untrusted networks is
    explicitly out of scope (see docs/architecture.md).
    """
    blob = pickle.dumps(list(results), protocol=pickle.HIGHEST_PROTOCOL)
    return base64.b64encode(blob).decode("ascii")


def decode_chunk_results(
    text: str,
) -> list[tuple[int, int, ExperimentResult]]:
    """Inverse of :func:`encode_chunk_results` (validated shape)."""
    try:
        payload = pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as exc:
        raise ValueError(f"undecodable chunk results: {exc!r}") from exc
    if not isinstance(payload, list):
        raise ValueError("chunk results must be a list")
    out: list[tuple[int, int, ExperimentResult]] = []
    for item in payload:
        ci, rep, result = item
        if not isinstance(result, ExperimentResult):
            raise ValueError(
                f"chunk result for ({ci}, {rep}) is "
                f"{type(result).__name__}, not ExperimentResult"
            )
        out.append((int(ci), int(rep), result))
    return out


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """Everything needed to (re)build one sweep job's orchestrator."""

    configs: tuple[ExperimentConfig, ...]
    n_replications: int
    first_replication: int = 0
    executor: str = "inprocess"
    n_workers: int = 1
    chunksize: Optional[int] = None
    lease_ttl_s: float = 30.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError("a job needs at least one config")
        check_int("n_replications", self.n_replications, 1)
        check_int("first_replication", self.first_replication, 0)
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; choose from {EXECUTORS}"
            )
        check_int("n_workers", self.n_workers, 1)
        if self.chunksize is not None:
            check_int("chunksize", self.chunksize, 1)
        check_number("lease_ttl_s", self.lease_ttl_s, positive=True)
        check_int("max_attempts", self.max_attempts, 1)
        object.__setattr__(self, "configs", tuple(self.configs))

    def to_dict(self) -> dict:
        return {
            "configs": [cfg.to_dict() for cfg in self.configs],
            "n_replications": self.n_replications,
            "first_replication": self.first_replication,
            "executor": self.executor,
            "n_workers": self.n_workers,
            "chunksize": self.chunksize,
            "lease_ttl_s": self.lease_ttl_s,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise ValueError("spec must be a JSON object")
        data = dict(payload)
        raw_configs = data.pop("configs", None)
        if not isinstance(raw_configs, list) or not raw_configs:
            raise ValueError("spec must carry a non-empty 'configs' list")
        known = {f.name for f in dataclasses.fields(cls)} - {"configs"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown JobSpec field(s): {unknown}")
        try:
            configs = tuple(config_from_dict(c) for c in raw_configs)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad config: {exc}") from None
        return cls(configs=configs, **data)


def _write_json_atomic(path: Path, payload: object) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2,
                      default=_json_default)
    write_atomic(path, (text + "\n").encode("utf-8"))


class JobStore:
    """Filesystem-backed registry of jobs under one state directory."""

    def __init__(self, state_dir: Union[str, Path]) -> None:
        self.state_dir = Path(state_dir)
        self.jobs_dir = self.state_dir / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._cache: Optional[ResultCache] = None
        #: highest job number allocated so far; None until the first
        #: create_job scans ``jobs_dir`` for it
        self._last_id: Optional[int] = None

    def cache(self) -> ResultCache:
        """The disk result cache shared by every job (resume substrate)."""
        with self._lock:
            if self._cache is None:
                self._cache = ResultCache(self.state_dir / "cache")
            return self._cache

    # -- identity --------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        if not job_id.startswith("job-") or "/" in job_id or ".." in job_id:
            raise ValueError(f"malformed job id {job_id!r}")
        return self.jobs_dir / job_id

    def job_ids(self) -> list[str]:
        return sorted(
            p.name for p in self.jobs_dir.iterdir()
            if p.is_dir() and p.name.startswith("job-")
        )

    def _highest_id(self) -> int:
        """The highest ``job-NNNN`` number on disk (0 when there is none)."""
        return max(
            (int(j.split("-", 1)[1]) for j in self.job_ids()
             if j.split("-", 1)[1].isdigit()),
            default=0,
        )

    def create_job(self, spec: JobSpec) -> str:
        """Persist a new job's spec and pending status; returns its id.

        Ids come from an in-memory counter seeded by one scan of
        ``jobs_dir``, so a submit costs the same however many jobs the
        store holds.  ``mkdir`` stays the collision guard: a directory
        made behind the store's back (by hand, by another process)
        triggers one rescan and a retry past it.
        """
        with self._lock:
            if self._last_id is None:
                self._last_id = self._highest_id()
            rescanned = False
            while True:
                self._last_id += 1
                job_id = f"job-{self._last_id:04d}"
                jdir = self.job_dir(job_id)
                try:
                    jdir.mkdir(parents=True)
                    break
                except FileExistsError:
                    if rescanned:
                        raise
                    rescanned = True
                    self._last_id = self._highest_id()
        _write_json_atomic(jdir / "spec.json", spec.to_dict())
        self.write_status(job_id, state="pending")
        return job_id

    # -- per-job records -------------------------------------------------

    def spec(self, job_id: str) -> JobSpec:
        path = self.job_dir(job_id) / "spec.json"
        return JobSpec.from_dict(
            json.loads(path.read_text(encoding="utf-8"))
        )

    def write_status(self, job_id: str, state: str, **fields: Any) -> dict:
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        payload = {"job_id": job_id, "state": state, **fields}
        _write_json_atomic(self.job_dir(job_id) / "status.json", payload)
        return payload

    def read_status(self, job_id: str) -> dict:
        path = self.job_dir(job_id) / "status.json"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise KeyError(f"no such job {job_id!r}") from None
        if not isinstance(payload, dict):
            raise ValueError(f"corrupt status for {job_id!r}")
        return payload

    def results_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "results.json"

    def write_results(self, job_id: str, payload: dict) -> Path:
        path = self.results_path(job_id)
        # Canonical single-line JSON so `diff` against a locally
        # computed payload is byte-exact.
        text = json.dumps(
            payload, sort_keys=True, separators=(",", ":"),
            default=_json_default,
        )
        write_atomic(path, (text + "\n").encode("utf-8"))
        return path

    def read_results(self, job_id: str) -> Optional[bytes]:
        try:
            return self.results_path(job_id).read_bytes()
        except FileNotFoundError:
            return None
