"""Sweep service: submit, monitor, resume and cancel grid jobs.

The service layer turns the :class:`~repro.core.orchestrator.Orchestrator`
into a long-running system: ``repro serve`` hosts a small stdlib-only
HTTP API (:mod:`repro.service.server`) over ``http.server``
(:mod:`repro.service.http`); sweeps are submitted as jobs
(:mod:`repro.service.jobs`), executed on a core executor or through
the work queue, whose chunks are leased to ``repro worker`` processes
(:mod:`repro.service.worker`), and polled, fetched or cancelled
through :mod:`repro.service.client`.

Durability model: each job persists its spec, a
:class:`~repro.obs.manifest.RunJournal`, its manifest and its canonical
results under the service state directory, and every computed task is
stored in a disk :class:`~repro.core.cache.ResultCache` shared across
jobs.  A killed server or worker therefore resumes by reconstructing
the orchestrator from the spec: completed tasks resolve from the cache
and only incomplete chunks are re-executed.

This package is deliberately *outside* the deterministic simulation
substrate: results are produced by the same pure
``run_single(config, replication)`` as every other path, so nothing
here — scheduling, lease timing, worker count — can change them.
"""

from .client import ServiceClient, ServiceError
from .jobs import JobSpec, JobStore, canonical_grid_payload
from .server import SweepService
from .worker import QueueWorker

__all__ = [
    "JobSpec",
    "JobStore",
    "QueueWorker",
    "ServiceClient",
    "ServiceError",
    "SweepService",
    "canonical_grid_payload",
]
