"""Executor boundaries: XPB001 (unpicklable values crossing a process
boundary).

**XPB001** — every value captured into a ``ProcessPoolExecutor``
submission, a pool ``initargs`` tuple, a ``multiprocessing.Process``
target or a ``pickle.dumps`` payload is pickled in the parent and
rebuilt in a worker.  Lambdas, functions nested inside the submitting
scope, locks/events, open file handles, sockets and ``TraceRecorder``
instances (which hold an open stream) all fail at dispatch time — or
worse, *appear* to work under fork-start while silently sharing state.
The rule flags the capture site statically, before any pool exists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..findings import Finding, Severity
from .base import ProjectRule, register

if TYPE_CHECKING:
    from ..effects.project import ProjectContext


@register
class Xpb001UnpicklableBoundaryCapture(ProjectRule):
    """Statically unpicklable value captured into a process boundary."""

    id = "XPB001"
    severity = Severity.ERROR
    summary = (
        "lambda, nested function, lock, open handle or tracer captured "
        "into a pool submission / initargs / pickle payload"
    )

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        for mod in project.modules:
            for site in mod.boundary_sites:
                yield project.finding(
                    self.id, self.severity, mod.display_path,
                    site.line, site.col,
                    f"value crossing the executor/process boundary is "
                    f"{site.reason}; ship plain data (configs, indices, "
                    f"results) and rebuild stateful objects worker-side",
                )
