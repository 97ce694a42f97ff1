"""Runtime invariant auditor, differential oracle and fuzz harness.

The paper's conclusions rest entirely on the simulator being
trustworthy: a single capacity leak or illegal backfill silently
corrupts every stretch/CV table the reproduction regenerates.  This
package is the correctness tooling that lets the kernel, schedulers and
coordinator be refactored aggressively without fear:

* :mod:`repro.sanitize.auditor` — an opt-in, zero-overhead-when-off
  runtime invariant auditor (a lifecycle ``observer``, like the
  :mod:`repro.obs.trace` recorder) that checks node-capacity
  conservation, backfill legality, FCFS order, cancellation consistency
  and profile representation invariants after every transition (the
  kernel itself enforces monotone, finite event times);
* :mod:`repro.sanitize.oracle` — a differential oracle that runs the
  same seeded workload under FCFS/EASY/CBF and asserts cross-scheduler
  relations;
* :mod:`repro.sanitize.fuzz` — a seeded fuzz harness generating small
  random workloads/platforms and sweeping them with the auditor armed
  (driven by ``hypothesis`` in ``tests/sanitize/``);
* :mod:`repro.sanitize.check` — the ``repro check`` orchestrator that
  runs all three and reports violations with obs-layer trace context.
"""

from .auditor import AuditError, InvariantAuditor, Violation, run_single_audited
from .check import CheckReport, run_check
from .fuzz import FuzzReport, fuzz_case_config, run_fuzz
from .oracle import OracleFinding, OracleReport, run_differential_oracle

__all__ = [
    "AuditError",
    "InvariantAuditor",
    "Violation",
    "run_single_audited",
    "OracleFinding",
    "OracleReport",
    "run_differential_oracle",
    "FuzzReport",
    "fuzz_case_config",
    "run_fuzz",
    "CheckReport",
    "run_check",
]
