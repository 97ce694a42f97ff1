"""Profiling harness: where does a sweep actually spend its time?

Runs a serial sweep under :mod:`cProfile` while accumulating the
per-replication phase timings (``generate_s`` / ``simulate_s`` /
``aggregate_s``) that :func:`repro.core.experiment.run_single` already
stamps on every result.  The combination answers the two questions a
perf investigation starts with:

* **which phase** — the phase attribution table says whether workload
  generation, the event loop, or result aggregation moved;
* **which function** — the cProfile top list (by cumulative time) then
  localises the change inside that phase.

Host timing clocks are used deliberately throughout: this module
measures the *host* cost of simulating, never simulated behaviour, and
none of its outputs feed back into a trajectory.  It is allowlisted for
the DET001 timing-clock ban for exactly that reason (see
``repro.lint.rules.determinism.TIMING_BLESSED_MODULES``).
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.config import ExperimentConfig
from ..core.experiment import run_single

#: phase keys stamped by run_single, in pipeline order
PHASE_KEYS = ("generate_s", "simulate_s", "aggregate_s")


@dataclass
class ProfileReport:
    """Phase attribution plus cProfile hot spots for one profiled sweep."""

    total_s: float
    n_simulations: int
    #: summed per-phase wall-clock over every simulation
    phases: dict[str, float] = field(default_factory=dict)
    #: per-scheme summed wall-clock (``wall_time_s`` of each result)
    per_scheme: dict[str, float] = field(default_factory=dict)
    #: cProfile rows sorted by cumulative time, repo-relative paths
    hotspots: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "total_s": self.total_s,
            "n_simulations": self.n_simulations,
            "phases_s": dict(self.phases),
            "per_scheme_s": dict(self.per_scheme),
            "hotspots": list(self.hotspots),
        }

    def render(self) -> str:
        lines = [
            f"profiled {self.n_simulations} simulations in {self.total_s:.2f}s",
            "",
            "phase attribution (summed over simulations):",
        ]
        phase_total = sum(self.phases.values()) or 1.0
        for key in PHASE_KEYS:
            v = self.phases.get(key, 0.0)
            lines.append(
                f"  {key:<12} {v:8.3f}s  {100.0 * v / phase_total:5.1f}%"
            )
        lines.append("")
        lines.append("per-scheme wall clock:")
        for scheme, v in self.per_scheme.items():
            lines.append(f"  {scheme:<6} {v:8.3f}s")
        lines.append("")
        lines.append(
            f"hottest functions (cumulative, top {len(self.hotspots)}):"
        )
        lines.append(
            f"  {'cumtime':>8} {'tottime':>8} {'ncalls':>9}  function"
        )
        for row in self.hotspots:
            lines.append(
                f"  {row['cumtime_s']:8.3f} {row['tottime_s']:8.3f} "
                f"{row['ncalls']:9d}  {row['function']} "
                f"({row['file']}:{row['line']})"
            )
        return "\n".join(lines)


def _shorten(path: str) -> str:
    """Strip everything before the package root for readable rows."""
    for marker in ("/repro/", "\\repro\\"):
        if marker in path:
            return "repro/" + path.split(marker, 1)[1]
    return path.rsplit("/", 1)[-1]


def extract_hotspots(
    stats: pstats.Stats, top: int, *, package_only: bool = False
) -> list[dict]:
    """Flatten a :class:`pstats.Stats` into rows sorted by cumulative time.

    ``package_only`` keeps only frames inside the ``repro`` package —
    useful when the builtin/stdlib noise would crowd out the simulator.
    """
    rows = []
    for (path, line, name), (cc, nc, tt, ct, _callers) in stats.stats.items():
        short = _shorten(path)
        if package_only and not short.startswith("repro/"):
            continue
        rows.append(
            {
                "function": name,
                "file": short,
                "line": line,
                "ncalls": int(nc),
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    rows.sort(key=lambda r: (-r["cumtime_s"], r["file"], r["line"]))
    return rows[:top]


def profile_sweep(
    config: ExperimentConfig,
    schemes: Sequence[str],
    replications: int,
    top: int = 20,
    *,
    package_only: bool = True,
    profiler: Optional[cProfile.Profile] = None,
) -> ProfileReport:
    """Run ``schemes x replications`` serially under cProfile.

    The sweep itself is the plain serial path (no cache, no worker
    processes) so the profile reflects the simulation kernel rather
    than IPC; cProfile overhead inflates absolute numbers roughly
    uniformly, so *relative* attribution stays meaningful.
    """
    prof = profiler if profiler is not None else cProfile.Profile()
    phases = {key: 0.0 for key in PHASE_KEYS}
    per_scheme: dict[str, float] = {}
    n = 0
    t0 = time.perf_counter()
    prof.enable()
    try:
        configs = [config.with_(scheme=scheme) for scheme in schemes]
        # Replication-major, like the orchestrator: the schemes of one
        # replication share its cached workload streams.
        for rep in range(replications):
            for scheme, cfg in zip(schemes, configs):
                result = run_single(cfg, replication=rep)
                n += 1
                per_scheme[scheme] = (
                    per_scheme.get(scheme, 0.0) + result.wall_time_s
                )
                for key in PHASE_KEYS:
                    phases[key] += result.phase_timings.get(key, 0.0)
    finally:
        prof.disable()
    total = time.perf_counter() - t0
    stats = pstats.Stats(prof)
    return ProfileReport(
        total_s=total,
        n_simulations=n,
        phases=phases,
        per_scheme=per_scheme,
        hotspots=extract_hotspots(stats, top, package_only=package_only),
    )
