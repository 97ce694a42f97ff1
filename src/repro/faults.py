"""Seeded fault injection: lost/delayed cancellations and cluster outages.

The paper's Section 4 is about *failure*: a real OpenPBS/Maui instance
degrades and crashes under redundant submit/cancel churn, and users who
"fail to cancel" leave orphaned copies that burn cluster cycles.  The
simulator's default world is perfect — every cancellation arrives
instantly and every scheduler stays up.  This module injects the three
failure modes that break that assumption:

* **lost cancellations** — with probability ``p_cancel_loss`` a loser's
  cancel message is dropped.  The orphan stays queued, eventually
  starts, and runs to completion as pure wasted work (accounted as
  wasted node-seconds through the coordinator's ``duplicate_starts``
  machinery).
* **delayed cancellations** — instead of the scalar
  ``cancellation_latency``, each loser's cancel delay is drawn from a
  configurable distribution, so some siblings race their own
  cancellation and start anyway.
* **cluster outages** — a cluster's scheduler daemon goes down for an
  interval.  While down it rejects submissions and cancellations
  (:class:`~repro.sched.base.SchedulerDownError`); optionally its
  pending queue is lost on restart, after which the coordinator
  resubmits or abandons the affected copies per
  :attr:`FaultConfig.resubmit_policy`.  Running jobs keep their nodes —
  the daemon crashed, not the compute nodes.

All randomness flows through one key-addressed generator
(``("rep", r, "faults")``), so a fault scenario is exactly as
reproducible — serial or parallel — as the fault-free simulation.  When
every knob is zero the injector is never constructed and the simulation
is bit-identical to the perfect-world model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from math import inf
from typing import TYPE_CHECKING, Optional

import numpy as np

from .sim.events import EventPriority
from .validation import check_number

_log = logging.getLogger("repro.faults")

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .cluster.platform import Platform
    from .core.coordinator import Coordinator
    from .sim.engine import Simulator

#: supported cancel-delay distributions (mean = ``cancel_delay_mean``)
CANCEL_DELAY_DISTRIBUTIONS = ("fixed", "exponential", "uniform")

#: what the coordinator does with copies lost to an outage
RESUBMIT_POLICIES = ("resubmit", "abandon")


@dataclass(frozen=True)
class FaultConfig:
    """Failure-regime knobs for one experiment.

    Attributes
    ----------
    p_cancel_loss:
        Probability, per cancellation message, that the message is
        dropped and the loser copy is orphaned.
    cancel_delay_mean:
        Mean cancellation delay in seconds.  When positive it replaces
        the coordinator's scalar ``cancellation_latency`` with per-loser
        draws from ``cancel_delay_distribution``.
    cancel_delay_distribution:
        ``"fixed"`` (always the mean), ``"exponential"`` or
        ``"uniform"`` (on ``[0, 2·mean]``).
    outage_rate:
        Expected scheduler outages per cluster per *hour* of submission
        window (a Poisson process per cluster).
    outage_duration:
        Mean outage length in seconds (exponentially distributed).
    outage_drop_queue:
        If True, a crashing scheduler loses its pending queue — the
        paper's "crashed PBS server" scenario; if False the queue
        survives the restart (requests merely wait).
    resubmit_policy:
        What the coordinator does with copies whose queue entry was
        lost (or whose submission was rejected by a downed cluster):
        ``"resubmit"`` retries when the scheduler recovers,
        ``"abandon"`` gives the copy up.
    """

    p_cancel_loss: float = 0.0
    cancel_delay_mean: float = 0.0
    cancel_delay_distribution: str = "exponential"
    outage_rate: float = 0.0
    outage_duration: float = 300.0
    outage_drop_queue: bool = False
    resubmit_policy: str = "resubmit"

    def __post_init__(self) -> None:
        # NaN and infinities must fail here: NaN compares false against
        # zero, so it would report ``enabled == False`` and silently
        # switch the faults off.
        check_number("p_cancel_loss", self.p_cancel_loss, positive=False)
        if self.p_cancel_loss > 1.0:
            raise ValueError(
                f"p_cancel_loss must be in [0,1], got {self.p_cancel_loss}"
            )
        check_number("cancel_delay_mean", self.cancel_delay_mean, positive=False)
        check_number("outage_rate", self.outage_rate, positive=False)
        check_number("outage_duration", self.outage_duration, positive=True)
        if self.cancel_delay_distribution not in CANCEL_DELAY_DISTRIBUTIONS:
            raise ValueError(
                f"unknown cancel_delay_distribution "
                f"{self.cancel_delay_distribution!r}; choose from "
                f"{CANCEL_DELAY_DISTRIBUTIONS}"
            )
        if self.resubmit_policy not in RESUBMIT_POLICIES:
            raise ValueError(
                f"unknown resubmit_policy {self.resubmit_policy!r}; "
                f"choose from {RESUBMIT_POLICIES}"
            )

    @property
    def enabled(self) -> bool:
        """Whether any fault can actually fire.

        A disabled config is a strict no-op: the experiment driver skips
        injector construction entirely, so no RNG stream is consumed and
        results are bit-identical to the fault-free simulator.
        """
        return (
            self.p_cancel_loss > 0
            or self.cancel_delay_mean > 0
            or self.outage_rate > 0
        )


class FaultInjector:
    """Draws fault outcomes and drives scheduler outages.

    One injector lives per replication; all its decisions come from a
    single generator keyed on ``("rep", replication, "faults")``, which
    keeps fault scenarios under the same common-random-numbers
    discipline as the workload (the fault *environment* of replication
    r is identical across redundancy schemes — only the consumption of
    cancel-loss draws differs with the number of cancellations issued).
    """

    def __init__(self, config: FaultConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self.outages_started = 0
        #: per-cluster ``(start, end)`` outage windows, set by install()
        self.windows: list[list[tuple[float, float]]] = []

    # -- cancellation faults ---------------------------------------------

    def cancel_lost(self) -> bool:
        """Draw whether one cancellation message is dropped."""
        p = self.config.p_cancel_loss
        if p <= 0.0:
            return False
        return bool(self.rng.random() < p)

    @property
    def has_cancel_delay(self) -> bool:
        return self.config.cancel_delay_mean > 0

    def draw_cancel_delay(self) -> float:
        """Draw one loser's cancellation delay in seconds."""
        mean = self.config.cancel_delay_mean
        dist = self.config.cancel_delay_distribution
        if dist == "fixed":
            return mean
        if dist == "exponential":
            return float(self.rng.exponential(mean))
        # "uniform" on [0, 2·mean] keeps the requested mean
        return float(self.rng.uniform(0.0, 2.0 * mean))

    # -- outages ----------------------------------------------------------

    def generate_outage_windows(
        self, n_clusters: int, horizon: float
    ) -> list[list[tuple[float, float]]]:
        """Draw non-overlapping outage windows per cluster.

        Outage starts form a Poisson process with ``outage_rate`` events
        per hour over ``[0, horizon)``; each outage lasts an exponential
        ``outage_duration`` and the next one can only begin after
        recovery (a daemon cannot crash while already down).
        """
        rate_per_s = self.config.outage_rate / 3600.0
        windows: list[list[tuple[float, float]]] = []
        for _ in range(n_clusters):
            cluster_windows: list[tuple[float, float]] = []
            if rate_per_s > 0:
                t = 0.0
                while True:
                    t += float(self.rng.exponential(1.0 / rate_per_s))
                    if t >= horizon:
                        break
                    length = float(
                        self.rng.exponential(self.config.outage_duration)
                    )
                    cluster_windows.append((t, t + length))
                    t += length
            windows.append(cluster_windows)
        return windows

    def install(
        self,
        sim: "Simulator",
        platform: "Platform",
        coordinator: "Coordinator",
        horizon: float,
    ) -> None:
        """Schedule every outage begin/end on the simulator.

        Outage *ends* run at ``CANCEL`` priority so a recovered
        scheduler is up before any same-instant submission (including
        the coordinator's resubmissions, which run at ``SUBMIT``
        priority); outage *begins* run at ``CONTROL`` priority, after
        every same-instant submission made it in before the crash.
        """
        self.windows = self.generate_outage_windows(
            platform.n_clusters, horizon
        )
        for index, cluster_windows in enumerate(self.windows):
            for start, end in cluster_windows:
                sim.at(
                    start,
                    partial(
                        self._begin_outage,
                        sim, platform, coordinator, index, end,
                    ),
                    EventPriority.CONTROL,
                )

    def _begin_outage(
        self,
        sim: "Simulator",
        platform: "Platform",
        coordinator: "Coordinator",
        index: int,
        end: float,
    ) -> None:
        dropped = platform.begin_outage(
            index, drop_queue=self.config.outage_drop_queue
        )
        self.outages_started += 1
        _log.debug(
            "outage: cluster %d down at t=%.1f until t=%.1f "
            "(%d pending request(s) dropped)",
            index, sim.now, end, len(dropped),
        )
        coordinator.on_requests_dropped(dropped, resume_time=end)
        sim.at(
            end, partial(platform.end_outage, index), EventPriority.CANCEL
        )

    def earliest_recovery(
        self, clusters: "list[int] | tuple[int, ...]", now: float
    ) -> Optional[float]:
        """Earliest time any of ``clusters`` comes back up after ``now``.

        ``None`` means no installed window explains the failure (the
        scheduler was downed out-of-band, e.g. by a test) — callers
        should abandon rather than wait forever.
        """
        best = inf
        for index in clusters:
            if index >= len(self.windows):
                continue
            for start, end in self.windows[index]:
                if start <= now < end:
                    best = min(best, end)
                    break
        return best if best < inf else None
