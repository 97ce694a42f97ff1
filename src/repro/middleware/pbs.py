"""PBS-like batch-scheduler daemon cost model (Figure 5 substitute).

The paper measured a real OpenPBS 2.3.16 + Maui 3.2.6 installation on a
1 GHz Pentium III: with an empty queue the daemon sustains ≈11 job
submissions plus ≈11 cancellations per second; with 20 000 pending
requests it drops to ≈5+5 per second, decaying "sharply at first and
then slower, in a somewhat exponential manner".

We model the daemon's per-operation service time as a function of the
current queue size with exactly that shape::

    throughput(q) = T_inf + (T_0 - T_inf) · exp(-q / q_scale)

calibrated to the paper's two anchor points (and a mid-curve reading of
Figure 5), and drive it through the same saturation churn protocol the
paper used (see :mod:`repro.middleware.churn`).  The model also carries
the measurement noise ("non-deterministic load on the front-end node")
and the memory-leak failure the paper reports (runs at the largest
queue sizes died when the scheduler process ran out of memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: paper anchor: submissions/second (and cancellations/second) at q=0
PAPER_THROUGHPUT_EMPTY = 11.0
#: paper anchor: same at q=20 000
PAPER_THROUGHPUT_20K = 5.0
#: queue size at which Figure 5's sharp initial drop has mostly played out
PAPER_DECAY_SCALE = 6000.0


def throughput_model(q, t_inf, t_0, q_scale):
    """Sustainable submission (= cancellation) rate at queue size ``q``."""
    q = np.asarray(q, dtype=float)
    return t_inf + (t_0 - t_inf) * np.exp(-q / q_scale)


@dataclass(frozen=True)
class PBSDaemonModel:
    """Queue-size-dependent service-time model of a PBS/Maui daemon.

    Parameters
    ----------
    t_0:
        Submission throughput (per second) with an empty queue.  The
        daemon handles one cancellation per submission in the churn
        protocol, so the raw operation rate is ``2·t_0``.
    t_inf:
        Asymptotic throughput as the queue grows without bound.
    q_scale:
        Exponential decay scale of the throughput in queue entries.
    noise_cv:
        Coefficient of variation of multiplicative measurement noise
        (models the paper's "mostly quiescent" front-end).
    oom_queue_size:
        If set, experiments at queue sizes above this may be cut short
        by the daemon leaking memory (the missing points on some of the
        paper's curves); see :meth:`oom_probability`.
    """

    t_0: float = PAPER_THROUGHPUT_EMPTY
    t_inf: float = 4.6
    q_scale: float = PAPER_DECAY_SCALE
    noise_cv: float = 0.04
    oom_queue_size: Optional[float] = 15000.0

    def __post_init__(self) -> None:
        if self.t_0 <= 0 or self.t_inf <= 0:
            raise ValueError("throughputs must be positive")
        if self.t_inf > self.t_0:
            raise ValueError(
                f"t_inf {self.t_inf} exceeds empty-queue throughput {self.t_0}"
            )
        if self.q_scale <= 0:
            raise ValueError(f"q_scale must be positive, got {self.q_scale}")

    def throughput(self, queue_size: float) -> float:
        """Sustainable submissions/second (= cancellations/second)."""
        if queue_size < 0:
            raise ValueError(f"queue size must be >= 0, got {queue_size}")
        return float(throughput_model(queue_size, self.t_inf, self.t_0, self.q_scale))

    def op_service_time(self, queue_size: float) -> float:
        """Seconds the daemon spends on one submit or one cancel.

        A throughput of T submission+cancellation *pairs* per second
        means 2·T individual operations per second.
        """
        return 1.0 / (2.0 * self.throughput(queue_size))

    def noisy_op_service_time(
        self, queue_size: float, rng: np.random.Generator
    ) -> float:
        """Service time with multiplicative front-end noise."""
        base = self.op_service_time(queue_size)
        if self.noise_cv <= 0:
            return base
        factor = max(rng.normal(1.0, self.noise_cv), 0.1)
        return base * factor

    def oom_probability(self, queue_size: float, hours: float) -> float:
        """Chance a ``hours``-long run at ``queue_size`` dies of the leak.

        Zero below ``oom_queue_size``; above it, grows with both queue
        size and experiment duration (the paper lost the high-queue
        points of some 12-hour runs).
        """
        if self.oom_queue_size is None or queue_size <= self.oom_queue_size:
            return 0.0
        excess = (queue_size - self.oom_queue_size) / self.oom_queue_size
        p = min(1.0, 0.15 * excess * (hours / 12.0))
        return float(p)


def fit_throughput_curve(
    queue_sizes: Sequence[float], throughputs: Sequence[float]
) -> PBSDaemonModel:
    """Recover model parameters from (queue size, throughput) samples.

    This is the calibration path: digitise a measured curve (e.g. the
    paper's Figure 5, or a fresh measurement of a local PBS install) and
    fit the three-parameter exponential.
    """
    from scipy.optimize import curve_fit

    q = np.asarray(queue_sizes, dtype=float)
    t = np.asarray(throughputs, dtype=float)
    if q.size != t.size or q.size < 3:
        raise ValueError("need >= 3 matching samples to fit 3 parameters")
    p0 = (float(t.min()), float(t.max()), float(max(q.max() / 3.0, 1.0)))
    bounds = ([0.1, 0.1, 1.0], [1000.0, 1000.0, 1e7])
    (t_inf, t_0, q_scale), _ = curve_fit(
        throughput_model, q, t, p0=p0, bounds=bounds, maxfev=20000
    )
    return PBSDaemonModel(t_0=float(t_0), t_inf=float(t_inf), q_scale=float(q_scale))


#: Anchor points read off the paper's Figure 5 (average curve).
PAPER_FIGURE5_ANCHORS: tuple[tuple[float, float], ...] = (
    (0.0, 11.0),
    (1000.0, 9.8),
    (2500.0, 8.6),
    (5000.0, 7.3),
    (10000.0, 6.0),
    (15000.0, 5.4),
    (20000.0, 5.0),
)


def paper_calibrated_model(**overrides) -> PBSDaemonModel:
    """The daemon model fit to the paper's Figure 5 anchor points."""
    q, t = zip(*PAPER_FIGURE5_ANCHORS)
    fitted = fit_throughput_curve(q, t)
    if overrides:
        import dataclasses

        fitted = dataclasses.replace(fitted, **overrides)
    return fitted
