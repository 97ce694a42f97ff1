"""Schedule-quality metrics (Section 3.2 of the paper).

* **stretch** (a.k.a. slowdown): turnaround time divided by execution
  time.  The paper prefers it over raw turnaround because it is robust
  to long jobs and comparable across workloads.
* **coefficient of variation of stretches**: standard deviation divided
  by the mean, in percent — the paper's fairness metric (lower = fairer).
* **maximum stretch**: the alternative fairness metric the paper
  mentions (improved 10-60 % by redundancy).
* **bounded slowdown**: the standard variant that floors the runtime at
  τ seconds so sub-τ jobs cannot dominate; provided for the ablation
  showing the paper's conclusions do not hinge on the raw metric.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

_log = logging.getLogger("repro.core.metrics")

#: conventional bounded-slowdown threshold (Feitelson et al.)
BOUNDED_SLOWDOWN_TAU = 10.0


def stretch(turnaround: float, runtime: float) -> float:
    """Turnaround divided by execution time; always >= 1.

    A zero-wait job accumulates float rounding through ``start + runtime``
    event arithmetic, so turnarounds a few ulps below the runtime are
    clamped to a stretch of exactly 1 rather than rejected.
    """
    if runtime <= 0:
        raise ValueError(f"runtime must be positive, got {runtime}")
    if turnaround < runtime:
        if turnaround < runtime * (1.0 - 1e-9):
            raise ValueError(
                f"turnaround {turnaround} below runtime {runtime} (negative wait?)"
            )
        return 1.0
    return turnaround / runtime


def bounded_slowdown(
    turnaround: float, runtime: float, tau: float = BOUNDED_SLOWDOWN_TAU
) -> float:
    """max(turnaround / max(runtime, τ), 1)."""
    if runtime <= 0:
        raise ValueError(f"runtime must be positive, got {runtime}")
    return max(turnaround / max(runtime, tau), 1.0)


def _check_runtimes(runtime: np.ndarray) -> None:
    bad = runtime <= 0
    if bad.any():
        value = runtime[np.argmax(bad)]
        raise ValueError(f"runtime must be positive, got {value}")


def stretches(turnaround: np.ndarray, runtime: np.ndarray) -> np.ndarray:
    """:func:`stretch` over arrays: the same values, clamp and errors."""
    _check_runtimes(runtime)
    negative = turnaround < runtime * (1.0 - 1e-9)
    if negative.any():
        i = np.argmax(negative)
        raise ValueError(
            f"turnaround {turnaround[i]} below runtime {runtime[i]} "
            "(negative wait?)"
        )
    return np.where(turnaround < runtime, 1.0, turnaround / runtime)


def bounded_slowdowns(turnaround: np.ndarray, runtime: np.ndarray) -> np.ndarray:
    """:func:`bounded_slowdown` over arrays: the same values and errors."""
    _check_runtimes(runtime)
    return np.maximum(
        turnaround / np.maximum(runtime, BOUNDED_SLOWDOWN_TAU), 1.0
    )


@dataclass(frozen=True)
class MetricSummary:
    """Aggregate statistics over a population of per-job values."""

    count: int
    mean: float
    std: float
    maximum: float

    @property
    def cv_percent(self) -> float:
        """Coefficient of variation in percent (the fairness metric)."""
        if self.count == 0 or self.mean == 0:
            return float("nan")
        return 100.0 * self.std / self.mean

    @classmethod
    def of(cls, values: Iterable[float]) -> "MetricSummary":
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            return cls(count=0, mean=float("nan"), std=float("nan"),
                       maximum=float("nan"))
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            std=float(arr.std()),  # population std, matching CV convention
            maximum=float(arr.max()),
        )


def node_seconds(allocations: Iterable[tuple[float, float]]) -> float:
    """Total node-seconds of ``(nodes, seconds)`` allocations."""
    return float(sum(n * s for n, s in allocations))


def waste_fraction(useful: float, wasted: float) -> float:
    """Wasted work over all work consumed, in [0, 1].

    The fault-regime headline: node-seconds burned by orphaned or
    duplicate copies divided by everything the platform computed.
    """
    if useful < 0 or wasted < 0:
        raise ValueError(
            f"node-seconds must be >= 0, got useful={useful}, wasted={wasted}"
        )
    total = useful + wasted
    if total == 0:
        return 0.0
    return wasted / total


def relative(value: float, baseline: float) -> float:
    """Ratio ``value / baseline`` — "relative to the scheme using no
    redundant requests" in the paper's tables; below 1 means redundancy
    helped."""
    if baseline == 0:
        return float("nan")
    return value / baseline


@dataclass(frozen=True)
class RatioSummary:
    """Mean of paired ratios plus the accounting the mean alone hides."""

    #: mean of the finite per-replication ratios (NaN when none survive)
    mean: float
    #: ratios that entered the mean
    used: int
    #: non-finite ratios (zero or NaN baselines) silently excluded before
    #: this accounting existed
    dropped: int


def summarize_ratios(pairs: Sequence[tuple[float, float]]) -> RatioSummary:
    """Mean of per-experiment ratios with explicit dropped-pair accounting.

    Each replication contributes ``scheme_metric / baseline_metric``;
    the figures report the mean of those paired ratios over 50
    experiments, not the ratio of means.  Pairs whose ratio is not
    finite (a zero or NaN baseline) cannot enter the mean; they are
    *counted* instead of vanishing, so a run where, say, half the
    baselines degenerated cannot masquerade as a clean average.
    """
    ratios = [relative(v, b) for v, b in pairs]
    clean = [r for r in ratios if np.isfinite(r)]
    dropped = len(ratios) - len(clean)
    mean = float(np.mean(clean)) if clean else float("nan")
    return RatioSummary(mean=mean, used=len(clean), dropped=dropped)


def mean_of_ratios(pairs: Sequence[tuple[float, float]]) -> float:
    """Average of per-experiment ratios (the paper's averaging order).

    Thin wrapper over :func:`summarize_ratios` that warns (on the
    ``repro`` logger namespace) whenever non-finite ratios were dropped,
    instead of silently filtering them.  Callers that need the counts
    should use :func:`summarize_ratios` directly.
    """
    summary = summarize_ratios(pairs)
    if summary.dropped:
        _log.warning(
            "mean_of_ratios: dropped %d of %d ratio(s) with zero or NaN "
            "baselines; the mean covers the remaining %d pair(s)",
            summary.dropped,
            summary.dropped + summary.used,
            summary.used,
        )
    return summary.mean
