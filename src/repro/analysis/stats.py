"""Statistical utilities for replication studies.

The paper reports means over 50 experiments and mentions the spread
("coefficients of variation ranging approximately from 50% to 5% when
going from N = 2 clusters to N = 20").  These helpers make that spread
first-class: t-based confidence intervals for means and paired ratios,
and a sign test for "scheme beats baseline in most replications".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ConfidenceInterval:
    """A two-sided confidence interval for a mean."""

    mean: float
    lower: float
    upper: float
    confidence: float
    n: int

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def __str__(self) -> str:
        return (f"{self.mean:.3g} "
                f"[{self.lower:.3g}, {self.upper:.3g}] "
                f"({self.confidence:.0%}, n={self.n})")


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> ConfidenceInterval:
    """t-based confidence interval for the mean of ``values``."""
    arr = np.asarray([v for v in values if math.isfinite(v)], dtype=float)
    if arr.size == 0:
        nan = float("nan")
        return ConfidenceInterval(nan, nan, nan, confidence, 0)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0,1), got {confidence}")
    mean = float(arr.mean())
    if arr.size == 1:
        return ConfidenceInterval(mean, -math.inf, math.inf, confidence, 1)
    from scipy import stats as sps

    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    t = float(sps.t.ppf(0.5 + confidence / 2.0, arr.size - 1))
    return ConfidenceInterval(
        mean=mean, lower=mean - t * sem, upper=mean + t * sem,
        confidence=confidence, n=int(arr.size),
    )


def paired_ratio_ci(
    values: Sequence[float],
    baselines: Sequence[float],
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """CI for the mean of per-replication ratios (the paper's estimator)."""
    if len(values) != len(baselines):
        raise ValueError(
            f"{len(values)} values vs {len(baselines)} baselines"
        )
    ratios = [
        v / b for v, b in zip(values, baselines)
        if b != 0 and math.isfinite(v / b)
    ]
    return mean_ci(ratios, confidence)


@dataclass(frozen=True)
class SignTestResult:
    """Does the scheme beat the baseline in most replications?"""

    wins: int
    losses: int
    ties: int
    p_value: float

    @property
    def n(self) -> int:
        return self.wins + self.losses + self.ties

    @property
    def win_fraction(self) -> float:
        contested = self.wins + self.losses
        return self.wins / contested if contested else float("nan")


def sign_test(
    values: Sequence[float], baselines: Sequence[float]
) -> SignTestResult:
    """Two-sided sign test of ``values < baselines`` per replication.

    A small p-value means the scheme's advantage (or disadvantage) is
    systematic rather than replication luck — the statistical backing
    for claims like "redundant requests lead to better average
    stretches in more than 95% of the experiments".
    """
    if len(values) != len(baselines):
        raise ValueError(
            f"{len(values)} values vs {len(baselines)} baselines"
        )
    wins = sum(1 for v, b in zip(values, baselines) if v < b)
    losses = sum(1 for v, b in zip(values, baselines) if v > b)
    ties = len(values) - wins - losses
    contested = wins + losses
    if contested == 0:
        return SignTestResult(wins, losses, ties, 1.0)
    from scipy import stats as sps

    p = float(sps.binomtest(wins, contested, 0.5).pvalue)
    return SignTestResult(wins, losses, ties, p)


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Population CV in percent (the paper's spread-across-replications
    diagnostic)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0 or arr.mean() == 0:
        return float("nan")
    return 100.0 * float(arr.std()) / float(arr.mean())
