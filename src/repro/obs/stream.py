"""Per-run metric summaries (exact moments and quantiles) and their merge.

The paper's harmfulness verdict rests on distribution-level statistics
— stretch quantiles, waste fractions.  Every run carries them as
``ExperimentResult.online_metrics``, a small schema-versioned payload
that survives after the per-request ``jobs`` array is dropped (the
knee study's lean runner does exactly that).  The payload is computed
once, at the end of the run, from the completed population:

* :class:`WelfordAccumulator` — count, mean, ``m2 = Σ(x − mean)²``,
  total, min and max of a batch (:meth:`WelfordAccumulator.of`), and
  Chan's numerically stable parallel merge of two summaries.
* :class:`OnlineStat` — one metric's bundle (moments + p50/p90/p99).
* :class:`OnlineMetrics` — the per-run set (stretch, wait, bounded
  slowdown, wasted work) :func:`~repro.core.experiment.run_single`
  fills with one call per kind once the simulation has stopped.
* :class:`MergedOnlineMetrics` — the sweep-level reduction.  Its merge
  is list concatenation of immutable per-run summaries, so it is
  *exactly* associative: ``(a + b) + c`` and ``a + (b + c)`` hold the
  same part list and every derived aggregate — computed by a
  deterministic left fold over that list — is bit-identical.  Workers
  may therefore reduce partial sweeps in any grouping, as long as the
  final part order is the deterministic ``(config, replication)`` task
  order (which :func:`~repro.core.parallel.run_grid` guarantees).

Accuracy contract (verified by ``tests/obs/test_stream.py``):

* per-run quantiles are exact: the linear-interpolation quantile of
  the sorted population (numpy's default ``"linear"`` method),
  bit-identical to :func:`_exact_quantile` over
  ``sorted(result.stretches())`` / ``sorted(result.waits())``;
* per-run counts equal the post-hoc populations (``len(result.jobs)``
  and ``len(coordinator.duplicate_starts)``); means, variances and
  totals equal the post-hoc values up to float-summation order;
* merged sweep quantiles are count-weighted means of the per-run exact
  quantiles — an approximation documented here rather than hidden: it
  is close when the runs are identically distributed replications (the
  sweep case) and is not the quantile of the pooled population.

The summaries draw no RNG and schedule no events, so computing them
cannot perturb a run's trajectory; the payload holds plain floats.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

#: version of the ``online_metrics`` payload carried by
#: :class:`~repro.core.results.ExperimentResult`, ``repro bench --json``
#: and run manifests; bump when keys change meaning (2: quantiles are
#: exact, no longer P² estimates).
ONLINE_SCHEMA_VERSION = 2

#: quantiles every :class:`OnlineStat` tracks by default (the paper's
#: median plus the tail the helpful/harmful crossover lives in).
ONLINE_QUANTILES: tuple[float, ...] = (0.5, 0.9, 0.99)

#: metric names :class:`OnlineMetrics` maintains, in payload order.
ONLINE_METRIC_NAMES: tuple[str, ...] = (
    "stretch", "wait", "slowdown", "wasted_node_seconds",
)

#: estimator families enabled by this implementation (recorded in run
#: manifests so replayed runs are auditable).
ONLINE_ESTIMATORS: tuple[str, ...] = ("moments", "exact")


def quantile_label(p: float) -> str:
    """Canonical payload key for quantile ``p``: 0.5 -> ``"p50"``."""
    return f"p{100 * p:g}".replace(".", "_")


class WelfordAccumulator:
    """Mean/variance/min/max/total of a population, mergeable.

    :meth:`of` summarises one batch with numpy (two-pass, so ``m2`` is
    ``Σ(x − mean)²`` computed directly); :meth:`merge` folds summaries
    with Chan et al.'s numerically stable pairwise update.  The
    ``total`` is kept separately (not ``count * mean``) so waste totals
    do not pick up mean-rounding drift.
    """

    __slots__ = ("count", "mean", "m2", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    @classmethod
    def of(cls, values: np.ndarray) -> "WelfordAccumulator":
        """Summary of a float array (the empty summary for no values)."""
        acc = cls()
        if values.size:
            acc.count = int(values.size)
            acc.total = float(values.sum())
            acc.mean = acc.total / acc.count
            dev = values - acc.mean
            acc.m2 = float((dev * dev).sum())
            acc.minimum = float(values.min())
            acc.maximum = float(values.max())
        return acc

    def merge(self, other: "WelfordAccumulator") -> None:
        """Fold ``other`` into ``self`` (Chan's parallel combination)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.total = other.total
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        n = self.count + other.count
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * self.count * other.count / n
        self.mean += delta * other.count / n
        self.count = n
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum

    @property
    def variance(self) -> float:
        """Population variance (the MetricSummary/np.var convention)."""
        if self.count == 0:
            return float("nan")
        return self.m2 / self.count

    @property
    def std(self) -> float:
        v = self.variance
        return math.sqrt(v) if v == v else float("nan")


def _exact_quantile(sorted_values: Sequence[float], p: float) -> float:
    """Linear-interpolation quantile of a sorted sequence."""
    n = len(sorted_values)
    if n == 0:
        return float("nan")
    pos = p * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac)


class OnlineStat:
    """Exact moments and quantiles of one metric's observations."""

    __slots__ = ("welford", "quantiles", "_sorted")

    def __init__(self, quantiles: Sequence[float] = ONLINE_QUANTILES) -> None:
        self.welford = WelfordAccumulator()
        self.quantiles = tuple(quantiles)
        self._sorted = np.empty(0)

    def observe(self, values: np.ndarray) -> None:
        """Fold a batch of observations in."""
        x = np.asarray(values, dtype=float)
        if x.size == 0:
            return
        self.welford.merge(WelfordAccumulator.of(x))
        self._sorted = np.sort(np.concatenate((self._sorted, x)))

    def summary(self) -> dict:
        """Immutable plain-dict snapshot (the mergeable part payload).

        Undefined statistics (empty stream) serialise as ``None``, not
        NaN: NaN is not strict JSON and ``nan != nan`` would break the
        bit-equality contracts cached results rely on.
        """
        w = self.welford
        quantiles = {}
        for p in self.quantiles:
            value = _exact_quantile(self._sorted, p)
            quantiles[quantile_label(p)] = value if value == value else None
        return {
            "count": w.count,
            "mean": w.mean if w.count else None,
            "m2": w.m2,
            "total": w.total,
            "min": w.minimum if w.count else None,
            "max": w.maximum if w.count else None,
            "quantiles": quantiles,
        }


class OnlineMetrics:
    """Per-run metric summaries, computed once the run has ended.

    :func:`~repro.core.experiment.run_single` calls ``observe_completion``
    once with the per-job arrays of every completed job and
    ``observe_waste`` once with the node-seconds of every duplicate
    start (charged up to the horizon when still running).  The
    ``stretch`` count therefore equals ``len(result.jobs)`` and the
    wasted-work total equals ``result.wasted_node_seconds`` up to
    float-summation order.
    """

    __slots__ = ("stats",)

    def __init__(self, quantiles: Sequence[float] = ONLINE_QUANTILES) -> None:
        self.stats = {name: OnlineStat(quantiles) for name in ONLINE_METRIC_NAMES}

    def observe_completion(
        self, waits: np.ndarray, stretches: np.ndarray, slowdowns: np.ndarray
    ) -> None:
        self.stats["stretch"].observe(stretches)
        self.stats["wait"].observe(waits)
        self.stats["slowdown"].observe(slowdowns)

    def observe_waste(self, node_seconds: np.ndarray) -> None:
        self.stats["wasted_node_seconds"].observe(node_seconds)

    def to_dict(self) -> dict:
        """The ``ExperimentResult.online_metrics`` payload."""
        return {
            "schema": ONLINE_SCHEMA_VERSION,
            "metrics": {
                name: self.stats[name].summary() for name in ONLINE_METRIC_NAMES
            },
        }


# -- sweep-level reduction ----------------------------------------------


class MergedOnlineMetrics:
    """Exactly-associative reduction of per-run online payloads.

    Holds the flat tuple-of-parts (one part per run, in insertion
    order); every aggregate is a pure left fold over that tuple.  Merge
    of two reductions is concatenation, so any grouping of the same
    ordered part sequence produces bit-identical aggregates.
    """

    __slots__ = ("parts",)

    def __init__(self) -> None:
        #: per-run payloads (the ``to_dict`` dicts), in insertion order
        self.parts: list[dict] = []

    def add(self, payload: Optional[dict]) -> None:
        """Fold one run's ``online_metrics`` payload in (None = no-op)."""
        if payload is None:
            return
        if payload.get("schema") != ONLINE_SCHEMA_VERSION:
            raise ValueError(
                f"online-metrics schema mismatch: expected "
                f"{ONLINE_SCHEMA_VERSION}, got {payload.get('schema')!r}"
            )
        self.parts.append(payload)

    def merge(self, other: "MergedOnlineMetrics") -> None:
        """Concatenate another reduction's parts after this one's."""
        self.parts.extend(other.parts)

    @property
    def n_runs(self) -> int:
        return len(self.parts)

    def _metric_parts(self, name: str) -> list[dict]:
        return [p["metrics"][name] for p in self.parts]

    def count(self, name: str) -> int:
        return sum(p["count"] for p in self._metric_parts(name))

    def total(self, name: str) -> float:
        total = 0.0
        for p in self._metric_parts(name):
            total += p["total"]
        return total

    def mean_variance(self, name: str) -> tuple[float, float]:
        """Chan-fold mean and population variance across all parts."""
        acc = WelfordAccumulator()
        for p in self._metric_parts(name):
            if p["count"] == 0:
                continue
            part = WelfordAccumulator()
            part.count = p["count"]
            part.mean = p["mean"]
            part.m2 = p["m2"]
            part.total = p["total"]
            part.minimum = p["min"]
            part.maximum = p["max"]
            acc.merge(part)
        if acc.count == 0:
            return float("nan"), float("nan")
        return acc.mean, acc.variance

    def quantile(self, name: str, p: float) -> float:
        """Count-weighted mean of per-run quantiles ``p``.

        The per-run quantiles are exact, but their weighted mean is not
        the quantile of the pooled population — see the module
        docstring's accuracy contract.
        """
        label = quantile_label(p)
        weight = 0.0
        weighted = 0.0
        for part in self._metric_parts(name):
            n = part["count"]
            if n == 0:
                continue
            value = part["quantiles"].get(label)
            if value is None or value != value:
                continue
            weight += n
            weighted += n * value
        if weight == 0.0:
            return float("nan")
        return weighted / weight

    def summary(self) -> Optional[dict]:
        """Aggregate payload for bench/knee surfacing (None when empty)."""
        if not self.parts:
            return None
        metrics = {}
        for name in ONLINE_METRIC_NAMES:
            count = self.count(name)
            mean, variance = self.mean_variance(name)
            parts = self._metric_parts(name)
            mins = [p["min"] for p in parts if p["count"]]
            maxs = [p["max"] for p in parts if p["count"]]
            quantiles = {}
            for p in ONLINE_QUANTILES:
                value = self.quantile(name, p)
                quantiles[quantile_label(p)] = value if value == value else None
            metrics[name] = {
                "count": count,
                "mean": mean if count else None,
                "variance": variance if count else None,
                "total": self.total(name),
                "min": min(mins) if mins else None,
                "max": max(maxs) if maxs else None,
                "quantiles": quantiles,
            }
        return {
            "schema": ONLINE_SCHEMA_VERSION,
            "n_runs": self.n_runs,
            "metrics": metrics,
        }


def merge_online_payloads(
    payloads: Iterable[Optional[dict]],
) -> Optional[dict]:
    """One-shot reduction of per-run payloads in iteration order."""
    merged = MergedOnlineMetrics()
    for payload in payloads:
        merged.add(payload)
    return merged.summary()
