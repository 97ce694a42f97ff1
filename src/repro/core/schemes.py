"""Redundant-request schemes and target-cluster selection.

The paper evaluates five schemes (Section 3.3): **R2**, **R3**, **R4**
(a fixed number of copies), **HALF** and **ALL** (a fraction of the
platform), plus the implicit **NONE** baseline.  One request always
goes to the user's local cluster; the remaining targets are remote
clusters drawn randomly — uniformly by default ("users blindly send
requests to all clusters on which they have accounts"), or with a
geometric bias for the Table 2 non-uniform-accounts experiment
(cluster C1 twice as likely as C2, which is twice as likely as C3, …).

In heterogeneous platforms only clusters large enough for the job are
eligible (Section 3.3: "Jobs arriving at a cluster do not request more
compute nodes than available at that cluster", and redundant copies
follow the same rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class RedundancyScheme:
    """How many queues a job's requests are spread over.

    Attributes
    ----------
    name:
        Scheme label as used in the paper ("NONE", "R2", …, "ALL").
    fixed_copies:
        Total number of requests (including the local one) for Rk
        schemes; ``None`` for fraction-based schemes.
    fraction:
        Fraction of the platform targeted, for HALF (0.5) and ALL (1.0).
    """

    name: str
    fixed_copies: Optional[int] = None
    fraction: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.fixed_copies is None) == (self.fraction is None):
            raise ValueError("exactly one of fixed_copies/fraction must be set")
        if self.fixed_copies is not None and self.fixed_copies < 1:
            raise ValueError(f"fixed_copies must be >= 1, got {self.fixed_copies}")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")

    def copies(self, n_clusters: int) -> int:
        """Total requests per job on an ``n_clusters`` platform.

        Fraction-based schemes round to the nearest cluster count
        (HALF of 5 clusters → 3 including the local one); the result is
        clamped to ``[1, n_clusters]``.  A fraction scheme additionally
        guarantees at least 2 copies whenever the platform has at least
        2 clusters: HALF on 2 clusters used to round to 1, silently
        degrading to NONE, which made "HALF" lie on small platforms.
        """
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if self.fixed_copies is not None:
            k = self.fixed_copies
        else:
            # Round half-up (not banker's): HALF of 5 clusters is 3.
            k = int(math.floor(self.fraction * n_clusters + 0.5))
            if n_clusters >= 2:
                k = max(k, 2)
        return max(1, min(k, n_clusters))

    @property
    def is_redundant(self) -> bool:
        return self.name != "NONE"


#: the paper's scheme set, by name
SCHEMES: dict[str, RedundancyScheme] = {
    "NONE": RedundancyScheme("NONE", fixed_copies=1),
    "R2": RedundancyScheme("R2", fixed_copies=2),
    "R3": RedundancyScheme("R3", fixed_copies=3),
    "R4": RedundancyScheme("R4", fixed_copies=4),
    "HALF": RedundancyScheme("HALF", fraction=0.5),
    "ALL": RedundancyScheme("ALL", fraction=1.0),
}

#: schemes plotted in Figures 1-4, in the paper's legend order
PAPER_SCHEME_ORDER = ("R2", "R3", "R4", "HALF", "ALL")

#: supported target-placement strategies
PLACEMENTS = ("uniform", "balanced")


def get_scheme(name: str) -> RedundancyScheme:
    """Look up a scheme by name (case-insensitive).

    Beyond the paper's named set, generalised *redundancy-d* schemes
    parse on the fly: ``R<k>`` for any fixed copy count ``k >= 1``
    (``R7`` → 7 copies, subsuming R2/R3/R4) and ``F<frac>`` for any
    platform fraction in (0, 1] (``F0.25`` → a quarter of the clusters,
    subsuming HALF = ``F0.5`` and ALL = ``F1``).  Parsed schemes obey
    the same clamping/≥2-copies rules as the named ones.
    """
    key = name.upper()
    try:
        return SCHEMES[key]
    except KeyError:
        pass
    if len(key) > 1 and key[0] in ("R", "F"):
        body = key[1:]
        try:
            if key[0] == "R":
                return RedundancyScheme(key, fixed_copies=int(body))
            return RedundancyScheme(key, fraction=float(body))
        except ValueError:
            pass  # non-numeric body or out-of-range: fall through
    raise ValueError(
        f"unknown scheme {name!r}; choose from {sorted(SCHEMES)} "
        "or a generalised 'R<k>' / 'F<fraction>' form"
    )


def geometric_bias_weights(n_clusters: int, ratio: float = 0.5) -> np.ndarray:
    """Table 2's biased account distribution over clusters.

    ``P(C_i) ∝ ratio**i``: with the default ratio 0.5, cluster C1 is
    picked with twice the probability of C2, and so on — "heavily
    biased (half of the clusters are each picked with only probability
    6.25 %)" for N = 10.
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    w = ratio ** np.arange(n_clusters, dtype=float)
    return w / w.sum()


#: a :class:`TargetSelector` memo entry for one ``(origin, nodes)``:
#: the eligible remotes, the remote copies to pick, and the
#: ``Generator.integers`` bounds of that pick (see ``_draw_uniform``)
_Entry = tuple[list[int], int, tuple[int, ...]]


class TargetSelector:
    """Chooses which clusters receive a job's redundant copies.

    :meth:`choose_many` picks the targets of a whole run, in job order;
    :meth:`choose` is its one-job case.  Uniform remote targets are
    drawn with one ``Generator.integers`` call per batch, draw for draw
    the values that one ``rng.choice(len(remotes), take,
    replace=False)`` per job would give, leaving the generator in the
    same state (see :meth:`_draw_uniform`).

    Parameters
    ----------
    scheme:
        The redundancy scheme in force for redundant jobs.
    node_counts:
        Platform cluster sizes, for eligibility filtering.
    rng:
        Private stream for target sampling.
    cluster_weights:
        Optional non-uniform account distribution (Table 2); defaults
        to uniform.  Weights are renormalised over the eligible remote
        clusters for each job, which is sampled one job at a time.
    placement:
        ``"uniform"`` (default) draws remote targets randomly from the
        eligible set, as the paper's users do.  ``"balanced"`` is the
        *balanced nonadaptive* placement from the redundancy-d
        literature: remote copies go to the eligible clusters that have
        received the fewest copies so far (ties broken by cluster
        index), consuming no randomness at all.  Balanced placement is
        incompatible with ``cluster_weights``.
    """

    def __init__(
        self,
        scheme: RedundancyScheme,
        node_counts: Sequence[int],
        rng: np.random.Generator,
        cluster_weights: Optional[Sequence[float]] = None,
        placement: str = "uniform",
    ) -> None:
        if placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {placement!r}; choose from {PLACEMENTS}"
            )
        if placement == "balanced" and cluster_weights is not None:
            raise ValueError(
                "balanced placement ignores account weights; "
                "drop cluster_weights or use uniform placement"
            )
        self.scheme = scheme
        self.node_counts = list(node_counts)
        self.rng = rng
        self.placement = placement
        #: remote copies a redundant job asks for (0: local only)
        self._extra = (
            scheme.copies(len(self.node_counts)) - 1 if scheme.is_redundant else 0
        )
        #: memo of every valid ``(origin, nodes)`` pair seen so far
        self._memo: dict[tuple[int, int], _Entry] = {}
        #: copies assigned per cluster so far (balanced placement state)
        self._assigned = [0] * len(self.node_counts)
        if cluster_weights is not None:
            w = np.asarray(cluster_weights, dtype=float)
            if len(w) != len(self.node_counts):
                raise ValueError(
                    f"{len(w)} weights for {len(self.node_counts)} clusters"
                )
            if (w < 0).any() or not math.isfinite(w.sum()) or w.sum() <= 0:
                raise ValueError("weights must be non-negative and sum > 0")
            self.cluster_weights = w / w.sum()
        else:
            self.cluster_weights = None

    def choose(self, origin: int, nodes: int, uses_redundancy: bool) -> list[int]:
        """Target clusters for one job; the origin is always first.

        Non-redundant jobs — and redundant jobs with no eligible remote
        cluster — go to the local cluster only.
        """
        return self.choose_many([(origin, nodes, uses_redundancy)])[0]

    def choose_many(
        self, jobs: Iterable[tuple[int, int, bool]]
    ) -> list[list[int]]:
        """Targets for each ``(origin, nodes, uses_redundancy)`` job.

        Equal to calling :meth:`choose` on each job in turn: the same
        targets, the same generator state afterwards.
        """
        memo = self._memo
        out: list[list[int]] = []
        # (targets, memo entry) of each job awaiting the uniform draw
        uniform: list[tuple[list[int], _Entry]] = []
        for origin, nodes, uses_redundancy in jobs:
            entry = memo.get((origin, nodes))
            if entry is None:
                entry = self._admit(origin, nodes)
            targets = [origin]
            out.append(targets)
            remotes, take, _ = entry
            if not (uses_redundancy and take):
                continue
            if self.placement == "balanced":
                # Least-loaded-first, ties by index; no RNG draw at all,
                # so the targets stream stays untouched (common random
                # numbers across placements are preserved for the
                # *other* streams).
                picked = sorted(remotes, key=lambda i: (self._assigned[i], i))[:take]
                self._assigned[origin] += 1
                for i in picked:
                    self._assigned[i] += 1
                targets += picked
            elif self.cluster_weights is not None:
                w = self.cluster_weights[remotes]
                total = w.sum()
                if total <= 0:
                    # All eligible remotes carry zero weight: fall back
                    # to uniform rather than silently dropping redundancy.
                    w = np.ones(len(remotes))
                    total = float(len(remotes))
                probs = w / total
                chosen = self.rng.choice(
                    len(remotes), size=take, replace=False, p=probs
                )
                targets += [remotes[int(i)] for i in chosen]
            else:
                uniform.append((targets, entry))
        if uniform:
            self._draw_uniform(uniform)
        return out

    def _admit(self, origin: int, nodes: int) -> _Entry:
        """Validate a first-seen ``(origin, nodes)`` pair and memoise it."""
        if not 0 <= origin < len(self.node_counts):
            raise ValueError(f"origin {origin} out of range")
        if nodes > self.node_counts[origin]:
            raise ValueError(
                f"job of {nodes} nodes cannot originate at cluster {origin} "
                f"({self.node_counts[origin]} nodes)"
            )
        # Remote clusters large enough to run a ``nodes``-node job.
        remotes = [
            i
            for i, cap in enumerate(self.node_counts)
            if i != origin and cap >= nodes
        ]
        n = len(remotes)
        take = min(self._extra, n)
        highs = (*range(n - take + 1, n + 1), *range(take, 1, -1))
        entry = self._memo[(origin, nodes)] = (remotes, take, highs)
        return entry

    def _draw_uniform(self, jobs: list[tuple[list[int], _Entry]]) -> None:
        """Append ``take`` uniform remotes to each job's targets, in order.

        ``Generator.choice(n, take, replace=False)`` (numpy 2.x, for
        ``n <= 10_000``, below which it never tail-shuffles) runs Floyd's
        algorithm — one draw on ``[0, j]`` for each ``j = n-take …
        n-1``, keeping ``j`` itself when the draw is already taken —
        then shuffles positions ``take-1 … 1`` with a draw on ``[0, i]``
        each.  ``Generator.integers(0, highs)`` makes each element's
        draw with the same bounded-integer routine, so one call over
        every job's bounds, concatenated in job order, yields exactly
        the values the per-job ``choice`` calls would draw.
        """
        highs: list[int] = []
        for _, (_, _, bounds) in jobs:
            highs += bounds
        values = self.rng.integers(0, highs).tolist()
        pos = 0
        for targets, (remotes, take, _) in jobs:
            n = len(remotes)
            picked: list[int] = []
            for j in range(n - take, n):
                v = values[pos]
                pos += 1
                picked.append(j if v in picked else v)
            for i in range(take - 1, 0, -1):
                s = values[pos]
                pos += 1
                picked[i], picked[s] = picked[s], picked[i]
            targets += [remotes[v] for v in picked]
