"""Multi-site platforms: a set of clusters, each with its own scheduler.

Builders cover the paper's two platform families:

* homogeneous — N identical clusters of 128 nodes (Figures 1-4);
* heterogeneous — node counts drawn from {16, 32, 64, 128, 256} and
  per-cluster arrival rates drawn from [2 s, 20 s] (Table 3).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..sched import Scheduler, make_scheduler
from ..sim.engine import Simulator
from .cluster import Cluster

#: node counts the paper samples for heterogeneous platforms (Table 3)
HETEROGENEOUS_NODE_CHOICES = (16, 32, 64, 128, 256)


class Platform:
    """A federation of independently scheduled clusters.

    Parameters
    ----------
    sim:
        Shared simulator.
    node_counts:
        Nodes per cluster; one cluster is created per entry.
    algorithm:
        Scheduler algorithm name used at every cluster (the paper always
        runs the same algorithm platform-wide).
    scheduler_kwargs:
        Extra keyword arguments forwarded to every scheduler.
    """

    def __init__(
        self,
        sim: Simulator,
        node_counts: Sequence[int],
        algorithm: str = "easy",
        scheduler_kwargs: Optional[dict] = None,
    ) -> None:
        if not node_counts:
            raise ValueError("platform needs at least one cluster")
        self.sim = sim
        self.algorithm = algorithm
        self.clusters: list[Cluster] = [
            Cluster(i, n) for i, n in enumerate(node_counts)
        ]
        kwargs = scheduler_kwargs or {}
        self.schedulers: list[Scheduler] = [
            make_scheduler(algorithm, sim, c, **kwargs) for c in self.clusters
        ]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def node_counts(self) -> list[int]:
        return [c.total_nodes for c in self.clusters]

    def scheduler_at(self, index: int) -> Scheduler:
        return self.schedulers[index]

    # -- observability -----------------------------------------------------

    def attach_observer(self, observer) -> None:
        """Attach a lifecycle observer to every scheduler.

        ``observer`` is any object with the ``on(etype, sched,
        request=None, detail=None)`` method of
        :class:`~repro.obs.trace.TraceRecorder`; ``None`` detaches.
        """
        for sched in self.schedulers:
            sched.observer = observer

    # -- outages -----------------------------------------------------------

    def begin_outage(self, index: int, drop_queue: bool = False):
        """Take cluster ``index``'s scheduler down.

        Returns the pending requests lost when ``drop_queue`` is set
        (empty list otherwise) so the caller can route them to the
        coordinator's resubmission policy.
        """
        return self.schedulers[index].go_down(drop_queue=drop_queue)

    def end_outage(self, index: int) -> None:
        """Restart cluster ``index``'s scheduler."""
        self.schedulers[index].come_up()

    def check_invariants(self) -> None:
        for sched in self.schedulers:
            sched.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Platform({self.algorithm}, nodes={self.node_counts})"


def homogeneous_platform(
    sim: Simulator,
    n_clusters: int,
    nodes_per_cluster: int = 128,
    algorithm: str = "easy",
    scheduler_kwargs: Optional[dict] = None,
) -> Platform:
    """N identical clusters (the paper's Figures 1-4 setup)."""
    if n_clusters < 1:
        raise ValueError(f"need >=1 cluster, got {n_clusters}")
    return Platform(
        sim, [nodes_per_cluster] * n_clusters, algorithm, scheduler_kwargs
    )


def heterogeneous_platform(
    sim: Simulator,
    n_clusters: int,
    rng: np.random.Generator,
    node_choices: Sequence[int] = HETEROGENEOUS_NODE_CHOICES,
    algorithm: str = "easy",
    scheduler_kwargs: Optional[dict] = None,
) -> Platform:
    """Clusters with node counts sampled from ``node_choices`` (Table 3)."""
    counts = [int(rng.choice(node_choices)) for _ in range(n_clusters)]
    return Platform(sim, counts, algorithm, scheduler_kwargs)
