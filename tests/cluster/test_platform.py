"""Unit tests for multi-site platforms."""

import numpy as np
import pytest

from repro.cluster.platform import (
    HETEROGENEOUS_NODE_CHOICES,
    Platform,
    heterogeneous_platform,
    homogeneous_platform,
)
from repro.sched import CBFScheduler, EASYScheduler, FCFSScheduler
from repro.sim.engine import Simulator


class TestConstruction:
    def test_one_scheduler_per_cluster(self, sim):
        p = Platform(sim, [16, 32], algorithm="easy")
        assert p.n_clusters == 2
        assert len(p.schedulers) == 2
        assert all(isinstance(s, EASYScheduler) for s in p.schedulers)
        assert p.schedulers[0].cluster is p.clusters[0]

    def test_node_counts_preserved_in_order(self, sim):
        p = Platform(sim, [16, 256, 64])
        assert p.node_counts == [16, 256, 64]

    def test_empty_platform_rejected(self, sim):
        with pytest.raises(ValueError):
            Platform(sim, [])

    @pytest.mark.parametrize(
        "algorithm,cls",
        [("fcfs", FCFSScheduler), ("easy", EASYScheduler), ("cbf", CBFScheduler)],
    )
    def test_algorithm_selection(self, sim, algorithm, cls):
        p = Platform(sim, [8], algorithm=algorithm)
        assert isinstance(p.schedulers[0], cls)

    def test_scheduler_kwargs_forwarded(self, sim):
        p = Platform(
            sim, [8], algorithm="cbf",
            scheduler_kwargs={"compress_interval": 60.0},
        )
        assert p.schedulers[0].compress_interval == 60.0


class TestBuilders:
    def test_homogeneous_sizes(self, sim):
        p = homogeneous_platform(sim, 5, nodes_per_cluster=128)
        assert p.node_counts == [128] * 5

    def test_homogeneous_rejects_zero_clusters(self, sim):
        with pytest.raises(ValueError):
            homogeneous_platform(sim, 0)

    def test_heterogeneous_sizes_from_choices(self, sim):
        rng = np.random.default_rng(0)
        p = heterogeneous_platform(sim, 20, rng)
        assert all(n in HETEROGENEOUS_NODE_CHOICES for n in p.node_counts)
        # With 20 draws we expect more than one distinct size.
        assert len(set(p.node_counts)) > 1

    def test_heterogeneous_deterministic_given_rng(self, sim):
        p1 = heterogeneous_platform(Simulator(), 8, np.random.default_rng(5))
        p2 = heterogeneous_platform(Simulator(), 8, np.random.default_rng(5))
        assert p1.node_counts == p2.node_counts
