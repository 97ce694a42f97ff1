"""A run's batched target draw equals per-job ``Generator.choice``.

``TargetSelector.choose_many`` draws every uniform remote target of a
run with one ``Generator.integers`` call.  The oracle here is the
per-job ``rng.choice(len(remotes), take, replace=False)`` it replaced:
both must pick the same targets and leave the generator in the same
state, so a numpy release that changes how ``choice`` consumes its
stream fails this test rather than silently moving every trajectory.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest

from repro.core import experiment
from repro.core.config import ExperimentConfig
from repro.core.schemes import SCHEMES, TargetSelector, get_scheme

SCHEME_NAMES = sorted(SCHEMES) + ["R7", "F0.25"]

NODE_COUNTS = {
    "uniform": [32] * 5,
    "heterogeneous": [8, 16, 32, 64, 128],
    "three": [10, 20, 30],
    "wide": [16] * 12,
}


def reference_targets(scheme, node_counts, rng, jobs):
    """Targets of each ``(origin, nodes, uses_redundancy)`` job, drawn
    one job at a time with ``Generator.choice``."""
    k = scheme.copies(len(node_counts)) if scheme.is_redundant else 1
    out = []
    for origin, nodes, uses_redundancy in jobs:
        remotes = [
            i for i, cap in enumerate(node_counts)
            if i != origin and cap >= nodes
        ]
        take = min(k - 1, len(remotes))
        if not uses_redundancy or take <= 0:
            out.append([origin])
            continue
        chosen = rng.choice(len(remotes), size=take, replace=False)
        out.append([origin] + [remotes[int(i)] for i in chosen])
    return out


def random_jobs(node_counts, seed, n=200):
    """Jobs at every origin, of any size their origin can run, about
    60% of them redundant."""
    r = random.Random(seed)
    jobs = []
    for _ in range(n):
        origin = r.randrange(len(node_counts))
        nodes = r.randint(1, node_counts[origin])
        jobs.append((origin, nodes, r.random() < 0.6))
    return jobs


@pytest.mark.parametrize("counts", sorted(NODE_COUNTS))
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_batched_draw_equals_per_job_choice(name, counts):
    scheme = get_scheme(name)
    node_counts = NODE_COUNTS[counts]
    for seed in range(5):
        jobs = random_jobs(node_counts, seed)
        oracle = np.random.default_rng(seed)
        expected = reference_targets(scheme, node_counts, oracle, jobs)
        selector = TargetSelector(
            scheme, node_counts, np.random.default_rng(seed)
        )
        assert selector.choose_many(jobs) == expected
        assert selector.rng.bit_generator.state == oracle.bit_generator.state


def test_one_job_at_a_time_equals_the_batch():
    node_counts = NODE_COUNTS["heterogeneous"]
    jobs = random_jobs(node_counts, 3)
    batch = TargetSelector(
        get_scheme("R3"), node_counts, np.random.default_rng(3)
    )
    single = TargetSelector(
        get_scheme("R3"), node_counts, np.random.default_rng(3)
    )
    assert [single.choose(*job) for job in jobs] == batch.choose_many(jobs)
    assert single.rng.bit_generator.state == batch.rng.bit_generator.state


def test_heterogeneous_jobs_reach_every_eligibility_case():
    """The heterogeneous platform gives the equivalence test jobs with
    every remote eligible, with some ineligible and with none."""
    node_counts = NODE_COUNTS["heterogeneous"]
    eligible = {
        sum(1 for i, cap in enumerate(node_counts) if i != origin and cap >= nodes)
        for seed in range(5)
        for origin, nodes, _ in random_jobs(node_counts, seed)
    }
    assert {0, len(node_counts) - 1} <= eligible
    assert eligible & set(range(1, len(node_counts) - 1))


class CountingRng:
    """Delegates to a generator, counting ``choice`` and ``integers``."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = {"choice": 0, "integers": 0}

    def choice(self, *args, **kwargs):
        self.calls["choice"] += 1
        return self.rng.choice(*args, **kwargs)

    def integers(self, *args, **kwargs):
        self.calls["integers"] += 1
        return self.rng.integers(*args, **kwargs)


def test_a_uniform_run_draws_its_targets_in_one_call():
    rngs = []

    def selector(*args, rng, **kwargs):
        rngs.append(CountingRng(rng))
        return TargetSelector(*args, rng=rngs[-1], **kwargs)

    config = ExperimentConfig(
        n_clusters=4, nodes_per_cluster=16, duration=300.0,
        scheme="R3", offered_load=2.0, seed=5,
    )
    with mock.patch.object(experiment, "TargetSelector", selector):
        result = experiment.run_single(config, 0)
    assert result.total_requests > result.n_submitted_jobs  # fanned out
    assert [r.calls for r in rngs] == [{"choice": 0, "integers": 1}]
