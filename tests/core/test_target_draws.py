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
from repro.core.schemes import (
    SCHEMES,
    TargetSelector,
    geometric_bias_weights,
    get_scheme,
)

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


def reference_weighted_targets(scheme, node_counts, weights, rng, jobs):
    """Weighted targets of each job, one ``Generator.choice`` per job
    over its eligible remotes' renormalised weights (all positive)."""
    k = scheme.copies(len(node_counts)) if scheme.is_redundant else 1
    w_all = np.asarray(weights, dtype=float)
    w_all = w_all / w_all.sum()
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
        w = w_all[remotes]
        chosen = rng.choice(
            len(remotes), size=take, replace=False, p=w / w.sum()
        )
        out.append([origin] + [remotes[int(i)] for i in chosen])
    return out


def positive_weights(node_counts, kind):
    if kind == "geometric":
        return geometric_bias_weights(len(node_counts))
    return np.random.default_rng(len(node_counts)).uniform(
        0.05, 1.0, len(node_counts)
    )


@pytest.mark.parametrize("kind", ["geometric", "random"])
@pytest.mark.parametrize("counts", sorted(NODE_COUNTS))
@pytest.mark.parametrize("name", ["R2", "R3", "HALF", "ALL"])
def test_positive_weights_draw_as_one_choice_per_job(name, counts, kind):
    """With every weight positive the weighted draw is one
    ``rng.choice(..., p=...)`` per job: same targets, same state."""
    scheme = get_scheme(name)
    node_counts = NODE_COUNTS[counts]
    weights = positive_weights(node_counts, kind)
    for seed in range(3):
        jobs = random_jobs(node_counts, seed)
        oracle = np.random.default_rng(seed)
        expected = reference_weighted_targets(
            scheme, node_counts, weights, oracle, jobs
        )
        selector = TargetSelector(
            scheme, node_counts, np.random.default_rng(seed),
            cluster_weights=weights,
        )
        assert selector.choose_many(jobs) == expected
        assert selector.rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("name", ["R3", "R4", "ALL"])
def test_zero_weights_never_cost_a_copy(name):
    """One positive weight and four zeros: every redundant job still
    gets its full copy count, and the positive-weight remote is always
    among them."""
    scheme = get_scheme(name)
    node_counts = NODE_COUNTS["uniform"]
    selector = TargetSelector(
        scheme, node_counts, np.random.default_rng(0),
        cluster_weights=[1, 0, 0, 0, 0],
    )
    k = scheme.copies(len(node_counts))
    jobs = [(origin, 1, True) for origin in range(5) for _ in range(20)]
    for (origin, _, _), targets in zip(jobs, selector.choose_many(jobs)):
        assert targets[0] == origin
        assert len(targets) == len(set(targets)) == k
        assert 0 in targets


def test_positive_weight_remotes_come_first_in_weighted_order():
    """Fewer positive weights than remote copies: both positive remotes
    lead the targets, in the order of a weighted draw, and the zero
    weights fill the rest uniformly."""
    node_counts = NODE_COUNTS["uniform"]
    selector = TargetSelector(
        get_scheme("R4"), node_counts, np.random.default_rng(1),
        cluster_weights=[0, 0, 0, 3, 1],
    )
    firsts = {3: 0, 4: 0}
    fills = {1: 0, 2: 0}
    for targets in selector.choose_many([(0, 1, True)] * 2000):
        assert sorted(targets[1:3]) == [3, 4]
        firsts[targets[1]] += 1
        fills[targets[3]] += 1
    assert firsts[3] / firsts[4] == pytest.approx(3.0, rel=0.2)
    assert fills[1] / fills[2] == pytest.approx(1.0, rel=0.2)


def test_all_zero_remotes_draw_uniformly_with_choice():
    """Every eligible remote at zero weight: one uniform
    ``rng.choice(..., p=...)`` over all of them."""
    node_counts = NODE_COUNTS["uniform"]
    selector = TargetSelector(
        get_scheme("R3"), node_counts, np.random.default_rng(4),
        cluster_weights=[1, 0, 0, 0, 0],
    )
    oracle = np.random.default_rng(4)
    for _ in range(50):
        chosen = oracle.choice(4, size=2, replace=False, p=np.ones(4) / 4)
        expected = [0] + [1 + int(i) for i in chosen]
        assert selector.choose(0, 1, uses_redundancy=True) == expected
    assert selector.rng.bit_generator.state == oracle.bit_generator.state
