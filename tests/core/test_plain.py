"""``plain`` returns what ``dataclasses.asdict`` returns, minus the copies.

Every serialisation site in the package walks its records with
:func:`repro.core.results.plain`; ``dataclasses.asdict`` survives only
here, as the oracle.  The bytes built from those walks must not move:
the served ``results.json`` (``canonical_grid_json``), cache
fingerprints (or existing cache entries stop hitting), lease payloads
(``ExperimentConfig.to_dict``) and manifests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.analysis.export import _jsonable
from repro.core.cache import CACHE_SCHEMA_VERSION, config_fingerprint
from repro.core.config import ExperimentConfig, config_from_dict
from repro.core.experiment import run_single
from repro.core.results import (
    ClusterOutcome,
    ExperimentResult,
    JobOutcome,
    plain,
)
from repro.faults import FaultConfig
from repro.obs.manifest import build_manifest
from repro.policies.phase import PhaseCell, PhaseDiagram
from repro.service.jobs import (
    NONDETERMINISTIC_RESULT_FIELDS,
    RESULTS_SCHEMA_VERSION,
    _json_default,
    canonical_grid_json,
    canonical_grid_payload,
)


def small(**kw) -> ExperimentConfig:
    defaults = dict(
        n_clusters=3, nodes_per_cluster=8, duration=300.0,
        offered_load=2.0, drain=True, seed=3,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def asdict_grid_json(grids) -> str:
    """``canonical_grid_json`` as built on ``dataclasses.asdict``."""
    grid = []
    for per_config in grids:
        rows = []
        for result in per_config:
            d = dataclasses.asdict(result)
            for key in NONDETERMINISTIC_RESULT_FIELDS:
                d.pop(key, None)
            rows.append(d)
        grid.append(rows)
    return json.dumps(
        {"schema": RESULTS_SCHEMA_VERSION, "grid": grid},
        sort_keys=True, separators=(",", ":"), default=_json_default,
    )


def numpy_result() -> ExperimentResult:
    """A hand-built result whose numbers are numpy scalars throughout."""
    job = JobOutcome(
        job_id=np.int64(7), origin=np.int64(1), winner_cluster=np.int64(0),
        nodes=np.int64(4), runtime=np.float64(120.5),
        requested_time=np.float64(300.0), submit_time=np.float64(1.25),
        start_time=np.float64(9.0), end_time=np.float64(129.5),
        uses_redundancy=True, n_copies=np.int64(2),
        predicted_wait_local=np.float64(3.5),
        predicted_wait_min=np.float32(2.0),
    )
    cluster = ClusterOutcome(
        cluster=np.int64(0), total_nodes=np.int64(8), submitted=np.int64(3),
        cancelled=np.int64(1), started=np.int64(2), completed=np.int64(2),
        max_queue_length=np.int64(2), dropped=np.int64(0),
        backfilled=np.int64(1),
    )
    return ExperimentResult(
        scheme="R2", algorithm="cbf", n_clusters=2, replication=0,
        jobs=[job], n_submitted_jobs=1, clusters=[cluster],
        total_requests=np.int64(2), wasted_node_seconds=np.float64(0.5),
        wall_time_s=0.01, phase_timings={"simulate_s": np.float64(0.01)},
        online_metrics={"schema": 2, "metrics": {"stretch": {
            "mean": np.float64(1.5), "quantiles": {"p50": None},
        }}},
    )


@pytest.fixture(scope="module")
def grids() -> list[list[ExperimentResult]]:
    faulted = small(
        scheme="R2",
        faults=FaultConfig(
            p_cancel_loss=0.3, outage_rate=24.0, outage_duration=60.0,
            outage_drop_queue=True,
        ),
    )
    return [
        # EASY: no predictions; NONE: an empty waste stream, so the
        # online payload carries None quantiles
        [run_single(small(), 0), run_single(small(), 1)],
        # CBF: waiting-time predictions filled in
        [run_single(small(algorithm="cbf", scheme="R2"), 0)],
        # fault and outage counters
        [run_single(faulted, 0)],
        # online statistics switched off
        [run_single(small(scheme="R3"), 0, online=False)],
        [numpy_result()],
    ]


def same_shape(a, b) -> None:
    """``a == b`` with the same container and leaf types throughout."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, dict):
        assert list(a) == list(b)
        for key in a:
            same_shape(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            same_shape(x, y)
    else:
        assert a == b or (a != a and b != b), (a, b)


class TestGridPayload:
    def test_grid_covers_every_field_kind(self, grids):
        easy, cbf, faulted, offline, numpy_grid = grids
        assert all(j.predicted_wait_local is None for j in easy[0].jobs)
        assert any(j.predicted_wait_local is not None for j in cbf[0].jobs)
        assert faulted[0].outages > 0 and faulted[0].lost_cancellations > 0
        assert offline[0].online_metrics is None
        assert cbf[0].online_metrics is not None
        none_quantiles = [
            v for v in easy[0].online_metrics["metrics"][
                "wasted_node_seconds"]["quantiles"].values()
        ]
        assert none_quantiles and all(v is None for v in none_quantiles)
        assert isinstance(numpy_grid[0].jobs[0].runtime, np.floating)

    def test_grid_json_equals_the_asdict_encoding(self, grids):
        assert canonical_grid_json(grids) == asdict_grid_json(grids)

    @pytest.mark.parametrize("index", range(5))
    def test_each_result_walks_like_asdict(self, grids, index):
        for result in grids[index]:
            same_shape(plain(result), dataclasses.asdict(result))

    def test_mutating_the_payload_leaves_the_results_unchanged(self, grids):
        before = pickle.dumps(grids)
        payload = canonical_grid_payload(grids)
        for per_config in payload["grid"]:
            for row in per_config:
                row["jobs"][0]["runtime"] = -1.0
                row["jobs"].append({})
                row["clusters"][0]["started"] = -1
                if row["online_metrics"] is not None:
                    for stats in row["online_metrics"]["metrics"].values():
                        stats["quantiles"].clear()
                        stats.clear()
                row.clear()
        for result in (r for per_config in grids for r in per_config):
            walked = plain(result)
            walked["phase_timings"].clear()
            walked["jobs"].clear()
        assert pickle.dumps(grids) == before

    def test_numpy_leaves_are_shared_not_copied(self, grids):
        result = grids[4][0]
        walked = plain(result)
        assert walked["jobs"][0]["runtime"] is result.jobs[0].runtime
        assert (
            walked["online_metrics"]["metrics"]["stretch"]["mean"]
            is result.online_metrics["metrics"]["stretch"]["mean"]
        )


CONFIGS = {
    "default": ExperimentConfig(),
    "faults_tuple": ExperimentConfig(
        n_clusters=3, nodes_per_cluster=(8, 16, 32), scheme="R2",
        faults=FaultConfig(p_cancel_loss=0.2, outage_rate=2.0), seed=7,
    ),
    "cbf_bias": ExperimentConfig(
        algorithm="cbf", scheme="HALF", target_bias_ratio=0.5,
        cbf_compress_interval=60.0, mean_interarrival=4.0,
        offered_load=1.5,
    ),
}

#: fingerprints of CONFIGS as computed over ``dataclasses.asdict``:
#: existing disk-cache entries are keyed by them
PINNED_FINGERPRINTS = {
    "default":
        "63a95cda4efea993ca8876e260778d44dabc761a49fda1a4bb0eae4959714056",
    "faults_tuple":
        "c198632d87c29d305ec908b22bb9831bf31c5de6bd634a0b87c8ca61476abac4",
    "cbf_bias":
        "4fa12b80c11a6229692d4bea20d1f85c738d6017c5c853ff8876c5ed54413087",
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
class TestConfigs:
    def test_to_dict_walks_like_asdict(self, name):
        config = CONFIGS[name]
        same_shape(config.to_dict(), dataclasses.asdict(config))

    def test_fingerprint_equals_the_asdict_fingerprint(self, name):
        config = CONFIGS[name]
        canon = json.dumps(
            {"schema": CACHE_SCHEMA_VERSION,
             "config": dataclasses.asdict(config)},
            sort_keys=True, separators=(",", ":"),
        )
        expected = hashlib.sha256(canon.encode("utf-8")).hexdigest()
        assert config_fingerprint(config) == expected
        assert config_fingerprint(config) == PINNED_FINGERPRINTS[name]

    def test_to_dict_round_trips_through_json(self, name):
        config = CONFIGS[name]
        decoded = json.loads(json.dumps(config.to_dict()))
        assert config_from_dict(decoded) == config


def test_manifest_walks_like_asdict():
    manifest = build_manifest(
        list(CONFIGS.values()), 2, wall_time_s=1.5,
        grid_stats={"tasks": 6}, command=["repro", "bench"],
        extra={"job_id": "job-0001", "results_s": 0.25},
    )
    same_shape(
        manifest.to_dict(),
        {"kind": "repro-manifest", **dataclasses.asdict(manifest)},
    )


def test_phase_cells_and_export_walk_like_asdict():
    cell = PhaseCell(
        policy="cancel-on-start", degree=2, regime="lublin", load=0.9,
        stretch_ratio=0.97, waste_fraction=0.0, stretch_class="helpful",
        waste_class="neutral",
    )
    diagram = PhaseDiagram(cells=[cell], n_replications=2, base={"seed": 1})
    same_shape(diagram.to_payload()["cells"], [dataclasses.asdict(cell)])
    config = CONFIGS["faults_tuple"]
    same_shape(_jsonable(config), _jsonable(dataclasses.asdict(config)))


def test_plain_rebuilds_containers_with_their_own_types():
    from collections import OrderedDict, namedtuple

    Point = namedtuple("Point", "x y")
    value = {
        "t": (1, [2.0, None]), "p": Point(1, [3]),
        "o": OrderedDict(a=(4,)), (1, 2): "tuple key",
    }
    walked = plain(value)
    same_shape(walked, value)
    assert walked["t"][1] is not value["t"][1]
    assert walked["p"].y is not value["p"].y
    assert walked["o"] is not value["o"]
