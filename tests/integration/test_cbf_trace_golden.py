"""Byte-identity of Conservative Backfilling traces.

The golden file pins CBF trajectories, event by event, over three
configurations chosen so that every path CBF takes through its
availability :class:`~repro.sched.profile.Profile` runs:

* the default (no compression): reservations at submit, due starts,
  cancellation releases and submit-order backfill;
* ``cbf_compress_interval=0.0``: eager compression after every release;
* an outage regime, so reservations come due while the daemon is down
  and ``_restore_overdue`` re-places them on recovery.

The file is the ``render_config`` lines of every config, in order, as
recorded from the numpy-backed profile; any change to the profile's
representation must reproduce that event stream, byte for byte.
"""

from pathlib import Path

from repro.core.config import ExperimentConfig
from repro.faults import FaultConfig
from repro.sched.cbf import CBFScheduler

from ._golden import any_call, check_golden

GOLDEN = Path(__file__).parent / "data" / "cbf_golden.jsonl"

BASE = dict(
    n_clusters=3,
    nodes_per_cluster=16,
    duration=300.0,
    offered_load=2.0,
    drain=True,
    seed=20060619,
    algorithm="cbf",
)

#: default / eager compression / outages with overdue reservations
CONFIGS = (
    ExperimentConfig(scheme="R2", **BASE),
    ExperimentConfig(scheme="R3", cbf_compress_interval=0.0, **BASE),
    ExperimentConfig(
        scheme="ALL",
        faults=FaultConfig(outage_rate=6.0, outage_duration=300.0),
        **BASE,
    ),
)

#: the CBF method each config exists to exercise
PATHS = tuple(
    (CBFScheduler, name, any_call)
    for name in ("_start_early", "compress", "_restore_overdue")
)


def test_cbf_traces_byte_identical(monkeypatch):
    check_golden(monkeypatch, GOLDEN, CONFIGS, PATHS)
