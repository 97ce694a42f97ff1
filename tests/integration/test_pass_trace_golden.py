"""Byte-identity of scheduling-pass traces for FCFS, EASY and CBF.

The golden file pins whole trajectories, event by event, over four
configurations chosen so that every piece of pass state is exercised:

* FCFS R2 with outages that drop the queue: ``go_down(drop_queue=True)``
  empties the queue and resets the head index and the smallest-request
  guard while requests are pending;
* EASY ALL, overloaded and not drained: enough starts and sibling
  cancellations pile up that ``_compact_queue`` rebuilds the queue
  arrays mid-run;
* CBF R2 with ``phi`` estimates and a cancellation latency: requests
  finish early and reservation timers fire (``_timer_fired``), so the
  passes those timers request must still run exactly when due;
* CBF ALL with ``phi`` estimates, queue-dropping outages and compression
  every 120 s: compression runs in the first pass after its interval,
  which can be one requested by a stale reservation timer that an idle
  pass armed, so this trace changes if CBF with compression on prunes
  idle passes the exact guard would prune.

The file is the rendered lines of every config, in order, as
recorded before the pass state moved to one ``need`` array, a head
index and an exact guard; any change to the pass machinery must
reproduce that event stream, byte for byte.
"""

from pathlib import Path

from repro.core.config import ExperimentConfig
from repro.faults import FaultConfig
from repro.sched.base import Scheduler
from repro.sched.cbf import CBFScheduler

from ._golden import any_call, check_golden

GOLDEN = Path(__file__).parent / "data" / "pass_golden.jsonl"

SEED = 20060619

CONFIGS = (
    ExperimentConfig(
        scheme="R2", algorithm="fcfs", n_clusters=3, nodes_per_cluster=16,
        duration=300.0, offered_load=2.0, drain=True, seed=SEED,
        faults=FaultConfig(
            outage_rate=6.0, outage_duration=120.0,
            outage_drop_queue=True, resubmit_policy="resubmit",
        ),
    ),
    ExperimentConfig(
        scheme="ALL", algorithm="easy", n_clusters=2, nodes_per_cluster=16,
        duration=900.0, offered_load=3.0, drain=False, seed=SEED,
    ),
    ExperimentConfig(
        scheme="R2", algorithm="cbf", n_clusters=3, nodes_per_cluster=16,
        duration=300.0, offered_load=2.0, drain=True, seed=SEED,
        estimates="phi", cancellation_latency=20.0,
    ),
    ExperimentConfig(
        scheme="ALL", algorithm="cbf", n_clusters=3, nodes_per_cluster=16,
        duration=300.0, offered_load=2.0, drain=True, seed=1,
        estimates="phi", cbf_compress_interval=120.0,
        faults=FaultConfig(
            outage_rate=6.0, outage_duration=120.0, outage_drop_queue=True,
        ),
    ),
)

#: (class, method) each config exists to exercise, and the call
#: predicate that counts as reaching it
PATHS = (
    (Scheduler, "go_down",
     lambda sched, kwargs: kwargs.get("drop_queue") and sched.queue_length),
    (Scheduler, "_compact_queue", any_call),
    (CBFScheduler, "_timer_fired", any_call),
    (CBFScheduler, "compress", any_call),
)


def test_pass_traces_byte_identical(monkeypatch):
    check_golden(monkeypatch, GOLDEN, CONFIGS, PATHS)
