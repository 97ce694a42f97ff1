"""The benchmark tracer still finds every program name it binds.

``perf/trace.py`` wraps classes and methods by module path and name
(``CalendarQueue.push``, ``Profile.adjust``, ...) and re-wraps
``Simulator.at`` with ``tag`` as its fifth positional argument.  A
rename on the program side leaves the matching span silently empty, so
the benchmark keeps running but reports zeros.  This test runs one
tiny drained EASY and CBF replication under the tracer and requires a
nonzero count for every span those runs must reach.
"""

from __future__ import annotations

from perf.trace import Tracer

from repro.core.config import ExperimentConfig
from repro.core.experiment import run_single

SPANS = (
    "sim.push",
    "sim.pop",
    "sim.run",
    "cb.SCHEDULE",
    "sched.submit",
    "sched.cancel",
    "profile.find_start",
    "profile.adjust",
)


def test_tracer_spans_reach_the_program():
    tracer = Tracer()
    tracer.install()
    try:
        for algorithm in ("easy", "cbf"):
            run_single(ExperimentConfig(
                n_clusters=2, nodes_per_cluster=8, duration=100.0,
                drain=True, algorithm=algorithm, scheme="ALL",
                offered_load=2.0, seed=3,
            ), 0)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    missing = [s for s in SPANS if summary.get(s, {}).get("count", 0) == 0]
    assert not missing, f"tracer spans never fired: {missing}"
