"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Run it from the repository root::

    python -m perf run [--workload W ...] [--seed N] [--trace]
    python -m perf agree SET_A SET_B

See ``perf/README.md`` for the workloads, the metrics and how to read a
traced run.  This package imports nothing from ``repro`` at module
level: the parent process only spawns children that put this
checkout's ``src/`` first on their path.
"""

from __future__ import annotations

import os
from pathlib import Path

#: the checkout the benchmark measures
ROOT = Path(__file__).resolve().parent.parent

DEFAULT_SEED = 20060619


def child_env() -> dict[str, str]:
    """Environment for benchmark subprocesses: this checkout's sources."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env
