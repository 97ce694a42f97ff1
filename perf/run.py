"""``python -m perf run``: spawn, time and check each workload run.

Every workload runs in fresh subprocesses (:mod:`perf.child`).  Set-up
is repeated :data:`SETUP_RUNS` times — twice set-up only, then once
followed by the timed loop — and ``setup_s`` is the median time from
spawn to the child's ``READY`` line.  With tracing on, one more child
replays exactly the units the untraced child completed, with the
timing wrappers of :mod:`perf.trace` installed.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

from . import ROOT, child_env
from .trace import LAYER_UNITS, layer_metrics

#: set-ups per run; the median is ``setup_s``
SETUP_RUNS = 3

#: a whole run (all its children) must end within this many seconds
RUN_DEADLINE_S = 170.0

#: end-to-end metrics and their units, as in BENCHMARK.json
METRIC_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: fingerprint fields that identify the host (not the commit or seed)
HOST_KEYS = ("nproc", "cpu_model", "python", "numpy", "state_fs")


class RunError(RuntimeError):
    """A child process failed or broke the READY/record protocol."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path`` (Linux only)."""
    best, fs = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _, mount, kind = line.split()[:3]
                inside = target == mount or target.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fs = mount, kind
    except OSError:
        pass
    return fs


def _git(*args: str) -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(seed: int, state_dir: Path) -> dict[str, Any]:
    """Where and from what a record was measured."""
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": bool(status) if sha is not None else None,
        "state_fs": _fs_type(state_dir),
        "seed": seed,
    }


def _child(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run ``perf.child``; (seconds from spawn to READY, its record)."""
    cmd = [sys.executable, "-m", "perf.child", *args]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    try:
        assert proc.stdout is not None
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or proc.returncode != 0 or (
            not lines and "--setup-only" not in args):
        raise RunError(f"{' '.join(cmd)} exited {proc.returncode}")
    return setup_s, (json.loads(lines[-1]) if lines else {})


def traced_layers(untraced: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics of a traced replay of an untraced run.

    Counts the program reports itself come from the untraced run; what
    the benchmark measured around the spans comes from the traced one.
    """
    counts = {
        **untraced["counts"],
        **{k: traced["counts"][k] for k in (
            "tasks", "task_wall_s", "cache_entry_kb", "wrapper_ns",
            "self_sum_ratio") if k in traced["counts"]},
        "overhead": traced["wall_s"] / untraced["wall_s"],
    }
    return layer_metrics(traced["summary"], counts)


def run_one(name: str, seed: int, seconds: float, trace: bool,
            out_dir: Path) -> dict:
    """Measure one workload; returns the record written to ``out_dir``."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    workdir = out_dir / "state"
    base = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    setups = [
        _child(base + ["--seconds", "0", "--setup-only"], deadline)[0]
        for _ in range(SETUP_RUNS - 1)
    ]
    setup_s, untraced = _child(base + ["--seconds", str(seconds)], deadline)
    setups.append(setup_s)
    metrics = {"setup_s": statistics.median(setups), **untraced["metrics"]}
    record: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "fingerprint": fingerprint(seed, workdir),
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "trajectory_digest": untraced["trajectory_digest"],
        "golden_units_checked": untraced["golden_units_checked"],
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in METRIC_UNITS.items()},
        "setup_runs_s": setups,
        "units": untraced["units"],
        "wall_s": untraced["wall_s"],
        "op_samples": untraced["op_samples"],
        "unit_busy_s": untraced["unit_busy_s"],
        "counts": untraced["counts"],
    }
    stamp = f"{name}-s{seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    if trace:
        _, traced = _child(
            base + ["--units", str(untraced["units"]), "--trace"], deadline)
        chrome = out_dir / f"{stamp}.trace.json"
        chrome.write_text(json.dumps({"traceEvents": traced["chrome_events"]}))
        layers = traced_layers(untraced, traced)
        same = traced["trajectory_digest"] == untraced["trajectory_digest"]
        record["failed"] += traced["failed"] + (not same)
        record["attempted"] += traced["attempted"]
        record["layers"] = {k: {"value": layers[k], "unit": u}
                            for k, u in LAYER_UNITS.items()}
        record["traced"] = {
            "units": traced["units"],
            "wall_s": traced["wall_s"],
            "trajectory_digest": traced["trajectory_digest"],
            "overhead": layers["trace.overhead"],
            "summary": traced["summary"],
            "chrome_trace": chrome.name,
        }
    record["correct"] = record["failed"] == 0
    (out_dir / f"{stamp}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def print_record(record: dict, trace: bool) -> None:
    """Human-readable metrics, then the one-line JSON result."""
    print(f"{record['workload']}: seed {record['seed']}, "
          f"{record['units']} unit(s) in {record['wall_s']:.1f} s, "
          f"{record['failed']}/{record['attempted']} failed")
    for name, m in record["metrics"].items():
        print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    if trace:
        print(f"  tracing overhead {record['traced']['overhead']:.3f}x, "
              f"trace: {record['traced']['chrome_trace']}")
        for name, m in record["layers"].items():
            print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    metrics = record["layers"] if trace else record["metrics"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }), flush=True)


def run(workloads: list[str], seed: int, seconds: float, trace: bool,
        out_dir: Path) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf: no sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    for name in workloads:
        try:
            record = run_one(name, seed, seconds, trace, out_dir)
        except RunError as exc:
            print(f"perf: {name}: {exc}", file=sys.stderr)
            return 1
        print_record(record, trace)
        ok = ok and record["correct"]
    return 0 if ok else 1
