"""Shared harness of the trace golden tests.

A golden test runs a few configurations, renders every lifecycle event
of each as one canonical JSON line, and compares the concatenation with
a recorded file byte for byte.  Each configuration is chosen to reach
one code path; the harness spies on that method and fails if the
configuration never gets there, so a golden cannot silently stop
covering what it was recorded for.
"""

from __future__ import annotations

import collections
import json
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.config import ExperimentConfig
from repro.obs.trace import run_single_traced

#: ``(class, method, reached)``: the config reaches the path when a call
#: ``reached(self, kwargs)`` returns true
Reach = tuple[type, str, Callable[[Any, dict], Any]]


def any_call(sched: Any, kwargs: dict) -> bool:
    """``reached`` predicate: every call counts."""
    return True


def render_config(ci: int, cfg: ExperimentConfig) -> list[str]:
    traced = run_single_traced(cfg, replication=0)
    return [
        json.dumps(
            {
                "config": ci,
                "t": t,
                "type": etype,
                "cluster": cluster,
                "request": request_id,
                "job": job_id,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        for t, etype, cluster, request_id, job_id in traced.events
    ]


def check_golden(
    monkeypatch,
    golden: Path,
    configs: Sequence[ExperimentConfig],
    paths: Sequence[Reach],
) -> None:
    """Assert config ``i`` reaches ``paths[i]`` and all traces equal ``golden``."""
    calls: collections.Counter = collections.Counter()
    for cls, name, reached in paths:
        original = getattr(cls, name)

        def counted(self, *args, _original=original, _name=name,
                    _reached=reached, **kwargs):
            if _reached(self, kwargs):
                calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    lines = []
    for ci, (cfg, (_, name, _)) in enumerate(zip(configs, paths, strict=True)):
        calls.clear()
        lines += render_config(ci, cfg)
        assert calls[name] > 0, f"config {ci} never reached {name}"
    assert "\n".join(lines) + "\n" == golden.read_text()
