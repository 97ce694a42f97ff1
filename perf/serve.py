"""Launch ``repro serve`` for the benchmark, optionally traced.

    python -m perf.serve --state-dir DIR --snapshot PATH [--trace]

Runs the real ``repro serve`` entry point on an ephemeral port (the
bound url is its first stdout line).  Signals drive the measurement:

* ``SIGUSR1`` drops the spans recorded so far (the timed section starts);
* ``SIGUSR2`` writes ``{"rss_kb", "summary", "events"}`` to ``PATH``
  atomically: the peak resident set so far and, when traced, the span
  summary and Chrome events (the timed section ended);
* ``SIGTERM`` stops the service the way Ctrl-C does.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
from typing import Any, Optional, Sequence

from .trace import Tracer


def _write_snapshot(path: str, tracer: Optional[Tracer]) -> None:
    snapshot: dict[str, Any] = {
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        snapshot["summary"] = tracer.summary()
        snapshot["events"] = tracer.chrome_events(os.getpid())
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh)
    os.replace(tmp, path)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.serve")
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        signal.signal(signal.SIGUSR1, lambda *_: tracer.reset())
    signal.signal(signal.SIGUSR2,
                  lambda *_: _write_snapshot(args.snapshot, tracer))
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    from repro.cli import main as repro_main

    return repro_main(["-q", "serve", "--state-dir", args.state_dir,
                       "--port", "0"])


if __name__ == "__main__":
    raise SystemExit(main())
