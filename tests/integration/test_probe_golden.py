"""Probe series of a small EASY sweep, pinned apart from event counts.

``repro probe record`` samples queue depth, busy nodes, outstanding
copies, wasted node-seconds and the kernel's pending-event and
compaction counters every ``cadence`` simulated seconds.  All of them
are functions of the trajectory except ``events_executed``, which also
counts the scheduling-pass events the kernel runs, and which falls
whenever a pass that would start nothing is no longer scheduled.  So
the golden drops that one field and pins the rest byte for byte, as
recorded before the exact smallest-request guard pruned idle passes.
"""

import json
from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).parent / "data" / "probe_golden.jsonl"

ARGV = [
    "-q", "probe", "record", "--schemes", "R2", "ALL", "--replications", "2",
    "--clusters", "2", "--duration", "200", "--cadence", "40",
]


def render_probes(out: Path) -> str:
    assert main([*ARGV, "--out", str(out)]) == 0
    rows = [json.loads(line) for line in (out / "probes.jsonl").open()]
    for row in rows:
        row.pop("events_executed", None)
    return "".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        for row in rows
    )


def test_probe_series_match_apart_from_event_counts(tmp_path):
    assert render_probes(tmp_path / "probes") == GOLDEN.read_text()
