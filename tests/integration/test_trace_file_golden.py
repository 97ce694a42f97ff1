"""The bytes of ``repro trace record``'s ``trace.jsonl``, header included.

The other trace goldens render events through their own harness, so
they pin the simulator but not the file writer.  This one pins the
file itself: the header's config list, the canonical JSON encoding and
the ``(config, replication)`` order of the event lines.  The repeated
``R2`` pins the dedup path: the header lists each distinct config once,
under its first index.
"""

from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).parent / "data" / "trace_file_golden.jsonl"

ARGV = [
    "-q", "trace", "record", "--schemes", "R2", "NONE", "R2",
    "--replications", "1", "--clusters", "2", "--nodes", "8",
    "--duration", "100",
]


def test_trace_file_matches_golden(tmp_path):
    out = tmp_path / "trace"
    assert main([*ARGV, "--out", str(out)]) == 0
    assert (out / "trace.jsonl").read_bytes() == GOLDEN.read_bytes()
