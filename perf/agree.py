"""``python -m perf agree SET_A SET_B``: do two sets of runs agree?

A set is a directory of records written by ``python -m perf run --out``.
For every (end-to-end metric, workload) pair the command prints each
set's median and quartiles and whether the medians lie within that
metric's bound from ``BENCHMARK.json``.  Records from two different
hosts are labelled ``cross-host``, never compared as a regression;
records of different run lengths are refused.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Optional

from . import ROOT
from .run import HOST_KEYS


def load_set(directory: Path) -> dict[str, list[dict]]:
    """Records of a set, by workload (traces and other files skipped)."""
    out: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        if isinstance(record, dict) and "workload" in record:
            out.setdefault(record["workload"], []).append(record)
    return out


def describe(values: list[float]) -> dict[str, Any]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)``."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def _hosts(records: dict[str, list[dict]]) -> set[tuple]:
    return {
        tuple(r["fingerprint"].get(k) for k in HOST_KEYS)
        for rs in records.values() for r in rs
    }


def agree(set_a: Path, set_b: Path,
          write_baseline: Optional[Path] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load_set(set_a), load_set(set_b)
    workloads = sorted(set(a) & set(b))
    if not workloads:
        print(f"no workload has records in both {set_a} and {set_b}")
        return 2
    lengths = {r["seconds"] for s in (a, b) for rs in s.values() for r in rs}
    if len(lengths) > 1:
        print(f"records differ in run length: {sorted(lengths)} s")
        return 2
    cross_host = len(_hosts(a) | _hosts(b)) > 1
    stats: dict[str, dict] = {"A": {}, "B": {}}
    all_agree = True
    print(f"{'metric':<13} {'workload':<14} {'A median [q1, q3]':<28} "
          f"{'B median [q1, q3]':<28} {'diff':>7} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for w in workloads:
            da = describe([r["metrics"][name]["value"] for r in a[w]])
            db = describe([r["metrics"][name]["value"] for r in b[w]])
            stats["A"].setdefault(w, {})[name] = da
            stats["B"].setdefault(w, {})[name] = db
            diff = (db["median"] - da["median"]) / da["median"]
            if cross_host:
                verdict = "cross-host"
            elif abs(diff) <= bound:
                verdict = "agree"
            else:
                verdict = "DISAGREE"
                all_agree = False
            cells = [f"{d['median']:.4g} [{d['q1']:.4g}, {d['q3']:.4g}]"
                     for d in (da, db)]
            print(f"{name:<13} {w:<14} {cells[0]:<28} {cells[1]:<28} "
                  f"{diff:>+7.2%} {bound:>6.0%}  {verdict}")
    if write_baseline is not None:
        first = next(iter(a.values()))[0]["fingerprint"]
        write_baseline.write_text(json.dumps({
            "fingerprint": {k: v for k, v in first.items() if k != "seed"},
            "seeds": sorted({r["seed"] for rs in a.values() for r in rs}),
            "sets": stats,
        }, indent=1, sort_keys=True) + "\n")
    if cross_host:
        print("records come from more than one host: cross-host, "
              "not comparable as a regression")
        return 1
    return 0 if all_agree else 1
