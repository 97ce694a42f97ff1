#!/usr/bin/env python3
"""Queue-wait predictability under redundancy (Section 5 / Table 4).

Runs CBF clusters whose reservations double as wait-time predictions,
measures how far the predictions over-shoot reality, and shows how a
platform where 40% of jobs use redundant requests degrades everyone's
predictions.

Run:  python examples/predictability.py
"""

from repro.analysis.tables import Table
from repro.predict.study import run_table4_study


def main() -> None:
    print("running the Table 4 study (CBF, φ-model estimates)...")
    result = run_table4_study(
        n_clusters=8, duration=1500.0, offered_load=2.0,
        adoption=0.4, n_replications=3, seed=11,
    )
    table = Table(
        "Queue waiting time over-estimation (predicted / effective wait)",
        columns=["average ratio", "C.V. (%)", "median ratio", "jobs"],
    )
    for row in result.rows():
        table.add_row(row.label, [
            row.stats.mean_ratio, row.stats.cv_percent,
            row.stats.median_ratio, row.stats.count,
        ])
    print()
    print(table.to_text())
    print(
        f"\nWith 40% adoption, over-prediction grew "
        f"{result.degradation_non_redundant:.1f}x for non-redundant jobs "
        f"and {result.degradation_redundant:.1f}x for redundant jobs "
        "relative to the redundancy-free platform."
    )


if __name__ == "__main__":
    main()
