"""Experiment registry: one entry per table/figure of the paper.

Every benchmark and the CLI resolve experiments through this module, so
"regenerate Table 1" means the same thing everywhere.  Experiments run
at a :class:`Scale` selected by the ``REPRO_SCALE`` environment
variable:

* ``smoke``   — seconds-to-minutes; shapes only, noisy.
* ``default`` — minutes; the shipped EXPERIMENTS.md numbers.
* ``paper``   — the paper's 6-hour windows and 50 replications;
  hours of wall time, use ``REPRO_WORKERS`` to parallelise.

All Section 3 experiments run in the calibrated regime (offered load
ρ = 2.0, drain to completion — see DESIGN.md "load calibration"); the
Section 4 load studies use the authentic uncalibrated workload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from ..core.cache import shared_cache
from ..core.config import ExperimentConfig
from ..core.metrics import mean_of_ratios
from ..core.parallel import resolve_workers, run_grid
from ..core.runner import SchemeComparison, compare_schemes, run_replications
from ..core.schemes import PAPER_SCHEME_ORDER
from ..faults import FaultConfig
from ..middleware.capacity import capacity_report
from ..middleware.churn import (
    average_curve,
    churn_curve,
    measure_real_scheduler_throughput,
)
from ..middleware.loadstudy import (
    compare_max_queue_sizes,
    queue_growth_vs_cluster_size,
)
from ..middleware.pbs import paper_calibrated_model
from ..predict.study import run_table4_study
from .plots import AsciiPlot
from .tables import Table

#: calibrated offered load for the Section 3 experiments (DESIGN.md)
CALIBRATED_RHO = 2.0


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knobs."""

    name: str
    duration: float            # submission-window length (s)
    n_replications: int
    fig1_sites: tuple[int, ...]
    fig3_alphas: tuple[float, ...]
    fig4_fractions: tuple[float, ...]
    churn_queue_sizes: tuple[int, ...]
    churn_duration: float
    load_study_duration: float
    #: cancellation-loss probabilities for the fault experiment (0.0
    #: first: the shared fault-free baseline)
    faults_p_loss: tuple[float, ...] = (0.0, 0.1, 0.3)
    #: cluster outage rates (per cluster-hour) for the fault experiment
    faults_outage_rates: tuple[float, ...] = (0.0, 1.0, 4.0)
    #: phase-diagram axes (cancellation policy × redundancy degree ×
    #: service regime × offered load) and its submission window
    phase_policies: tuple[str, ...] = ("cancel-on-start", "cancel-on-complete")
    phase_degrees: tuple[int, ...] = (2, 3)
    phase_regimes: tuple[str, ...] = ("lublin", "bimodal", "bernoulli")
    phase_loads: tuple[float, ...] = (0.6, 1.8)
    phase_duration: float = 900.0
    #: knee-study offered loads (ρ) and its fixed (non-drained) window;
    #: the sweep classifies each load as sustained or saturated from
    #: online statistics alone (see repro.analysis.knee)
    knee_loads: tuple[float, ...] = (0.6, 1.0, 1.4, 1.8, 2.4, 3.0)
    knee_duration: float = 1800.0


SCALES: dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        duration=900.0,
        n_replications=2,
        fig1_sites=(2, 5, 10),
        fig3_alphas=(4.0, 10.23, 20.0),
        fig4_fractions=(0.0, 0.4, 1.0),
        churn_queue_sizes=(0, 5000, 20000),
        churn_duration=600.0,
        load_study_duration=1800.0,
        faults_p_loss=(0.0, 0.5),
        faults_outage_rates=(0.0, 4.0),
        phase_degrees=(2,),
        phase_regimes=("lublin", "bernoulli"),
        phase_loads=(1.8,),
        phase_duration=600.0,
        knee_loads=(0.6, 1.4, 2.4),
        knee_duration=600.0,
    ),
    "default": Scale(
        name="default",
        duration=1800.0,
        n_replications=3,
        fig1_sites=(2, 3, 4, 5, 10, 20),
        fig3_alphas=(6.0, 8.0, 10.23, 14.0, 20.0),
        fig4_fractions=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
        churn_queue_sizes=(0, 1000, 2500, 5000, 7500, 10000, 15000, 20000),
        churn_duration=3600.0,
        load_study_duration=3 * 3600.0,
    ),
    "paper": Scale(
        name="paper",
        duration=6 * 3600.0,
        n_replications=50,
        fig1_sites=(2, 3, 4, 5, 10, 20),
        fig3_alphas=(4.0, 6.0, 8.0, 10.23, 12.0, 16.0, 20.0),
        fig4_fractions=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
        churn_queue_sizes=(0, 1000, 2500, 5000, 7500, 10000, 12500, 15000,
                           17500, 20000),
        churn_duration=12 * 3600.0,
        load_study_duration=24 * 3600.0,
        faults_p_loss=(0.0, 0.05, 0.1, 0.3),
        faults_outage_rates=(0.0, 0.5, 2.0, 4.0),
        phase_degrees=(2, 3, 4),
        phase_loads=(0.4, 0.8, 1.2, 1.6, 2.0),
        phase_duration=3600.0,
        knee_loads=(0.4, 0.8, 1.2, 1.6, 2.0, 2.4, 2.8, 3.2),
        knee_duration=3600.0,
    ),
}


def current_scale() -> Scale:
    """The scale selected by ``REPRO_SCALE`` (default: ``default``)."""
    name = os.environ.get("REPRO_SCALE", "default").lower()
    try:
        return SCALES[name]
    except KeyError:
        raise ValueError(
            f"REPRO_SCALE={name!r}; choose from {sorted(SCALES)}"
        ) from None


def n_workers() -> int:
    """Replication parallelism from ``REPRO_WORKERS`` (default 1)."""
    return resolve_workers(
        os.environ.get("REPRO_WORKERS"), source="REPRO_WORKERS"
    )


def calibrated_config(scale: Scale, **overrides) -> ExperimentConfig:
    """The Section 3 base configuration at a given scale."""
    kwargs = dict(
        n_clusters=10,
        duration=scale.duration,
        offered_load=CALIBRATED_RHO,
        drain=True,
        seed=20060619,  # HPDC'06 started June 19, 2006
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


@dataclass
class ExperimentReport:
    """Everything an experiment produces, ready to print or inspect."""

    exp_id: str
    title: str
    paper_expectation: str
    tables: list[Table] = field(default_factory=list)
    plots: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        parts = [f"=== {self.exp_id}: {self.title} ===",
                 f"Paper expectation: {self.paper_expectation}", ""]
        parts += [t.to_text() + "\n" for t in self.tables]
        parts += [p + "\n" for p in self.plots]
        if self.notes:
            parts.append("Notes:")
            parts += [f"  - {n}" for n in self.notes]
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# Figures 1 & 2: relative average stretch / CV vs number of sites
# ---------------------------------------------------------------------------

@lru_cache(maxsize=4)
def _sites_sweep(scale: Scale) -> dict[int, SchemeComparison]:
    out = {}
    for n in scale.fig1_sites:
        cfg = calibrated_config(scale, n_clusters=n)
        out[n] = compare_schemes(
            cfg, PAPER_SCHEME_ORDER, scale.n_replications, n_workers(),
            cache=shared_cache(),
        )
    return out


def fig1(scale: Optional[Scale] = None) -> ExperimentReport:
    """Figure 1: relative average stretch vs number of clusters."""
    scale = scale or current_scale()
    sweeps = _sites_sweep(scale)
    table = Table(
        "Figure 1 — average stretch relative to NONE",
        columns=[f"N={n}" for n in sweeps],
    )
    plot = AsciiPlot(
        "Figure 1 — relative average stretch vs number of sites",
        xlabel="number of sites", ylabel="relative avg stretch",
        reference_y=1.0,
    )
    data = {}
    for scheme in PAPER_SCHEME_ORDER:
        rel = [sweeps[n].relative(scheme).avg_stretch for n in sweeps]
        table.add_row(scheme, rel)
        plot.add_series(scheme, list(zip(sweeps.keys(), rel)))
        data[scheme] = dict(zip(sweeps.keys(), rel))
    wins = {
        n: max(sweeps[n].relative(s).win_fraction for s in PAPER_SCHEME_ORDER)
        for n in sweeps
    }
    return ExperimentReport(
        exp_id="fig1",
        title="relative average stretch vs number of sites",
        paper_expectation=(
            "values below 1 for N > 5 (10-25% improvement), up to ~1.1 for "
            "N <= 5; redundancy wins in >85% of experiments at N >= 10"
        ),
        tables=[table],
        plots=[plot.render()],
        data={"relative_avg_stretch": data, "best_win_fraction": wins},
    )


def fig2(scale: Optional[Scale] = None) -> ExperimentReport:
    """Figure 2: relative coefficient of variation of stretches."""
    scale = scale or current_scale()
    sweeps = _sites_sweep(scale)
    table = Table(
        "Figure 2 — CV of stretches relative to NONE",
        columns=[f"N={n}" for n in sweeps],
    )
    plot = AsciiPlot(
        "Figure 2 — relative CV of stretches vs number of sites",
        xlabel="number of sites", ylabel="relative CV of stretches",
        reference_y=1.0,
    )
    data = {}
    max_data = {}
    for scheme in PAPER_SCHEME_ORDER:
        rel = [sweeps[n].relative(scheme).cv_stretch for n in sweeps]
        table.add_row(scheme, rel)
        plot.add_series(scheme, list(zip(sweeps.keys(), rel)))
        data[scheme] = dict(zip(sweeps.keys(), rel))
        max_data[scheme] = {
            n: sweeps[n].relative(scheme).max_stretch for n in sweeps
        }
    return ExperimentReport(
        exp_id="fig2",
        title="relative CV of stretches (fairness) vs number of sites",
        paper_expectation=(
            "fairness improves ~10-25% in all cases (values 0.75-0.9); "
            "max stretch improves 10-60% (not plotted in the paper)"
        ),
        tables=[table],
        plots=[plot.render()],
        data={"relative_cv": data, "relative_max_stretch": max_data},
    )


# ---------------------------------------------------------------------------
# Table 1: algorithms x estimate regimes
# ---------------------------------------------------------------------------

def tab1(scale: Optional[Scale] = None) -> ExperimentReport:
    """Table 1: EASY/CBF/FCFS with exact and real (φ-model) estimates."""
    scale = scale or current_scale()
    stretch_table = Table(
        "Table 1 — relative average stretch (N=10, HALF)",
        columns=["Exact Estimates", "Real Estimates"],
    )
    cv_table = Table(
        "Table 1 — relative CV of stretches (N=10, HALF)",
        columns=["Exact Estimates", "Real Estimates"],
    )
    data = {}
    for algorithm in ("easy", "cbf", "fcfs"):
        row_s, row_cv = [], []
        for estimates in ("exact", "phi"):
            cfg = calibrated_config(
                scale, algorithm=algorithm, estimates=estimates
            )
            cmp_ = compare_schemes(
                cfg, ["HALF"], scale.n_replications, n_workers(),
                cache=shared_cache(),
            )
            rel = cmp_.relative("HALF")
            row_s.append(rel.avg_stretch)
            row_cv.append(rel.cv_stretch)
            data[(algorithm, estimates)] = {
                "avg_stretch": rel.avg_stretch,
                "cv_stretch": rel.cv_stretch,
            }
        stretch_table.add_row(algorithm.upper(), row_s)
        cv_table.add_row(algorithm.upper(), row_cv)
    return ExperimentReport(
        exp_id="tab1",
        title="scheduling algorithms x runtime-estimate regimes",
        paper_expectation=(
            "all relative metrics below 1 (paper: stretch 0.83-0.93, "
            "CV 0.83-0.93) regardless of algorithm and estimate regime"
        ),
        tables=[stretch_table, cv_table],
        data={"cells": {f"{a}/{e}": v for (a, e), v in data.items()}},
    )


# ---------------------------------------------------------------------------
# Table 2: non-uniform (biased) redundant-request distribution
# ---------------------------------------------------------------------------

def tab2(scale: Optional[Scale] = None) -> ExperimentReport:
    """Table 2: geometrically biased remote-cluster choice, N=10."""
    scale = scale or current_scale()
    cfg = calibrated_config(scale, target_bias_ratio=0.5)
    schemes = ("R2", "R3", "R4", "HALF")
    cmp_ = compare_schemes(
        cfg, schemes, scale.n_replications, n_workers(), cache=shared_cache()
    )
    table = Table(
        "Table 2 — biased account distribution (N=10)",
        columns=list(schemes),
    )
    rel = {s: cmp_.relative(s) for s in schemes}
    table.add_row("Relative Average Stretch", [rel[s].avg_stretch for s in schemes])
    table.add_row("Relative C.V. of Stretches", [rel[s].cv_stretch for s in schemes])
    return ExperimentReport(
        exp_id="tab2",
        title="non-uniformly distributed redundant requests",
        paper_expectation=(
            "benefit survives heavy bias; paper: stretch 0.88-0.95, "
            "CV 0.86-0.94, similar to the uniform distribution"
        ),
        tables=[table],
        data={
            "relative_avg_stretch": {s: rel[s].avg_stretch for s in schemes},
            "relative_cv": {s: rel[s].cv_stretch for s in schemes},
        },
    )


# ---------------------------------------------------------------------------
# Figure 3: job inter-arrival time sweep
# ---------------------------------------------------------------------------

def fig3(scale: Optional[Scale] = None) -> ExperimentReport:
    """Figure 3: relative average stretch vs mean inter-arrival time.

    The paper varies the Gamma shape α over [4, 20] (β = 0.49 fixed),
    i.e. mean inter-arrival times ≈2-10 s.  In the calibrated regime
    the offered load scales inversely with the inter-arrival time, so
    the sweep doubles as a load sweep around ρ = 2 — its role in the
    paper.
    """
    scale = scale or current_scale()
    beta = 0.49
    table = Table(
        "Figure 3 — relative average stretch vs inter-arrival time (N=10)",
        columns=[f"iat={a * beta:.1f}s" for a in scale.fig3_alphas],
    )
    plot = AsciiPlot(
        "Figure 3 — relative avg stretch vs mean job inter-arrival time",
        xlabel="mean inter-arrival time (s)", ylabel="relative avg stretch",
        reference_y=1.0,
    )
    data = {}
    comparisons = {}
    base_iat = 10.23 * beta
    for alpha in scale.fig3_alphas:
        iat = alpha * beta
        # Keep the *ratio* of load to the base case equal to the paper's
        # iat ratio: the calibration fixes rho at the base iat.  The
        # extreme-load end is clamped — above ρ ≈ 3 the drained
        # simulation's cost explodes while the answer (redundancy still
        # helps) is already decided; see DESIGN.md §3b.
        rho = min(CALIBRATED_RHO * base_iat / iat, 3.0)
        cfg = calibrated_config(
            scale, mean_interarrival=iat, offered_load=rho
        )
        comparisons[alpha] = compare_schemes(
            cfg, PAPER_SCHEME_ORDER, scale.n_replications, n_workers(),
            cache=shared_cache(),
        )
    for scheme in PAPER_SCHEME_ORDER:
        rel = [comparisons[a].relative(scheme).avg_stretch
               for a in scale.fig3_alphas]
        table.add_row(scheme, rel)
        plot.add_series(
            scheme,
            [(a * beta, r) for a, r in zip(scale.fig3_alphas, rel)],
        )
        data[scheme] = {a * beta: r for a, r in zip(scale.fig3_alphas, rel)}
    return ExperimentReport(
        exp_id="fig3",
        title="sensitivity to job inter-arrival time (load sweep)",
        paper_expectation=(
            "redundant requests improve average stretch regardless of the "
            "inter-arrival time (all values < 1; paper range ~0.75-0.95)"
        ),
        tables=[table],
        plots=[plot.render()],
        data={"relative_avg_stretch": data},
    )


# ---------------------------------------------------------------------------
# Table 3: heterogeneous platform
# ---------------------------------------------------------------------------

def tab3(scale: Optional[Scale] = None) -> ExperimentReport:
    """Table 3: node counts in {16..256}, inter-arrivals in [2 s, 20 s]."""
    scale = scale or current_scale()
    cfg = calibrated_config(scale, heterogeneous=True)
    cmp_ = compare_schemes(
        cfg, PAPER_SCHEME_ORDER, scale.n_replications, n_workers(),
        cache=shared_cache(),
    )
    table = Table(
        "Table 3 — heterogeneous platform (N=10)",
        columns=["Relative Average Stretch", "Relative C.V. of Stretches"],
    )
    data = {}
    for scheme in PAPER_SCHEME_ORDER:
        rel = cmp_.relative(scheme)
        table.add_row(scheme, [rel.avg_stretch, rel.cv_stretch])
        data[scheme] = {
            "avg_stretch": rel.avg_stretch, "cv_stretch": rel.cv_stretch
        }
    return ExperimentReport(
        exp_id="tab3",
        title="heterogeneous platforms",
        paper_expectation=(
            "redundancy even more beneficial than in the homogeneous case "
            "(paper: stretch 0.63-0.83 decreasing with redundancy, "
            "CV 0.79-0.90)"
        ),
        tables=[table],
        data=data,
    )


# ---------------------------------------------------------------------------
# Figure 4: partial adoption
# ---------------------------------------------------------------------------

def fig4(scale: Optional[Scale] = None) -> ExperimentReport:
    """Figure 4: stretch of redundant vs non-redundant jobs vs adoption p."""
    scale = scale or current_scale()
    schemes = PAPER_SCHEME_ORDER
    plot = AsciiPlot(
        "Figure 4 — average stretch vs % of jobs using redundant requests",
        xlabel="% of jobs using redundant requests", ylabel="average stretch",
        height=20,
    )
    table = Table(
        "Figure 4 — average stretch by population (N=10)",
        columns=[f"p={int(p * 100)}%" for p in scale.fig4_fractions],
    )
    penalty_table = Table(
        "Figure 4 — paired non-adopter penalty "
        "(stretch of the same n-r jobs relative to a p=0 world)",
        columns=[f"p={int(p * 100)}%" for p in scale.fig4_fractions if p > 0],
    )
    data: dict[str, dict] = {}
    for scheme in schemes:
        r_series, nr_series, penalties = [], [], []
        baseline_results = None
        for p in scale.fig4_fractions:
            cfg = calibrated_config(
                scale, scheme=scheme, adoption_probability=p
            )
            results = run_replications(
                cfg, scale.n_replications, n_workers(), cache=shared_cache()
            )
            if p == 0.0:
                baseline_results = results
            r_vals, nr_vals = [], []
            for res in results:
                s_r = res.stretches(redundant=True)
                s_nr = res.stretches(redundant=False)
                if s_r.size:
                    r_vals.append(float(s_r.mean()))
                if s_nr.size:
                    nr_vals.append(float(s_nr.mean()))
            r_mean = float(np.mean(r_vals)) if r_vals else float("nan")
            nr_mean = float(np.mean(nr_vals)) if nr_vals else float("nan")
            r_series.append(r_mean)
            nr_series.append(nr_mean)
            if p > 0 and baseline_results is not None:
                ratios = []
                for rp, r0 in zip(results, baseline_results):
                    nr_ids = {
                        j.job_id for j in rp.jobs if not j.uses_redundancy
                    }
                    s_p = [j.stretch for j in rp.jobs if j.job_id in nr_ids]
                    s_0 = [j.stretch for j in r0.jobs if j.job_id in nr_ids]
                    if s_p and s_0:
                        ratios.append(np.mean(s_p) / np.mean(s_0))
                penalties.append(
                    float(np.mean(ratios)) if ratios else float("nan")
                )
            elif p > 0:
                penalties.append(float("nan"))
        table.add_row(f"{scheme} r jobs", r_series)
        table.add_row(f"{scheme} n-r jobs", nr_series)
        penalty_table.add_row(scheme, penalties)
        data.setdefault("penalty", {})[scheme] = dict(
            zip([p for p in scale.fig4_fractions if p > 0], penalties)
        )
        pct = [100 * p for p in scale.fig4_fractions]
        plot.add_series(
            f"{scheme} r",
            [(x, y) for x, y in zip(pct, r_series) if y == y],
        )
        plot.add_series(
            f"{scheme} n-r",
            [(x, y) for x, y in zip(pct, nr_series) if y == y],
        )
        data[scheme] = {
            "r": dict(zip(scale.fig4_fractions, r_series)),
            "nr": dict(zip(scale.fig4_fractions, nr_series)),
        }
    return ExperimentReport(
        exp_id="fig4",
        title="penalty for not using redundant requests",
        paper_expectation=(
            "non-redundant jobs' stretch grows roughly linearly with the "
            "fraction p of redundant jobs, and grows faster for schemes "
            "with more copies; redundant jobs always do better than "
            "non-redundant ones at the same p"
        ),
        tables=[table, penalty_table],
        plots=[plot.render()],
        data=data,
        notes=[
            "the paired penalty table isolates the fairness effect: the "
            "stretch of the identical set of non-adopting jobs, relative "
            "to a world where nobody adopts (common random numbers)",
        ],
    )


# ---------------------------------------------------------------------------
# Figure 5 + Section 4 capacity and load studies
# ---------------------------------------------------------------------------

def fig5(scale: Optional[Scale] = None) -> ExperimentReport:
    """Figure 5: scheduler churn throughput vs queue size."""
    scale = scale or current_scale()
    model = paper_calibrated_model()
    curves = churn_curve(
        model,
        queue_sizes=scale.churn_queue_sizes,
        duration_s=scale.churn_duration,
        n_repetitions=4,
    )
    avg = average_curve(curves)
    table = Table(
        "Figure 5 — submissions (= cancellations) per second vs queue size",
        columns=[str(q) for q in scale.churn_queue_sizes],
    )
    for i, curve in enumerate(curves, 1):
        table.add_row(
            f"Exp #{i}",
            [
                None if s.truncated_by_oom else s.submissions_per_sec
                for s in curve
            ],
        )
    table.add_row("Average", [s.submissions_per_sec for s in avg])
    plot = AsciiPlot(
        "Figure 5 — scheduler throughput under maximal churn",
        xlabel="queue size (pending requests)",
        ylabel="submissions/second",
    )
    plot.add_series(
        "model", [(s.queue_size, s.submissions_per_sec) for s in avg]
    )
    # A genuinely measured analogue: wall-clock throughput of this
    # package's own schedulers under the same protocol.
    real = {
        alg: measure_real_scheduler_throughput(alg, queue_size=2000, n_ops=500)
        for alg in ("fcfs", "easy", "cbf")
    }
    real_table = Table(
        "Measured analogue — this package's schedulers (ops pairs/s, q=2000)",
        columns=["fcfs", "easy", "cbf"],
        precision=0,
    )
    real_table.add_row("wall-clock throughput", [real[a] for a in real_table.columns])
    return ExperimentReport(
        exp_id="fig5",
        title="batch-scheduler throughput under submission/cancellation churn",
        paper_expectation=(
            "≈11 submissions+11 cancellations/s with an empty queue "
            "decaying 'somewhat exponentially' to ≈5+5/s at 20,000 pending; "
            "some curves truncated by scheduler memory leaks"
        ),
        tables=[table, real_table],
        plots=[plot.render()],
        data={
            "average": {s.queue_size: s.submissions_per_sec for s in avg},
            "real_schedulers": real,
        },
        notes=[
            "the model curve is calibrated to the paper's OpenPBS/Maui "
            "measurements (see repro.middleware.pbs); the measured analogue "
            "uses this package's scheduler implementations in wall time",
        ],
    )


def sec4(scale: Optional[Scale] = None) -> ExperimentReport:
    """Section 4: capacity bounds, queue growth, queue-size comparison."""
    scale = scale or current_scale()
    report = capacity_report()
    cap_table = Table(
        "Section 4 — capacity analysis (iat = 5 s, queue depth 10,000)",
        columns=["submissions/s", "max redundancy r"],
    )
    cap_table.add_row(
        "batch scheduler",
        [report.scheduler_throughput, report.scheduler_max_redundancy],
    )
    cap_table.add_row(
        "GT4 WS-GRAM middleware",
        [report.middleware_throughput, report.middleware_max_redundancy],
    )
    growth = queue_growth_vs_cluster_size(
        node_counts=(32, 64, 128, 256),
        duration=scale.load_study_duration
        if scale.name != "paper" else 6 * 3600.0,
    )
    growth_table = Table(
        "Section 4 — queue growth under the authentic peak-hour workload",
        columns=["arrivals/hour", "queue growth/hour"],
    )
    for g in growth:
        growth_table.add_row(f"{g.nodes} nodes", [g.arrivals_per_hour,
                                                  g.growth_per_hour])
    qcmp = compare_max_queue_sizes(
        duration=scale.load_study_duration,
        n_replications=min(scale.n_replications, 3),
    )
    queue_table = Table(
        "Section 4 — average maximum queue size, ALL vs NONE (steady state)",
        columns=["NONE", "ALL", "relative increase"],
    )
    queue_table.add_row(
        f"N={qcmp.n_clusters}, {qcmp.duration_h:.1f}h",
        [qcmp.avg_max_queue_none, qcmp.avg_max_queue_all,
         qcmp.relative_increase],
    )
    return ExperimentReport(
        exp_id="sec4",
        title="system-load capacity analysis",
        paper_expectation=(
            "scheduler tolerates r < 30, middleware r < 3 (middleware is "
            "the bottleneck); queue grows ≈700 jobs/hour independently of "
            "cluster size; ALL inflates max queue size by < 2% in steady "
            "state"
        ),
        tables=[cap_table, growth_table, queue_table],
        data={
            "bottleneck": report.bottleneck,
            "scheduler_max_r": report.scheduler_max_redundancy,
            "middleware_max_r": report.middleware_max_redundancy,
            "growth_per_hour": {g.nodes: g.growth_per_hour for g in growth},
            "queue_increase": qcmp.relative_increase,
        },
    )


# ---------------------------------------------------------------------------
# Table 4: predictability
# ---------------------------------------------------------------------------

def tab4(scale: Optional[Scale] = None) -> ExperimentReport:
    """Table 4: queue-wait over-prediction with and without redundancy."""
    scale = scale or current_scale()
    result = run_table4_study(
        duration=scale.duration,
        n_replications=scale.n_replications,
    )
    table = Table(
        "Table 4 — queue waiting time over-estimation (N=10, CBF, φ estimates)",
        columns=["Average ratio", "C.V. (%)", "jobs"],
    )
    for row in result.rows():
        table.add_row(
            row.label,
            [row.stats.mean_ratio, row.stats.cv_percent, row.stats.count],
        )
    return ExperimentReport(
        exp_id="tab4",
        title="impact of redundancy on queue-wait predictability",
        paper_expectation=(
            "baseline over-prediction ≈9x (CV ≈205%); with 40% of jobs "
            "using ALL, over-prediction grows ≈8x for non-redundant jobs "
            "and ≈4x for redundant jobs"
        ),
        tables=[table],
        data={
            "baseline": result.baseline.stats.mean_ratio,
            "non_redundant": result.non_redundant.stats.mean_ratio,
            "redundant": result.redundant.stats.mean_ratio,
            "degradation_nr": result.degradation_non_redundant,
            "degradation_r": result.degradation_redundant,
        },
    )


# ---------------------------------------------------------------------------
# Section 3.1.2 robustness: requested-time inflation on remote copies
# ---------------------------------------------------------------------------

def sec312(scale: Optional[Scale] = None) -> ExperimentReport:
    """Requested-time inflation (+10%/+50%) on redundant copies."""
    scale = scale or current_scale()
    table = Table(
        "Section 3.1.2 — remote requested-time inflation (N=10, HALF)",
        columns=["Relative Average Stretch", "Relative C.V. of Stretches"],
    )
    data = {}
    for inflation in (0.0, 0.10, 0.50):
        cfg = calibrated_config(scale, remote_inflation=inflation)
        cmp_ = compare_schemes(
            cfg, ["HALF"], scale.n_replications, n_workers(),
            cache=shared_cache(),
        )
        rel = cmp_.relative("HALF")
        table.add_row(
            f"+{inflation:.0%}", [rel.avg_stretch, rel.cv_stretch]
        )
        data[inflation] = rel.avg_stretch
    return ExperimentReport(
        exp_id="sec312",
        title="late-data-binding requested-time inflation",
        paper_expectation=(
            "inflating redundant requests' durations by 10% or 50% makes "
            "no difference to the results"
        ),
        tables=[table],
        data=data,
    )


# ---------------------------------------------------------------------------
# Fault injection: lost cancellations x cluster outages (beyond the paper)
# ---------------------------------------------------------------------------

#: schemes swept by the fault experiment (rising redundancy degree)
FAULT_SCHEMES: tuple[str, ...] = ("R2", "HALF", "ALL")

#: fixed fault-environment knobs (the sweep varies p_loss and the rate)
FAULT_CANCEL_DELAY_MEAN = 30.0
FAULT_OUTAGE_DURATION = 600.0


def _fault_config(
    p_loss: float, outage_rate: float, scheme: str
) -> Optional[FaultConfig]:
    """The fault environment of one sweep cell.

    The NONE baseline never cancels anything, so its cancellation-fault
    knobs are zeroed: its config then only varies with the outage rate
    and the grid dedups one shared baseline across every ``p_loss``
    column.  A cell with no faults at all uses ``faults=None`` — the
    same config every fault-free experiment runs.
    """
    if scheme == "NONE":
        if outage_rate == 0.0:
            return None
        return FaultConfig(
            outage_rate=outage_rate,
            outage_duration=FAULT_OUTAGE_DURATION,
            outage_drop_queue=True,
            resubmit_policy="resubmit",
        )
    if p_loss == 0.0 and outage_rate == 0.0:
        return None
    return FaultConfig(
        p_cancel_loss=p_loss,
        cancel_delay_mean=FAULT_CANCEL_DELAY_MEAN,
        cancel_delay_distribution="exponential",
        outage_rate=outage_rate,
        outage_duration=FAULT_OUTAGE_DURATION,
        outage_drop_queue=True,
        resubmit_policy="resubmit",
    )


def faults(scale: Optional[Scale] = None) -> ExperimentReport:
    """Redundancy under failures: lost cancellations and cluster outages.

    For every (p_cancel_loss, outage_rate) cell the full scheme set runs
    against its own NONE baseline *in the same fault environment*, so
    the relative stretch isolates what redundancy buys when the
    machinery it depends on (cancellation delivery, scheduler uptime)
    is unreliable.  The wasted-work table is the cost side: node-seconds
    burned by orphaned and duplicate copies as a fraction of all work.
    """
    scale = scale or current_scale()
    cells = [
        (p, r)
        for p in scale.faults_p_loss
        for r in scale.faults_outage_rates
    ]
    labels = [f"p={p:g},λ={r:g}/h" for p, r in cells]
    all_schemes = ("NONE",) + FAULT_SCHEMES
    configs = []
    index: dict[tuple[float, float, str], int] = {}
    for p, r in cells:
        for scheme in all_schemes:
            index[(p, r, scheme)] = len(configs)
            configs.append(
                calibrated_config(
                    scale, scheme=scheme, faults=_fault_config(p, r, scheme)
                )
            )
    grid = run_grid(
        configs, scale.n_replications, n_workers=n_workers(),
        cache=shared_cache(),
    )
    stretch_table = Table(
        "Faults — average stretch relative to NONE (same fault environment)",
        columns=labels,
    )
    waste_table = Table(
        "Faults — wasted work, % of all node-seconds consumed",
        columns=labels,
    )
    rel_data: dict[str, dict[str, float]] = {}
    waste_data: dict[str, dict[str, float]] = {}
    lost: dict[str, dict[str, float]] = {}
    total_outages = 0
    for scheme in FAULT_SCHEMES:
        rel_row, waste_row = [], []
        rel_data[scheme] = {}
        waste_data[scheme] = {}
        lost[scheme] = {}
        for (p, r), label in zip(cells, labels):
            results = grid[index[(p, r, scheme)]]
            baseline = grid[index[(p, r, "NONE")]]
            rel = mean_of_ratios(
                [(res.avg_stretch, b.avg_stretch)
                 for res, b in zip(results, baseline)]
            )
            waste = 100.0 * float(
                np.mean([res.wasted_work_fraction for res in results])
            )
            rel_row.append(rel)
            waste_row.append(waste)
            rel_data[scheme][label] = rel
            waste_data[scheme][label] = waste
            lost[scheme][label] = float(
                np.mean([res.lost_cancellations for res in results])
            )
            total_outages += sum(res.outages for res in results)
        stretch_table.add_row(scheme, rel_row)
        waste_table.add_row(scheme, waste_row)
    return ExperimentReport(
        exp_id="faults",
        title="redundancy under lost cancellations and cluster outages",
        paper_expectation=(
            "beyond the paper: the stretch benefit of redundancy should "
            "survive moderate fault rates, while wasted work grows with "
            "the cancellation-loss probability and the number of copies "
            "(approaching 75% for ALL on 4+ clusters when every "
            "cancellation is lost)"
        ),
        tables=[stretch_table, waste_table],
        data={
            "relative_avg_stretch": rel_data,
            "wasted_work_pct": waste_data,
            "mean_lost_cancellations": lost,
            "total_outages": total_outages,
        },
        notes=[
            "each cell pairs schemes with a NONE baseline in the same "
            "fault environment (common random numbers); cancellations "
            f"take Exp({FAULT_CANCEL_DELAY_MEAN:g}s) to deliver in every "
            "faulted cell, outages last "
            f"{FAULT_OUTAGE_DURATION:g}s, drop pending queues, and lost "
            "copies are resubmitted at recovery",
        ],
    )


# ---------------------------------------------------------------------------
# Beyond the paper: the redundancy phase diagram
# ---------------------------------------------------------------------------

#: the phase diagram deliberately runs a small platform — the cell
#: count, not the platform, is its scale axis
PHASE_N_CLUSTERS = 4
PHASE_NODES = 16


def phase_base_config(scale: Scale) -> ExperimentConfig:
    """The fixed (non-swept) part of every phase-diagram cell."""
    return ExperimentConfig(
        n_clusters=PHASE_N_CLUSTERS,
        nodes_per_cluster=PHASE_NODES,
        duration=scale.phase_duration,
        drain=True,
        seed=20060619,
    )


def phase(scale: Optional[Scale] = None) -> ExperimentReport:
    """When is redundancy harmful? (policy × d × regime × load).

    Sweeps the generalised redundancy-d schemes under both cancellation
    policies across service-time regimes and offered loads, classifying
    every cell as helpful/neutral/harmful by mean stretch ratio (vs a
    shared NONE baseline on the same job streams) and by wasted-work
    fraction.  This extends Tables 1–4 into the landscape mapped by the
    modern redundancy literature (see PAPERS.md).
    """
    from ..policies.phase import run_phase_diagram

    scale = scale or current_scale()
    diagram = run_phase_diagram(
        phase_base_config(scale),
        policies=scale.phase_policies,
        degrees=scale.phase_degrees,
        regimes=scale.phase_regimes,
        loads=scale.phase_loads,
        n_replications=scale.n_replications,
        n_workers=n_workers(),
        cache=shared_cache(),
    )
    columns = [f"ρ={load:g}" for load in scale.phase_loads]
    stretch_table = Table(
        "Phase diagram — mean stretch relative to NONE "
        "(same regime, same streams)",
        columns=columns,
    )
    waste_table = Table(
        "Phase diagram — wasted work, % of all node-seconds consumed",
        columns=columns,
    )
    classes: dict[str, dict[str, str]] = {}
    for policy in scale.phase_policies:
        for d in scale.phase_degrees:
            for regime in scale.phase_regimes:
                label = f"{policy}/R{d}/{regime}"
                row = [
                    diagram.cell(policy, d, regime, load)
                    for load in scale.phase_loads
                ]
                stretch_table.add_row(label, [c.stretch_ratio for c in row])
                waste_table.add_row(
                    label, [100.0 * c.waste_fraction for c in row]
                )
                classes[label] = {
                    col: c.stretch_class for col, c in zip(columns, row)
                }
    helpful, harmful = diagram.helpful(), diagram.harmful()
    return ExperimentReport(
        exp_id="phase",
        title="redundancy phase diagram (policy × d × regime × load)",
        paper_expectation=(
            "beyond the paper: cancel-on-start redundancy-d helps at "
            "calibrated loads (the paper's harm verdict presumes its "
            "uncalibrated overload), while cancel-on-complete is harmful "
            "under Lublin/bi-modal runtimes yet flips helpful for small d "
            "under scaled-Bernoulli (Raaijmakers et al.)"
        ),
        tables=[stretch_table, waste_table],
        data={
            "phase_diagram": diagram.to_payload(),
            "stretch_class": classes,
        },
        notes=[
            f"{len(helpful)} helpful / {len(harmful)} harmful of "
            f"{len(diagram.cells)} cells (stretch verdicts at ±"
            f"{100 * _phase_tolerance():g}%); every cell shares its NONE "
            "baseline's job streams (common random numbers)",
        ],
    )


def _phase_tolerance() -> float:
    from ..policies.phase import STRETCH_TOLERANCE

    return STRETCH_TOLERANCE


# ---------------------------------------------------------------------------
# Beyond the paper: the throughput knee, from online statistics alone
# ---------------------------------------------------------------------------

def knee_base_config(scale: Scale) -> ExperimentConfig:
    """The fixed part of every knee cell (the phase diagram's platform)."""
    return ExperimentConfig(
        scheme="R2",
        n_clusters=PHASE_N_CLUSTERS,
        nodes_per_cluster=PHASE_NODES,
        duration=scale.knee_duration,
        drain=False,
        seed=20060619,
    )


def knee(scale: Optional[Scale] = None) -> ExperimentReport:
    """Where does each cancellation policy's throughput knee sit?

    Sweeps offered load ρ over a fixed (non-drained) window per
    cancellation policy and classifies each load as sustained or
    saturated by completion fraction — computed *entirely* from the
    streaming estimators and scalar counters (the per-request arrays
    are stripped before results leave the workers; see
    :mod:`repro.analysis.knee`).
    """
    from .knee import KNEE_COMPLETION_THRESHOLD, run_knee_study

    scale = scale or current_scale()
    study = run_knee_study(
        knee_base_config(scale),
        loads=scale.knee_loads,
        n_replications=scale.n_replications,
        n_workers=n_workers(),
    )
    columns = [f"ρ={load:g}" for load in study.loads]
    completion_table = Table(
        "Knee — completion fraction (completed / submitted, fixed window)",
        columns=columns,
    )
    stretch_table = Table(
        "Knee — online stretch quantiles (merged across replications)",
        columns=columns,
    )
    plot = AsciiPlot(
        "Knee — completion fraction vs offered load",
        xlabel="offered load ρ", ylabel="completion fraction",
        reference_y=KNEE_COMPLETION_THRESHOLD,
    )
    for policy in study.policies:
        row = [study.cell(policy, load) for load in study.loads]
        completion_table.add_row(
            policy, [c.completion_fraction for c in row]
        )
        stretch_table.add_row(
            f"{policy} p50", [c.stretch_p50 for c in row]
        )
        stretch_table.add_row(
            f"{policy} p99", [c.stretch_p99 for c in row]
        )
        plot.add_series(
            policy,
            [(c.load, c.completion_fraction) for c in row
             if c.completion_fraction == c.completion_fraction],
        )
    knees = {p: study.knee(p) for p in study.policies}
    return ExperimentReport(
        exp_id="knee",
        title="throughput knee per cancellation policy (online metrics only)",
        paper_expectation=(
            "beyond the paper: completions keep up with submissions below "
            "saturation and collapse past it; cancel-on-complete burns "
            "duplicate work, so its knee sits at or below "
            "cancel-on-start's"
        ),
        tables=[completion_table, stretch_table],
        plots=[plot.render()],
        data=study.to_payload(),
        notes=[
            "classified from online metric summaries and scalar "
            "counters alone — per-request arrays never leave the "
            "workers (completion fraction ≥ "
            f"{KNEE_COMPLETION_THRESHOLD:g} counts as sustained); "
            "knees found: "
            + ", ".join(f"{p} at ρ={v:g}" if v is not None else f"{p}: none"
                        for p, v in knees.items()),
        ],
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

ExperimentFn = Callable[[Optional[Scale]], ExperimentReport]

REGISTRY: dict[str, tuple[str, ExperimentFn]] = {
    "fig1": ("Figure 1: relative average stretch vs number of sites", fig1),
    "fig2": ("Figure 2: relative CV of stretches vs number of sites", fig2),
    "tab1": ("Table 1: algorithms x estimate regimes", tab1),
    "tab2": ("Table 2: biased redundant-request distribution", tab2),
    "fig3": ("Figure 3: inter-arrival time sweep", fig3),
    "tab3": ("Table 3: heterogeneous platforms", tab3),
    "fig4": ("Figure 4: partial adoption", fig4),
    "fig5": ("Figure 5: scheduler throughput under churn", fig5),
    "sec4": ("Section 4: capacity and load analysis", sec4),
    "tab4": ("Table 4: predictability", tab4),
    "sec312": ("Section 3.1.2: requested-time inflation", sec312),
    "faults": ("Fault injection: lost cancellations x cluster outages", faults),
    "phase": ("Phase diagram: when is redundancy harmful?", phase),
    "knee": ("Throughput knee per cancellation policy (online metrics)", knee),
}


def run_experiment(exp_id: str, scale: Optional[Scale] = None) -> ExperimentReport:
    """Run one registered experiment by id."""
    try:
        _, fn = REGISTRY[exp_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {exp_id!r}; choose from {sorted(REGISTRY)}"
        ) from None
    return fn(scale)
