"""Experiment configuration.

One :class:`ExperimentConfig` captures everything that defines a run in
the paper's Section 3: the platform, the scheduling algorithm, the
workload parameters, the estimate regime, and the redundancy scheme in
force.  Configurations are immutable; use :meth:`ExperimentConfig.with_`
(dataclass ``replace``) to derive variants, which is how the sweeps in
:mod:`repro.analysis.registry` are expressed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple, Union

from ..core.results import plain
from ..core.schemes import PLACEMENTS, get_scheme
from ..faults import FaultConfig
from ..policies.cancellation import get_cancellation_policy
from ..validation import check_int, check_number
from ..workload.estimates import make_estimate_model
from ..workload.regimes import make_service_regime

#: paper defaults (Section 3.3)
DEFAULT_NODES = 128
DEFAULT_DURATION = 6 * 3600.0


#: real-valued fields checked at construction: (name, must be > 0 rather
#: than >= 0, may be None)
_NUMBER_FIELDS = (
    ("duration", True, False),
    ("adoption_probability", False, False),
    ("remote_inflation", False, False),
    ("cancellation_latency", False, False),
    ("mean_interarrival", True, True),
    ("offered_load", True, True),
    ("cbf_compress_interval", False, True),
    ("target_bias_ratio", True, True),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated experiment.

    Attributes
    ----------
    n_clusters:
        Number of sites N (the paper sweeps 2, 3, 4, 5, 10, 20).
    nodes_per_cluster:
        Either an int (homogeneous platform) or an explicit sequence of
        per-cluster node counts.  Ignored when ``heterogeneous`` is set.
    heterogeneous:
        Sample node counts per replication from
        {16, 32, 64, 128, 256} and per-cluster mean inter-arrival times
        from ``interarrival_range`` (Table 3's setup).
    algorithm:
        ``"easy"`` (default), ``"cbf"`` or ``"fcfs"``.
    scheme:
        Redundancy scheme name: NONE, R2, R3, R4, HALF or ALL, or a
        generalised redundancy-d form (``R<k>`` for any copy count,
        ``F<fraction>`` for any platform fraction).
    cancellation_policy:
        When sibling cancellations are dispatched:
        ``"cancel-on-start"`` (default, the paper's protocol) or
        ``"cancel-on-complete"`` (losers run beside the winner until it
        finishes; see :mod:`repro.policies.cancellation`).
    placement:
        Remote-target placement: ``"uniform"`` random draws (default,
        the paper's users) or ``"balanced"`` nonadaptive least-loaded
        placement (no randomness; incompatible with
        ``target_bias_ratio``).
    service_regime:
        Runtime marginal: ``"lublin"`` (default, the paper's model),
        ``"bernoulli"`` (scaled-Bernoulli rare giants) or ``"bimodal"``
        (short/long two-point law); see :mod:`repro.workload.regimes`.
    adoption_probability:
        Fraction p of jobs whose users employ redundant requests
        (Figure 4 sweeps p; Sections 3.3's main experiments use 1.0).
    duration:
        Length of the submission window in seconds.
    drain:
        If False (default), the simulation stops at ``duration`` and
        metrics cover the jobs that completed by then — the only viable
        reading of the paper's protocol: its peak-hour workload
        overloads every cluster so heavily (queues grow ≈700
        requests/hour, Section 4.1) that draining would take simulated
        weeks and produce stretches orders of magnitude above the 4-24
        range of Figure 4.  If True, the simulation runs until every
        job completes.
    mean_interarrival:
        Mean job inter-arrival time per cluster in seconds; ``None``
        uses the peak-hour default (≈5.01 s).  Figure 3 sweeps this.
    offered_load:
        If set, runtimes are rescaled (authentic Lublin shapes, smaller
        scale) so a reference cluster sees this offered load ρ at the
        configured inter-arrival time.  ``None`` keeps authentic
        runtimes, which at the paper's 5 s inter-arrival oversubscribes
        clusters ~100× — the regime of the Section 4 queue-growth
        anchor, but one where load balancing (and hence every
        redundancy benefit the paper reports) is impossible.  The
        registry experiments use ρ = 2.0 (see DESIGN.md, "load
        calibration").  Figure 3's inter-arrival sweep then maps onto a
        proportional ρ sweep, preserving its meaning as a load sweep.
    interarrival_range:
        For heterogeneous platforms, per-cluster means are drawn
        uniformly from this range (the paper uses [2 s, 20 s]).
    estimates:
        ``"exact"`` or ``"phi"`` (Table 1's Real Estimates).
    remote_inflation:
        Extra requested time on *remote* copies, as a fraction (the
        Section 3.1.2 late-data-binding robustness check: 0.10, 0.50).
    target_bias_ratio:
        ``None`` for uniform remote-cluster choice; ``0.5`` reproduces
        Table 2's geometric account bias.
    cancellation_latency:
        Seconds between a copy starting and sibling cancellation
        (default 0 = the paper's assumption; ablation knob).
    faults:
        Optional :class:`~repro.faults.FaultConfig` describing the
        failure regime (lost/delayed cancellations, scheduler outages).
        ``None``, or a config whose knobs are all zero, is a strict
        no-op: the fault layer is never constructed and results are
        bit-identical to the fault-free simulator.
    cbf_compress_interval:
        Forwarded to :class:`~repro.sched.cbf.CBFScheduler` when
        ``algorithm="cbf"``.
    seed:
        Master seed; replication r of a config is fully determined by
        (seed, r) and shared across schemes (common random numbers).
    """

    n_clusters: int = 10
    nodes_per_cluster: Union[int, Tuple[int, ...]] = DEFAULT_NODES
    heterogeneous: bool = False
    algorithm: str = "easy"
    scheme: str = "NONE"
    adoption_probability: float = 1.0
    duration: float = DEFAULT_DURATION
    drain: bool = False
    mean_interarrival: Optional[float] = None
    offered_load: Optional[float] = None
    interarrival_range: Tuple[float, float] = (2.0, 20.0)
    estimates: str = "exact"
    remote_inflation: float = 0.0
    target_bias_ratio: Optional[float] = None
    cancellation_latency: float = 0.0
    faults: Optional[FaultConfig] = None
    cbf_compress_interval: Optional[float] = None
    cancellation_policy: str = "cancel-on-start"
    placement: str = "uniform"
    service_regime: str = "lublin"
    seed: int = 0

    def __post_init__(self) -> None:
        # A bad value must fail here, not mid-run or by silently
        # changing what the run means.
        check_int("seed", self.seed, 0)
        check_int("n_clusters", self.n_clusters, 1)
        for name, positive, optional in _NUMBER_FIELDS:
            value = getattr(self, name)
            if value is not None or not optional:
                check_number(name, value, positive=positive)
        if self.adoption_probability > 1.0:
            raise ValueError(
                f"adoption_probability must be in [0,1], got "
                f"{self.adoption_probability}"
            )
        # geometric_bias_weights' bound, checked before any run starts
        if self.target_bias_ratio is not None and self.target_bias_ratio > 1.0:
            raise ValueError(
                f"target_bias_ratio must be in (0, 1], got "
                f"{self.target_bias_ratio}"
            )
        lo, hi = self.interarrival_range
        if not 0 < lo <= hi:
            raise ValueError(f"bad interarrival_range {self.interarrival_range}")
        # Fail fast on unknown names.
        get_scheme(self.scheme)
        make_estimate_model(self.estimates)
        get_cancellation_policy(self.cancellation_policy)
        make_service_regime(self.service_regime)
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; choose from {PLACEMENTS}"
            )
        if self.placement == "balanced" and self.target_bias_ratio is not None:
            raise ValueError(
                "balanced placement ignores account weights; "
                "unset target_bias_ratio or use uniform placement"
            )
        if self.algorithm.lower() not in ("easy", "cbf", "fcfs"):
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if not isinstance(self.nodes_per_cluster, (list, tuple)):
            check_int("nodes_per_cluster", self.nodes_per_cluster, 1)
        else:
            counts = tuple(self.nodes_per_cluster)
            for count in counts:
                check_int("nodes_per_cluster", count, 1)
            if len(counts) != self.n_clusters:
                raise ValueError(
                    f"{len(counts)} node counts for {self.n_clusters} clusters"
                )
            object.__setattr__(self, "nodes_per_cluster", counts)

    def with_(self, **changes: object) -> "ExperimentConfig":
        """Derive a modified configuration (dataclass replace)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready field mapping; :func:`config_from_dict` inverts it.

        Tuples survive :func:`~repro.core.results.plain` but not a JSON
        round-trip; the inverse converts list-valued fields back.
        """
        return plain(self)

    @property
    def scheduler_kwargs(self) -> dict:
        if self.algorithm.lower() == "cbf":
            return {"compress_interval": self.cbf_compress_interval}
        return {}

    def describe(self) -> str:
        """One-line human-readable summary."""
        nodes = (
            "hetero"
            if self.heterogeneous
            else self.nodes_per_cluster
        )
        iat = self.mean_interarrival if self.mean_interarrival else "peak"
        extras = ""
        if self.cancellation_policy != "cancel-on-start":
            extras += f", {self.cancellation_policy}"
        if self.placement != "uniform":
            extras += f", {self.placement} placement"
        if self.service_regime != "lublin":
            extras += f", {self.service_regime} runtimes"
        faults = ""
        if self.faults is not None and self.faults.enabled:
            faults = (
                f", faults(p_loss={self.faults.p_cancel_loss:g}, "
                f"outage={self.faults.outage_rate:g}/h)"
            )
        return (
            f"{self.scheme} on N={self.n_clusters} ({nodes} nodes, "
            f"{self.algorithm.upper()}, iat={iat}, est={self.estimates}, "
            f"p={self.adoption_probability:.0%}, {self.duration / 3600:.2g}h"
            f"{extras}{faults})"
        )


def config_from_dict(payload: Mapping[str, Any]) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from :meth:`~ExperimentConfig.to_dict` output.

    Accepts the JSON round-tripped form: list-valued
    ``nodes_per_cluster``/``interarrival_range`` are restored to tuples
    and a ``faults`` mapping to a :class:`~repro.faults.FaultConfig`.
    Unknown keys raise ``ValueError`` (a config from a newer build must
    not be silently truncated into a different experiment).
    """
    data: dict[str, Any] = dict(payload)
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown ExperimentConfig field(s): {unknown}")
    npc = data.get("nodes_per_cluster")
    if isinstance(npc, list):
        data["nodes_per_cluster"] = tuple(npc)
    iar = data.get("interarrival_range")
    if isinstance(iar, list):
        data["interarrival_range"] = tuple(iar)
    faults = data.get("faults")
    if isinstance(faults, dict):
        data["faults"] = FaultConfig(**faults)
    return ExperimentConfig(**data)
