"""Fact model for the interprocedural analysis.

Every dataclass here is a plain record, built by
:mod:`repro.lint.effects.extract` and read by the project phase.

Identifiers
-----------
Functions are keyed by *qualified id*: ``repro.<module>.<name>`` for
module-level functions and ``repro.<module>.<Class>.<name>`` for
methods (``repro.core.orchestrator.Orchestrator.record``).  Locks are
keyed by owner class and attribute:
``repro.core.orchestrator.Orchestrator._lock``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: effect kinds an extracted :class:`EffectRecord` may carry.
#: ``timing`` (``time.perf_counter`` and friends) is tracked but *not*
#: banned by PURE001: host timing feeds only the ``wall_time_s`` /
#: ``phase_timings`` diagnostics every canonical payload strips.
EFFECT_KINDS = (
    "rng",          # unkeyed randomness / OS entropy
    "wall_clock",   # host wall-clock reads
    "timing",       # host timing clocks (pure-tolerated)
    "io",           # filesystem access
    "global_write", # module-global mutation at call time
    "blocking",     # sleeps, subprocesses, sync network
)

#: kinds whose transitive presence violates a ``@declared_pure`` contract
PURE_BANNED_KINDS = ("rng", "wall_clock", "io", "global_write", "blocking")


@dataclass(frozen=True)
class EffectRecord:
    """One direct effect observed in a function body."""

    kind: str
    line: int
    detail: str  # e.g. "numpy.random.default_rng" or "open"


@dataclass(frozen=True)
class CallRecord:
    """One call site, resolved as far as file-local knowledge allows.

    ``kind`` is ``"direct"`` when ``target`` is a dotted name (project
    function candidate or external qualname) and ``"method"`` when the
    receiver's class is known but the defining class may be a base:
    ``target`` is then ``"<class id>|<method name>"`` and the call
    graph walks the class hierarchy to find the definition.
    """

    line: int
    kind: str  # "direct" | "method"
    target: str
    display: str  # human-readable form for witness chains


@dataclass
class LockEvent:
    """One ``with <lock>:`` region: what ran while the lock was held."""

    lock: str  # candidate lock id; validated against known locks later
    line: int
    inner_calls: list[CallRecord] = field(default_factory=list)
    inner_locks: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class FunctionFacts:
    """Per-function summary: direct effects, calls, lock acquisitions."""

    qualid: str
    name: str
    line: int
    declared_pure: bool = False
    effects: list[EffectRecord] = field(default_factory=list)
    calls: list[CallRecord] = field(default_factory=list)
    acquires: list[LockEvent] = field(default_factory=list)


@dataclass(frozen=True)
class AccessSite:
    """A guarded-attribute access outside its lock (RACE001 evidence)."""

    attr: str
    line: int
    col: int
    method: str
    write: bool


@dataclass
class ClassFacts:
    """Per-class lock-discipline facts (fully file-local).

    ``guarded_attrs`` are instance attributes written inside a
    ``with self.<lock>:`` region by any method other than
    ``__init__``/``__post_init__`` — writing under the lock is the
    class's own declaration that the attribute is shared.
    ``unguarded_sites`` are accesses (read or write) of those
    attributes outside any lock region; ``unlocked_helper_calls`` are
    calls of ``self.<x>_locked()`` helpers made without the lock held
    (the ``*_locked`` suffix is the project convention for
    "caller must hold the lock").
    """

    name: str
    qualid: str
    line: int
    bases: list[str] = field(default_factory=list)
    lock_attrs: list[str] = field(default_factory=list)
    attr_types: dict[str, str] = field(default_factory=dict)
    guarded_attrs: list[str] = field(default_factory=list)
    unguarded_sites: list[AccessSite] = field(default_factory=list)
    unlocked_helper_calls: list[AccessSite] = field(default_factory=list)


@dataclass(frozen=True)
class BoundarySite:
    """An unpicklable value crossing an executor boundary (XPB001)."""

    line: int
    col: int
    reason: str


@dataclass
class ModuleFacts:
    """Everything the project phase needs to know about one file."""

    module_id: str  # dotted id, e.g. "repro.core.orchestrator"
    display_path: str
    functions: list[FunctionFacts] = field(default_factory=list)
    classes: list[ClassFacts] = field(default_factory=list)
    boundary_sites: list[BoundarySite] = field(default_factory=list)
