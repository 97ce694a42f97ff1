"""Fact model for the interprocedural analysis.

Every dataclass here is a plain, JSON-serialisable record; the
``to_dict``/``from_dict`` pairs round-trip it, and
:data:`FACTS_SCHEMA_VERSION` names the layout they agree on.

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
from typing import Any, Optional

FACTS_SCHEMA_VERSION = 2

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

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "line": self.line, "detail": self.detail}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "EffectRecord":
        return cls(kind=d["kind"], line=d["line"], detail=d["detail"])


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

    def to_dict(self) -> dict[str, Any]:
        return {
            "line": self.line,
            "kind": self.kind,
            "target": self.target,
            "display": self.display,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "CallRecord":
        return cls(
            line=d["line"], kind=d["kind"], target=d["target"],
            display=d["display"],
        )


@dataclass
class LockEvent:
    """One ``with <lock>:`` region: what ran while the lock was held."""

    lock: str  # candidate lock id; validated against known locks later
    line: int
    inner_calls: list[CallRecord] = field(default_factory=list)
    inner_locks: list[tuple[str, int]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "lock": self.lock,
            "line": self.line,
            "inner_calls": [c.to_dict() for c in self.inner_calls],
            "inner_locks": [list(t) for t in self.inner_locks],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "LockEvent":
        return cls(
            lock=d["lock"],
            line=d["line"],
            inner_calls=[CallRecord.from_dict(c) for c in d["inner_calls"]],
            inner_locks=[(t[0], t[1]) for t in d["inner_locks"]],
        )


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

    def to_dict(self) -> dict[str, Any]:
        return {
            "qualid": self.qualid,
            "name": self.name,
            "line": self.line,
            "declared_pure": self.declared_pure,
            "effects": [e.to_dict() for e in self.effects],
            "calls": [c.to_dict() for c in self.calls],
            "acquires": [a.to_dict() for a in self.acquires],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FunctionFacts":
        return cls(
            qualid=d["qualid"],
            name=d["name"],
            line=d["line"],
            declared_pure=d["declared_pure"],
            effects=[EffectRecord.from_dict(e) for e in d["effects"]],
            calls=[CallRecord.from_dict(c) for c in d["calls"]],
            acquires=[LockEvent.from_dict(a) for a in d["acquires"]],
        )


@dataclass(frozen=True)
class AccessSite:
    """A guarded-attribute access outside its lock (RACE001 evidence)."""

    attr: str
    line: int
    col: int
    method: str
    write: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "attr": self.attr, "line": self.line, "col": self.col,
            "method": self.method, "write": self.write,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "AccessSite":
        return cls(
            attr=d["attr"], line=d["line"], col=d["col"],
            method=d["method"], write=d["write"],
        )


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

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "qualid": self.qualid,
            "line": self.line,
            "bases": list(self.bases),
            "lock_attrs": list(self.lock_attrs),
            "attr_types": dict(self.attr_types),
            "guarded_attrs": list(self.guarded_attrs),
            "unguarded_sites": [s.to_dict() for s in self.unguarded_sites],
            "unlocked_helper_calls": [
                s.to_dict() for s in self.unlocked_helper_calls
            ],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ClassFacts":
        return cls(
            name=d["name"],
            qualid=d["qualid"],
            line=d["line"],
            bases=list(d["bases"]),
            lock_attrs=list(d["lock_attrs"]),
            attr_types=dict(d["attr_types"]),
            guarded_attrs=list(d["guarded_attrs"]),
            unguarded_sites=[
                AccessSite.from_dict(s) for s in d["unguarded_sites"]
            ],
            unlocked_helper_calls=[
                AccessSite.from_dict(s) for s in d["unlocked_helper_calls"]
            ],
        )


@dataclass(frozen=True)
class BoundarySite:
    """An unpicklable value crossing an executor boundary (XPB001)."""

    line: int
    col: int
    reason: str

    def to_dict(self) -> dict[str, Any]:
        return {"line": self.line, "col": self.col, "reason": self.reason}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "BoundarySite":
        return cls(line=d["line"], col=d["col"], reason=d["reason"])


@dataclass
class ModuleFacts:
    """Everything the project phase needs to know about one file."""

    module_id: str  # dotted id, e.g. "repro.core.orchestrator"
    display_path: str
    functions: list[FunctionFacts] = field(default_factory=list)
    classes: list[ClassFacts] = field(default_factory=list)
    boundary_sites: list[BoundarySite] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": FACTS_SCHEMA_VERSION,
            "module_id": self.module_id,
            "display_path": self.display_path,
            "functions": [f.to_dict() for f in self.functions],
            "classes": [c.to_dict() for c in self.classes],
            "boundary_sites": [b.to_dict() for b in self.boundary_sites],
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> Optional["ModuleFacts"]:
        if d.get("schema") != FACTS_SCHEMA_VERSION:
            return None
        return cls(
            module_id=d["module_id"],
            display_path=d["display_path"],
            functions=[FunctionFacts.from_dict(f) for f in d["functions"]],
            classes=[ClassFacts.from_dict(c) for c in d["classes"]],
            boundary_sites=[
                BoundarySite.from_dict(b) for b in d["boundary_sites"]
            ],
        )
