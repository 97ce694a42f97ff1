"""Interprocedural propagation over the call graph.

Two propagation shapes cover the interprocedural rule families:

* :func:`transitive_acquires` — the classic monotone worklist fixpoint:
  every function's set of locks it may (transitively) acquire.  RACE002
  combines these with the per-region facts to build the lock-order
  graph and detect cycles.
* :func:`effect_chains` — per-root breadth-first search used by
  PURE001.  Declared-pure roots are few, so a BFS per root is cheaper
  (and yields shortest witness chains for messages) than propagating
  full effect sets everywhere; cycles are handled by the visited set.

Both are deterministic: functions are processed in sorted-qualid order
and out-edges in document order, so two runs over the same tree emit
byte-identical reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .callgraph import CallGraph
from .model import EffectRecord, FunctionFacts


def transitive_acquires(graph: CallGraph) -> dict[str, set[str]]:
    """Locks each function may acquire, directly or through any callee."""
    acquires: dict[str, set[str]] = {}
    callers: dict[str, set[str]] = {}
    for qualid, fn in graph.functions.items():
        acquires[qualid] = {
            ev.lock for ev in fn.acquires if ev.lock in graph.known_locks
        }
        for target, _ in graph.callees(qualid):
            callers.setdefault(target, set()).add(qualid)
    work = deque(sorted(graph.functions))
    queued = set(work)
    while work:
        qualid = work.popleft()
        queued.discard(qualid)
        merged = set(acquires[qualid])
        for target, _ in graph.callees(qualid):
            merged |= acquires[target]
        if merged != acquires[qualid]:
            acquires[qualid] = merged
            for caller in sorted(callers.get(qualid, ())):
                if caller not in queued:
                    queued.add(caller)
                    work.append(caller)
    return acquires


@dataclass(frozen=True)
class LockEdge:
    """Lock-order edge: ``held`` was held while ``acquired`` was taken."""

    held: str
    acquired: str
    holder: str  # qualid of the function holding ``held``
    line: int    # site (in ``holder``) where the inner acquisition starts


def lock_order_edges(
    graph: CallGraph, acquires: dict[str, set[str]]
) -> list[LockEdge]:
    """Every ``held -> acquired`` pair, first witness per pair."""
    witnesses: dict[tuple[str, str], LockEdge] = {}

    def note(held: str, acquired: str, holder: str, line: int) -> None:
        key = (held, acquired)
        if acquired != held and key not in witnesses:
            witnesses[key] = LockEdge(held, acquired, holder, line)

    for qualid in sorted(graph.functions):
        fn = graph.functions[qualid]
        for event in fn.acquires:
            if event.lock not in graph.known_locks:
                continue
            for inner_lock, line in event.inner_locks:
                if inner_lock in graph.known_locks:
                    note(event.lock, inner_lock, qualid, line)
            for rec in event.inner_calls:
                target = graph.resolve(rec)
                if target is None:
                    continue
                for inner_lock in sorted(acquires.get(target, ())):
                    note(event.lock, inner_lock, qualid, rec.line)
    return [witnesses[key] for key in sorted(witnesses)]


def lock_cycles(edges: list[LockEdge]) -> list[list[LockEdge]]:
    """Inconsistent acquisition orders: one witness path per cycle.

    The lock-order graph is tiny (one node per lock attribute), so a
    simple deterministic DFS over sorted adjacency finds each minimal
    cycle; every cycle is reported once, rooted at its smallest lock id.
    """
    adjacency: dict[str, list[LockEdge]] = {}
    for edge in edges:
        adjacency.setdefault(edge.held, []).append(edge)

    cycles: list[list[LockEdge]] = []
    seen_cycles: set[frozenset[str]] = set()

    def walk(root: str, node: str, path: list[LockEdge]) -> None:
        for edge in adjacency.get(node, ()):
            if edge.acquired == root:
                members = frozenset(e.held for e in path + [edge])
                if members not in seen_cycles:
                    seen_cycles.add(members)
                    cycles.append(path + [edge])
            elif edge.acquired > root and all(
                edge.acquired != e.held for e in path
            ):
                walk(root, edge.acquired, path + [edge])

    for root in sorted(adjacency):
        for edge in adjacency[root]:
            if edge.acquired == root:  # self-loop: re-acquiring own lock
                continue
            walk(root, edge.acquired, [edge])
    return cycles


@dataclass
class EffectChain:
    """Witness: how a root function reaches one direct effect."""

    kind: str
    effect: EffectRecord
    owner: str       # qualid of the function performing the effect
    owner_path: str  # display path of the owner's file
    steps: list[tuple[str, int]]  # (callee qualid, call-site line) hops

    def describe(self, root_name: str) -> str:
        hops = " -> ".join(
            [root_name] + [q.rsplit(".", 1)[-1] + "()" for q, _ in self.steps]
        )
        via = f" via {hops}" if self.steps else ""
        return (
            f"{self.effect.detail} at {self.owner_path}:{self.effect.line}"
            f"{via}"
        )


def effect_chains(
    graph: CallGraph,
    root: str,
    kinds: tuple[str, ...],
    suppress: Optional[
        Callable[[FunctionFacts, str, EffectRecord], bool]
    ] = None,
) -> dict[str, EffectChain]:
    """Shortest witness chain per effect kind reachable from ``root``.

    ``suppress(fn, path, effect)`` may veto individual effect records
    (waiver pragmas at the effect's origin line); a vetoed record is
    invisible to this rule but still marks its pragma as used.
    """
    found: dict[str, EffectChain] = {}
    remaining = set(kinds)
    parents: dict[str, tuple[str, int]] = {}  # qualid -> (caller, line)
    visited = {root}
    queue = deque([root])
    while queue and remaining:
        qualid = queue.popleft()
        fn = graph.functions.get(qualid)
        if fn is None:
            continue
        path = graph.function_path.get(qualid, "")
        for effect in fn.effects:
            if effect.kind not in remaining:
                continue
            if suppress is not None and suppress(fn, path, effect):
                continue
            steps: list[tuple[str, int]] = []
            cursor = qualid
            while cursor != root:
                caller, line = parents[cursor]
                steps.append((cursor, line))
                cursor = caller
            steps.reverse()
            found[effect.kind] = EffectChain(
                kind=effect.kind, effect=effect, owner=qualid,
                owner_path=path, steps=steps,
            )
            remaining.discard(effect.kind)
        for target, rec in graph.callees(qualid):
            if target not in visited:
                visited.add(target)
                parents[target] = (qualid, rec.line)
                queue.append(target)
    return found
