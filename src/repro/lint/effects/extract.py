"""Per-file fact extraction: FileContext → :class:`ModuleFacts`.

One AST walk per file produces everything the project phase needs:

* per-function **direct effects** (RNG draws outside keyed streams,
  wall-clock and timing reads, filesystem I/O, module-global writes,
  blocking calls), classified with the same qualified-name tables the
  per-file determinism rules use;
* per-function **call records**, resolved as far as file-local
  knowledge reaches: module-level functions, absolute *and relative*
  imports, ``self.method()``, and methods on locals whose class is
  known from a constructor call or an annotation;
* per-function **lock events** (``with <lock>:`` regions) with the
  calls and nested acquisitions made while holding, for lock-order
  cycle detection;
* per-class **lock-discipline facts**: which attributes are written
  under the class's own lock (and are therefore *guarded*), and every
  access of a guarded attribute outside a lock region;
* **executor-boundary sites** where a statically unpicklable value
  (lambda, nested function, lock, open handle, tracer, ``self`` of a
  lock-owning class) is captured into a pool submission or pickle.

Nested function definitions and lambdas are *inlined* into their
enclosing function's summary: callbacks built inside ``run_single``
run during the simulation they configure, so attributing their effects
to the enclosing call is both simple and accurate.  Calls that cannot
be resolved (dynamic dispatch, stored callables) are recorded only if
they classify as a direct effect — the analysis is optimistic by
design and the per-file rules remain the backstop.
"""

from __future__ import annotations

import ast
from typing import Optional

from ..context import FileContext
from ..rules.determinism import (
    BLESSED_MODULES,
    ENTROPY,
    NUMPY_BANNED_TAILS,
    TIMING_CLOCKS,
    WALL_CLOCK,
)
from ..rules.parallel import MUTABLE_CONSTRUCTORS, MUTATING_METHODS
from .model import (
    AccessSite,
    BoundarySite,
    CallRecord,
    ClassFacts,
    EffectRecord,
    FunctionFacts,
    LockEvent,
    ModuleFacts,
)

# -- classification tables ------------------------------------------------

LOCK_CONSTRUCTORS = {"threading.Lock", "threading.RLock", "threading.Condition"}

#: attribute tails that read or write the filesystem regardless of the
#: receiver's type (pathlib-style file APIs); tails shared with common
#: str/dict methods (``replace``, ``rename``, ``update``) are
#: deliberately absent — ambiguity errs toward silence.
PATHLIKE_IO_TAILS = {
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
    "mkdir",
    "rmdir",
    "touch",
    "unlink",
    "rmtree",
    "hardlink_to",
    "symlink_to",
}

OS_IO_TAILS = {
    "remove",
    "unlink",
    "rename",
    "replace",
    "mkdir",
    "makedirs",
    "rmdir",
    "removedirs",
    "listdir",
    "scandir",
    "open",
    "fdopen",
    "chmod",
    "chown",
    "utime",
    "truncate",
    "link",
    "symlink",
}

BLOCKING_EXACT = {"time.sleep", "os.system", "os.popen"}
BLOCKING_PREFIXES = (
    "subprocess.",
    "socket.",
    "urllib.",
    "http.client.",
    "requests.",
)

INIT_METHODS = {"__init__", "__post_init__", "__new__"}

#: decorator names marking the purity contract (repro.contracts)
PURE_DECORATORS = {"declared_pure", "repro.contracts.declared_pure"}


def module_id_for(ctx: FileContext) -> str:
    """Dotted project id of a file (``repro.core.orchestrator``)."""
    return f"repro.{ctx.module}"


def _resolve_aliases(ctx: FileContext) -> dict[str, str]:
    """Import aliases including *relative* imports resolved to dotted ids.

    :class:`FileContext` keeps relative imports out of its alias table
    (per-file rules treat project-internal names as opaque); the
    interprocedural pass is exactly the consumer that needs them:
    ``from ..sim.engine import Simulator`` inside ``repro.core.x``
    resolves to ``repro.sim.engine.Simulator``.
    """
    aliases = dict(ctx.aliases)
    parts = ctx.module_parts  # e.g. ("core", "experiment")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ImportFrom) or node.level == 0:
            continue
        if node.level > len(parts):
            continue  # escapes the repro package; unresolvable
        base = ("repro",) + parts[: len(parts) - node.level]
        if node.module:
            base = base + tuple(node.module.split("."))
        prefix = ".".join(base)
        for alias in node.names:
            local = alias.asname or alias.name
            aliases[local] = f"{prefix}.{alias.name}"
    return aliases


def _qualname(node: ast.AST, aliases: dict[str, str]) -> Optional[str]:
    """Dotted name of an attribute/name chain under the merged aliases."""
    tail: list[str] = []
    while isinstance(node, ast.Attribute):
        tail.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None:
        return None
    tail.append(root)
    return ".".join(reversed(tail))


class _ClassInfo:
    """File-local knowledge about one class, built before method walks."""

    def __init__(self, name: str, qualid: str, line: int) -> None:
        self.name = name
        self.qualid = qualid
        self.line = line
        self.bases: list[str] = []
        self.lock_attrs: list[str] = []
        self.attr_types: dict[str, str] = {}
        # (attr, line, col, method, write, locked) accesses of self.*
        self.accesses: list[tuple[str, int, int, str, bool, bool]] = []
        self.unlocked_helper_calls: list[AccessSite] = []


class _ModuleScan:
    """Module-level names the function walker consults."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.module_id = module_id_for(ctx)
        self.aliases = _resolve_aliases(ctx)
        self.blessed_rng = ctx.module in BLESSED_MODULES
        self.module_funcs: set[str] = set()
        self.local_classes: set[str] = set()
        self.module_names: set[str] = set()
        self.mutable_names: set[str] = set()
        self.module_consts: set[str] = set()
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_funcs.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                self.local_classes.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                value = stmt.value
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    self.module_names.add(target.id)
                    if value is not None and self._is_mutable(value):
                        self.mutable_names.add(target.id)
                    if isinstance(value, ast.Constant):
                        self.module_consts.add(target.id)

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in MUTABLE_CONSTRUCTORS
            ):
                return True
            q = _qualname(node.func, self.aliases)
            return q is not None and q in MUTABLE_CONSTRUCTORS
        return False

    def resolve_class(self, name: str) -> Optional[str]:
        """Dotted id of a class name visible in this module, if any."""
        if name in self.local_classes:
            return f"{self.module_id}.{name}"
        return self.aliases.get(name)

    def annotation_type(self, node: Optional[ast.expr]) -> Optional[str]:
        """Dotted class id an annotation denotes, unwrapping Optional."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            head = node.value
            tail = (
                head.attr if isinstance(head, ast.Attribute)
                else head.id if isinstance(head, ast.Name) else ""
            )
            if tail == "Optional":
                return self.annotation_type(node.slice)
            return None  # containers: element types are not tracked
        if isinstance(node, ast.Name):
            return self.resolve_class(node.id)
        if isinstance(node, ast.Attribute):
            return _qualname(node, self.aliases)
        return None


def _constant_expr(node: ast.expr, consts: set[str]) -> bool:
    """True when an expression is statically constant (literal, a
    module-level literal constant, or arithmetic over those)."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Name):
        return node.id in consts
    if isinstance(node, ast.UnaryOp):
        return _constant_expr(node.operand, consts)
    if isinstance(node, ast.BinOp):
        return _constant_expr(node.left, consts) and _constant_expr(
            node.right, consts
        )
    return False


class _FunctionWalker:
    """Single-pass walk of one function body, lock-region aware."""

    def __init__(
        self,
        scan: _ModuleScan,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualid: str,
        owner: Optional[_ClassInfo],
        boundary_sites: list[BoundarySite],
    ) -> None:
        self.scan = scan
        self.owner = owner
        self.method_name = node.name
        self.boundary_sites = boundary_sites
        self.facts = FunctionFacts(
            qualid=qualid,
            name=node.name,
            line=node.lineno,
            declared_pure=_is_declared_pure(node, scan.aliases),
        )
        self.local_types: dict[str, str] = {}
        self.local_kinds: dict[str, str] = {}  # XPB001 hazard bindings
        self.nested_defs: set[str] = set()
        self.global_decls: set[str] = set()
        # stack of (event, is_own_class_lock)
        self.lock_stack: list[tuple[LockEvent, bool]] = []
        self._effects: set[EffectRecord] = set()

        self._collect_params(node.args)
        for deco in node.decorator_list:
            self._visit(deco)
        for stmt in node.body:
            self._visit(stmt)
        self.facts.effects = sorted(
            self._effects, key=lambda e: (e.line, e.kind, e.detail)
        )

    # -- scaffolding -----------------------------------------------------

    def _collect_params(self, args: ast.arguments) -> None:
        for arg in [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *( [args.vararg] if args.vararg else [] ),
            *( [args.kwarg] if args.kwarg else [] ),
        ]:
            t = self.scan.annotation_type(arg.annotation)
            if t is not None:
                self.local_types[arg.arg] = t

    def _effect(self, kind: str, line: int, detail: str) -> None:
        self._effects.add(EffectRecord(kind=kind, line=line, detail=detail))

    def _in_own_lock(self) -> bool:
        return (
            any(own for _, own in self.lock_stack)
            or self.method_name.endswith("_locked")
        )

    # -- dispatch --------------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.nested_defs.add(node.name)
            self._collect_params(node.args)
            for deco in node.decorator_list:
                self._visit(deco)
            for stmt in node.body:
                self._visit(stmt)
        elif isinstance(node, ast.Lambda):
            self._visit(node.body)
        elif isinstance(node, ast.ClassDef):
            pass  # nested class bodies are out of scope
        elif isinstance(node, ast.Global):
            self.global_decls.update(node.names)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            self._visit_with(node)
        elif isinstance(node, ast.Assign):
            self._visit_assign(node.targets, node.value)
        elif isinstance(node, ast.AnnAssign):
            t = self.scan.annotation_type(node.annotation)
            if t is not None and isinstance(node.target, ast.Name):
                self.local_types[node.target.id] = t
            self._store_target(node.target)
            if node.value is not None:
                self._visit(node.value)
        elif isinstance(node, ast.AugAssign):
            self._store_target(node.target)
            self._visit(node.value)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._store_target(target, delete=True)
        elif isinstance(node, ast.Call):
            self._visit_call(node)
        elif isinstance(node, ast.Attribute):
            self._attr_access(node, write=isinstance(
                node.ctx, (ast.Store, ast.Del)
            ))
            self._visit(node.value)
        else:
            for child in ast.iter_child_nodes(node):
                self._visit(child)

    # -- lock regions ----------------------------------------------------

    def _lock_id(self, expr: ast.expr) -> Optional[tuple[str, bool]]:
        """(lock id, is-own-class-lock) when ``expr`` names a lock."""
        if not isinstance(expr, ast.Attribute):
            return None
        attr, base = expr.attr, expr.value
        if isinstance(base, ast.Name) and base.id == "self" and self.owner:
            if attr in self.owner.lock_attrs:
                return f"{self.owner.qualid}.{attr}", True
            return None
        if isinstance(base, ast.Name):
            t = self.local_types.get(base.id)
            if t is not None:
                return f"{t}.{attr}", False
            return None
        if (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and self.owner
        ):
            t = self.owner.attr_types.get(base.attr)
            if t is not None:
                return f"{t}.{attr}", False
        return None

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        pushed = 0
        for item in node.items:
            lock = self._lock_id(item.context_expr)
            if lock is not None:
                lid, own = lock
                event = LockEvent(lock=lid, line=item.context_expr.lineno)
                for held, _ in self.lock_stack:
                    held.inner_locks.append((lid, event.line))
                self.facts.acquires.append(event)
                self.lock_stack.append((event, own))
                pushed += 1
            else:
                self._visit(item.context_expr)
            if item.optional_vars is not None:
                self._store_target(item.optional_vars)
        for stmt in node.body:
            self._visit(stmt)
        if pushed:
            del self.lock_stack[-pushed:]

    # -- assignments and attribute accesses ------------------------------

    def _visit_assign(
        self, targets: list[ast.expr], value: ast.expr
    ) -> None:
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            name = targets[0].id
            if isinstance(value, ast.Call):
                ctor = self._constructed_class(value)
                if ctor is not None:
                    self.local_types[name] = ctor
                hazard = self._hazard_kind(value)
                if hazard is not None:
                    self.local_kinds[name] = hazard
        for target in targets:
            self._store_target(target)
        self._visit(value)

    def _constructed_class(self, call: ast.Call) -> Optional[str]:
        if isinstance(call.func, ast.Name):
            return self.scan.resolve_class(call.func.id)
        return _qualname(call.func, self.scan.aliases)

    def _hazard_kind(self, call: ast.Call) -> Optional[str]:
        """XPB001: does this constructor yield an unpicklable value?"""
        if isinstance(call.func, ast.Name) and call.func.id == "open":
            return "an open file handle"
        q = _qualname(call.func, self.scan.aliases)
        if q is None:
            return None
        if q in LOCK_CONSTRUCTORS or q == "threading.Event":
            return "a threading synchronisation primitive"
        if q in ("socket.socket", "socket.create_connection"):
            return "a socket"
        if q.rsplit(".", 1)[-1] == "TraceRecorder":
            return "a TraceRecorder (holds an open stream)"
        return None

    def _store_target(self, target: ast.expr, delete: bool = False) -> None:
        if isinstance(target, ast.Name):
            if (
                target.id in self.global_decls
                and target.id in self.scan.module_names
            ):
                self._effect(
                    "global_write", target.lineno,
                    f"rebinds module global {target.id!r}",
                )
        elif isinstance(target, ast.Attribute):
            self._attr_access(target, write=True)
            self._visit(target.value)
        elif isinstance(target, ast.Subscript):
            root = target.value
            while isinstance(root, (ast.Subscript, ast.Attribute)):
                if (
                    isinstance(root, ast.Attribute)
                    and isinstance(root.value, ast.Name)
                    and root.value.id == "self"
                ):
                    self._attr_access(root, write=True)
                    break
                root = (
                    root.value
                    if isinstance(root, (ast.Subscript, ast.Attribute))
                    else root
                )
            if (
                isinstance(target.value, ast.Name)
                and target.value.id in self.scan.mutable_names
            ):
                self._effect(
                    "global_write", target.lineno,
                    f"{'deletes from' if delete else 'writes into'} "
                    f"module-level {target.value.id!r}",
                )
            self._visit(target.value)
            self._visit(target.slice)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store_target(elt, delete=delete)
        elif isinstance(target, ast.Starred):
            self._store_target(target.value, delete=delete)

    def _attr_access(self, node: ast.Attribute, write: bool) -> None:
        if (
            self.owner is not None
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            self.owner.accesses.append((
                node.attr, node.lineno, node.col_offset,
                self.method_name, write, self._in_own_lock(),
            ))

    # -- calls -----------------------------------------------------------

    def _visit_call(self, node: ast.Call) -> None:
        self._classify_effect(node)
        self._check_boundary(node)
        record = self._call_record(node)
        if record is not None:
            self.facts.calls.append(record)
            for held, _ in self.lock_stack:
                held.inner_calls.append(record)
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in MUTATING_METHODS:
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id in self.scan.mutable_names
                ):
                    self._effect(
                        "global_write", node.lineno,
                        f"mutates module-level {func.value.id!r} "
                        f"via .{func.attr}()",
                    )
                elif (
                    isinstance(func.value, ast.Attribute)
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id == "self"
                ):
                    self._attr_access(func.value, write=True)
            if (
                func.attr.endswith("_locked")
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and self.owner is not None
                and not self._in_own_lock()
                and self.method_name not in INIT_METHODS
            ):
                self.owner.unlocked_helper_calls.append(AccessSite(
                    attr=func.attr, line=node.lineno, col=node.col_offset,
                    method=self.method_name, write=False,
                ))
            self._visit(func.value)
        elif not isinstance(func, ast.Name):
            self._visit(func)  # subscripted/computed callables
        for arg in node.args:
            self._visit(arg)
        for kw in node.keywords:
            self._visit(kw.value)

    def _call_record(self, node: ast.Call) -> Optional[CallRecord]:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.nested_defs:
                return None  # inlined into this summary already
            if name in self.scan.module_funcs:
                return CallRecord(
                    line=node.lineno, kind="direct",
                    target=f"{self.scan.module_id}.{name}",
                    display=f"{name}()",
                )
            target = self.scan.aliases.get(name)
            if target is not None:
                return CallRecord(
                    line=node.lineno, kind="direct", target=target,
                    display=f"{name}()",
                )
            ctor = self.scan.resolve_class(name)
            if ctor is not None:
                return CallRecord(
                    line=node.lineno, kind="method",
                    target=f"{ctor}|__init__", display=f"{name}()",
                )
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self" and self.owner:
                return CallRecord(
                    line=node.lineno, kind="method",
                    target=f"{self.owner.qualid}|{func.attr}",
                    display=f"self.{func.attr}()",
                )
            if isinstance(base, ast.Name):
                t = self.local_types.get(base.id)
                if t is not None:
                    return CallRecord(
                        line=node.lineno, kind="method",
                        target=f"{t}|{func.attr}",
                        display=f"{base.id}.{func.attr}()",
                    )
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and self.owner is not None
            ):
                t = self.owner.attr_types.get(base.attr)
                if t is not None:
                    return CallRecord(
                        line=node.lineno, kind="method",
                        target=f"{t}|{func.attr}",
                        display=f"self.{base.attr}.{func.attr}()",
                    )
            q = _qualname(func, self.scan.aliases)
            if q is not None:
                if q.startswith("repro."):
                    return CallRecord(
                        line=node.lineno, kind="direct", target=q,
                        display=f"{q.rsplit('.', 1)[-1]}()",
                    )
                ctor = self._constructed_class(node)
                if ctor is not None and ctor.startswith("repro."):
                    return CallRecord(
                        line=node.lineno, kind="method",
                        target=f"{ctor}|__init__",
                        display=f"{ctor.rsplit('.', 1)[-1]}()",
                    )
            return None
        return None

    # -- effect classification -------------------------------------------

    def _classify_effect(self, node: ast.Call) -> None:
        line = node.lineno
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open":
                self._effect("io", line, "open()")
            elif func.id == "input":
                self._effect("blocking", line, "input()")
            elif func.id == "print":
                self._effect("io", line, "print()")
            return
        q = _qualname(func, self.scan.aliases)
        if q is None:
            if (
                isinstance(func, ast.Attribute)
                and func.attr in PATHLIKE_IO_TAILS
            ):
                self._effect("io", line, f".{func.attr}()")
            return
        if q in WALL_CLOCK:
            self._effect("wall_clock", line, q)
        elif q in TIMING_CLOCKS:
            self._effect("timing", line, q)
        elif q in BLOCKING_EXACT or q.startswith(BLOCKING_PREFIXES):
            self._effect("blocking", line, q)
        elif q in ENTROPY:
            self._effect("rng", line, q)
        elif q.startswith(("random.", "secrets.")):
            if not self.scan.blessed_rng:
                self._effect("rng", line, q)
        elif q.startswith("numpy.random."):
            if self.scan.blessed_rng:
                return
            tail = q.rsplit(".", 1)[-1]
            if tail in ("default_rng", "RandomState"):
                # a generator minted from a *constant* seed is a pinned
                # stream (calibration helpers); no-arg or computed seeds
                # are unkeyed randomness
                pinned = bool(node.args) and all(
                    _constant_expr(a, self.scan.module_consts)
                    for a in node.args
                ) and not node.keywords
                if not pinned:
                    self._effect("rng", line, q)
            elif tail in NUMPY_BANNED_TAILS:
                self._effect("rng", line, q)
        elif q in ("tempfile.mkstemp", "tempfile.mkdtemp") or q.startswith(
            ("tempfile.", "shutil.")
        ):
            self._effect("io", line, q)
        elif q == "io.open" or (
            q.startswith("os.") and q.rsplit(".", 1)[-1] in OS_IO_TAILS
        ):
            self._effect("io", line, q)

    # -- executor boundaries ---------------------------------------------

    def _check_boundary(self, node: ast.Call) -> None:
        func = node.func
        payload: list[ast.expr] = []
        if isinstance(func, ast.Attribute) and func.attr == "submit":
            payload = list(node.args) + [kw.value for kw in node.keywords]
        else:
            q = _qualname(func, self.scan.aliases)
            tail = q.rsplit(".", 1)[-1] if q else ""
            if tail == "ProcessPoolExecutor" or (
                q is not None
                and q.startswith("multiprocessing.")
                and tail in ("Pool", "Process")
            ):
                for kw in node.keywords:
                    if kw.arg in ("initializer", "target"):
                        payload.append(kw.value)
                    elif kw.arg in ("initargs", "args"):
                        if isinstance(kw.value, (ast.Tuple, ast.List)):
                            payload.extend(kw.value.elts)
                        else:
                            payload.append(kw.value)
            elif q == "pickle.dumps" and node.args:
                payload = [node.args[0]]
        for expr in payload:
            reason = self._unpicklable(expr)
            if reason is not None:
                self.boundary_sites.append(BoundarySite(
                    line=expr.lineno, col=expr.col_offset, reason=reason,
                ))

    def _unpicklable(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Lambda):
            return "a lambda (unpicklable)"
        if isinstance(expr, ast.Starred):
            return self._unpicklable(expr.value)
        if isinstance(expr, (ast.Tuple, ast.List)):
            for elt in expr.elts:
                reason = self._unpicklable(elt)
                if reason is not None:
                    return reason
            return None
        if isinstance(expr, ast.Name):
            if expr.id in self.nested_defs:
                return f"nested function {expr.id!r} (unpicklable)"
            kind = self.local_kinds.get(expr.id)
            if kind is not None:
                return kind
            if expr.id == "self" and self._self_unpicklable():
                return (
                    f"'self' of {self.owner.name} "  # type: ignore[union-attr]
                    f"(owns a lock or tracer)"
                )
            return None
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and self.owner is not None
        ):
            if expr.attr in self.owner.lock_attrs:
                return f"lock attribute self.{expr.attr}"
            t = self.owner.attr_types.get(expr.attr)
            if t is not None and t.rsplit(".", 1)[-1] == "TraceRecorder":
                return f"tracer attribute self.{expr.attr}"
        return None

    def _self_unpicklable(self) -> bool:
        if self.owner is None:
            return False
        if self.owner.lock_attrs:
            return True
        return any(
            t.rsplit(".", 1)[-1] == "TraceRecorder"
            for t in self.owner.attr_types.values()
        )


def _is_declared_pure(
    node: ast.FunctionDef | ast.AsyncFunctionDef, aliases: dict[str, str]
) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id in PURE_DECORATORS:
            return True
        q = _qualname(target, aliases)
        if q is not None and (
            q in PURE_DECORATORS or q.endswith(".declared_pure")
        ):
            return True
    return False


def _scan_class(
    scan: _ModuleScan, node: ast.ClassDef
) -> _ClassInfo:
    info = _ClassInfo(
        name=node.name,
        qualid=f"{scan.module_id}.{node.name}",
        line=node.lineno,
    )
    for base in node.bases:
        if isinstance(base, ast.Name):
            resolved = scan.resolve_class(base.id)
            if resolved is not None:
                info.bases.append(resolved)
        else:
            q = _qualname(base, scan.aliases)
            if q is not None:
                info.bases.append(q)
    # first pass: lock attributes and instance-attribute types, so the
    # method walks that follow can classify regions and receivers
    for stmt in node.body:
        if (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name == "__init__"
        ):
            params = {
                a.arg: scan.annotation_type(a.annotation)
                for a in [
                    *stmt.args.posonlyargs, *stmt.args.args,
                    *stmt.args.kwonlyargs,
                ]
            }
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Assign):
                    continue
                for target in sub.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    value = sub.value
                    if isinstance(value, ast.Call):
                        q = _qualname(value.func, scan.aliases)
                        if q in LOCK_CONSTRUCTORS:
                            info.lock_attrs.append(target.attr)
                            continue
                        ctor = None
                        if isinstance(value.func, ast.Name):
                            ctor = scan.resolve_class(value.func.id)
                        elif q is not None:
                            ctor = q
                        if ctor is not None:
                            info.attr_types[target.attr] = ctor
                    elif isinstance(value, ast.Name):
                        t = params.get(value.id)
                        if t is not None:
                            info.attr_types[target.attr] = t
    return info


def _class_facts(info: _ClassInfo) -> ClassFacts:
    """Fold recorded accesses into guarded attrs + discipline breaches."""
    guarded = sorted({
        attr
        for attr, _, _, method, write, locked in info.accesses
        if write and locked and method not in INIT_METHODS
    })
    guarded_set = set(guarded)
    # dedup by site; a write at a site dominates a read
    sites: dict[tuple[str, int, int, str], bool] = {}
    for attr, line, col, method, write, locked in info.accesses:
        if attr not in guarded_set or locked or method in INIT_METHODS:
            continue
        key = (attr, line, col, method)
        sites[key] = sites.get(key, False) or write
    unguarded = [
        AccessSite(attr=attr, line=line, col=col, method=method, write=write)
        for (attr, line, col, method), write in sorted(sites.items(),
                                                       key=lambda i: i[0][1:])
    ]
    return ClassFacts(
        name=info.name,
        qualid=info.qualid,
        line=info.line,
        bases=info.bases,
        lock_attrs=sorted(info.lock_attrs),
        attr_types=dict(sorted(info.attr_types.items())),
        guarded_attrs=guarded,
        unguarded_sites=unguarded,
        unlocked_helper_calls=sorted(
            info.unlocked_helper_calls, key=lambda s: (s.line, s.col)
        ),
    )


def extract_module(ctx: FileContext) -> ModuleFacts:
    """Extract all interprocedural facts from one parsed file."""
    scan = _ModuleScan(ctx)
    facts = ModuleFacts(
        module_id=scan.module_id, display_path=ctx.display_path
    )
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walker = _FunctionWalker(
                scan, stmt, f"{scan.module_id}.{stmt.name}", None,
                facts.boundary_sites,
            )
            facts.functions.append(walker.facts)
        elif isinstance(stmt, ast.ClassDef):
            info = _scan_class(scan, stmt)
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walker = _FunctionWalker(
                        scan, sub, f"{info.qualid}.{sub.name}", info,
                        facts.boundary_sites,
                    )
                    facts.functions.append(walker.facts)
            facts.classes.append(_class_facts(info))
    facts.boundary_sites.sort(key=lambda b: (b.line, b.col))
    return facts
