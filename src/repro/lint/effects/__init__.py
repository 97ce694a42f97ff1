"""Interprocedural effect & concurrency analysis for ``repro.lint``.

The per-file rule pack (DET/PAR/EXC/API) sees one AST at a time; the
rules added in this package — purity contracts (PURE001/PURE002), lock
discipline (RACE001/RACE002) and executor-boundary safety (XPB001) —
need whole-project knowledge.  The pipeline:

* :mod:`~repro.lint.effects.extract` turns each
  :class:`~repro.lint.context.FileContext` into a
  :class:`~repro.lint.effects.model.ModuleFacts`: per-function direct
  effects, call sites, lock acquisitions, plus per-class lock-discipline
  facts — everything later phases need, with **no AST retained** (facts
  serialise to JSON for the incremental cache);
* :mod:`~repro.lint.effects.callgraph` indexes every module's facts and
  resolves call sites to project functions (imports, relative imports,
  ``self.method`` through base classes, locals bound to project-class
  constructors or annotations);
* :mod:`~repro.lint.effects.analysis` propagates summaries over the
  graph: transitive lock-acquisition sets to a fixpoint (RACE002) and
  shortest effect witness chains via BFS (PURE001);
* :mod:`~repro.lint.effects.project` bundles the above with the
  engine's waiver tables into the :class:`ProjectContext` handed to
  every :class:`~repro.lint.rules.base.ProjectRule`.

Resolution is deliberately *optimistic*: a call that cannot be resolved
statically (dynamic dispatch through stored callables, ``getattr``,
higher-order arguments) is assumed effect-free.  The per-file rules
remain the backstop at every definition site, so an effect missed on
one path is still caught where it textually occurs.
"""

from .model import (
    EFFECT_KINDS,
    CallRecord,
    ClassFacts,
    EffectRecord,
    FunctionFacts,
    LockEvent,
    ModuleFacts,
)
from .project import ProjectContext

__all__ = [
    "EFFECT_KINDS",
    "CallRecord",
    "ClassFacts",
    "EffectRecord",
    "FunctionFacts",
    "LockEvent",
    "ModuleFacts",
    "ProjectContext",
]
