"""Unit tests for the effect-summary extraction layer and the
interprocedural propagation on top of it."""

from pathlib import Path

import pytest

from repro.lint.context import FileContext
from repro.lint.effects.analysis import (
    effect_chains,
    lock_cycles,
    lock_order_edges,
    transitive_acquires,
)
from repro.lint.effects.callgraph import CallGraph
from repro.lint.effects.extract import extract_module
from repro.lint.effects.model import ModuleFacts


def facts_for(tmp_path: Path, source: str, name="repro/core/mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return extract_module(FileContext(path, name, source))


def fn(facts: ModuleFacts, qualid_tail: str):
    return next(
        f for f in facts.functions if f.qualid.endswith(qualid_tail)
    )


class TestExtraction:
    def test_effect_classification(self, tmp_path):
        facts = facts_for(
            tmp_path,
            "import time\n"
            "import numpy as np\n"
            "def f(path):\n"
            "    t = time.time()\n"
            "    p = time.perf_counter()\n"
            "    r = np.random.default_rng().random()\n"
            "    open(path).read()\n"
            "    time.sleep(1)\n"
            "    return t, p, r\n",
        )
        kinds = {e.kind for e in fn(facts, ".f").effects}
        assert kinds == {"wall_clock", "timing", "rng", "io", "blocking"}

    def test_pinned_constant_seed_is_not_rng(self, tmp_path):
        facts = facts_for(
            tmp_path,
            "import numpy as np\n"
            "SEED = 3\n"
            "def pinned():\n"
            "    return np.random.default_rng(SEED + 1)\n"
            "def unpinned(seed):\n"
            "    return np.random.default_rng(seed)\n"
            "def entropy():\n"
            "    return np.random.default_rng()\n",
        )
        assert fn(facts, ".pinned").effects == []
        assert [e.kind for e in fn(facts, ".unpinned").effects] == ["rng"]
        assert [e.kind for e in fn(facts, ".entropy").effects] == ["rng"]

    def test_nested_defs_inline_into_enclosing_summary(self, tmp_path):
        facts = facts_for(
            tmp_path,
            "import time\n"
            "def outer():\n"
            "    def cb():\n"
            "        return time.time()\n"
            "    return cb\n",
        )
        outer = fn(facts, ".outer")
        assert [e.kind for e in outer.effects] == ["wall_clock"]
        # the nested def is not a separate graph node
        assert len(facts.functions) == 1

    def test_relative_import_call_resolution(self, tmp_path):
        facts = facts_for(
            tmp_path,
            "from ..sim.engine import advance\n"
            "def step():\n"
            "    return advance()\n",
        )
        (call,) = fn(facts, ".step").calls
        assert call.target == "repro.sim.engine.advance"

    def test_lock_regions_and_guarded_attrs(self, tmp_path):
        facts = facts_for(
            tmp_path,
            "import threading\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._v = 0\n"
            "    def set(self, v):\n"
            "        with self._lock:\n"
            "            self._v = v\n"
            "    def get(self):\n"
            "        return self._v\n",
        )
        (cls,) = facts.classes
        assert cls.lock_attrs == ["_lock"]
        assert cls.guarded_attrs == ["_v"]
        (site,) = cls.unguarded_sites
        assert (site.method, site.attr, site.write) == ("get", "_v", False)


class TestPropagation:
    def _graph(self, tmp_path, source, name="repro/core/mod.py"):
        return CallGraph([facts_for(tmp_path, source, name)])

    def test_effect_chains_shortest_witness(self, tmp_path):
        graph = self._graph(
            tmp_path,
            "import time\n"
            "def a():\n"
            "    return b()\n"
            "def b():\n"
            "    return c()\n"
            "def c():\n"
            "    return time.time()\n",
        )
        chains = effect_chains(
            graph, "repro.core.mod.a", ("wall_clock",)
        )
        chain = chains["wall_clock"]
        assert [q.rsplit(".", 1)[-1] for q, _ in chain.steps] == ["b", "c"]
        assert chain.effect.detail == "time.time"

    def test_effect_chains_handle_cycles(self, tmp_path):
        graph = self._graph(
            tmp_path,
            "def a():\n"
            "    return b()\n"
            "def b():\n"
            "    return a()\n",
        )
        assert effect_chains(graph, "repro.core.mod.a", ("io",)) == {}

    def test_suppress_vetoes_an_origin(self, tmp_path):
        graph = self._graph(
            tmp_path,
            "import time\n"
            "def a():\n"
            "    return time.time()\n",
        )
        chains = effect_chains(
            graph, "repro.core.mod.a", ("wall_clock",),
            suppress=lambda f, p, e: True,
        )
        assert chains == {}

    def test_transitive_acquires_and_cycle(self, tmp_path):
        graph = self._graph(
            tmp_path,
            "import threading\n"
            "class A:\n"
            "    def __init__(self, peer: 'B'):\n"
            "        self._lock = threading.Lock()\n"
            "        self._peer = peer\n"
            "    def fwd(self):\n"
            "        with self._lock:\n"
            "            self._peer.poke()\n"
            "class B:\n"
            "    def __init__(self, peer: 'A'):\n"
            "        self._lock = threading.Lock()\n"
            "        self._peer = peer\n"
            "    def poke(self):\n"
            "        with self._lock:\n"
            "            pass\n"
            "    def back(self):\n"
            "        with self._lock:\n"
            "            self._peer.fwd()\n",
        )
        acq = transitive_acquires(graph)
        assert "repro.core.mod.B._lock" in acq["repro.core.mod.A.fwd"]
        edges = lock_order_edges(graph, acq)
        held_pairs = {(e.held, e.acquired) for e in edges}
        assert (
            "repro.core.mod.A._lock", "repro.core.mod.B._lock"
        ) in held_pairs
        assert (
            "repro.core.mod.B._lock", "repro.core.mod.A._lock"
        ) in held_pairs
        (cycle,) = lock_cycles(edges)
        assert len(cycle) == 2

    def test_method_resolution_through_bases(self, tmp_path):
        facts = facts_for(
            tmp_path,
            "import time\n"
            "class Base:\n"
            "    def tick(self):\n"
            "        return time.time()\n"
            "class Child(Base):\n"
            "    def run(self):\n"
            "        return self.tick()\n",
        )
        graph = CallGraph([facts])
        chains = effect_chains(
            graph, "repro.core.mod.Child.run", ("wall_clock",)
        )
        assert chains["wall_clock"].owner == "repro.core.mod.Base.tick"


class TestContractSanity:
    def test_declared_pure_returns_same_object(self):
        from repro.contracts import PURITY_ATTRIBUTE, declared_pure

        def f():
            return 1

        g = declared_pure(f)
        assert g is f  # pickle-by-name must keep working
        assert getattr(g, PURITY_ATTRIBUTE) is True

    def test_run_single_is_declared_pure_at_runtime(self):
        from repro.contracts import PURITY_ATTRIBUTE
        from repro.core.experiment import run_single

        assert getattr(run_single, PURITY_ATTRIBUTE, False) is True
