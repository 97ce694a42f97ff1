"""Import smoke test for the Python files pytest never collects.

Tier-1 collects only ``tests/``, so a renamed or deleted module could
leave a dangling import in ``benchmarks/`` or ``examples/`` that no run
notices.  Importing each file catches that without running it: the
benchmarks only define test functions, and every example keeps its
work behind a ``__main__`` guard.  One case per file, so a failure
names the file.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = sorted((ROOT / "benchmarks").glob("test_*.py"))
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_both_directories_have_files():
    assert BENCHMARKS and EXAMPLES


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.stem)
def test_benchmark_imports(path):
    importlib.import_module(f"benchmarks.{path.stem}")


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_loads_without_running(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.__name__ != "__main__"
