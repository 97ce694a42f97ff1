"""Engine-level guarantees of the interprocedural pipeline: report
determinism, ``--changed`` scoping, and the purity-contract regression
gate on ``run_single``."""

from pathlib import Path

from repro.lint.engine import run_lint
from repro.lint.report import render_json

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


def _mini_tree(root, *, decorated: bool, rng: bool = False):
    """A tiny repro tree whose ``run_single`` matches the pinned qualid."""
    pkg = root / "repro" / "core"
    pkg.mkdir(parents=True)
    body = (
        "    return np.random.default_rng().random()\n"
        if rng
        else "    return (config, replication)\n"
    )
    (pkg / "experiment.py").write_text(
        "import numpy as np\n"
        "from repro.contracts import declared_pure\n"
        + ("@declared_pure\n" if decorated else "")
        + "def run_single(config: object, replication: int = 0) -> object:\n"
        + body
    )
    return root


class TestReportDeterminism:
    def test_two_runs_over_fixtures_are_byte_identical(self):
        # the fixture corpus is rich in findings across every rule
        # family; two runs must serialise to identical bytes
        first = run_lint([FIXTURES])
        second = run_lint([FIXTURES])
        assert first.findings  # non-trivial corpus
        assert render_json(first) == render_json(second)


class TestChangedScoping:
    def test_only_changed_files_report(self, tmp_path):
        tree = _mini_tree(tmp_path / "t", decorated=True, rng=True)
        other = tree / "repro" / "core" / "other.py"
        other.write_text(
            "import numpy as np\n"
            "from repro.contracts import declared_pure\n"
            "@declared_pure\n"
            "def also_bad() -> float:\n"
            "    return np.random.default_rng().random()\n"
        )
        experiment = tree / "repro" / "core" / "experiment.py"

        full = run_lint([tree])
        assert {f.rule for f in full.active} >= {"PURE001"}
        assert len({f.path for f in full.active}) == 2

        scoped = run_lint([tree], changed={experiment.resolve()})
        assert scoped.files_checked == 2  # whole tree still analyzed
        assert scoped.active  # the changed file's finding survives
        assert {f.path for f in scoped.findings} == {
            f.path for f in full.findings if "experiment" in f.path
        }

    def test_changed_caller_judged_against_unchanged_callee(self, tmp_path):
        # the effect lives in an UNCHANGED file; the changed caller must
        # still be condemned through the full project call graph
        tree = tmp_path / "t"
        pkg = tree / "repro" / "core"
        pkg.mkdir(parents=True)
        (pkg / "leaf.py").write_text(
            "def helper(path: str = 'x') -> str:\n"
            "    return open(path).read()\n"
        )
        caller = pkg / "caller.py"
        caller.write_text(
            "from repro.contracts import declared_pure\n"
            "from .leaf import helper\n"
            "@declared_pure\n"
            "def entry() -> str:\n"
            "    return helper()\n"
        )
        scoped = run_lint([tree], changed={caller.resolve()})
        assert [f.rule for f in scoped.active] == ["PURE001"]
        assert "caller.py" in scoped.active[0].path


class TestRunSinglePurityGate:
    def test_shipped_run_single_is_declared_pure_and_clean(self):
        result = run_lint([REPO_ROOT / "src"])
        assert result.active == [
        ], "\n".join(f.render() for f in result.active)

    def test_removing_the_decorator_fails_lint(self, tmp_path):
        tree = _mini_tree(tmp_path / "t", decorated=False)
        result = run_lint([tree])
        assert result.exit_code != 0
        assert "PURE002" in {f.rule for f in result.active}

    def test_adding_rng_to_a_pure_run_single_fails_lint(self, tmp_path):
        tree = _mini_tree(tmp_path / "t", decorated=True, rng=True)
        result = run_lint([tree])
        assert result.exit_code != 0
        pure = [f for f in result.active if f.rule == "PURE001"]
        assert pure and "unkeyed randomness" in pure[0].message

    def test_clean_pure_run_single_passes(self, tmp_path):
        tree = _mini_tree(tmp_path / "t", decorated=True, rng=False)
        result = run_lint([tree])
        assert result.exit_code == 0
