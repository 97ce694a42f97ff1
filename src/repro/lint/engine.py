"""Lint engine: walk files, run rules, apply waivers and the baseline.

Determinism is a design requirement here too (the linter lints itself):
files are visited in sorted path order and findings are reported in
``(path, line, col, rule)`` order, so two runs over the same tree are
byte-identical.

The run is two-phase.  Phase one analyzes each file independently:
per-file rules plus extraction of the interprocedural effect summary
(:mod:`repro.lint.effects`).  Phase two assembles every summary into
one :class:`~repro.lint.effects.project.ProjectContext` and runs the
project rules (PURE001/PURE002, RACE001/RACE002, XPB001) over
the whole call graph.  Waivers, the pragma audit and the baseline are
applied last, so project findings can be excused by pragmas in *any*
file they reference.

``--changed`` scoping restricts which files' findings are *reported*;
the whole tree is still analyzed so project summaries stay complete (a
changed caller is judged against unchanged callees' true effects).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .baseline import Baseline
from .context import FileContext
from .effects.extract import extract_module
from .effects.model import ModuleFacts
from .effects.project import ProjectContext
from .findings import Finding, Severity
from .pragmas import WaiverTable
from .rules import all_rules, known_rule_ids
from .rules.base import ProjectRule

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


class LintUsageError(ValueError):
    """Bad invocation (unknown rule, missing path, unreadable baseline)."""


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def active(self) -> list[Finding]:
        """Findings that count against the exit code."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def errors(self) -> int:
        return sum(1 for f in self.active if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.active if f.severity is Severity.WARNING)

    @property
    def waived(self) -> int:
        return sum(1 for f in self.findings if f.waived)

    @property
    def baselined(self) -> int:
        return sum(1 for f in self.findings if f.baselined)

    @property
    def exit_code(self) -> int:
        return EXIT_CLEAN if not self.active else EXIT_FINDINGS

    def summary(self) -> dict[str, int]:
        return {
            "files_checked": self.files_checked,
            "findings": len(self.findings),
            "errors": self.errors,
            "warnings": self.warnings,
            "waived": self.waived,
            "baselined": self.baselined,
        }


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand paths to a sorted, de-duplicated list of ``.py`` files."""
    seen: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintUsageError(f"no such file or directory: {path}")
        if path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not SKIP_DIRS.intersection(p.parts)
            )
        elif path.suffix == ".py":
            candidates = [path]
        else:
            raise LintUsageError(f"not a Python file: {path}")
        for p in candidates:
            seen.setdefault(p.resolve(), None)
    return sorted(seen)


def _display_path(path: Path) -> str:
    """Path relative to the working directory when possible (stable
    across checkouts, which keeps baseline files shareable)."""
    try:
        return path.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class _FileAnalysis:
    """Phase-one output for one file."""

    path: Path
    display: str
    source: str
    findings: list[Finding]  # raw per-file rule findings (incl. LNT000)
    facts: Optional[ModuleFacts]


def _analyze_file(path: Path, display: str, source: str) -> _FileAnalysis:
    """Per-file rules + effect extraction."""
    try:
        ctx = FileContext(path, display, source)
    except SyntaxError as exc:
        findings = [
            Finding(
                rule="LNT000",
                severity=Severity.ERROR,
                path=display,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
        facts = None
    else:
        findings = []
        for rule in all_rules().values():
            if not isinstance(rule, ProjectRule):
                findings.extend(rule.check(ctx))
        facts = extract_module(ctx)
    return _FileAnalysis(path, display, source, findings, facts)


def _run_pipeline(
    analyses: list[_FileAnalysis],
    rule_filter: Optional[set[str]],
    baseline: Optional[Baseline],
    report_paths: Optional[set[Path]],
) -> list[Finding]:
    """Phase two: project rules, waivers, audit, baseline, sort."""
    tables = {
        a.display: WaiverTable(a.display, a.source) for a in analyses
    }
    lines = {a.display: a.source.splitlines() for a in analyses}

    findings: list[Finding] = []
    for a in analyses:
        findings.extend(a.findings)
    project = ProjectContext(
        [a.facts for a in analyses if a.facts is not None], lines, tables
    )
    for rule in all_rules().values():
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(project))

    # waivers apply before scoping/filtering so every pragma's usage is
    # known when its file's audit runs
    for f in findings:
        table = tables.get(f.path)
        f.waived = table.try_waive(f.rule, f.line) if table else False

    reported: Optional[set[str]] = None
    if report_paths is not None:
        reported = {a.display for a in analyses if a.path in report_paths}
        findings = [f for f in findings if f.path in reported]
    if rule_filter is not None:
        findings = [f for f in findings if f.rule in rule_filter]

    for a in analyses:
        if reported is not None and a.display not in reported:
            continue
        meta = tables[a.display].audit(known_rule_ids(), lines[a.display])
        if rule_filter is not None:
            meta = [m for m in meta if m.rule in rule_filter]
        findings.extend(meta)

    if baseline is not None:
        for f in findings:
            if not f.waived:
                baseline.absorb(f)
    findings.sort(key=Finding.sort_key)
    return findings


def lint_file(
    path: Path,
    rule_filter: Optional[set[str]] = None,
    display_path: Optional[str] = None,
) -> list[Finding]:
    """Lint one file as a single-file project (fixtures, spot checks).

    Project rules see a one-module call graph, so contracts and lock
    discipline are still checked — against file-local knowledge only.
    """
    display = display_path if display_path is not None else _display_path(path)
    source = path.read_text(encoding="utf-8")
    analysis = _analyze_file(path, display, source)
    return _run_pipeline([analysis], rule_filter, None, None)


def run_lint(
    paths: Sequence[str | Path],
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[str | Path] = None,
    changed: Optional[set[Path]] = None,
) -> LintResult:
    """Lint ``paths``; apply ``rules`` filter and ``baseline`` if given.

    ``changed`` (resolved paths) restricts which files' findings are
    reported — the whole tree is still analyzed for project summaries.

    Raises :class:`LintUsageError` for unknown rules or unreadable
    paths/baselines (CLI exit code 2); returns a :class:`LintResult`
    otherwise (exit code 0 when nothing unwaived/unbaselined remains).
    """
    rule_filter: Optional[set[str]] = None
    if rules:
        rule_filter = {r.upper() for r in rules}
        unknown = rule_filter - known_rule_ids()
        if unknown:
            raise LintUsageError(
                f"unknown rule(s): {', '.join(sorted(unknown))}; "
                f"see 'repro lint --list-rules'"
            )
    base: Optional[Baseline] = None
    if baseline is not None:
        base = Baseline.load(baseline)

    analyses = []
    for path in collect_files(paths):
        display = _display_path(path)
        source = path.read_text(encoding="utf-8")
        analyses.append(_analyze_file(path, display, source))

    return LintResult(
        findings=_run_pipeline(analyses, rule_filter, base, changed),
        files_checked=len(analyses),
    )
