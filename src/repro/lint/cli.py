"""``repro lint``: the CLI face of the static-analysis gate.

Exit codes follow CI conventions: 0 clean, 1 findings, 2 usage error.
The report goes to **stdout** (text or ``--format json``); diagnostics
flow through :mod:`repro.obs.log` to stderr like every other
subcommand, so piped output stays machine-readable.
"""

from __future__ import annotations

import argparse

from pathlib import Path

from ..obs.log import get_logger
from .baseline import Baseline, BaselineError
from .engine import EXIT_USAGE, LintUsageError, run_lint
from .report import render_json, render_text
from .rules import catalogue

_log = get_logger("lint")


def _changed_paths(ref: str) -> set[Path]:
    """Files changed vs ``ref`` plus untracked files, resolved."""
    import subprocess

    out = b""
    for cmd in (
        ["git", "diff", "--name-only", "-z", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard", "-z"],
    ):
        try:
            proc = subprocess.run(cmd, capture_output=True, check=True)
        except FileNotFoundError as exc:
            raise LintUsageError("--changed requires git on PATH") from exc
        except subprocess.CalledProcessError as exc:
            detail = exc.stderr.decode("utf-8", "replace").strip()
            raise LintUsageError(
                f"--changed: git failed ({detail or ref!r} not resolvable?)"
            ) from exc
        out += proc.stdout
    return {
        Path(name).resolve()
        for name in out.decode("utf-8", "replace").split("\0")
        if name
    }


def add_lint_parser(sub: "argparse._SubParsersAction") -> None:
    """Register the ``lint`` subcommand on the main parser."""
    lint = sub.add_parser(
        "lint",
        help="AST-based determinism & reproducibility linter",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (e.g. src/)",
    )
    lint.add_argument(
        "--rule",
        dest="rules",
        action="append",
        metavar="RULE",
        help="only run this rule (repeatable; default: all)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    lint.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help=(
            "only report findings for files changed vs the git ref "
            "(default HEAD) plus untracked files; the whole tree is "
            "still analyzed for project-wide effect summaries"
        ),
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="tolerate findings recorded in this baseline file",
    )
    lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="snapshot current unwaived findings to FILE and exit 0",
    )
    lint.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include waived/baselined findings in the text report",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the linter; return the process exit code."""
    if args.list_rules:
        for rule_id, severity, summary in catalogue():
            print(f"{rule_id}  {severity:<7}  {summary}")
        return 0
    if not args.paths:
        _log.error("no paths given; try 'repro lint src/'")
        return EXIT_USAGE
    try:
        changed = (
            _changed_paths(args.changed) if args.changed is not None else None
        )
        result = run_lint(
            args.paths,
            rules=args.rules,
            baseline=args.baseline,
            changed=changed,
        )
    except (LintUsageError, BaselineError) as exc:
        _log.error("%s", exc)
        return EXIT_USAGE
    if changed is not None:
        _log.info(
            "--changed %s: reporting findings for changed files only",
            args.changed,
        )

    if args.write_baseline is not None:
        unwaived = [f for f in result.findings if not f.waived]
        Baseline.snapshot(result.findings).write(
            args.write_baseline, findings=unwaived
        )
        _log.info(
            "wrote %s (%d findings grandfathered)",
            args.write_baseline,
            len(unwaived),
        )
        return 0

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, show_suppressed=args.show_suppressed))
    if result.active:
        _log.error(
            "lint failed: %d error(s), %d warning(s)",
            result.errors,
            result.warnings,
        )
    return result.exit_code
