"""Incremental lint cache: per-file findings + effect summaries.

Keyed by **content**: the cache key is a SHA-256 over the file's
display path, its source bytes, and a *tool salt* hashing every ``.py``
source in the lint package itself.  Editing a file, moving it, or
changing any linter/rule/extractor code therefore misses cleanly — no
manual version bump required, no way to serve findings computed by an
older rule pack.

What is cached per file:

* the raw per-file rule findings (before waiver/baseline processing,
  which depends on run-time state and is recomputed each run from the
  — cheap to tokenize — pragma table);
* the :class:`~repro.lint.effects.model.ModuleFacts` effect summary.

The *project* phase (PURE001/PURE002, RACE002 chains) is
recomputed every run from the cached summaries.  That is the
call-graph-transitive invalidation story: a changed file misses and is
re-extracted, and because interprocedural conclusions are derived
fresh from all current summaries, every function whose transitive
effects changed is re-judged automatically — there is no stale-edge
state to invalidate.

Entries are written atomically (temp file + ``os.replace``) so
concurrent lint runs sharing ``.repro-lint-cache/`` never observe a
torn entry; any unreadable or schema-mismatched entry is a miss.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from .effects.model import FACTS_SCHEMA_VERSION, ModuleFacts
from .findings import Finding, Severity

DEFAULT_CACHE_DIR = ".repro-lint-cache"

CACHE_SCHEMA_VERSION = 1


def _tool_salt() -> str:
    """Hash of every lint-package source file (rules, effects, engine)."""
    root = Path(__file__).resolve().parent
    h = hashlib.sha256()
    h.update(f"{CACHE_SCHEMA_VERSION}:{FACTS_SCHEMA_VERSION}".encode())
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x00")
    return h.hexdigest()


def _finding_from_dict(d: dict) -> Finding:
    return Finding(
        rule=d["rule"],
        severity=Severity(d["severity"]),
        path=d["path"],
        line=d["line"],
        col=d["col"],
        message=d["message"],
        snippet=d.get("snippet", ""),
    )


class LintCache:
    """Content-addressed store under one cache directory."""

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.salt = _tool_salt()
        self.hits = 0
        self.misses = 0

    def _key(self, display_path: str, source: str) -> str:
        h = hashlib.sha256()
        h.update(self.salt.encode())
        h.update(b"\x00")
        h.update(display_path.encode())
        h.update(b"\x00")
        h.update(source.encode("utf-8"))
        return h.hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(
        self, display_path: str, source: str
    ) -> Optional[tuple[list[Finding], Optional[ModuleFacts]]]:
        """Cached (raw findings, facts) for this exact content, or None."""
        try:
            raw = self._entry_path(
                self._key(display_path, source)
            ).read_text(encoding="utf-8")
            entry = json.loads(raw)
        except (OSError, ValueError):
            self.misses += 1
            return None
        if entry.get("schema") != CACHE_SCHEMA_VERSION:
            self.misses += 1
            return None
        try:
            findings = [_finding_from_dict(f) for f in entry["findings"]]
            facts = (
                ModuleFacts.from_dict(entry["facts"])
                if entry["facts"] is not None
                else None
            )
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return findings, facts

    def store(
        self,
        display_path: str,
        source: str,
        findings: list[Finding],
        facts: Optional[ModuleFacts],
    ) -> None:
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "findings": [f.to_dict() for f in findings],
            "facts": facts.to_dict() if facts is not None else None,
        }
        target = self._entry_path(self._key(display_path, source))
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.root, prefix=".tmp-", suffix=".json"
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, separators=(",", ":"))
            os.replace(tmp, target)
        except OSError:
            pass  # an unwritable cache degrades to a cold run
