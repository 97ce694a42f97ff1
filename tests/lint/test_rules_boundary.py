"""XPB001: executor-boundary picklability."""

from .conftest import assert_rule_matches, rule_findings


class TestXpb001:
    def test_positive_fixture(self):
        assert_rule_matches("repro/core/xpb001_boundary.py", "XPB001")

    def test_negative_fixture(self):
        assert rule_findings("repro/core/xpb001_ok.py", "XPB001") == []

    def test_reasons_are_specific(self):
        findings = rule_findings("repro/core/xpb001_boundary.py", "XPB001")
        reasons = " | ".join(f.message for f in findings)
        assert "lambda" in reasons
        assert "nested function" in reasons
        assert "synchronisation primitive" in reasons
        assert "socket" in reasons
        assert "open file handle" in reasons
        assert "'self' of Dispatcher" in reasons
        assert "lock attribute self._lock" in reasons

