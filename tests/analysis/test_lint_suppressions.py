"""The XR001 stale-suppression audit.

A ``# xr-lint: disable=...`` comment that never silences a finding is
itself a finding: either the defect it covered was fixed (delete the
comment) or the rule name is wrong (it silences nothing).  The audit is
on by default and is scoped to rules that actually ran, so selecting a
subset or path-exempting a rule never false-flags a legitimate comment.
"""

import textwrap

import pytest

from repro.analysis.lint import LintRunner


def lint(source, path="fixture.py", **kwargs):
    runner = LintRunner(**kwargs)
    findings = runner.run_source(textwrap.dedent(source), path)
    assert not runner.errors, runner.errors
    return findings


def codes(findings):
    return [f.code for f in findings]


def test_stale_line_suppression_is_flagged():
    findings = lint("""
        def quiet():
            return 1  # xr-lint: disable=host-call
        """)
    assert codes(findings) == ["XR001"]
    assert "host-call" in findings[0].message
    assert findings[0].line == 3


def test_used_suppression_is_not_flagged():
    findings = lint("""
        import time

        def stamp():
            return time.time()  # xr-lint: disable=host-call
        """)
    assert findings == []


#: a typo, and every rule name the catalogue has retired or merged away
UNKNOWN_NAMES = ["host-cal", "wall-clock", "global-random", "blocking-call",
                 "id-order", "hash-order", "non-event-yield"]


@pytest.mark.parametrize("name", UNKNOWN_NAMES)
def test_unknown_rule_name_is_always_flagged(name):
    findings = lint(f"""
        import time

        def stamp():
            return time.time()  # xr-lint: disable={name}
        """)
    # The name silences nothing, so both the audit and the rule fire.
    assert sorted(codes(findings)) == ["XR001", "XR101"]
    assert f"unknown rule {name!r}" in findings[0].message


def test_disable_all_is_stale_when_nothing_was_suppressed():
    findings = lint("""
        def quiet():
            return 1  # xr-lint: disable=all
        """)
    assert codes(findings) == ["XR001"]


def test_string_literal_lookalike_is_not_a_suppression():
    # tokenize sees a STRING, not a COMMENT — no entry, no audit finding.
    findings = lint("""
        MARKER = "# xr-lint: disable=host-call"
        """)
    assert findings == []


def test_no_check_suppressions_silences_the_audit():
    findings = lint("""
        def quiet():
            return 1  # xr-lint: disable=host-call
        """, check_suppressions=False)
    assert findings == []


def test_select_subset_does_not_flag_suppressions_of_unran_rules():
    # host-call never ran, so the audit can't call its suppression
    # stale — but a suppression of the selected rule still can be.
    findings = lint("""
        def quiet():
            a = 1  # xr-lint: disable=host-call
            b = 2  # xr-lint: disable=identity-order
            return a + b
        """, select=["identity-order", "stale-suppression"])
    assert codes(findings) == ["XR001"]
    assert findings[0].line == 4


def test_path_exempt_rule_suppression_is_not_flagged():
    # exception-edge-leak is exempt under tests/, so a suppression of it
    # there is unjudgeable — the audit must stay silent rather than
    # demand its removal.
    findings = lint("""
        def quiet():
            return 1  # xr-lint: disable=exception-edge-leak
        """, path="tests/fixture.py")
    assert findings == []


def test_stale_audit_findings_are_themselves_suppressible():
    findings = lint("""
        def quiet():
            # Kept for documentation; audit waived on purpose.
            return 1  # xr-lint: disable=host-call, stale-suppression
        """)
    assert findings == []
