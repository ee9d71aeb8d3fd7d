"""The lint rules against the fixture corpus.

``tests/lint_fixtures/`` holds one snippet file per rule with positive
and negative cases; a trailing ``# EXPECT: <rule>`` comment marks every
line where a finding must be reported. The corpus test asserts the
engine's reported ``(path, rule, line)`` multiset equals the expected
one exactly — a rule that misses a positive case fails, and so does a
rule that fires on a negative one.
"""

import json
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import (
    Baseline,
    LintEngine,
    available_rules,
    run_lint,
)
from repro.lint.findings import Finding
from repro.lint.suppress import extract_comments

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
_EXPECT_RE = re.compile(r"EXPECT:\s*([A-Za-z][\w-]*)")


def _expected_findings() -> Counter:
    """``{(path, rule, line): count}`` parsed from EXPECT comments."""
    expected: Counter = Counter()
    for path in sorted(FIXTURES.rglob("*.py")):
        rel = path.relative_to(FIXTURES).as_posix()
        comments = extract_comments(path.read_text(encoding="utf-8"))
        for line, comment in comments.items():
            for rule in _EXPECT_RE.findall(comment):
                expected[(rel, rule, line)] += 1
    return expected


@pytest.fixture(scope="module")
def report():
    return LintEngine(root=FIXTURES).run(["."])


def test_fixture_corpus_is_matched_exactly(report):
    expected = _expected_findings()
    assert expected, "fixture corpus lost its EXPECT annotations"
    actual = Counter(
        (finding.path, finding.rule, finding.line)
        for finding in report.findings
    )
    missing = expected - actual
    surprises = actual - expected
    assert not missing, f"rules failed to fire: {sorted(missing)}"
    assert not surprises, f"rules fired on negative cases: {sorted(surprises)}"


def test_every_rule_fires_on_at_least_one_fixture(report):
    fired = {finding.rule for finding in report.findings}
    assert fired == set(available_rules())


def test_seeded_deadlock_cycle_is_detected(report):
    # The textbook fixture: worker takes _jobs_lock then _stats_lock
    # (one leg through a helper call), reporter takes them in reverse.
    cycles = [f for f in report.findings
              if f.rule == "lock-cycle"
              and f.path == "lock_cycle_cases.py"]
    assert len(cycles) == 1
    assert "_jobs_lock" in cycles[0].symbol
    assert "_stats_lock" in cycles[0].symbol
    assert "deadlock" in cycles[0].message


def test_unreachable_module_skips_partially_analyzed_packages():
    # Callers outside the analyzed targets are invisible, so a subtree
    # run (its top-level package __init__ not analyzed) reports nothing.
    report = LintEngine(root=FIXTURES).run(["unreachable_pkg/sub"])
    assert report.files_checked == 2
    assert not [f for f in report.findings
                if f.rule == "unreachable-module"]


def test_stale_suppressions_are_reported_exactly(report):
    stale = {(s.path, s.line) for s in report.stale_suppressions}
    assert stale == {
        ("stale_suppression_cases.py", 1),    # disable-file=picklability
        ("stale_suppression_cases.py", 30),   # guarded access, disable dead
        ("stale_suppression_cases.py", 32),   # holds-lock= excusing nothing
    }


def test_inline_suppression_lands_in_suppressed_not_findings(report):
    # GoodCounter.fast_peek reads a guarded attribute under an inline
    # `# lint: disable=lock-guard` — counted, but never failing.
    assert any(
        finding.path == "lock_guard_cases.py"
        and finding.rule == "lock-guard"
        for finding in report.suppressed
    ), [f.render() for f in report.suppressed]


def test_def_scoped_suppression_covers_the_whole_body(tmp_path):
    snippet = (
        "import threading\n"
        "\n"
        "\n"
        "class Holder:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.total = 0  # guarded-by: _lock\n"
        "\n"
        "    def scan(self):  # lint: disable=lock-guard\n"
        "        first = self.total\n"
        "        second = self.total\n"
        "        return first + second\n"
    )
    target = tmp_path / "scoped.py"
    target.write_text(snippet)
    report = LintEngine(root=tmp_path).run([target])
    assert report.ok
    assert len(report.suppressed) == 2


def test_file_wide_suppression(tmp_path):
    snippet = (
        "# lint: disable-file=async-safety\n"
        "import time\n"
        "\n"
        "\n"
        "async def stall():\n"
        "    time.sleep(1)\n"
    )
    target = tmp_path / "whole_file.py"
    target.write_text(snippet)
    report = LintEngine(root=tmp_path).run([target])
    assert report.ok and len(report.suppressed) == 1


def test_syntax_errors_are_reported_as_findings(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def half(:\n")
    report = LintEngine(root=tmp_path).run([target])
    assert not report.ok
    assert report.findings[0].rule == "syntax"


def test_baseline_excuses_and_reports_stale_entries(tmp_path):
    # Baseline exactly the corpus's current findings: the run goes
    # green; delete a fixture's debt and its entries surface as stale.
    fresh = LintEngine(root=FIXTURES).run(["."])
    baseline_path = tmp_path / "baseline.json"
    Baseline.save(baseline_path, fresh.findings)

    excused = LintEngine(
        baseline=Baseline.load(baseline_path), root=FIXTURES
    ).run(["."])
    assert excused.ok
    assert len(excused.baselined) == len(fresh.findings)
    assert not excused.stale_baseline

    partial = LintEngine(
        baseline=Baseline.load(baseline_path), root=FIXTURES
    ).run(["lock_guard_cases.py"])
    assert partial.ok
    stale_rules = {key[0] for key in partial.stale_baseline}
    assert "async-safety" in stale_rules


def test_baseline_consumes_entries_one_for_one():
    finding = Finding(rule="demo", path="a.py", line=3, message="m",
                      symbol="s")
    baseline = Baseline.from_findings([finding])
    assert baseline.consume(finding)
    assert not baseline.consume(finding)   # each entry excuses one hit


def test_run_lint_rule_subset(tmp_path):
    (tmp_path / "only_async.py").write_text(
        "import time\n"
        "\n"
        "\n"
        "async def stall():\n"
        "    time.sleep(1)\n"
        "\n"
        "\n"
        "class Late:  # lint: frozen\n"
        "    def set(self, v):\n"
        "        self.v = v\n"
    )
    full = run_lint([tmp_path], root=tmp_path)
    assert {f.rule for f in full.findings} == {
        "async-safety", "frozen-mutation"
    }
    subset = run_lint([tmp_path], rules=["async-safety"], root=tmp_path)
    assert {f.rule for f in subset.findings} == {"async-safety"}


def test_cli_fails_on_fixtures_and_writes_json(tmp_path):
    from repro.lint.cli import main

    json_path = tmp_path / "report" / "findings.json"
    status = main([
        "--root", str(FIXTURES), "--json", str(json_path), "-q", ".",
    ])
    assert status == 1
    payload = json.loads(json_path.read_text())
    assert payload["ok"] is False
    assert payload["files_checked"] >= 6
    reported = {(f["path"], f["rule"], f["line"])
                for f in payload["findings"]}
    assert reported == set(_expected_findings())


def test_cli_writes_sarif(tmp_path):
    from repro.lint.cli import main

    sarif_path = tmp_path / "report" / "findings.sarif"
    status = main([
        "--root", str(FIXTURES), "--sarif", str(sarif_path), "-q", ".",
    ])
    assert status == 1
    log = json.loads(sarif_path.read_text())
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    assert {r["id"] for r in run["tool"]["driver"]["rules"]} \
        == set(available_rules())
    reported = {
        (res["locations"][0]["physicalLocation"]["artifactLocation"]
         ["uri"],
         res["ruleId"],
         res["locations"][0]["physicalLocation"]["region"]["startLine"])
        for res in run["results"]
    }
    assert reported == set(_expected_findings())
    assert all(res["level"] == "error" for res in run["results"])
    assert run["invocations"][0]["executionSuccessful"] is False
    # The corpus's stale suppressions ride along as notifications.
    notes = run["invocations"][0]["toolExecutionNotifications"]
    assert any("stale suppression" in n["message"]["text"]
               for n in notes)


def test_cli_write_baseline_then_clean(tmp_path):
    from repro.lint.cli import main

    baseline_path = tmp_path / "grandfathered.json"
    wrote = main([
        "--root", str(FIXTURES), "--baseline", str(baseline_path),
        "--write-baseline", "-q", ".",
    ])
    assert wrote == 0
    clean = main([
        "--root", str(FIXTURES), "--baseline", str(baseline_path),
        "-q", ".",
    ])
    assert clean == 0


def test_cli_rejects_unknown_rules():
    from repro.lint.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["--rules", "no-such-rule"])
    assert excinfo.value.code == 2
