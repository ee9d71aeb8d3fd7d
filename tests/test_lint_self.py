"""The repo passes its own linter — the tier-1 enforcement hook.

This is the test that makes ``repro.lint`` load-bearing: a new lock
violation, blocking call in a coroutine, unpicklable boundary type,
frozen-type mutation, or rotted export anywhere under the default
targets fails the ordinary test run, not just a separate CI job.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint import Baseline, available_rules, run_lint
from repro.lint.cli import BASELINE_NAME

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Rules whose baseline must stay empty: no grandfathered concurrency
#: or serialization debt, ever (ISSUE acceptance criterion). The
#: whole-program rules joined the set the day they landed — the repo
#: was cleaned in the same change, so they start with zero debt too.
ZERO_BASELINE_RULES = {
    "lock-guard", "async-safety", "picklability", "frozen-mutation",
    "lock-cycle", "determinism", "exception-contract", "wire-schema",
    "unreachable-module",
}


def test_repo_is_lint_clean():
    report = run_lint(
        baseline_path=REPO_ROOT / BASELINE_NAME, root=REPO_ROOT,
    )
    assert report.files_checked > 100
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.ok, f"new lint findings:\n{rendered}"
    assert not report.stale_baseline
    stale = "\n".join(s.render() for s in report.stale_suppressions)
    assert not report.stale_suppressions, (
        f"suppression comments that silence nothing:\n{stale}"
    )


def test_concurrency_rules_have_no_baselined_debt():
    baseline = Baseline.load(REPO_ROOT / BASELINE_NAME)
    leftover = [
        key for key in baseline.stale_keys()
        if key[0] in ZERO_BASELINE_RULES
    ]
    assert not leftover, (
        f"baselined debt for zero-tolerance rules: {leftover}"
    )


def test_rule_registry_is_complete():
    assert set(available_rules()) == {
        "lock-guard", "lock-order", "async-safety", "picklability",
        "frozen-mutation", "api-surface", "lock-cycle", "determinism",
        "exception-contract", "wire-schema", "unreachable-module",
    }


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in
        (str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")) if part
    )
    return env


def test_cli_module_entry_point_is_clean(tmp_path):
    json_path = tmp_path / "findings.json"
    completed = subprocess.run(
        [sys.executable, "-m", "repro.lint", "-q",
         "--json", str(json_path)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
        env=_subprocess_env(),
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert completed.stdout.strip().startswith("OK:")
    payload = json.loads(json_path.read_text())
    assert payload["ok"] is True


def test_list_rules_catalog():
    completed = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--list-rules"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
        env=_subprocess_env(),
    )
    assert completed.returncode == 0
    for rule in available_rules():
        assert rule in completed.stdout
