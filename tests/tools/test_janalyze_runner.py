"""Runner exit codes, the baseline workflow, and the CLI entry points."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.janalyze import runner

BAD_SOURCE = textwrap.dedent(
    """\
    def f():
        try:
            return 1
        except Exception:
            return None
    """
)


@pytest.fixture
def violating_root(tmp_path) -> Path:
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "bad.py").write_text(BAD_SOURCE)
    return tmp_path


def lint(root: Path, *extra: str) -> int:
    return runner.main(
        ["--root", str(root), "--only", "broad-except", *extra]
    )


def test_findings_exit_1(violating_root, capsys):
    assert lint(violating_root) == 1
    out = capsys.readouterr()
    assert "FAIL:" in out.out
    assert "1 finding(s)" in out.err


def test_write_baseline_then_clean_exit_0(violating_root, capsys):
    baseline = violating_root / "baseline.json"
    assert lint(violating_root, "--write-baseline", "--baseline", str(baseline)) == 0
    assert baseline.exists()
    assert lint(violating_root, "--baseline", str(baseline)) == 0
    out = capsys.readouterr()
    assert "1 baselined" in out.out


def test_stale_baseline_fails_only_under_strict(violating_root, capsys):
    baseline = violating_root / "baseline.json"
    lint(violating_root, "--write-baseline", "--baseline", str(baseline))
    # Fix the finding: the baseline entry is now stale.
    (violating_root / "src" / "repro" / "bad.py").write_text("x = 1\n")
    assert lint(violating_root, "--baseline", str(baseline)) == 0
    assert lint(violating_root, "--baseline", str(baseline), "--strict") == 1
    assert "STALE:" in capsys.readouterr().out


def test_json_report_shape(violating_root, capsys):
    assert lint(violating_root, "--json") == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["checkers"] == ["broad-except"]
    assert len(report["findings"]) == 1
    assert report["findings"][0]["checker"] == "broad-except"
    assert report["findings"][0]["fingerprint"]


def test_unknown_checker_exit_2(tmp_path):
    assert runner.main(["--root", str(tmp_path), "--only", "nonsense"]) == 2


def test_corrupt_baseline_exit_2(violating_root):
    baseline = violating_root / "baseline.json"
    baseline.write_text('{"version": 99}')
    assert lint(violating_root, "--baseline", str(baseline)) == 2


def test_list_exit_0(capsys):
    assert runner.main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "lock-discipline",
        "determinism",
        "pickle-boundary",
        "wire-schema",
        "broad-except",
        "doc-links",
    ):
        assert name in out


def test_syntax_error_in_scope_is_a_parse_finding(tmp_path, capsys):
    (tmp_path / "src" / "repro").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "bad.py").write_text("def broken(:\n")
    assert lint(tmp_path) == 1
    assert "[parse]" in capsys.readouterr().out


def test_find_repo_root_walks_up(repo_root):
    assert runner.find_repo_root(repo_root / "src" / "repro") == repo_root


# ----------------------------------------------------- the repo lints clean
def test_repo_is_clean_with_empty_baseline(repo_root, capsys):
    assert runner.main(["--root", str(repo_root), "--strict"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_module_entry_point(repo_root):
    proc = subprocess.run(
        [sys.executable, "-m", "tools.janalyze", "--strict"],
        cwd=repo_root,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
