"""Smoke tests for the example scripts.

Each example is compiled; the CI examples job runs them all.  The
quickstart's full pipeline is executed here because it doubles as the
README contract, and the PLA workflow's because it checks every lattice
it synthesizes.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    pathlib.Path(__file__).resolve().parent.parent.joinpath("examples").glob("*.py")
)


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 3


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    source = path.read_text()
    compile(source, str(path), "exec")
    assert '"""' in source  # every example carries a docstring header
    assert "def main()" in source


def test_quickstart_runs_end_to_end():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES[[p.name for p in EXAMPLES].index("quickstart.py")])],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "JANUS solution: 3x4" in result.stdout
    assert "verified" in result.stdout


def test_pla_workflow_runs_end_to_end():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES[[p.name for p in EXAMPLES].index("pla_workflow.py")])],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "read mult2.pla: 4 inputs, 4 outputs" in result.stdout
    lattices = [
        line for line in result.stdout.splitlines()
        if line.startswith("  lattice:")
    ]
    assert len(lattices) == 4
    assert all(line.endswith("switches, verified") for line in lattices)
    assert "every band verified" in result.stdout
