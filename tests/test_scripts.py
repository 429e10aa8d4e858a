"""Smoke tests of the experiment scripts: each runs to exit 0."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args", [
    ("run_structure_suite.py", ["--engel"]),
    ("growth_experiment.py", ["--radius", "4"]),
    ("perfect_base_run.py", []),
])
def test_script_runs(tmp_path, script, args):
    if script == "run_structure_suite.py":
        args = ["--json-dir", str(tmp_path)] + args
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
