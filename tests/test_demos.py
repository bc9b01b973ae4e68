"""Every demo runs to completion in a fresh interpreter, and none of the
checks it prints reads False."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_three_demos_are_found():
    assert [demo.name for demo in DEMOS] == [
        "construction_tour.py", "identity_zoo.py", "inverse_routes.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs_and_every_check_holds(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    assert [line for line in lines if line.rstrip().endswith("False")] == []
