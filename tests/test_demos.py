"""The demo scripts run clean: exit 0 and nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert [d.name for d in DEMOS] == [
        "01_classify.py",
        "02_quivers.py",
        "03_mutation_walk.py",
        "04_oracles.py",
    ]


@pytest.mark.parametrize("script", DEMOS, ids=lambda d: d.name)
def test_demo_runs_clean(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
