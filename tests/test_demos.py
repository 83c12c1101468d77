"""Every demo script runs to completion from a fresh working directory,
with every warning an error."""

import os
from pathlib import Path
import subprocess
import sys

import pytest

import wingbeat

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))
SRC = Path(wingbeat.__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = subprocess.run([sys.executable, "-W", "error", str(demo)],
                            cwd=tmp_path,
                            env=dict(os.environ, PYTHONPATH=str(SRC)),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
