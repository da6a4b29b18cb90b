"""The demo scripts run from a source checkout and reproduce the records."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo, reproduced",
    [("reproduce_records.py", 4), ("coordinate_dichotomy.py", 0)],
)
def test_demo_runs(demo, reproduced):
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
        check=False,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert sum(line.endswith(": reproduced-lower") for line in lines) == reproduced
