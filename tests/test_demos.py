"""The demos run end to end against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_stencils_and_annihilation.py",
    "02_poisson_jump_detection.py",
    "03_epidemic_hub_cascade.py",
    "04_error_heatmap.py",
    "05_order_baselines.py",
    "06_multicascade_intersection.py",
    "07_binned_daily_series.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), RATEJUMP_OUT=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
