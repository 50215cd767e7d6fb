"""The demos run end to end against the package in ``src``."""

import os
import re
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


def quick_start_blocks():
    """The Python blocks of the README's quick start, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", quick_start, flags=re.S)


def test_readme_quick_start():
    detect_block, hub_block = quick_start_blocks()
    scope = {}
    exec(detect_block, scope)
    report = scope["report"]
    commented = float(re.search(r"# \[([0-9.]+)\]", detect_block).group(1))
    (estimate,) = report.times
    assert abs(estimate - commented) <= report.delta / report.steps_per_delta
    scope = {}
    exec(hub_block, scope)
    assert abs(scope["t_hat"] - scope["trace"].times[scope["graph"].hub]) <= 0.01
