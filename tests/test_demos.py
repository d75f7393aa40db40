"""Every script under demos/ runs to completion and prints something; the
demos in RECORDED print their output under tests/data byte for byte."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = (
    "01_split_conformal",
    "02_online_adaptation",
    "03_cross_series_pooling",
    "04_method_comparison",
)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if demo.stem in RECORDED:
        assert proc.stdout == (ROOT / "tests" / "data" / f"{demo.stem}.stdout").read_text()
