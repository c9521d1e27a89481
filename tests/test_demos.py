"""The fast demo scripts run end to end: each exits 0 and writes its CSV.

`analytic_vs_montecarlo.py` takes a few seconds and is checked by hand
instead."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# demo -> (CSV it writes, data rows in that CSV)
FAST_DEMOS = {
    "coverage_vs_distance": ("coverage_vs_distance.csv", 300),
    "hypergeometric_accuracy": ("hypergeometric_accuracy.csv", 15),
    "airtime_and_aloha": ("airtime_and_aloha.csv", 6),
    "throughput_sweep": ("throughput_sweep.csv", 10),
}


@pytest.mark.parametrize("demo", sorted(FAST_DEMOS))
def test_fast_demo_runs_and_writes_its_csv(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    csv_name, rows = FAST_DEMOS[demo]
    lines = (tmp_path / csv_name).read_text().splitlines()
    assert len(lines) == 1 + rows
    assert f"wrote {csv_name}" in run.stdout
