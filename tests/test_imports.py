"""Cold start: importing the package loads scipy.special and nothing heavier."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats

import loracell
from loracell import simulator

_PROBE = """
import sys
import loracell, loracell.cli
heavy = [m for m in sys.modules if m.startswith(("scipy.stats", "scipy.integrate"))]
assert not heavy, heavy
from loracell import hyp2f1, hyp2f1_oracle
assert abs(hyp2f1_oracle(1.0, 0.5, 1.5, -3.0) - hyp2f1(1.0, 0.5, 1.5, -3.0)) <= 1e-10
assert "scipy.integrate" in sys.modules
"""


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    src = str(Path(loracell.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 0, done.stderr


def test_ci95_equals_scipy_stats_t_quantile_bit_for_bit():
    values = np.random.default_rng(20200306).random(64)
    for n in range(2, 65):
        v = values[:n]
        expected = float(stats.t.ppf(0.975, n - 1) * v.std(ddof=1) / math.sqrt(n))
        assert simulator._ci95(v) == expected
    assert simulator._ci95(values[:1]) == 0.0
