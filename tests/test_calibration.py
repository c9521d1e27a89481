"""Calibration of the Monte Carlo oracle against the closed form.

Criterion 6 spot-checks 15 points at 3 SE each. Here the oracle is judged by
the distribution of its standardized errors over many independent runs,
after Cook, Gelman & Rubin (2006): 3 node counts x 60 distances, 20k trials
per point, each point with its own seed. If the estimator is unbiased for
the closed form and its standard error is right, z = (MC C1 - closed form) /
SE is close to standard normal over the n points. The mean of z must then
lie within 4 / sqrt(n) of 0 and its standard deviation inside the 99.99%
chi-square band sqrt(chi2_q(n - 1) / (n - 1)), q = 5e-5 and 1 - 5e-5.
"""

import math

import numpy as np
import pytest
from scipy import stats

from loracell import TypicalNode, coverage_sweep, default_scenario, estimate_coverage

NODE_COUNTS = (250, 500, 2500)
DISTANCES = np.linspace(50.0, 2950.0, 60)
TRIALS = 20_000
TAIL = 5e-5


@pytest.fixture(scope="module")
def estimates():
    """(MC C1, its SE, closed-form C1) at every point; one sweep per node count."""
    base = default_scenario("coverage_eu868")
    mc, se, closed = [], [], []
    for a, count in enumerate(NODE_COUNTS):
        scn = base.with_node_count(count)
        sweep = coverage_sweep(scn, DISTANCES)
        for k, (d, sf) in enumerate(zip(sweep.distance_m.tolist(), sweep.sf.tolist())):
            _, _, c1 = estimate_coverage(TypicalNode(d, sf), scn, TRIALS,
                                         seed=7000 + 100 * a + k)
            mc.append(c1.mean)
            se.append(c1.standard_error)
        closed += sweep.c1.tolist()
    return np.array(mc), np.array(se), np.array(closed)


def calibration_failures(mc, se, closed) -> list[str]:
    """The bounds the z-scores break; points whose SE is 0 are skipped."""
    keep = se > 0
    z = (mc[keep] - closed[keep]) / se[keep]
    n = z.size
    lo, hi = (math.sqrt(stats.chi2.ppf(q, n - 1) / (n - 1)) for q in (TAIL, 1 - TAIL))
    fails = []
    if abs(z.mean()) > 4 / math.sqrt(n):
        fails.append(f"mean z {z.mean():+.3f} beyond +-{4 / math.sqrt(n):.3f} (n={n})")
    if not lo <= z.std(ddof=1) <= hi:
        fails.append(f"sd of z {z.std(ddof=1):.3f} outside [{lo:.3f}, {hi:.3f}] (n={n})")
    return fails


def test_monte_carlo_z_scores_are_standard_normal(estimates):
    assert estimates[0].size == len(NODE_COUNTS) * DISTANCES.size
    assert calibration_failures(*estimates) == []


def test_calibration_sees_a_closed_form_off_by_three_per_mille(estimates):
    mc, se, closed = estimates
    assert calibration_failures(mc, se, closed * 1.003) != []
