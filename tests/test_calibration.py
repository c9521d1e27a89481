"""Calibration of the Monte Carlo oracle against the closed form.

Criterion 6 spot-checks 15 points at 3 SE each. Here the oracle is judged by
the distribution of its standardized errors over many independent runs,
after Cook, Gelman & Rubin (2006): 3 node counts x 60 distances, 20k trials
per point, each point with its own seed. If the estimator is unbiased for
the closed form and its standard error is right, z = (MC C1 - closed form) /
SE is close to standard normal over the n points. The mean of z must then
lie within 4 / sqrt(n) of 0 and its standard deviation inside the 99.99%
chi-square band sqrt(chi2_q(n - 1) / (n - 1)), q = 5e-5 and 1 - 5e-5.

The same 180 points at 2,000 trials, with their own seeds and the same
bounds, check the control-variate standard error where few trials hold a
close ring-0 interferer: there the sample variance of the control falls
short of its known variance. Those points are few among the 180, so the
last test repeats the worst of them, N = 250 at 50 m, 200 times: its SE may
err on the safe side there, but |z| > 4, which a normal z passes once in
16,000 runs, may occur at most twice.
"""

import math

import numpy as np
import pytest
from scipy import stats

from loracell import (
    TypicalNode,
    coverage_probability,
    coverage_sweep,
    default_scenario,
    estimate_coverage,
    typical_at,
)

NODE_COUNTS = (250, 500, 2500)
DISTANCES = np.linspace(50.0, 2950.0, 60)
TRIALS = 20_000
FEW_TRIALS = 2_000
TAIL = 5e-5


def calibration_points(trials: int, seed: int):
    """(MC C1, its SE, closed-form C1) at every point; one sweep per node count."""
    base = default_scenario("coverage_eu868")
    mc, se, closed = [], [], []
    for a, count in enumerate(NODE_COUNTS):
        scn = base.with_node_count(count)
        sweep = coverage_sweep(scn, DISTANCES)
        for k, (d, sf) in enumerate(zip(sweep.distance_m.tolist(), sweep.sf.tolist())):
            _, _, c1 = estimate_coverage(TypicalNode(d, sf), scn, trials,
                                         seed=seed + 100 * a + k)
            mc.append(c1.mean)
            se.append(c1.standard_error)
        closed += sweep.c1.tolist()
    return np.array(mc), np.array(se), np.array(closed)


@pytest.fixture(scope="module")
def estimates():
    return calibration_points(TRIALS, 7000)


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


def test_few_trial_z_scores_are_standard_normal():
    assert calibration_failures(*calibration_points(FEW_TRIALS, 9000)) == []


def test_few_trial_standard_error_holds_beside_the_gateway():
    scn = default_scenario("coverage_eu868").with_node_count(250)
    typical = typical_at(scn.topology, 50.0)
    closed = coverage_probability(typical, scn).c1
    z = []
    for run in range(200):
        _, _, c1 = estimate_coverage(typical, scn, FEW_TRIALS, seed=600_000 + run)
        z.append((c1.mean - closed) / c1.standard_error)
    assert np.sum(np.abs(z) > 4.0) <= 2
