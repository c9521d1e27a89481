"""Monte Carlo estimator of connection, capture and coverage probabilities.

The interference is sampled from the generative model with no closed form:
Poisson interferer counts per SF ring (intensity alpha_j over the ring area),
uniform positions inside each ring and unit-mean exponential Rayleigh fading.
Per ring and chunk of m trials one Poisson(mean * m) total is drawn and each
interferer gets a uniform trial label; by Poisson splitting the per-trial
counts are iid Poisson(mean). Thresholds and the fading mode never alter the
random stream (common random numbers).

The typical node's own fading is averaged out, not drawn: with mean signal S,
P(S h > x) = exp(-x / S), so H1 = exp(-gamma sigma^2 / S) is exact (standard
error 0). With a fading draw per threshold event (the default, the estimand
of the closed-form product) a trial gives q_t = exp(-sum_j delta_j I_j / S),
Q1 = mean(q) and C1 = H1 * Q1. With one shared draw (shared_fading=True),
q_t = exp(-max_j delta_j I_j / S) and C1 averages exp(-max(gamma sigma^2,
max_j delta_j I_j) / S), above the product form. Standard errors are sample
standard errors of the per-trial values (variance over n); C1 <= min(H1, Q1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coverage import TypicalNode, connection_probability, path_gain, sf_indices
from .scenario import ConfigurationError, RadioConfig, Scenario

_CHUNK = 250_000


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    standard_error: float
    trials: int


def _chunks(trials: int) -> list[int]:
    """Chunk sizes covering `trials` trials, so memory stays bounded."""
    if trials < 1:
        raise ConfigurationError(f"trials must be at least 1, got {trials}")
    return [min(_CHUNK, trials - start) for start in range(0, trials, _CHUNK)]


def _summary(values: np.ndarray) -> tuple[int, float, float]:
    return values.size, values.mean(), values.var()


def _estimate(parts: list[tuple[int, float, float]], cap: float = 1.0) -> MCEstimate:
    """Mean (at most `cap`) and sample standard error from per-chunk summaries."""
    size, mean, var = np.array(parts).T
    n = int(size.sum())
    pooled = float((size * mean).sum() / n)
    variance = (size * (var + (mean - pooled) ** 2)).sum() / n
    return MCEstimate(min(pooled, cap), float(np.sqrt(variance / n)), n)


def _received_mw(distance_m: float, radio: RadioConfig) -> float:
    return radio.tx_power_mw * radio.antenna_gain_linear * path_gain(distance_m, radio)


def _sum_by_trial(powers: np.ndarray, trial_idx: np.ndarray, trials: int) -> np.ndarray:
    """Aggregate interference: plain linear sum of powers per trial (float, even if empty)."""
    return np.bincount(trial_idx, weights=powers, minlength=trials).astype(float, copy=False)


def _ring_interference(rng: np.random.Generator, scenario: Scenario, ring: int,
                       trials: int, scale: float = 1.0) -> np.ndarray:
    """Per-trial summed interferer power (mW) from one SF ring, times `scale`."""
    topo, radio = scenario.topology, scenario.radio
    lo2, hi2 = np.square(topo.boundaries_m[ring:ring + 2])
    total = rng.poisson(float(topo.intensities[ring] * topo.ring_areas_m2[ring]) * trials)
    trial_idx = rng.integers(0, trials, size=total)
    p = rng.random(total)       # r^2 uniform on (lo^2, hi^2]: over the annulus, never r = 0
    p *= lo2 - hi2
    p += hi2
    np.power(p, -radio.path_loss_exponent / 2.0, out=p)
    p *= rng.exponential(size=total)                    # r^-eta h
    inter = _sum_by_trial(p, trial_idx, trials)
    inter *= _received_mw(1.0, radio) * scale
    return inter


def estimate_coverage(typical: TypicalNode, scenario: Scenario, trials: int,
                      seed: int, shared_fading: bool = False
                      ) -> tuple[MCEstimate, MCEstimate, MCEstimate]:
    """Estimate (H1, Q1, C1) by sampling the interference. Deterministic per seed."""
    (i,) = sf_indices(typical, topology=scenario.topology)
    rng = np.random.default_rng(seed)
    h1 = connection_probability(typical, scenario.radio, scenario.thresholds)
    weights = scenario.thresholds.sir_linear[i] / _received_mw(typical.distance_m,
                                                               scenario.radio)
    combine = np.maximum if shared_fading else np.add
    q_parts, c_parts = [], []
    for m in _chunks(trials):
        load = np.zeros(m)
        for j, w in enumerate(weights):
            combine(load, _ring_interference(rng, scenario, j, m, w), out=load)
        q = np.exp(np.negative(load, out=load), out=load)
        q_parts.append(_summary(q))
        if shared_fading:       # min(H1, q_t) = exp(-max(gamma sigma^2, max_j delta_j I_j) / S)
            c_parts.append(_summary(np.minimum(q, h1)))
    q1 = _estimate(q_parts)
    # the cap holds the mean to the bounds it obeys in exact arithmetic
    c1 = (_estimate(c_parts, cap=min(h1, q1.mean)) if shared_fading
          else MCEstimate(h1 * q1.mean, h1 * q1.standard_error, trials))
    return MCEstimate(h1, 0.0, trials), q1, c1


def estimate_sir_ring(typical: TypicalNode, ring_sf: int, scenario: Scenario,
                      trials: int, seed: int) -> MCEstimate:
    """Estimate P(SIR_j > delta_ij) for a single interfering ring.

    Useful for localizing a disagreement with the closed form. The channel
    samples depend only on (seed, trials, ring), so sweeps over delta reuse
    identical draws.
    """
    i, j = sf_indices(typical, ring_sf, topology=scenario.topology)
    rng = np.random.default_rng(seed)
    weight = scenario.thresholds.sir_linear[i, j] / _received_mw(typical.distance_m,
                                                                 scenario.radio)
    return _estimate([_summary(np.exp(-_ring_interference(rng, scenario, j, m, weight)))
                      for m in _chunks(trials)])
