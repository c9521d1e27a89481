"""Monte Carlo estimator of connection, capture and coverage probabilities.

The interference is sampled from the generative model with no closed form:
Poisson interferer counts per SF ring (intensity alpha_j over the ring area),
uniform positions inside each ring and unit-mean exponential Rayleigh fading.
The trials of a call are split into equal blocks of about 2^18 expected
interferers over the rings drawn, and at most 2^18 trials, so memory stays
bounded and a block's arrays stay cache-sized (about 2 MiB each at most).
Block k draws from its own generator, SeedSequence(seed).spawn(n_blocks)[k].
Per ring and block of m trials one Poisson(mean * m) total is drawn and each
interferer draws one uniform u: floor(u m) is its trial label and the fraction
of u m its position. As fl(u m) < m for u < 1, no label needs a clamp, and at
m <= 2^18 the fraction keeps at least 35 bits. By Poisson splitting the
per-trial counts are iid Poisson(mean). The block layout depends only on the
trial count and the ring intensities, so thresholds and the fading mode never
alter the positions drawn from the seed (common random numbers). A block
depends only on its own stream and size, and summaries are pooled in block
order, so blocks may run in any order or at once without changing an estimate.

Fading is averaged out wherever the estimand allows. With mean signal S,
P(S h > x) = exp(-x / S), so H1 = exp(-gamma sigma^2 / S) is exact (SE 0).
With a fading draw per threshold event (the default, the estimand of the
closed-form product) E[exp(-w P h)] = 1 / (1 + w P) averages out each
interferer's too: a trial gives the PGFL form q_t = exp(-sum_k log1p(w_j P_k)),
w_j = delta_j / S, with Q1 = mean(q) and C1 = H1 * Q1. With one shared draw
(shared_fading=True) interferer fading is drawn from a stream spawned off the
block's, q_t = exp(-max_j w_j I_j), and C1 averages exp(-max(gamma sigma^2,
max_j delta_j I_j) / S), above the product form. C1 <= min(H1, Q1).

In the default mode the exponent x_t = -log q_t is its own control variate
(Lavenberg & Welch 1981). x is compound Poisson, so its mean kappa1 and
variance kappa2 are sums over rings of mu_j E[g^n], g = log1p(w_j P), by
linearity and Poisson counts alone: one numpy quadrature per call, no PGFL.
Each block returns the sums (n, x, q, x q, q^2, x^2), pooled in block order;
with b = s_xq / s_x^2 the estimate is Q1 = mean(q) - b (mean(x) - kappa1),
clamped to [0, 1], and its SE^2 = (s_q^2 - 2 b s_xq + b^2 max(kappa2, s_x^2)) / n.
Where rare close interferers dominate Var(x), few trials hold one, and s_x^2
and the textbook residual SE fall short; the max keeps the SE at or above that
residual SE. Shared mode and `estimate_sir_ring` report the sample
standard error of the per-trial values (variance over n).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .coverage import TypicalNode, _connection, _received_mw, sf_indices
from .scenario import ConfigurationError, Scenario

_BLOCK = 1 << 18       # expected interferers, and the trial cap, of one block
_LOG_LINEAR = 40.0     # log1p(z) = log z to within e^-40 relative beyond z = e^40


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    standard_error: float
    trials: int


def _blocks(trials: int, interferers_per_trial: float) -> list[int]:
    """Equal block sizes (differing by at most 1) covering `trials` trials, each
    of about `_BLOCK` expected interferers and at most `_BLOCK` trials."""
    if not isinstance(trials, (int, np.integer)):
        raise ConfigurationError(f"trials must be a whole number, got {trials}")
    if trials < 1:
        raise ConfigurationError(f"trials must be at least 1, got {trials}")
    n = -(-trials // max(1, int(_BLOCK / max(interferers_per_trial, 1.0))))
    return [trials // n + (k < trials % n) for k in range(n)]


def _map_blocks(block, trials: int, rings: slice, scenario: Scenario, seed: int) -> list:
    """`block(stream, m)` over the call's trial blocks in block order, block k
    drawing from `SeedSequence(seed).spawn(n_blocks)[k]`."""
    topo = scenario.topology
    sizes = _blocks(trials, float((topo.intensities * topo.ring_areas_m2)[rings].sum()))
    return list(map(block, np.random.SeedSequence(seed).spawn(len(sizes)), sizes))


def _summary(values: np.ndarray) -> tuple[int, float, float]:
    return values.size, values.mean(), values.var()


def _estimate(parts: list[tuple[int, float, float]], cap: float = 1.0) -> MCEstimate:
    """Mean (at most `cap`) and sample standard error from per-block summaries."""
    size, mean, var = np.array(parts).T
    n = int(size.sum())
    pooled = float((size * mean).sum() / n)
    variance = (size * (var + (mean - pooled) ** 2)).sum() / n
    return MCEstimate(min(pooled, cap), float(np.sqrt(variance / n)), n)


def _control_sums(x: np.ndarray) -> tuple[int, float, float, float, float, float]:
    """(n, sum x, sum q, sum x q, sum q^2, sum x^2) of a block, q = exp(-x)."""
    q = np.negative(x)
    np.exp(q, out=q)
    # einsum keeps the products off the multithreaded BLAS that `@` would call
    return (x.size, x.sum(), q.sum(), np.einsum("i,i", x, q), np.einsum("i,i", q, q),
            np.einsum("i,i", x, x))


def _controlled(parts: list[tuple], kappa1: float, kappa2: float) -> MCEstimate:
    """Mean of q = exp(-x), in [0, 1], with x as control variate of known mean
    kappa1 and variance kappa2, from per-block `_control_sums`."""
    n, sx, sq, sxq, sqq, sxx = np.sum(parts, axis=0)
    mx, mq = sx / n, sq / n
    vxx, vxq, vqq = sxx / n - mx * mx, sxq / n - mx * mq, sqq / n - mq * mq
    b = vxq / vxx if vxx > 0 else 0.0
    mean = mq - b * (mx - kappa1)
    variance = vqq - 2.0 * b * vxq + b * b * max(kappa2, vxx)
    return MCEstimate(float(min(max(mean, 0.0), 1.0)), float(np.sqrt(max(variance, 0.0) / n)),
                      int(n))


@functools.cache
def _legendre16() -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss-Legendre nodes and weights on [-1, 1], computed (and
    numpy.polynomial imported) at the first call."""
    return np.polynomial.legendre.leggauss(16)


def _load_cumulants(scenario: Scenario, weights: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a trial's exponent x = sum_j sum_k log1p(w_j P_k).

    Ring j adds Poisson(mu_j) terms g = log1p(c_j s^-beta), c_j = w_j P(1 m),
    beta = eta / 2 and s = r^2 uniform on (lo^2, hi^2], so kappa_n = sum_j mu_j
    E[g^n]. Where c s^-beta > e^40, g = L = log c - beta log s and the integrals
    are closed: int_0^s L = s (L + beta), int_0^s L^2 = s (L^2 + 2 beta L + 2 beta^2).
    Above that point 16-point Gauss-Legendre panels, at most one e-fold wide in
    v = log s, take the rest, every ring in one array.
    """
    topo = scenario.topology
    nodes, quad_weights = _legendre16()
    beta = scenario.radio.path_loss_exponent / 2.0
    log_c = np.log(_received_mw(1.0, scenario.radio) * weights)
    edges2 = np.square(topo.boundaries_m)
    lo2, hi2 = edges2[:-1], edges2[1:]
    s_log = np.clip(np.exp((log_c - _LOG_LINEAR) / beta), lo2, hi2)
    v0, v1 = np.log(s_log), np.log(hi2)
    panels = max(1, int(np.ceil((v1 - v0).max())))
    h = ((v1 - v0) / panels)[:, None, None]
    v = v0[:, None, None] + h * (np.arange(panels)[:, None] + (nodes + 1.0) / 2.0)
    g = np.log1p(np.exp(log_c[:, None, None] - beta * v))
    dg = np.exp(v) * (h / 2.0 * quad_weights) * g
    # the closed parts over (0, s_log] and (0, lo^2], s = 0 giving 0, are
    # differenced first: each may dwarf the quadrature
    s = np.stack([s_log, lo2])
    ell = log_c - beta * np.log(s, out=np.zeros_like(s), where=s > 0)
    c1, c2 = s * (ell + beta), s * (ell * (ell + 2.0 * beta) + 2.0 * beta * beta)
    m1 = dg.sum(axis=(1, 2)) + (c1[0] - c1[1])
    m2 = (dg * g).sum(axis=(1, 2)) + (c2[0] - c2[1])
    per_s = topo.intensities * topo.ring_areas_m2 / (hi2 - lo2)
    return float((per_s * m1).sum()), float((per_s * m2).sum())


def _sum_by_trial(terms: np.ndarray, trial_idx: np.ndarray, trials: int) -> np.ndarray:
    """Per-trial sum of per-interferer terms, powers or log1p terms (float, even if empty)."""
    return np.bincount(trial_idx, weights=terms, minlength=trials).astype(float, copy=False)


def _ring_exponent(rng: np.random.Generator, scenario: Scenario, ring: int, trials: int,
                   weight: float, fading: np.random.Generator | None) -> np.ndarray:
    """Per-trial exponent from one SF ring's interferers, with received powers
    P_k (mW): sum_k log1p(w P_k), each interferer's fading averaged out, or
    w sum_k P_k h_k with h_k drawn from `fading`. Positions come from `rng` alone:
    one uniform u per interferer, whose u * trials gives its trial and position."""
    topo, radio = scenario.topology, scenario.radio
    lo2, hi2 = np.square(topo.boundaries_m[ring:ring + 2])
    total = rng.poisson(float(topo.intensities[ring] * topo.ring_areas_m2[ring]) * trials)
    p = rng.random(total)
    p *= trials                 # fl(u m) < m for u < 1: the label floor(u m) needs no clamp
    trial_idx = p.astype(np.intp)
    p -= trial_idx              # the fraction, in [0, 1): r^2 uniform on (lo^2, hi^2]
    p *= lo2 - hi2
    p += hi2
    np.power(p, -radio.path_loss_exponent / 2.0, out=p)
    p *= _received_mw(1.0, radio) * weight                # w P_k
    if fading is None:
        np.log1p(p, out=p)
    else:
        p *= fading.exponential(size=total)
    return _sum_by_trial(p, trial_idx, trials)


def estimate_coverage(typical: TypicalNode, scenario: Scenario, trials: int,
                      seed: int, shared_fading: bool = False
                      ) -> tuple[MCEstimate, MCEstimate, MCEstimate]:
    """Estimate (H1, Q1, C1) by sampling the interference. Deterministic per seed."""
    (i,) = sf_indices(typical, topology=scenario.topology)
    h1 = float(_connection(np.array([typical.distance_m], dtype=float), np.array([i]),
                           scenario.radio, scenario.thresholds)[0])
    weights = scenario.thresholds.sir_linear[i] / _received_mw(typical.distance_m,
                                                               scenario.radio)
    combine = np.maximum if shared_fading else np.add

    def block(stream: np.random.SeedSequence, m: int):
        rng = np.random.default_rng(stream)
        fading = np.random.default_rng(stream.spawn(1)[0]) if shared_fading else None
        load = np.zeros(m)
        for j, w in enumerate(weights):
            combine(load, _ring_exponent(rng, scenario, j, m, w, fading), out=load)
        if not shared_fading:
            return _control_sums(load)
        q = np.exp(np.negative(load, out=load), out=load)
        # min(H1, q_t) = exp(-max(gamma sigma^2, max_j delta_j I_j) / S)
        return _summary(q), _summary(np.minimum(q, h1))

    parts = _map_blocks(block, trials, slice(None), scenario, seed)
    if shared_fading:
        q_parts, c_parts = zip(*parts)
        q1 = _estimate(q_parts)
        # the cap holds the mean to the bounds it obeys in exact arithmetic
        c1 = _estimate(c_parts, cap=min(h1, q1.mean))
    else:
        q1 = _controlled(parts, *_load_cumulants(scenario, weights))
        c1 = MCEstimate(h1 * q1.mean, h1 * q1.standard_error, trials)
    return MCEstimate(h1, 0.0, trials), q1, c1


def estimate_sir_ring(typical: TypicalNode, ring_sf: int, scenario: Scenario,
                      trials: int, seed: int) -> MCEstimate:
    """Estimate P(SIR_j > delta_ij) for a single interfering ring.

    Useful for localizing a disagreement with the closed form. The channel
    samples depend only on (seed, trials, ring), so sweeps over delta reuse
    identical draws.
    """
    i, j = sf_indices(typical, ring_sf, topology=scenario.topology)
    weight = scenario.thresholds.sir_linear[i, j] / _received_mw(typical.distance_m,
                                                                 scenario.radio)

    def block(stream: np.random.SeedSequence, m: int):
        return _summary(np.exp(-_ring_exponent(np.random.default_rng(stream), scenario,
                                               j, m, weight, None)))

    return _estimate(_map_blocks(block, trials, slice(j, j + 1), scenario, seed))
