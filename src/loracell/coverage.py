"""Closed-form uplink coverage of a ring-structured LoRaWAN cell.

For a typical node at distance d1 in SF ring i, transmitting over Rayleigh
fading with path loss g(d) = (lambda / 4 pi d)^eta:

  connection  H1 = P(SNR > gamma_i) = exp(-gamma_i sigma_w^2 / (Ptx g1))
  per-ring    P_SIRj = P(SIR_j > delta_ij)
            = exp{-pi alpha_j [ l_j^2  2F1(1, 2/eta; 1+2/eta; -l_j^eta / (d1^eta delta_ij))
                              - l_j-1^2 2F1(1, 2/eta; 1+2/eta; -l_j-1^eta / (d1^eta delta_ij)) ]}
  capture     Q1 = prod_j P_SIRj
  coverage    C1 = H1 * Q1

where alpha_j is the active-interferer intensity of ring j and delta_ij the
capture threshold of SF i against SF j. Everything here is linear-scale;
dB values are converted once by the scenario types.

The model is evaluated over whole distance arrays: one private kernel takes
distances and per-point SF indices, evaluates 2F1 for every ring edge of
every point in one array call and returns a read-only record of columns.
`coverage_probability` takes row 0 of a one-element call, so a point and the
same distance in a sweep give identical values.
The bracketed 2F1 terms form a (ring, distance) table that depends on eta,
the SIR thresholds, the ring edges, the distances and the point SFs, but not
on alpha_j. A one-entry memo keeps the last table of a call with two or more
points, so sweeps of one grid over node counts (`reproduce fig2`, `coverage
--node-counts`, the coverage demo) evaluate 2F1 once, also with single-point
calls in between; only exp(-pi alpha_j * table) is recomputed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hypergeom import hyp2f1
from .scenario import (
    SF_RANGE,
    ConfigurationError,
    RadioConfig,
    RingTopology,
    Scenario,
    ThresholdSet,
)


@dataclass(frozen=True)
class TypicalNode:
    """The probed uplink: distance to the gateway and its SF ring."""

    distance_m: float
    sf: int


@dataclass(frozen=True)
class CoverageBreakdown:
    h1: float                       # connection probability
    p_sir: tuple[float, ...]        # per interfering SF ring 7..12
    q1: float                       # capture probability
    c1: float                       # coverage = h1 * q1


@dataclass(frozen=True, eq=False)
class CoverageSweep:
    """The closed form at n points as read-only columns: (n,), and (ring SF 7..12, n)
    for p_sir. `sweep[k]` builds the `CoverageBreakdown` of point k; two sweeps
    are equal iff every column matches in shape, dtype and bytes."""

    distance_m: np.ndarray
    sf: np.ndarray                  # spreading factor of each point
    h1: np.ndarray
    q1: np.ndarray
    c1: np.ndarray
    p_sir: np.ndarray

    def __post_init__(self) -> None:
        for column in vars(self).values():
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.c1)

    def __getitem__(self, k: int) -> CoverageBreakdown:
        k = range(len(self))[k]     # negative k counts from the end; IndexError past it
        return CoverageBreakdown(float(self.h1[k]), tuple(self.p_sir[:, k].tolist()),
                                 float(self.q1[k]), float(self.c1[k]))

    def __eq__(self, other) -> bool:
        return isinstance(other, CoverageSweep) and all(
            a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
            for a, b in zip(vars(self).values(), vars(other).values()))


def typical_at(topology: RingTopology, distance_m: float) -> TypicalNode:
    """Typical node at a distance, SF taken from the containing ring."""
    return TypicalNode(distance_m=distance_m, sf=topology.sf_at(distance_m))


def path_gain(distance_m, radio: RadioConfig):
    """Linear path gain (lambda / (4 pi d))^eta, for a distance or an array."""
    if np.any(np.less_equal(distance_m, 0)):
        raise ValueError("distance_m must be positive")
    return (radio.wavelength_m / (4.0 * math.pi * distance_m)) ** radio.path_loss_exponent


def noise_power_dbm(radio: RadioConfig) -> float:
    """Thermal noise power -174 + F + 10 log10(B) in dBm."""
    if radio.bandwidth_hz <= 0:
        raise ValueError("bandwidth_hz must be positive")
    return -174.0 + radio.noise_figure_db + 10.0 * math.log10(radio.bandwidth_hz)


def noise_power_mw(radio: RadioConfig) -> float:
    return 10.0 ** (noise_power_dbm(radio) / 10.0)


def _received_mw(distance_m, radio: RadioConfig):
    """Mean received power in mW, for a distance or an array."""
    return radio.tx_power_mw * radio.antenna_gain_linear * path_gain(distance_m, radio)


def _connection(distances_m: np.ndarray, sf_idx: np.ndarray, radio: RadioConfig,
                thresholds: ThresholdSet) -> np.ndarray:
    """H1 at each distance; sf_idx indexes SF_RANGE."""
    gamma = thresholds.snr_floor_linear[sf_idx]
    return np.exp(-gamma * noise_power_mw(radio) / _received_mw(distances_m, radio))


@functools.lru_cache(maxsize=1)
def _ring_terms(eta: float, boundaries: tuple[float, ...], thresholds: ThresholdSet,
                distances: bytes, sf_idx: bytes) -> np.ndarray:
    """The read-only (ring, distance) table l_j^2 2F1(x_j) - l_j-1^2 2F1(x_j-1).
    Its key holds the point SFs: a typical node may carry another ring's SF."""
    d = np.frombuffer(distances)
    b = 2.0 / eta
    # scale[r, k] = d_k^eta * delta(sf_k, ring r)
    scale = d ** eta * thresholds.sir_linear.T[:, np.frombuffer(sf_idx, dtype=np.intp)]
    # edge[0] holds the outer and edge[1] the inner edge of each ring; an
    # inner edge l_0 = 0 gives x = -0, 2F1 = 1 and a zero l^2 weight
    bounds = np.asarray(boundaries)
    edge = np.stack([bounds[1:], bounds[:-1]])[..., None]
    weighted = edge * edge * hyp2f1(1.0, b, 1.0 + b, -(edge ** eta) / scale)
    table = weighted[0] - weighted[1]
    table.flags.writeable = False
    return table


def _capture(distances_m: np.ndarray, sf_idx: np.ndarray, topology: RingTopology,
             thresholds: ThresholdSet, radio: RadioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Q1 at each distance and the (ring, distance) array of P_SIR factors."""
    # a one-point call bypasses the memo, so it keeps a sweep's table
    ring_terms = _ring_terms if distances_m.size > 1 else _ring_terms.__wrapped__
    table = ring_terms(radio.path_loss_exponent, tuple(topology.boundaries_m), thresholds,
                       distances_m.tobytes(), sf_idx.astype(np.intp, copy=False).tobytes())
    # a ring with alpha == 0 gives exp(-0.0) == 1.0 exactly
    p_sir = np.exp(-math.pi * topology.intensities[:, None] * table)
    return p_sir.prod(axis=0), p_sir


def _coverage(distances_m: np.ndarray, sf_idx: np.ndarray, scenario: Scenario) -> CoverageSweep:
    """The closed form over whole arrays, as a record that owns `distances_m`."""
    h1 = _connection(distances_m, sf_idx, scenario.radio, scenario.thresholds)
    q1, p_sir = _capture(distances_m, sf_idx, scenario.topology, scenario.thresholds,
                         scenario.radio)
    return CoverageSweep(distances_m, np.asarray(SF_RANGE)[sf_idx], h1, q1, h1 * q1, p_sir)


def sf_indices(typical: TypicalNode, *ring_sfs: int,
               topology: RingTopology) -> tuple[int, ...]:
    """SF_RANGE indices of the typical node's SF and of each ring SF.

    Raises ConfigurationError for an SF outside SF_RANGE, or a distance that
    is not finite and positive or lies outside the cell (0, R], the rule
    `coverage_sweep` applies.
    """
    d = typical.distance_m
    if not (d > 0 and math.isfinite(d)):
        raise ConfigurationError(f"distance_m must be finite and positive, got {d!r}")
    sfs = (typical.sf, *ring_sfs)
    for sf in sfs:
        if not (isinstance(sf, (int, np.integer)) and SF_RANGE[0] <= sf <= SF_RANGE[-1]):
            raise ConfigurationError(f"spreading factor must be one of {SF_RANGE}, got {sf!r}")
    topology.ring_index(d)
    return tuple(int(sf) - SF_RANGE[0] for sf in sfs)


def coverage_probability(typical: TypicalNode, scenario: Scenario) -> CoverageBreakdown:
    """The closed form at one typical node, which may carry another ring's SF."""
    (i,) = sf_indices(typical, topology=scenario.topology)
    return _coverage(np.array([typical.distance_m], dtype=float), np.array([i]), scenario)[0]


def coverage_sweep(scenario: Scenario, distances_m) -> CoverageSweep:
    """The closed form at each distance (SF from the containing ring), on a copy."""
    d = np.array(distances_m, dtype=float)
    if d.ndim != 1:
        raise ConfigurationError(f"distances_m must be one-dimensional, got shape {d.shape}")
    return _coverage(d, scenario.topology.ring_index(d), scenario)
