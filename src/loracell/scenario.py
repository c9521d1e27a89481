"""Experiment configuration: radio parameters, ring geometry, thresholds,
node placement. Every other module consumes a validated, immutable Scenario.

All user-facing values are in engineering units (dB, dBm, Hz, m). Linear
conversions happen once, in cached properties, so the model code never
converts twice.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

SPEED_OF_LIGHT = 299792458.0          # m/s
SF_RANGE = (7, 8, 9, 10, 11, 12)
NUM_SF = len(SF_RANGE)

CONFIG_DIR_ENV = "LORACELL_CONFIG_DIR"


class ConfigurationError(ValueError):
    """Invalid scenario or threshold configuration."""


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def equal_area_rings(cell_radius_m: float, num_rings: int) -> np.ndarray:
    """Outer boundaries l_1..l_n of rings that split a disk into equal areas.

    l_j = R * sqrt(j / n), so every ring has area pi R^2 / n.
    """
    if cell_radius_m <= 0:
        raise ConfigurationError("cell_radius_m must be positive")
    if num_rings < 1:
        raise ConfigurationError("num_rings must be at least 1")
    j = np.arange(1, num_rings + 1, dtype=float)
    return cell_radius_m * np.sqrt(j / num_rings)


@dataclass(frozen=True)
class RadioConfig:
    """Physical-layer parameters shared by every node in the cell."""

    carrier_hz: float = 868.1e6
    bandwidth_hz: float = 125e3
    tx_power_dbm: float = 14.0
    tx_power_limit_dbm: float = 14.0      # EU868 regulatory cap
    noise_figure_db: float = 6.0
    path_loss_exponent: float = 2.75
    code_rate: str = "4/5"
    gateway_height_m: float = 24.0
    device_height_m: float = 3.0
    gateway_gain_dbi: float = 0.0
    device_gain_dbi: float = 0.0

    @cached_property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @cached_property
    def tx_power_mw(self) -> float:
        return float(db_to_linear(self.tx_power_dbm))   # dBm to mW

    @cached_property
    def antenna_gain_linear(self) -> float:
        return float(db_to_linear(self.gateway_gain_dbi + self.device_gain_dbi))

    @cached_property
    def coding_rate_index(self) -> int:
        """CR in 1..4 for code rates 4/5 .. 4/8."""
        num, _, den = self.code_rate.partition("/")
        try:
            n, d = int(num), int(den)
        except ValueError:
            raise ConfigurationError(
                f"radio.code_rate: cannot parse {self.code_rate!r}, expected 4/5 .. 4/8"
            ) from None
        if n != 4 or d not in (5, 6, 7, 8):
            raise ConfigurationError(
                f"radio.code_rate: {self.code_rate!r} not one of 4/5 .. 4/8"
            )
        return d - 4

    def errors(self) -> list[str]:
        errs = []
        if self.carrier_hz <= 0:
            errs.append("radio.carrier_hz: must be positive")
        if self.bandwidth_hz <= 0:
            errs.append("radio.bandwidth_hz: must be positive")
        if self.path_loss_exponent <= 2:
            errs.append("radio.path_loss_exponent: path_loss_exponent must exceed 2")
        if self.tx_power_dbm > self.tx_power_limit_dbm:
            errs.append(
                f"radio.tx_power_dbm: {self.tx_power_dbm} dBm exceeds the regulatory "
                f"limit of {self.tx_power_limit_dbm} dBm"
            )
        if self.gateway_height_m <= 0 or self.device_height_m <= 0:
            errs.append("radio: antenna heights must be positive")
        try:
            self.coding_rate_index
        except ConfigurationError as exc:
            errs.append(str(exc))
        return errs


@dataclass(frozen=True)
class RingTopology:
    """Concentric equal-or-custom rings around the gateway, one per SF.

    boundaries_m holds l_0..l_6 with l_0 = 0 and l_6 = cell radius; ring j
    (SF 7+j) covers distances in (l_j-1, l_j]. mean_nodes are the average
    node counts per ring; with transmit probability p the active interferers
    in ring j form a Poisson process of intensity alpha_j = p * rho_j.
    """

    cell_radius_m: float
    boundaries_m: tuple[float, ...]           # l_0 .. l_6
    mean_nodes: tuple[float, ...]             # per ring
    transmit_probability: float

    @classmethod
    def equal_area(cls, cell_radius_m: float, mean_node_count: float,
                   transmit_probability: float) -> "RingTopology":
        outer = equal_area_rings(cell_radius_m, NUM_SF)
        return cls(
            cell_radius_m=cell_radius_m,
            boundaries_m=(0.0, *outer.tolist()),
            mean_nodes=tuple([mean_node_count / NUM_SF] * NUM_SF),
            transmit_probability=transmit_probability,
        )

    @cached_property
    def ring_areas_m2(self) -> np.ndarray:
        b = np.asarray(self.boundaries_m)
        return np.pi * (b[1:] ** 2 - b[:-1] ** 2)

    @cached_property
    def densities(self) -> np.ndarray:
        """Nodes per m^2 in each ring."""
        return np.asarray(self.mean_nodes) / self.ring_areas_m2

    @cached_property
    def intensities(self) -> np.ndarray:
        """Active-interferer intensity alpha_j = p * rho_j."""
        return self.transmit_probability * self.densities

    @property
    def total_mean_nodes(self) -> float:
        return float(sum(self.mean_nodes))

    def ring_index(self, distance_m):
        """Index into SF_RANGE of the ring containing each distance (outer
        boundary inclusive); a distance or an array of them, all in (0, R]."""
        d = np.asarray(distance_m, dtype=float)
        outside = ~((d > 0.0) & (d <= self.cell_radius_m))
        if outside.any():
            raise ConfigurationError(
                f"distance {d[outside].flat[0]} m outside the cell (0, {self.cell_radius_m}]"
            )
        return np.searchsorted(np.asarray(self.boundaries_m)[1:], d, side="left")

    def sf_at(self, distance_m: float) -> int:
        """SF of the ring containing a distance (outer boundary inclusive)."""
        return SF_RANGE[int(self.ring_index(distance_m))]

    def scaled_to(self, mean_node_count: float) -> "RingTopology":
        """Same geometry with the total mean node count rescaled."""
        factor = mean_node_count / self.total_mean_nodes
        return replace(self, mean_nodes=tuple(n * factor for n in self.mean_nodes))

    def errors(self) -> list[str]:
        errs = []
        b = np.asarray(self.boundaries_m)
        if len(b) != NUM_SF + 1:
            errs.append(f"topology.boundaries_m: expected {NUM_SF + 1} values, got {len(b)}")
            return errs
        if b[0] != 0.0:
            errs.append("topology.boundaries_m: l_0 must be 0")
        if np.any(np.diff(b) <= 0):
            errs.append("topology.boundaries_m: boundaries must be strictly increasing")
        if not math.isclose(b[-1], self.cell_radius_m, rel_tol=1e-12):
            errs.append("topology.boundaries_m: l_6 must equal cell_radius_m")
        if len(self.mean_nodes) != NUM_SF:
            errs.append("topology.mean_nodes: expected one value per SF ring")
        elif any(n < 0 for n in self.mean_nodes):
            errs.append("topology.mean_nodes: counts must be non-negative")
        if not 0 < self.transmit_probability <= 1:
            errs.append("topology.transmit_probability: must be in (0, 1]")
        return errs


@dataclass(frozen=True)
class ThresholdSet:
    """Per-SF SNR demodulation floors and the 6x6 SIR capture matrix.

    sir_db[i][j] is the threshold for decoding an SF 7+i packet against
    interference from SF 7+j. Entries may be None while loading; validation
    rejects incomplete matrices.
    """

    snr_floor_db: tuple[float, ...]                    # SF7..SF12
    sir_db: tuple[tuple[float | None, ...], ...]       # 6x6

    @cached_property
    def snr_floor_linear(self) -> np.ndarray:
        return db_to_linear(np.asarray(self.snr_floor_db))

    @cached_property
    def sir_linear(self) -> np.ndarray:
        """6x6 matrix in linear scale; raises if any entry is missing."""
        errs = self.errors()
        if errs:
            raise ConfigurationError("; ".join(errs))
        return db_to_linear(np.asarray(self.sir_db, dtype=float))

    def sir(self, desired_sf: int, interferer_sf: int) -> float:
        return float(self.sir_linear[desired_sf - SF_RANGE[0], interferer_sf - SF_RANGE[0]])

    def errors(self) -> list[str]:
        errs = []
        if len(self.snr_floor_db) != NUM_SF:
            errs.append("thresholds.snr_floor_db: expected one floor per SF 7..12")
        elif np.any(np.diff(self.snr_floor_db) >= 0):
            errs.append("thresholds.snr_floor_db: floors must strictly decrease with SF")
        if len(self.sir_db) != NUM_SF:
            errs.append("thresholds.sir_db: expected 6 rows")
            return errs
        for i, row in enumerate(self.sir_db):
            if len(row) != NUM_SF:
                errs.append(f"thresholds.sir_db: row sf{SF_RANGE[i]} must have 6 entries")
                continue
            for j, v in enumerate(row):
                if v is None:
                    errs.append(
                        f"thresholds.sir_db: missing entry (sf{SF_RANGE[i]}, sf{SF_RANGE[j]})"
                    )
        return errs


@dataclass(frozen=True)
class Scenario:
    """One full experiment description. Immutable once validated."""

    radio: RadioConfig
    topology: RingTopology
    thresholds: ThresholdSet
    offered_loads: tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(1, 11))
    node_count: int = 500
    sf_assignment: str = "distance_rings"      # or "uniform_random"
    sf_set: tuple[int, ...] = SF_RANGE
    radial_distribution: str = "area_uniform"  # or "radius_uniform"
    duty_cycle_limit: float = 0.01
    payload_bytes: int = 1                     # application payload
    collision_model: str = "BP"
    rng_seed: int = 1
    replications: int = 30
    sim_duration_s: float = 7200.0
    channels: int = 1

    def with_node_count(self, n: int) -> "Scenario":
        return replace(self, node_count=n, topology=self.topology.scaled_to(n))

    def errors(self) -> list[str]:
        errs = self.radio.errors() + self.topology.errors() + self.thresholds.errors()
        if not self.offered_loads:
            errs.append("offered_loads: must not be empty")
        elif any(not 0 < g <= 1 for g in self.offered_loads):
            errs.append("offered_loads: every point must lie in (0, 1]")
        if self.node_count < 1:
            errs.append("node_count: must be at least 1")
        if self.sf_assignment not in ("distance_rings", "uniform_random"):
            errs.append(f"sf_assignment: unknown mode {self.sf_assignment!r}")
        if not self.sf_set or any(sf not in SF_RANGE for sf in self.sf_set):
            errs.append("sf_set: spreading factors must come from 7..12")
        elif len(set(self.sf_set)) != len(self.sf_set):
            errs.append("sf_set: duplicate spreading factors")
        if self.sf_assignment == "distance_rings" and tuple(self.sf_set) != SF_RANGE:
            errs.append("sf_set: distance_rings assignment requires all six SFs")
        if (self.sf_assignment == "uniform_random" and self.sf_set
                and self.node_count % len(self.sf_set) != 0):
            errs.append(
                f"node_count: {self.node_count} not divisible by {len(self.sf_set)} "
                "for exact per-SF quotas"
            )
        if self.radial_distribution not in ("area_uniform", "radius_uniform"):
            errs.append(f"radial_distribution: unknown mode {self.radial_distribution!r}")
        if not 0 < self.duty_cycle_limit <= 1:
            errs.append("duty_cycle_limit: must be in (0, 1]")
        if self.payload_bytes < 1:
            errs.append("payload_bytes: must be at least 1")
        if self.collision_model not in ("BP", "IC", "IIC"):
            errs.append(f"collision_model: unknown model {self.collision_model!r}")
        if self.replications < 1:
            errs.append("replications: must be at least 1")
        if self.sim_duration_s <= 0:
            errs.append("sim_duration_s: must be positive")
        if self.channels < 1:
            errs.append("channels: must be at least 1")
        return errs


def validate(scenario: Scenario) -> Scenario:
    """Check every invariant; raise ConfigurationError listing all violations."""
    errs = scenario.errors()
    if errs:
        raise ConfigurationError("invalid scenario:\n  " + "\n  ".join(errs))
    return scenario


@dataclass(frozen=True)
class NodePlacement:
    """Sampled node positions (polar, gateway at origin) and assigned SFs."""

    distances_m: np.ndarray
    angles_rad: np.ndarray
    sfs: np.ndarray

    def __len__(self) -> int:
        return len(self.distances_m)


def sample_placement(scenario: Scenario, seed: int | None = None,
                     rng: np.random.Generator | None = None) -> NodePlacement:
    """Draw node positions and SF assignments.

    distance_rings mode: positions are uniform over the disk (radius R*sqrt(u))
    and each node's SF is the ring it falls in. uniform_random mode: SFs are
    assigned with exact per-SF quotas (node_count / len(sf_set) each) and the
    radius follows scenario.radial_distribution. Deterministic for fixed seed.
    """
    if rng is None:
        rng = np.random.default_rng(scenario.rng_seed if seed is None else seed)
    n = scenario.node_count
    R = scenario.topology.cell_radius_m
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    if scenario.sf_assignment == "distance_rings":
        d = R * np.sqrt(rng.random(n))
        bounds = np.asarray(scenario.topology.boundaries_m)[1:]
        sfs = np.asarray(SF_RANGE)[np.searchsorted(bounds, d, side="left")]
    else:
        if scenario.radial_distribution == "radius_uniform":
            d = R * rng.random(n)
        else:
            d = R * np.sqrt(rng.random(n))
        quota = n // len(scenario.sf_set)
        sfs = rng.permutation(np.repeat(np.asarray(scenario.sf_set), quota))
    return NodePlacement(distances_m=d, angles_rad=angles, sfs=sfs)


# ---------------------------------------------------------------------------
# Config-file loading (INI sections mirroring the types above; unknown keys
# are hard errors so typos cannot silently fall back to defaults).

_SCHEMA = {
    "radio": {
        "carrier_hz": float, "bandwidth_hz": float, "tx_power_dbm": float,
        "tx_power_limit_dbm": float, "noise_figure_db": float,
        "path_loss_exponent": float, "code_rate": str,
        "gateway_height_m": float, "device_height_m": float,
        "gateway_gain_dbi": float, "device_gain_dbi": float,
    },
    "topology": {"cell_radius_m": float, "transmit_probability": float},
    "thresholds": {"file": str},
    "nodes": {
        "node_count": int, "sf_assignment": str, "sf_set": str,
        "radial_distribution": str,
    },
    "traffic": {"offered_loads": str, "payload_bytes": int},
    "simulation": {
        "collision_model": str, "duty_cycle_limit": float, "rng_seed": int,
        "replications": int, "sim_duration_s": float, "channels": int,
    },
}


def _read_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    return parser


def resolve_config_path(name: str | os.PathLike,
                        relative_to: Path | None = None) -> Path:
    """Locate a config file: as given, next to a referring file, in
    $LORACELL_CONFIG_DIR, then among the packaged defaults."""
    p = Path(name)
    candidates = [p]
    if relative_to is not None:
        candidates.append(relative_to / p)
    env_dir = os.environ.get(CONFIG_DIR_ENV)
    if env_dir:
        candidates.append(Path(env_dir) / p)
    for cand in candidates:
        if cand.is_file():
            return cand
    packaged = resources.files("loracell.data") / p.name
    if packaged.is_file():
        return Path(str(packaged))
    raise ConfigurationError(f"config file not found: {name}")


def load_thresholds(path: str | os.PathLike) -> ThresholdSet:
    path = resolve_config_path(path)
    parser = _read_ini(path)
    for section in parser.sections():
        if section not in ("snr_floor_db", "sir_db"):
            raise ConfigurationError(f"{path}: unknown section [{section}]")
    try:
        floors = tuple(
            float(parser["snr_floor_db"][f"sf{sf}"]) for sf in SF_RANGE
        )
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing snr_floor_db entry {exc}") from None
    rows = []
    for sf in SF_RANGE:
        raw = parser["sir_db"].get(f"sf{sf}")
        if raw is None:
            rows.append(tuple([None] * NUM_SF))
            continue
        vals = raw.split()
        row = [float(v) for v in vals]
        row += [None] * (NUM_SF - len(row))
        rows.append(tuple(row[:NUM_SF]))
    extra = set(parser["sir_db"]) - {f"sf{sf}" for sf in SF_RANGE}
    extra |= set(parser["snr_floor_db"]) - {f"sf{sf}" for sf in SF_RANGE}
    if extra:
        raise ConfigurationError(f"{path}: unknown threshold keys {sorted(extra)}")
    return ThresholdSet(snr_floor_db=floors, sir_db=tuple(rows))


def load_scenario(path: str | os.PathLike) -> Scenario:
    """Load and validate a scenario file. Raises ConfigurationError."""
    path = resolve_config_path(path)
    parser = _read_ini(path)

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"{path}: unknown key {section}.{key}")

    def get(section, key, cast, default):
        if parser.has_option(section, key):
            raw = parser[section][key]
            try:
                return cast(raw) if cast is not str else raw
            except ValueError:
                raise ConfigurationError(
                    f"{path}: cannot parse {section}.{key} = {raw!r}"
                ) from None
        return default

    radio = RadioConfig(
        carrier_hz=get("radio", "carrier_hz", float, 868.1e6),
        bandwidth_hz=get("radio", "bandwidth_hz", float, 125e3),
        tx_power_dbm=get("radio", "tx_power_dbm", float, 14.0),
        tx_power_limit_dbm=get("radio", "tx_power_limit_dbm", float, 14.0),
        noise_figure_db=get("radio", "noise_figure_db", float, 6.0),
        path_loss_exponent=get("radio", "path_loss_exponent", float, 2.75),
        code_rate=get("radio", "code_rate", str, "4/5"),
        gateway_height_m=get("radio", "gateway_height_m", float, 24.0),
        device_height_m=get("radio", "device_height_m", float, 3.0),
        gateway_gain_dbi=get("radio", "gateway_gain_dbi", float, 0.0),
        device_gain_dbi=get("radio", "device_gain_dbi", float, 0.0),
    )
    node_count = get("nodes", "node_count", int, 500)
    topology = RingTopology.equal_area(
        cell_radius_m=get("topology", "cell_radius_m", float, 3000.0),
        mean_node_count=node_count,
        transmit_probability=get("topology", "transmit_probability", float, 0.01),
    )
    thr_file = get("thresholds", "file", str, "thresholds_eu868.ini")
    thresholds = load_thresholds(resolve_config_path(thr_file, relative_to=path.parent))

    loads = get("traffic", "offered_loads", str, "")
    offered = tuple(float(v) for v in loads.split()) if loads else \
        tuple(round(0.1 * k, 1) for k in range(1, 11))
    sf_set_raw = get("nodes", "sf_set", str, "7 8 9 10 11 12")
    scenario = Scenario(
        radio=radio,
        topology=topology,
        thresholds=thresholds,
        offered_loads=offered,
        node_count=node_count,
        sf_assignment=get("nodes", "sf_assignment", str, "distance_rings"),
        sf_set=tuple(int(v) for v in sf_set_raw.split()),
        radial_distribution=get("nodes", "radial_distribution", str, "area_uniform"),
        duty_cycle_limit=get("simulation", "duty_cycle_limit", float, 0.01),
        payload_bytes=get("traffic", "payload_bytes", int, 1),
        collision_model=get("simulation", "collision_model", str, "BP"),
        rng_seed=get("simulation", "rng_seed", int, 1),
        replications=get("simulation", "replications", int, 30),
        sim_duration_s=get("simulation", "sim_duration_s", float, 7200.0),
        channels=get("simulation", "channels", int, 1),
    )
    return validate(scenario)


def default_scenario(name: str) -> Scenario:
    """Load one of the packaged scenarios: coverage_eu868, sim_n1, sim_n2."""
    return load_scenario(f"{name}.ini")
