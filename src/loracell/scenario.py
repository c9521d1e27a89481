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
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .hypergeom import B_GAP

SPEED_OF_LIGHT = 299792458.0          # m/s
SF_RANGE = (7, 8, 9, 10, 11, 12)
NUM_SF = len(SF_RANGE)
COLLISION_MODELS = ("BP", "IC", "IIC")

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


def _key(default, section: str, check=None, message: str = ""):
    """A scenario key, declared once: its default, INI section and range
    check, a predicate on the value whose message is formatted with it."""
    return field(default=default, metadata={"section": section, "check": check,
                                            "message": message})


_POSITIVE = (lambda value: value > 0, "must be positive")
_AT_LEAST_ONE = (lambda value: value >= 1, "must be at least 1")
_UNIT_INTERVAL = (lambda value: 0 < value <= 1, "must be in (0, 1]")


def _key_errors(config, prefix: str = "") -> list[str]:
    """One message per declared key that fails its range check. Inside its
    range, a key declared float must also be finite and one declared int a
    whole number. `node_count` is declared float, because a topology alone
    may hold a mean count; `Scenario.errors` holds its whole-number rule."""
    errs = []
    for f in fields(config):
        value = getattr(config, f.name)
        check = f.metadata.get("check")
        if check is not None and not check(value):
            errs.append(f"{prefix}{f.name}: " + f.metadata["message"].format(value))
        elif f.type == "float" and not math.isfinite(value):
            errs.append(f"{prefix}{f.name}: must be finite")
        elif f.type == "int" and not isinstance(value, (int, np.integer)):
            errs.append(f"{prefix}{f.name}: must be a whole number")
    return errs


@dataclass(frozen=True)
class RadioConfig:
    """Physical-layer parameters shared by every node in the cell."""

    carrier_hz: float = _key(868.1e6, "radio", *_POSITIVE)
    bandwidth_hz: float = _key(125e3, "radio", *_POSITIVE)
    tx_power_dbm: float = _key(14.0, "radio")
    tx_power_limit_dbm: float = _key(14.0, "radio")     # EU868 regulatory cap
    noise_figure_db: float = _key(6.0, "radio")
    path_loss_exponent: float = _key(2.75, "radio", lambda eta: eta > 2,
                                     "path_loss_exponent must exceed 2")
    code_rate: str = _key("4/5", "radio")
    gateway_height_m: float = _key(24.0, "radio", *_POSITIVE)
    device_height_m: float = _key(3.0, "radio", *_POSITIVE)
    gateway_gain_dbi: float = _key(0.0, "radio")
    device_gain_dbi: float = _key(0.0, "radio")

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
        errs = _key_errors(self, "radio.")
        if self.path_loss_exponent > 2 and 2.0 / self.path_loss_exponent > 1.0 - B_GAP:
            errs.append(
                f"radio.path_loss_exponent: must be at least 2 / (1 - {B_GAP}) = "
                f"{2.0 / (1.0 - B_GAP)!r}, where 2F1 with b = 2 / path_loss_exponent "
                f"is accurate (got {self.path_loss_exponent})"
            )
        if not self.tx_power_dbm <= self.tx_power_limit_dbm:
            errs.append(
                f"radio.tx_power_dbm: {self.tx_power_dbm} dBm exceeds the regulatory "
                f"limit of {self.tx_power_limit_dbm} dBm"
            )
        try:
            self.coding_rate_index
        except ConfigurationError as exc:
            errs.append(str(exc))
        return errs


@dataclass(frozen=True)
class RingTopology:
    """Six equal-area rings around the gateway, one per SF, derived from the
    cell radius R.

    boundaries_m holds l_0..l_6 with l_0 = 0, l_j = R sqrt(j / 6) and
    l_6 = R; ring j (SF 7+j) covers distances in (l_j-1, l_j]. node_count is
    the cell's mean node count, node_count / 6 per ring. With transmit
    probability p the active interferers in ring j form a Poisson process of
    intensity alpha_j = p * rho_j.
    """

    cell_radius_m: float = _key(3000.0, "topology", lambda r: 0 < r < math.inf,
                                "must be finite and positive")
    node_count: float = _key(500, "nodes", lambda n: 0 <= n < math.inf,
                             "must be finite and non-negative")
    transmit_probability: float = _key(0.01, "topology", *_UNIT_INTERVAL)

    @cached_property
    def boundaries_m(self) -> tuple[float, ...]:
        return (0.0, *equal_area_rings(self.cell_radius_m, NUM_SF).tolist())

    @cached_property
    def ring_areas_m2(self) -> np.ndarray:
        b = np.asarray(self.boundaries_m)
        return np.pi * (b[1:] ** 2 - b[:-1] ** 2)

    @cached_property
    def densities(self) -> np.ndarray:
        """Nodes per m^2 in each ring."""
        return self.node_count / NUM_SF / self.ring_areas_m2

    @cached_property
    def intensities(self) -> np.ndarray:
        """Active-interferer intensity alpha_j = p * rho_j."""
        return self.transmit_probability * self.densities

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

    def errors(self) -> list[str]:
        return _key_errors(self, "topology.")


@dataclass(frozen=True)
class ThresholdSet:
    """Per-SF SNR demodulation floors and the 6x6 SIR capture matrix.

    sir_db[i][j] is the threshold for decoding an SF 7+i packet against
    interference from SF 7+j. Validation rejects a matrix with a row of the
    wrong length, a None entry or a non-finite entry.
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
        """Linear SIR threshold of one SF pair; perfbench/workloads.py reads it."""
        return float(self.sir_linear[desired_sf - SF_RANGE[0], interferer_sf - SF_RANGE[0]])

    def errors(self) -> list[str]:
        errs = []
        if len(self.snr_floor_db) != NUM_SF:
            errs.append("thresholds.snr_floor_db: expected one floor per SF 7..12")
        elif not np.all(np.diff(self.snr_floor_db) < 0):
            errs.append("thresholds.snr_floor_db: floors must strictly decrease with SF")
        elif not np.isfinite(self.snr_floor_db).all():    # an infinity first or last
            errs.append("thresholds.snr_floor_db: floors must be finite")
        if len(self.sir_db) != NUM_SF:
            errs.append("thresholds.sir_db: expected 6 rows")
            return errs
        for i, row in enumerate(self.sir_db):
            if len(row) != NUM_SF:
                errs.append(f"thresholds.sir_db: row sf{SF_RANGE[i]} must have 6 entries")
                continue
            for j, v in enumerate(row):
                if v is None or not math.isfinite(v):
                    problem = "missing" if v is None else f"non-finite {v}"
                    errs.append(f"thresholds.sir_db: {problem} entry "
                                f"(sf{SF_RANGE[i]}, sf{SF_RANGE[j]})")
        return errs


@dataclass(frozen=True)
class Scenario:
    """One full experiment description. Immutable once validated.

    The node count lives in the topology, which the coverage functions take
    on its own; `node_count` reads it, and `with_node_count` sets it.
    """

    radio: RadioConfig
    topology: RingTopology
    thresholds: ThresholdSet
    offered_loads: tuple[float, ...] = _key(tuple(round(0.1 * k, 1) for k in range(1, 11)),
                                            "traffic")
    sf_assignment: str = _key("distance_rings", "nodes",
                              lambda mode: mode in ("distance_rings", "uniform_random"),
                              "unknown mode {!r}")
    sf_set: tuple[int, ...] = _key(SF_RANGE, "nodes")
    radial_distribution: str = _key("area_uniform", "nodes",
                                    lambda mode: mode in ("area_uniform", "radius_uniform"),
                                    "unknown mode {!r}")
    duty_cycle_limit: float = _key(0.01, "simulation", *_UNIT_INTERVAL)
    payload_bytes: int = _key(1, "traffic", *_AT_LEAST_ONE)    # application payload
    collision_model: str = _key("BP", "simulation", COLLISION_MODELS.__contains__,
                                "unknown model {!r}")
    rng_seed: int = _key(1, "simulation", lambda seed: seed >= 0, "must be non-negative")
    replications: int = _key(30, "simulation", *_AT_LEAST_ONE)
    sim_duration_s: float = _key(7200.0, "simulation", *_POSITIVE)
    channels: int = _key(1, "simulation", *_AT_LEAST_ONE)

    @property
    def node_count(self) -> int:
        return self.topology.node_count

    def with_node_count(self, n: int) -> "Scenario":
        return replace(self, topology=replace(self.topology, node_count=n))

    def errors(self) -> list[str]:
        errs = (self.radio.errors() + self.topology.errors() + self.thresholds.errors()
                + _key_errors(self))
        if not self.offered_loads:
            errs.append("offered_loads: must not be empty")
        elif any(not 0 < g <= 1 for g in self.offered_loads):
            errs.append("offered_loads: every point must lie in (0, 1]")
        whole = isinstance(self.node_count, (int, np.integer)) and self.node_count >= 1
        if not whole:
            errs.append(f"node_count: must be a whole number at least 1, "
                        f"got {self.node_count!r}")
        if not self.sf_set or any(sf not in SF_RANGE for sf in self.sf_set):
            errs.append("sf_set: spreading factors must come from 7..12")
        elif len(set(self.sf_set)) != len(self.sf_set):
            errs.append("sf_set: duplicate spreading factors")
        if self.sf_assignment == "distance_rings" and tuple(self.sf_set) != SF_RANGE:
            errs.append("sf_set: distance_rings assignment requires all six SFs")
        if (self.sf_assignment == "uniform_random" and self.sf_set and whole
                and self.node_count % len(self.sf_set) != 0):
            errs.append(
                f"node_count: {self.node_count} not divisible by {len(self.sf_set)} "
                "for exact per-SF quotas"
            )
        return errs

    _errors = cached_property(errors)      # `validate` checks a frozen scenario once


def validate(scenario: Scenario) -> Scenario:
    """Check every invariant; raise ConfigurationError listing all violations."""
    errs = scenario._errors
    if errs:
        raise ConfigurationError("invalid scenario:\n  " + "\n  ".join(errs))
    return scenario


@dataclass(frozen=True)
class NodePlacement:
    """Sampled node distances to the gateway and assigned SFs."""

    distances_m: np.ndarray
    sfs: np.ndarray


def sample_placement(scenario: Scenario, seed: int | None = None,
                     rng: np.random.Generator | None = None) -> NodePlacement:
    """Draw node positions and SF assignments.

    The radius follows scenario.radial_distribution in both SF modes: R*sqrt(u)
    (uniform over the disk) for area_uniform, R*u for radius_uniform.
    distance_rings mode: each node's SF is the ring it falls in. uniform_random
    mode: SFs are assigned with exact per-SF quotas (node_count / len(sf_set)
    each). Deterministic for fixed seed. An invalid scenario is a
    `ConfigurationError`.
    """
    validate(scenario)
    if rng is None:
        rng = np.random.default_rng(scenario.rng_seed if seed is None else seed)
    n = scenario.node_count
    R = scenario.topology.cell_radius_m
    u = rng.random(n)
    d = R * u if scenario.radial_distribution == "radius_uniform" else R * np.sqrt(u)
    if scenario.sf_assignment == "distance_rings":
        bounds = np.asarray(scenario.topology.boundaries_m)[1:]
        sfs = np.asarray(SF_RANGE)[np.searchsorted(bounds, d, side="left")]
    else:
        quota = n // len(scenario.sf_set)
        sfs = rng.permutation(np.repeat(np.asarray(scenario.sf_set), quota))
    return NodePlacement(distances_m=d, sfs=sfs)


# ---------------------------------------------------------------------------
# Config-file loading. `_SCENARIO_KEYS` maps section -> key -> default. It is
# built from the `_key` declarations of the config fields, plus
# `[thresholds] file`, which names the file a ThresholdSet is read from. The
# type of each key is the type of its default. Unknown sections and keys are
# hard errors so typos cannot silently fall back to defaults.

def _scenario_keys() -> dict[str, dict[str, object]]:
    keys = {"thresholds": {"file": "thresholds_eu868.ini"}}
    for cls in (RadioConfig, RingTopology, Scenario):
        for f in fields(cls):
            if "section" in f.metadata:
                keys.setdefault(f.metadata["section"], {})[f.name] = f.default
    return keys


_SCENARIO_KEYS = _scenario_keys()
# Every threshold entry is required; the defaults only give the types.
_THRESHOLD_KEYS = {
    "snr_floor_db": {f"sf{sf}": 0.0 for sf in SF_RANGE},
    "sir_db": {f"sf{sf}": (0.0,) for sf in SF_RANGE},
}


def _cast(raw: str, default):
    """Parse raw like default: a tuple splits on whitespace and casts each
    item like its first element; a float must be finite."""
    if isinstance(default, tuple):
        return tuple(_cast(item, default[0]) for item in raw.split())
    value = type(default)(raw)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite {raw!r}")
    return value


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


def _read_values(path: Path, schema: dict,
                 required: bool = False) -> dict[str, dict[str, object]]:
    """Read every key of schema from an INI file, section by section. A key
    the file leaves out takes its default, or is an error if required."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    for section in parser.sections():
        if section not in schema:
            raise ConfigurationError(f"{path}: unknown section [{section}]")
        for key in parser[section]:
            if key not in schema[section]:
                raise ConfigurationError(f"{path}: unknown key {section}.{key}")
    values = {}
    for section, defaults in schema.items():
        values[section] = dict(defaults)
        for key, default in defaults.items():
            raw = parser.get(section, key, fallback=None)
            if raw is None:
                if required:
                    raise ConfigurationError(f"{path}: missing {section} entry {key!r}")
                continue
            try:
                values[section][key] = _cast(raw, default)
            except ValueError:
                raise ConfigurationError(
                    f"{path}: cannot parse {section}.{key} = {raw!r}"
                ) from None
    return values


def load_thresholds(path: str | os.PathLike) -> ThresholdSet:
    path = resolve_config_path(path)
    values = _read_values(path, _THRESHOLD_KEYS, required=True)
    return ThresholdSet(snr_floor_db=tuple(values["snr_floor_db"].values()),
                        sir_db=tuple(values["sir_db"].values()))


def load_scenario(path: str | os.PathLike) -> Scenario:
    """Load and validate a scenario file. Raises ConfigurationError."""
    path = resolve_config_path(path)
    values = {key: value for section in _read_values(path, _SCENARIO_KEYS).values()
              for key, value in section.items()}
    thr_file = resolve_config_path(values.pop("file"), relative_to=path.parent)
    radio, topology = (cls(**{f.name: values.pop(f.name) for f in fields(cls)})
                       for cls in (RadioConfig, RingTopology))
    scenario = Scenario(radio, topology, load_thresholds(thr_file), **values)
    return validate(scenario)


def default_scenario(name: str) -> Scenario:
    """Load one of the packaged scenarios: coverage_eu868, sim_n1, sim_n2."""
    return load_scenario(f"{name}.ini")
