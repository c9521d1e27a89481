import math
import re
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from loracell import (
    ConfigurationError,
    RadioConfig,
    RingTopology,
    Scenario,
    ThresholdSet,
    default_scenario,
    draw_calendar,
    equal_area_rings,
    load_scenario,
    load_thresholds,
    sample_placement,
    validate,
)
from loracell.cli import EXIT_CONFIG, EXIT_OK, main
from loracell.scenario import SF_RANGE


def test_equal_area_rings_reference_boundaries():
    bounds = equal_area_rings(3000.0, 6)
    expected = [1224.74, 1732.05, 2121.32, 2449.49, 2738.61, 3000.00]
    np.testing.assert_allclose(bounds, expected, atol=0.01)


def test_equal_area_rings_single_ring_is_disk():
    np.testing.assert_allclose(equal_area_rings(1.0, 1), [1.0])


def test_equal_area_ring_areas_equal():
    topo = RingTopology(3000.0, 500, 0.01)
    areas = topo.ring_areas_m2
    np.testing.assert_allclose(areas, np.pi * 3000.0**2 / 6, rtol=1e-6)
    assert np.ptp(areas) / areas.mean() < 1e-9
    np.testing.assert_allclose(areas.mean(), 4.712389e6, rtol=1e-6)


def test_equal_area_rings_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        equal_area_rings(-1.0, 6)
    with pytest.raises(ConfigurationError):
        equal_area_rings(100.0, 0)


def test_topology_intensities_follow_alpha_p_rho():
    topo = RingTopology(3000.0, 500, 0.01)
    np.testing.assert_allclose(topo.intensities, 0.01 * topo.densities, rtol=0, atol=0)


def test_topology_sf_at_boundaries():
    topo = RingTopology(3000.0, 500, 0.01)
    assert topo.sf_at(1.0) == 7
    l1 = topo.boundaries_m[1]
    assert topo.sf_at(l1) == 7            # outer boundary belongs to its ring
    assert topo.sf_at(l1 + 1e-9) == 8
    assert topo.sf_at(3000.0) == 12
    with pytest.raises(ConfigurationError):
        topo.sf_at(3000.1)


def test_scaled_topology_keeps_geometry():
    topo = RingTopology(3000.0, 500, 0.01)
    scaled = replace(topo, node_count=2500)
    assert scaled.boundaries_m == topo.boundaries_m
    np.testing.assert_allclose(scaled.intensities, 5.0 * topo.intensities)


def test_placement_ring_mode_sf_matches_ring():
    scn = default_scenario("coverage_eu868")
    placement = sample_placement(scn, seed=101)
    bounds = np.asarray(scn.topology.boundaries_m)[1:]
    expected = np.asarray(SF_RANGE)[np.searchsorted(bounds, placement.distances_m)]
    np.testing.assert_array_equal(placement.sfs, expected)
    assert np.all(placement.distances_m > 0)
    assert np.all(placement.distances_m <= scn.topology.cell_radius_m)


def test_placement_uniform_random_exact_quotas():
    scn = default_scenario("sim_n2")
    placement = sample_placement(scn, seed=7)
    counts = {sf: int(np.sum(placement.sfs == sf)) for sf in SF_RANGE}
    assert all(c == 50 for c in counts.values())


def test_placement_ring_counts_binomial_concentration():
    scn = default_scenario("coverage_eu868").with_node_count(6000)
    placement = sample_placement(scn, seed=3)
    sigma = np.sqrt(6000 * (1 / 6) * (5 / 6))
    for sf in SF_RANGE:
        count = np.sum(placement.sfs == sf)
        assert abs(count - 1000) < 3 * sigma


def test_placement_reproducible_bit_exact():
    scn = default_scenario("sim_n2")
    a = sample_placement(scn, seed=99)
    b = sample_placement(scn, seed=99)
    np.testing.assert_array_equal(a.distances_m, b.distances_m)
    np.testing.assert_array_equal(a.sfs, b.sfs)


def test_placement_ring_fractions_chi_square():
    scn = default_scenario("coverage_eu868").with_node_count(60000)
    placement = sample_placement(scn, seed=11)
    observed = [int(np.sum(placement.sfs == sf)) for sf in SF_RANGE]
    _, p = stats.chisquare(observed)
    assert p > 0.001


def test_radius_uniform_mode_is_not_area_uniform():
    scn = default_scenario("sim_n1")
    placement = sample_placement(scn, seed=5)
    # radius-uniform puts half the nodes inside R/2; area-uniform would put 1/4
    frac_inner = np.mean(placement.distances_m < scn.topology.cell_radius_m / 2)
    assert 0.4 < frac_inner < 0.6


def test_radius_uniform_applies_under_distance_rings():
    scn = replace(default_scenario("coverage_eu868"), radial_distribution="radius_uniform")
    placement = sample_placement(scn, seed=5)
    d = placement.distances_m
    frac_inner = np.mean(d < scn.topology.cell_radius_m / 2)
    assert 0.4 < frac_inner < 0.6
    # each node's SF is still the ring it falls in
    b = np.asarray(scn.topology.boundaries_m)
    ring = placement.sfs - SF_RANGE[0]
    assert np.all((b[ring] < d) & (d <= b[ring + 1]))


def test_validate_rejects_small_path_loss_exponent():
    scn = default_scenario("coverage_eu868")
    bad = replace(scn, radio=RadioConfig(path_loss_exponent=1.5))
    with pytest.raises(ConfigurationError, match="path_loss_exponent must exceed 2"):
        validate(bad)


def _with_value(scn, field, value):
    if field.startswith("topology."):
        return replace(scn, topology=replace(scn.topology, **{field[9:]: value}))
    if field == "thresholds.sir_db":
        rows = [list(r) for r in scn.thresholds.sir_db]
        rows[2][4] = value
        sir_db = tuple(tuple(r) for r in rows)
        return replace(scn, thresholds=replace(scn.thresholds, sir_db=sir_db))
    if field == "thresholds.snr_floor_db":      # +inf first or -inf last keeps the order
        floors = list(scn.thresholds.snr_floor_db)
        floors[0 if value > 0 else -1] = value
        return replace(scn, thresholds=replace(scn.thresholds, snr_floor_db=tuple(floors)))
    if field.startswith("radio."):
        return replace(scn, radio=replace(scn.radio, **{field[6:]: value}))
    return replace(scn, **{field: value})


# every key declared float, from the declarations themselves
FLOAT_KEYS = [prefix + f.name
              for prefix, cls in (("radio.", RadioConfig), ("topology.", RingTopology),
                                  ("", Scenario))
              for f in fields(cls) if f.type == "float"]


@pytest.mark.parametrize("field", FLOAT_KEYS + ["thresholds.sir_db"])
def test_validate_rejects_nan(field):
    # a NaN fails every comparison, so each bound is written to fail on it
    with pytest.raises(ConfigurationError, match=re.escape(field)):
        validate(_with_value(default_scenario("coverage_eu868"), field, math.nan))


@pytest.mark.parametrize("value", [math.inf, -math.inf])
@pytest.mark.parametrize("field", FLOAT_KEYS + ["thresholds.sir_db", "thresholds.snr_floor_db"])
def test_validate_rejects_infinite_link_values(field, value):
    # a limit of -inf is rejected as the power above it, under the power's key
    limit_below = (field, value) == ("radio.tx_power_limit_dbm", -math.inf)
    key = "radio.tx_power_dbm" if limit_below else field
    with pytest.raises(ConfigurationError, match=re.escape(key)) as err:
        validate(_with_value(default_scenario("coverage_eu868"), field, value))
    if field == "thresholds.sir_db":
        assert "(sf9, sf11)" in str(err.value)


# the exact `errors()` list of one bad key on the packaged coverage scenario:
# NaN and infinities of float keys, each enum and each lower bound
MESSAGES = [
    ("radio.carrier_hz", math.nan, ["radio.carrier_hz: must be positive"]),
    ("radio.carrier_hz", math.inf, ["radio.carrier_hz: must be finite"]),
    ("radio.bandwidth_hz", 0.0, ["radio.bandwidth_hz: must be positive"]),
    ("radio.tx_power_dbm", math.nan, [
        "radio.tx_power_dbm: must be finite",
        "radio.tx_power_dbm: nan dBm exceeds the regulatory limit of 14.0 dBm"]),
    ("radio.tx_power_dbm", -math.inf, ["radio.tx_power_dbm: must be finite"]),
    ("radio.tx_power_limit_dbm", math.inf, ["radio.tx_power_limit_dbm: must be finite"]),
    ("radio.tx_power_limit_dbm", -math.inf, [
        "radio.tx_power_limit_dbm: must be finite",
        "radio.tx_power_dbm: 14.0 dBm exceeds the regulatory limit of -inf dBm"]),
    ("radio.noise_figure_db", math.nan, ["radio.noise_figure_db: must be finite"]),
    ("radio.path_loss_exponent", math.nan,
     ["radio.path_loss_exponent: path_loss_exponent must exceed 2"]),
    ("radio.path_loss_exponent", 2.000001, [
        "radio.path_loss_exponent: must be at least 2 / (1 - 1e-05) = 2.000020000200002, "
        "where 2F1 with b = 2 / path_loss_exponent is accurate (got 2.000001)"]),
    ("radio.path_loss_exponent", math.inf, ["radio.path_loss_exponent: must be finite"]),
    ("radio.gateway_height_m", 0.0, ["radio.gateway_height_m: must be positive"]),
    ("radio.device_height_m", -1.0, ["radio.device_height_m: must be positive"]),
    ("radio.gateway_gain_dbi", -math.inf, ["radio.gateway_gain_dbi: must be finite"]),
    ("radio.device_gain_dbi", math.inf, ["radio.device_gain_dbi: must be finite"]),
    ("radio.code_rate", "4/9", ["radio.code_rate: '4/9' not one of 4/5 .. 4/8"]),
    ("topology.cell_radius_m", math.inf,
     ["topology.cell_radius_m: must be finite and positive"]),
    ("topology.node_count", math.nan, [
        "topology.node_count: must be finite and non-negative",
        "node_count: must be a whole number at least 1, got nan"]),
    ("topology.node_count", -1, [
        "topology.node_count: must be finite and non-negative",
        "node_count: must be a whole number at least 1, got -1"]),
    ("topology.transmit_probability", 0.0, ["topology.transmit_probability: must be in (0, 1]"]),
    ("topology.transmit_probability", math.nan,
     ["topology.transmit_probability: must be in (0, 1]"]),
    ("sf_assignment", "XX", ["sf_assignment: unknown mode 'XX'"]),
    ("radial_distribution", "XX", ["radial_distribution: unknown mode 'XX'"]),
    ("collision_model", "XX", ["collision_model: unknown model 'XX'"]),
    ("duty_cycle_limit", math.inf, ["duty_cycle_limit: must be in (0, 1]"]),
    ("payload_bytes", 0, ["payload_bytes: must be at least 1"]),
    ("rng_seed", -1, ["rng_seed: must be non-negative"]),
    ("replications", math.inf, ["replications: must be a whole number"]),
    ("sim_duration_s", math.nan, ["sim_duration_s: must be positive"]),
    ("sim_duration_s", math.inf, ["sim_duration_s: must be finite"]),
    ("channels", 2.5, ["channels: must be a whole number"]),
]


@pytest.mark.parametrize("field,value,expected", MESSAGES,
                         ids=[f"{field}={value}" for field, value, _ in MESSAGES])
def test_validation_messages_are_pinned(field, value, expected):
    assert _with_value(default_scenario("coverage_eu868"), field, value).errors() == expected


@pytest.mark.parametrize("code_rate, message", [
    ("4-5", "cannot parse '4-5', expected 4/5 .. 4/8"),
    ("x/5", "cannot parse 'x/5', expected 4/5 .. 4/8"),
    ("4/9", "'4/9' not one of 4/5 .. 4/8"),
    ("5/5", "'5/5' not one of 4/5 .. 4/8"),
])
def test_validate_rejects_unknown_code_rate(code_rate, message):
    bad = _with_value(default_scenario("coverage_eu868"), "radio.code_rate", code_rate)
    with pytest.raises(ConfigurationError, match=re.escape(f"radio.code_rate: {message}")):
        validate(bad)


def test_validate_rejects_missing_sir_entry():
    scn = default_scenario("coverage_eu868")
    rows = [list(r) for r in scn.thresholds.sir_db]
    rows[2][4] = None
    bad_thresholds = ThresholdSet(snr_floor_db=scn.thresholds.snr_floor_db,
                                  sir_db=tuple(tuple(r) for r in rows))
    errs = bad_thresholds.errors()
    assert any("(sf9, sf11)" in e for e in errs)


def test_validate_rejects_non_decreasing_snr_floors():
    thr = ThresholdSet(snr_floor_db=(-6, -9, -9, -15, -17.5, -20),
                       sir_db=tuple(tuple([0.0] * 6) for _ in range(6)))
    assert any("strictly decrease" in e for e in thr.errors())


def test_packaged_scenarios_validate():
    for name in ("coverage_eu868", "sim_n1", "sim_n2"):
        scn = default_scenario(name)
        assert scn.errors() == []


def test_unknown_key_is_hard_error(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[radio]\ncarrier_hz = 868.1e6\ntypo_key = 1\n")
    with pytest.raises(ConfigurationError, match="unknown key radio.typo_key"):
        load_scenario(cfg)


def test_unknown_section_is_hard_error(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[radios]\ncarrier_hz = 868.1e6\n")
    with pytest.raises(ConfigurationError, match=r"unknown section \[radios\]"):
        load_scenario(cfg)


def test_missing_file_reports_path():
    with pytest.raises(ConfigurationError, match="not found"):
        load_scenario("no_such_scenario.ini")


def test_thresholds_loader_roundtrip():
    thr = load_thresholds("thresholds_eu868.ini")
    assert thr.snr_floor_db == (-6, -9, -12, -15, -17.5, -20)
    assert thr.sir_db[0] == (6, -16, -18, -19, -19, -20)
    assert thr.sir(7, 7) == pytest.approx(10 ** 0.6)
    assert thr.sir(12, 7) == pytest.approx(10 ** -3.6)


def test_tx_power_above_regulatory_limit_rejected():
    radio = RadioConfig(tx_power_dbm=20.0, tx_power_limit_dbm=14.0)
    assert any("regulatory" in e for e in radio.errors())


def test_uniform_random_requires_divisible_node_count():
    scn = default_scenario("sim_n2")
    bad = scn.with_node_count(301)
    assert any("divisible" in e for e in bad.errors())


@pytest.mark.parametrize("count", [301, 5])
def test_placement_rejects_a_node_count_the_sf_quotas_do_not_divide(count):
    # unchecked, the quotas would give 301 distances and 300 SFs, or 5 and 0
    scn = default_scenario("sim_n2").with_node_count(count)
    with pytest.raises(ConfigurationError, match="divisible"):
        sample_placement(scn, seed=1)
    with pytest.raises(ConfigurationError, match="divisible"):
        draw_calendar(scn, 0.5, 1)


@pytest.mark.parametrize("name", ["coverage_eu868", "sim_n1", "sim_n2"])
def test_with_node_count_round_trip_is_equal(name):
    # the manifest digest hashes repr(scenario), so a count set back to the
    # loaded one must give the loaded scenario, not one an ulp away
    scn = default_scenario(name)
    assert scn.with_node_count(scn.node_count) == scn
    assert scn.with_node_count(2500).with_node_count(scn.node_count) == scn
    assert repr(scn.with_node_count(2500).with_node_count(scn.node_count)) == repr(scn)


def test_node_count_is_held_once_by_the_topology():
    scn = default_scenario("coverage_eu868").with_node_count(2500)
    assert scn.node_count == scn.topology.node_count == 2500
    assert [f.name for f in fields(RingTopology)] == [
        "cell_radius_m", "node_count", "transmit_probability"]
    assert "node_count" not in [f.name for f in fields(scn)]
    np.testing.assert_allclose(scn.topology.densities * scn.topology.ring_areas_m2,
                               2500 / 6, rtol=1e-15)


@pytest.mark.parametrize("count", [0, -6, 2.5, 500.0])
def test_validate_rejects_node_count_that_is_not_a_whole_number(count):
    scn = default_scenario("coverage_eu868").with_node_count(count)
    with pytest.raises(ConfigurationError, match=r"node_count: must be a whole number"):
        validate(scn)


def test_file_with_only_a_thresholds_file_takes_every_field_default(tmp_path):
    # each default has one source: the field that declares its key
    cfg = tmp_path / "bare.ini"
    cfg.write_text("[thresholds]\nfile = thresholds_eu868.ini\n")
    assert load_scenario(cfg) == Scenario(RadioConfig(), RingTopology(),
                                          load_thresholds("thresholds_eu868.ini"))


def test_radius_edit_alone_validates_and_moves_every_ring_edge(tmp_path):
    base = default_scenario("coverage_eu868")
    scn = load_scenario(scenario_file(tmp_path, "cell_radius_m", "4500.0"))
    assert scn == replace(base, topology=replace(base.topology, cell_radius_m=4500.0))
    assert scn.topology.boundaries_m[0] == 0.0
    assert scn.topology.boundaries_m[-1] == 4500.0
    moved = np.asarray(scn.topology.boundaries_m[1:]) / base.topology.boundaries_m[1:]
    np.testing.assert_allclose(moved, 1.5, rtol=1e-14)
    assert scn.topology.sf_at(4000.0) == 11 and scn.topology.sf_at(4500.0) == 12
    np.testing.assert_allclose(scn.topology.densities, base.topology.densities / 2.25,
                               rtol=1e-12)


def packaged_text(name):
    return (resources.files("loracell.data") / name).read_text(encoding="utf-8")


def scenario_file(tmp_path, key=None, raw=None, thresholds=None):
    """The packaged coverage scenario with one key set to raw, or pointing at a
    thresholds file with the given text, written under tmp_path."""
    text = packaged_text("coverage_eu868.ini")
    if key is not None:
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {raw}", text, flags=re.M)
        assert n == 1
    if thresholds is not None:
        (tmp_path / "thr.ini").write_text(thresholds)
        text = text.replace("file = thresholds_eu868.ini", "file = thr.ini")
    cfg = tmp_path / "scenario.ini"
    cfg.write_text(text)
    return cfg


@pytest.mark.parametrize("key,raw,message", [
    ("offered_loads", "0.1 x", "cannot parse traffic.offered_loads = '0.1 x'"),
    ("sf_set", "7 8.5", "cannot parse nodes.sf_set = '7 8.5'"),
    ("carrier_hz", "nan", "cannot parse radio.carrier_hz = 'nan'"),
    ("path_loss_exponent", "inf", "cannot parse radio.path_loss_exponent = 'inf'"),
    ("sim_duration_s", "nan", "cannot parse simulation.sim_duration_s = 'nan'"),
    ("offered_loads", "", "offered_loads: must not be empty"),
], ids=["loads-not-numeric", "sf-set-not-int", "carrier-nan", "exponent-inf",
        "duration-nan", "loads-blank"])
def test_scenario_value_fault_rejected(tmp_path, key, raw, message):
    cfg = scenario_file(tmp_path, key, raw)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_scenario(cfg)


SIR_SF7 = "sf7 = 6 -16 -18 -19 -19 -20"


def thresholds_text(old=None, new=None):
    text = packaged_text("thresholds_eu868.ini")
    assert old is None or text.count(old) == 1
    return text if old is None else text.replace(old, new)


@pytest.mark.parametrize("text,message", [
    (thresholds_text(SIR_SF7, SIR_SF7 + " -99"), "row sf7 must have 6 entries"),
    (thresholds_text(SIR_SF7, "sf7 = 6 -16 -18 -19 -19"), "row sf7 must have 6 entries"),
    (thresholds_text("sf9 = -12\n", "sf9 = -12dB\n"),
     "cannot parse snr_floor_db.sf9 = '-12dB'"),
    (thresholds_text("sf10 = -30 -30 -30 6 -26 -28", "sf10 = -30 -30 -30 6 -26 x"),
     "cannot parse sir_db.sf10 = "),
    (thresholds_text("sf8 = -24 6 -20", "sf8 = -24 nan -20"), "cannot parse sir_db.sf8 = "),
    (thresholds_text().partition("[sir_db]")[0], "missing sir_db entry 'sf7'"),
], ids=["sir-7-columns", "sir-5-columns", "floor-not-numeric", "sir-not-numeric",
        "sir-nan", "no-sir-section"])
def test_thresholds_fault_rejected(tmp_path, text, message):
    cfg = scenario_file(tmp_path, thresholds=text)
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        load_scenario(cfg)


def test_thresholds_file_referenced_by_scenario_loads(tmp_path):
    cfg = scenario_file(tmp_path, thresholds=thresholds_text())
    assert load_scenario(cfg) == default_scenario("coverage_eu868")


@pytest.mark.parametrize("kwargs,message", [
    (dict(key="offered_loads", raw="0.1 x"), "cannot parse traffic.offered_loads"),
    (dict(thresholds=thresholds_text().partition("[sir_db]")[0]), "missing sir_db entry"),
], ids=["scenario", "thresholds"])
def test_validate_config_value_fault_exits_config_error(tmp_path, capsys, kwargs, message):
    cfg = scenario_file(tmp_path, **kwargs)
    assert main(["validate-config", "--scenario", str(cfg)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("eta,code", [("2.00001", EXIT_CONFIG), ("2.0001", EXIT_OK)])
def test_validate_config_and_coverage_agree_on_path_loss_exponent(tmp_path, capsys, eta,
                                                                   code):
    # 2F1 rejects b = 2/eta in (1 - 1e-5, 1): such an eta is a configuration
    # error of both verbs, not a runtime failure of coverage alone
    cfg = scenario_file(tmp_path, key="path_loss_exponent", raw=eta)
    assert main(["validate-config", "--scenario", str(cfg)]) == code
    assert main(["coverage", "--scenario", str(cfg), "--grid-step", "1000",
                 "--out", str(tmp_path / "out.csv")]) == code
    err = capsys.readouterr().err
    assert err.count("radio.path_loss_exponent: must be at least") == 2 * (code == EXIT_CONFIG)


def test_readme_scenario_block_is_the_packaged_coverage_scenario(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario file format", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, flags=re.S).group(1)
    cfg = tmp_path / "readme.ini"
    cfg.write_text(block)
    assert load_scenario(cfg) == default_scenario("coverage_eu868")
