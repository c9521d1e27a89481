import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as scipy_special

from loracell import (
    ConfigurationError,
    CoverageBreakdown,
    CoverageSweep,
    RadioConfig,
    ThresholdSet,
    TypicalNode,
    coverage_probability,
    coverage_sweep,
    default_scenario,
    estimate_coverage,
    estimate_sir_ring,
    noise_power_dbm,
    path_gain,
    typical_at,
)
from loracell import coverage as coverage_module
from loracell.cli import _coverage_rows, main
from loracell.coverage import _ring_terms, noise_power_mw
from loracell.scenario import SF_RANGE

# High-precision evaluation (40 digits) of (lambda/(4 pi 1000))^2.75 at 868.1 MHz.
PATH_GAIN_1KM = 2.8665728112958357e-13

SCN = default_scenario("coverage_eu868")


def make_thresholds(floors_db, sir_db_value):
    return ThresholdSet(
        snr_floor_db=tuple(floors_db),
        sir_db=tuple(tuple([sir_db_value] * 6) for _ in range(6)),
    )


def test_path_gain_unit_distance():
    radio = SCN.radio
    d_unit = radio.wavelength_m / (4 * math.pi)
    assert path_gain(d_unit, radio) == pytest.approx(1.0, rel=1e-12)


def test_path_gain_pinned_value():
    assert path_gain(1000.0, SCN.radio) == pytest.approx(PATH_GAIN_1KM, rel=1e-12)


def test_path_gain_homogeneity():
    g1 = path_gain(700.0, SCN.radio)
    g2 = path_gain(1400.0, SCN.radio)
    assert g2 / g1 == pytest.approx(2 ** -2.75, rel=1e-12)


def test_path_gain_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_gain(0.0, SCN.radio)
    with pytest.raises(ValueError):
        path_gain(-5.0, SCN.radio)


def test_noise_power_reference_values():
    assert noise_power_dbm(SCN.radio) == pytest.approx(-117.0308998699194, abs=1e-9)
    assert noise_power_dbm(RadioConfig(noise_figure_db=0.0, bandwidth_hz=1.0)) == \
        pytest.approx(-174.0, abs=1e-12)
    assert noise_power_dbm(replace(SCN.radio, bandwidth_hz=250e3)) == \
        pytest.approx(-114.0205999132796, abs=1e-9)


def test_connection_probability_limits():
    typical = TypicalNode(distance_m=1500.0, sf=8)
    # vanishing threshold: always connected
    thr0 = make_thresholds([-1000, -1001, -1002, -1003, -1004, -1005], 6.0)
    assert coverage_probability(typical, replace(SCN, thresholds=thr0)).h1 == 1.0
    # far node: probability collapses
    far = TypicalNode(distance_m=1e9, sf=12)
    huge = replace(SCN, topology=replace(SCN.topology, cell_radius_m=1e9))
    assert coverage_probability(far, huge).h1 < 1e-12
    h1 = coverage_probability(typical, SCN).h1
    assert 0.0 < h1 < 1.0


def test_capture_ring_no_interferers_is_one():
    empty = SCN.with_node_count(0)
    typical = typical_at(SCN.topology, 1500.0)
    for j in range(len(SF_RANGE)):
        assert coverage_probability(typical, empty).p_sir[j] == 1.0


def test_capture_ring_vanishing_threshold_is_one():
    # delta -> 0 linear: any positive SIR passes, so the ring cannot harm
    thr = make_thresholds(SCN.thresholds.snr_floor_db, -1000.0)
    typical = typical_at(SCN.topology, 1500.0)
    for j in range(len(SF_RANGE)):
        p = coverage_probability(typical, replace(SCN, thresholds=thr)).p_sir[j]
        assert p == pytest.approx(1.0, abs=1e-9)


def test_capture_probability_is_product_of_rings():
    typical = typical_at(SCN.topology, 1800.0)
    br = coverage_probability(typical, SCN)
    q1, per_ring = br.q1, br.p_sir
    assert q1 == pytest.approx(math.prod(per_ring), rel=1e-15)
    assert q1 <= min(per_ring)
    log_form = math.exp(sum(math.log(p) for p in per_ring))
    assert abs(q1 - log_form) < 1e-12


def test_capture_monotone_in_ring_intensity():
    # a larger node count raises every ring's intensity, so every factor falls
    typical = typical_at(SCN.topology, 1500.0)
    base = coverage_probability(typical, SCN)
    bumped = coverage_probability(typical, SCN.with_node_count(SCN.node_count * 1.5))
    q_base, rings_base = base.q1, base.p_sir
    q_bumped, rings_bumped = bumped.q1, bumped.p_sir
    assert q_bumped < q_base
    assert all(b < a for a, b in zip(rings_base, rings_bumped))


def test_coverage_breakdown_identities():
    br = coverage_probability(typical_at(SCN.topology, 2000.0), SCN)
    assert br.c1 == pytest.approx(br.h1 * br.q1, rel=1e-15)
    assert br.c1 <= br.h1 and br.c1 <= br.q1
    assert 0.0 < br.c1 < 1.0


def test_coverage_one_when_no_noise_and_no_interferers():
    thr0 = make_thresholds([-1000, -1001, -1002, -1003, -1004, -1005], 6.0)
    scn = replace(SCN, thresholds=thr0)
    scn = scn.with_node_count(0)
    br = coverage_probability(TypicalNode(distance_m=2500.0, sf=11), scn)
    assert br.c1 == 1.0


def test_coverage_decreases_with_node_count():
    dense = SCN.with_node_count(2500)
    for d in (300.0, 900.0, 1500.0, 2100.0, 2700.0):
        c_sparse = coverage_probability(typical_at(SCN.topology, d), SCN).c1
        c_dense = coverage_probability(typical_at(dense.topology, d), dense).c1
        assert c_dense <= c_sparse


def test_h1_decreases_within_ring_and_jumps_at_boundary():
    bounds = SCN.topology.boundaries_m
    for j in range(6):
        lo, hi = bounds[j], bounds[j + 1]
        ds = np.linspace(lo + 1.0, hi - 1.0, 5)
        h = [coverage_probability(typical_at(SCN.topology, float(d)), SCN).h1 for d in ds]
        assert all(b < a for a, b in zip(h, h[1:]))
    for boundary in bounds[1:-1]:
        before = coverage_probability(typical_at(SCN.topology, boundary - 0.01), SCN).h1
        after = coverage_probability(typical_at(SCN.topology, boundary + 0.01), SCN).h1
        assert after > before


def test_coverage_sawtooth_jumps_upward_at_boundaries():
    for boundary in SCN.topology.boundaries_m[1:-1]:
        before = coverage_probability(typical_at(SCN.topology, boundary - 0.01), SCN).c1
        after = coverage_probability(typical_at(SCN.topology, boundary + 0.01), SCN).c1
        assert after > before


def test_analytic_matches_monte_carlo_spot():
    typical = typical_at(SCN.topology, 1500.0)
    br = coverage_probability(typical, SCN)
    h1, q1, c1 = estimate_coverage(typical, SCN, trials=300_000, seed=424242)
    assert abs(br.h1 - h1.mean) <= 3 * h1.standard_error
    assert abs(br.q1 - q1.mean) <= 3 * q1.standard_error
    assert abs(br.c1 - c1.mean) <= 3 * c1.standard_error


# --- differential test of the array kernel against the scalar formula -------

def reference_hyp2f1(b, x):
    """The scalar 2F1(1, b; 1+b; x) evaluator the array path replaced."""
    if x == 0.0:
        return 1.0
    if b == 1.0:
        return math.log1p(-x) / -x
    return float(scipy_special.hyp2f1(1.0, b, 1.0 + b, x))


def reference_connection(distance, sf, radio, thresholds):
    gamma = float(thresholds.snr_floor_linear[sf - SF_RANGE[0]])
    rx = radio.tx_power_mw * radio.antenna_gain_linear * path_gain(distance, radio)
    return math.exp(-gamma * noise_power_mw(radio) / rx)


def reference_capture_ring(distance, sf, ring_sf, topology, thresholds, radio):
    j = ring_sf - SF_RANGE[0]
    alpha = float(topology.intensities[j])
    if alpha == 0.0:
        return 1.0
    eta = radio.path_loss_exponent
    b = 2.0 / eta
    scale = distance ** eta * thresholds.sir(sf, ring_sf)

    def weighted(edge):
        if edge == 0.0:
            return 0.0
        return edge * edge * reference_hyp2f1(b, -(edge ** eta) / scale)

    lo, hi = topology.boundaries_m[j], topology.boundaries_m[j + 1]
    return math.exp(-math.pi * alpha * (weighted(hi) - weighted(lo)))


def reference_breakdown(distance, scenario):
    sf = scenario.topology.sf_at(distance)
    h1 = reference_connection(distance, sf, scenario.radio, scenario.thresholds)
    p_sir = [reference_capture_ring(distance, sf, ring_sf, scenario.topology,
                                    scenario.thresholds, scenario.radio)
             for ring_sf in SF_RANGE]
    q1 = 1.0
    for p in p_sir:
        q1 *= p
    return [h1, q1, h1 * q1, *p_sir]


@st.composite
def kernel_cases(draw):
    """A scenario over eta in [2.05, 6] or eta = 2, 0..5000 nodes (every
    ring empty at 0), and distances that include every ring boundary, the
    cell edge and very small d."""
    eta = draw(st.one_of(st.just(2.0), st.floats(2.05, 6.0)))
    nodes = draw(st.one_of(st.just(0.0), st.floats(0.0, 5000.0)))
    topology = replace(SCN.topology, node_count=nodes)
    scenario = replace(SCN, topology=topology,
                       radio=replace(SCN.radio, path_loss_exponent=eta))
    radius = topology.cell_radius_m
    drawn = draw(st.lists(st.one_of(st.floats(1e-9, 1e-3), st.floats(1e-3, radius)),
                          max_size=30))
    distances = np.array(drawn + list(topology.boundaries_m[1:]) + [1e-6])
    return scenario, distances[draw(st.permutations(range(len(distances))))]


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_sweep_matches_scalar_reference(case):
    scenario, distances = case
    rows = coverage_sweep(scenario, distances)
    assert len(rows) == len(distances)
    for d, br in zip(distances, rows):
        got = [br.h1, br.q1, br.c1, *br.p_sir]
        want = reference_breakdown(float(d), scenario)
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0), (d, got, want)
        assert br.q1 == math.prod(br.p_sir) and br.c1 == br.h1 * br.q1
        assert br == coverage_probability(typical_at(scenario.topology, float(d)), scenario)


def test_sweep_empty_input():
    assert len(coverage_sweep(SCN, [])) == 0


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, 3000.0 * (1 + 1e-12), math.inf])
@pytest.mark.parametrize("position", [0, 4, 9])
def test_sweep_rejects_distances_outside_the_cell(bad, position):
    distances = np.linspace(100.0, 2900.0, 10)
    distances[position] = bad
    with pytest.raises(ConfigurationError, match="outside the cell"):
        coverage_sweep(SCN, distances)


# every entry point that takes a TypicalNode, called with one node and ring SF
TYPICAL_NODE_ENTRY_POINTS = {
    "coverage": lambda t, ring_sf: coverage_probability(t, SCN),
    "mc_coverage": lambda t, ring_sf: estimate_coverage(t, SCN, trials=100, seed=1),
    "mc_sir_ring": lambda t, ring_sf: estimate_sir_ring(t, ring_sf, SCN, trials=100, seed=1),
}


@pytest.mark.parametrize("entry", sorted(TYPICAL_NODE_ENTRY_POINTS))
@pytest.mark.parametrize("distance, sf, match", [
    (1000.0, 6, "spreading factor"),
    (1000.0, 13, "spreading factor"),
    (1000.0, 7.0, "spreading factor"),
    (math.nan, 7, "finite and positive"),
    (math.inf, 7, "finite and positive"),
    (-math.inf, 7, "finite and positive"),
    (0.0, 7, "finite and positive"),
    (-5.0, 7, "finite and positive"),
])
def test_entry_points_reject_invalid_typical_node(entry, distance, sf, match):
    with pytest.raises(ConfigurationError, match=match):
        TYPICAL_NODE_ENTRY_POINTS[entry](TypicalNode(distance, sf), 8)


@pytest.mark.parametrize("entry", ["mc_sir_ring"])
@pytest.mark.parametrize("ring_sf", [6, 13, -1])
def test_ring_entry_points_reject_invalid_ring_sf(entry, ring_sf):
    with pytest.raises(ConfigurationError, match="spreading factor"):
        TYPICAL_NODE_ENTRY_POINTS[entry](TypicalNode(1000.0, 8), ring_sf)


def test_entry_points_accept_numpy_integer_sf():
    typical = TypicalNode(1000.0, np.int64(9))
    assert coverage_probability(typical, SCN) == coverage_probability(TypicalNode(1000.0, 9),
                                                                      SCN)


@pytest.mark.parametrize("entry", sorted(TYPICAL_NODE_ENTRY_POINTS))
@pytest.mark.parametrize("distance", [3000.0 + 1e-9, 5000.0])
def test_entry_points_reject_distance_outside_cell(entry, distance):
    # the rule coverage_sweep applies: a typical node lies in (0, R]
    with pytest.raises(ConfigurationError, match="outside the cell"):
        TYPICAL_NODE_ENTRY_POINTS[entry](TypicalNode(distance, 12), 9)


@pytest.mark.parametrize("entry", sorted(TYPICAL_NODE_ENTRY_POINTS))
def test_entry_points_accept_cell_edge(entry):
    assert SCN.topology.cell_radius_m == 3000.0
    TYPICAL_NODE_ENTRY_POINTS[entry](TypicalNode(3000.0, 12), 9)


# ---------------------------------------------------------------------------
# The one-table memo of the 2F1 ring terms

def _bits(rows):
    """The exact bytes of every float of a list of breakdowns."""
    return np.array([[br.h1, br.q1, br.c1, *br.p_sir] for br in rows]).tobytes()


def _fresh(fn, *args):
    _ring_terms.cache_clear()
    return fn(*args)


GRID = np.arange(10.0, 3005.0, 10.0)


def test_ring_terms_memo_holds_one_table():
    assert _ring_terms.cache_info().maxsize == 1


def test_node_count_sweeps_share_the_table_bit_for_bit():
    scenarios = [SCN.with_node_count(n) for n in (250, 500, 2500)]
    _ring_terms.cache_clear()
    cached = [coverage_sweep(scn, GRID) for scn in scenarios]
    assert _ring_terms.cache_info().hits == 2
    for scn, rows in zip(scenarios, cached):
        assert _bits(rows) == _bits(_fresh(coverage_sweep, scn, GRID))


def test_point_call_keeps_a_sweeps_table(monkeypatch):
    # sweep -> point -> the same sweep: the sweep's 2F1 table is evaluated once
    calls, hyp2f1 = [], coverage_module.hyp2f1

    def counting(*args):
        calls.append(np.size(args[-1]))
        return hyp2f1(*args)

    monkeypatch.setattr(coverage_module, "hyp2f1", counting)
    first = _fresh(coverage_sweep, SCN, GRID)
    point = coverage_probability(typical_at(SCN.topology, 1500.0), SCN)
    assert coverage_sweep(SCN, GRID) == first
    assert calls == [2 * len(SF_RANGE) * GRID.size, 2 * len(SF_RANGE)]
    assert _bits([point]) == _bits([first[149]])


def test_memo_keys_on_the_typical_node_sf():
    # at 100 m the ring is SF7's, but a typical node may carry another SF
    node = TypicalNode(100.0, 9)
    uncached = _fresh(coverage_probability, node, SCN)
    coverage_sweep(SCN, [100.0])
    assert coverage_probability(node, SCN) == uncached
    assert uncached.q1 != coverage_probability(TypicalNode(100.0, 7), SCN).q1


def _sir_changed(scn):
    rows = [list(r) for r in scn.thresholds.sir_db]
    rows[1][3] += 1.0
    return replace(scn, thresholds=replace(scn.thresholds,
                                           sir_db=tuple(tuple(r) for r in rows)))


def _boundary_moved(scn):
    # the ring edges derive from the cell radius, so moving it moves every edge
    return replace(scn, topology=replace(scn.topology, cell_radius_m=3030.0))


@pytest.mark.parametrize("change", [
    lambda scn, d: (replace(scn, radio=replace(scn.radio, path_loss_exponent=3.1)), d),
    lambda scn, d: (_sir_changed(scn), d),
    lambda scn, d: (_boundary_moved(scn), d),
    lambda scn, d: (scn, np.where(d == 2000.0, 2000.5, d)),
], ids=["eta", "sir_db", "boundary", "distance"])
def test_changed_inputs_after_a_cached_call_give_fresh_values(change):
    coverage_sweep(SCN, GRID)
    scn, grid = change(SCN, GRID)
    got = coverage_sweep(scn, grid)
    assert _bits(got) != _bits(coverage_sweep(SCN, GRID))
    assert _bits(got) == _bits(_fresh(coverage_sweep, scn, grid))


def test_cached_table_is_read_only():
    coverage_sweep(SCN, GRID)
    hits = _ring_terms.cache_info().hits
    sf_idx = SCN.topology.ring_index(GRID).astype(np.intp)
    table = _ring_terms(SCN.radio.path_loss_exponent, SCN.topology.boundaries_m,
                        SCN.thresholds, GRID.tobytes(), sf_idx.tobytes())
    assert _ring_terms.cache_info().hits == hits + 1
    assert table.shape == (len(SF_RANGE), GRID.size) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


@pytest.mark.parametrize("distances", [1000.0, [[1000.0, 2000.0]]], ids=["0-d", "2-d"])
def test_sweep_rejects_distances_that_are_not_one_dimensional(distances):
    # the memo keys on the raw bytes of the distances, so their shape must be fixed
    with pytest.raises(ConfigurationError, match="one-dimensional"):
        coverage_sweep(SCN, distances)


def test_empty_sweep_after_a_cached_call():
    rows = coverage_sweep(SCN, GRID)
    assert len(coverage_sweep(SCN, [])) == 0
    assert _bits(coverage_sweep(SCN, GRID)) == _bits(rows)


# ---------------------------------------------------------------------------
# The sweep record: read-only columns that index to rows

COLUMNS = ("distance_m", "sf", "h1", "q1", "c1", "p_sir")


def test_sweep_columns_have_fixed_shapes_dtypes_and_are_read_only():
    distances = GRID.copy()
    sweep = coverage_sweep(SCN, distances)
    assert isinstance(sweep, CoverageSweep) and len(sweep) == GRID.size
    for name in COLUMNS:
        column = getattr(sweep, name)
        assert column.shape == ((len(SF_RANGE), GRID.size) if name == "p_sir" else (GRID.size,))
        assert column.dtype == (np.asarray(SF_RANGE).dtype if name == "sf" else np.float64)
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 0
    assert sweep.sf.tolist() == [SF_RANGE[i] for i in SCN.topology.ring_index(GRID)]
    # the record holds a copy: the caller's array keeps its flags and its own memory
    assert distances.flags.writeable and not np.shares_memory(distances, sweep.distance_m)
    distances[0] = 1.0
    assert sweep.distance_m.tobytes() == GRID.tobytes()


def test_sweep_indexes_like_a_sequence():
    sweep = coverage_sweep(SCN, GRID)
    last = coverage_probability(typical_at(SCN.topology, float(GRID[-1])), SCN)
    assert sweep[-1] == sweep[len(sweep) - 1] == last
    assert sweep[-len(sweep)] == sweep[0]
    for k in (len(sweep), -len(sweep) - 1):
        with pytest.raises(IndexError):
            sweep[k]


def test_sweep_rows_are_the_single_point_breakdowns_bit_for_bit():
    rows = list(coverage_sweep(SCN, GRID))
    points = [coverage_probability(typical_at(SCN.topology, float(d)), SCN) for d in GRID]
    assert rows == points and _bits(rows) == _bits(points)
    for br in rows:
        assert type(br) is CoverageBreakdown and type(br.p_sir) is tuple
        assert {type(v) for v in (br.h1, br.q1, br.c1, *br.p_sir)} == {float}


def _flip_lowest_bit(column):
    changed = column.copy()
    changed.view(np.uint8)[0] ^= 1
    return changed


@pytest.mark.parametrize("name, change", [
    *((name, _flip_lowest_bit) for name in COLUMNS),
    ("h1", lambda column: column.view(np.int64)),            # same bytes, another dtype
    ("p_sir", lambda column: column.reshape(-1, len(SF_RANGE))),  # another shape
], ids=[*(f"bit-{name}" for name in COLUMNS), "dtype-h1", "shape-p_sir"])
def test_sweep_equality_compares_every_column_bit_for_bit(name, change):
    a, b = coverage_sweep(SCN, GRID), coverage_sweep(SCN, GRID)
    assert (a == b) is True and (a != b) is False
    changed = replace(b, **{name: change(getattr(b, name))})
    assert (a == changed) is False and (a != changed) is True
    assert (a == list(a)) is False


def test_empty_sweep_has_empty_columns():
    sweep = coverage_sweep(SCN, [])
    assert len(sweep) == 0 and list(sweep) == []
    assert sweep.p_sir.shape == (len(SF_RANGE), 0)
    assert all(getattr(sweep, name).shape == (0,) for name in COLUMNS[:-1])
    assert sweep == coverage_sweep(SCN, np.empty(0))


def test_sweeps_and_their_consumers_build_no_row_objects(monkeypatch, tmp_path):
    made = []

    class CountingBreakdown(CoverageBreakdown):
        def __init__(self, *args):
            made.append(self)
            super().__init__(*args)

    monkeypatch.setattr(coverage_module, "CoverageBreakdown", CountingBreakdown)
    grid = np.linspace(10.0, SCN.topology.cell_radius_m, 300)
    assert len(coverage_sweep(SCN, grid)) == 300
    assert len(_coverage_rows(SCN, grid)[1]) == 300
    assert main(["reproduce", "fig2", "--outdir", str(tmp_path)]) == 0
    assert made == []
    coverage_probability(typical_at(SCN.topology, 1500.0), SCN)
    assert len(made) == 1
