from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from loracell import (
    ConfigurationError,
    ThresholdSet,
    TypicalNode,
    coverage_probability,
    default_scenario,
    estimate_coverage,
    estimate_sir_ring,
    path_gain,
    typical_at,
)
from loracell import montecarlo
from loracell.coverage import _received_mw, noise_power_mw
from loracell.montecarlo import (
    _blocks,
    _control_sums,
    _controlled,
    _estimate,
    _load_cumulants,
    _ring_exponent,
    _sum_by_trial,
    _summary,
)
from loracell.scenario import SF_RANGE

SCN = default_scenario("coverage_eu868")


def uniform_sir_thresholds(floors_db, sir_db):
    return ThresholdSet(snr_floor_db=tuple(floors_db),
                        sir_db=tuple(tuple([sir_db] * 6) for _ in range(6)))


def test_no_interferers_no_noise_gives_exactly_one():
    thr = uniform_sir_thresholds([-1000, -1001, -1002, -1003, -1004, -1005], 6.0)
    scn = replace(SCN.with_node_count(0), thresholds=thr)
    h1, q1, c1 = estimate_coverage(TypicalNode(2000.0, 10), scn, trials=20_000, seed=1)
    assert c1.mean == 1.0 and q1.mean == 1.0 and h1.mean == 1.0
    assert c1.standard_error == 0.0


def test_bit_exact_determinism():
    typical = typical_at(SCN.topology, 1500.0)
    a = estimate_coverage(typical, SCN, trials=50_000, seed=77)
    b = estimate_coverage(typical, SCN, trials=50_000, seed=77)
    assert a == b


def test_standard_error_formula():
    # the typical node's fading is averaged out, so H1 is exact; Q1 and C1
    # average values in [0, 1], and their SE stays below the Bernoulli SE
    typical = typical_at(SCN.topology, 1500.0)
    h1, q1, c1 = estimate_coverage(typical, SCN, trials=40_000, seed=5)
    assert h1.mean == pytest.approx(coverage_probability(typical, SCN).h1, rel=1e-14)
    assert h1.standard_error == 0.0
    for est in (q1, c1):
        assert est.trials == 40_000
        assert 0.0 < est.standard_error <= np.sqrt(est.mean * (1 - est.mean) / est.trials)
    # block summaries pool to the sample SE of all values (variance over n)
    values = np.array([0.25, 0.5, 1.0, 0.0, 0.75, 0.1, 0.9])
    pooled = _estimate([_summary(values[:3]), _summary(values[3:5]), _summary(values[5:])])
    assert pooled.trials == 7
    assert pooled.mean == pytest.approx(values.mean(), rel=1e-15)
    assert pooled.standard_error == pytest.approx(np.std(values) / np.sqrt(7), rel=1e-14)


def test_sir_ring_empty_configuration_is_one():
    scn = SCN.with_node_count(0)
    est = estimate_sir_ring(TypicalNode(1500.0, 8), 9, scn, trials=10_000, seed=2)
    assert est.mean == 1.0


def test_sir_ring_vanishing_threshold_is_one():
    thr = uniform_sir_thresholds(SCN.thresholds.snr_floor_db, -1000.0)
    scn = replace(SCN, thresholds=thr)
    est = estimate_sir_ring(TypicalNode(1500.0, 8), 8, scn, trials=10_000, seed=3)
    assert est.mean == 1.0


def test_sir_monotone_in_threshold_common_random_numbers():
    # identical seeds reuse identical channel samples, so raising delta can
    # only remove successes, never add them
    typical = typical_at(SCN.topology, 1500.0)
    means = []
    for delta_db in (-6.0, 0.0, 6.0, 12.0):
        thr = uniform_sir_thresholds(SCN.thresholds.snr_floor_db, delta_db)
        scn = replace(SCN, thresholds=thr)
        est = estimate_sir_ring(typical, 8, scn, trials=100_000, seed=11)
        means.append(est.mean)
    assert all(b <= a for a, b in zip(means, means[1:]))


def test_sir_ring_matches_closed_form():
    typical = typical_at(SCN.topology, 1500.0)
    est = estimate_sir_ring(typical, 8, SCN, trials=400_000, seed=21)
    closed = coverage_probability(typical, SCN).p_sir[8 - SF_RANGE[0]]
    assert abs(est.mean - closed) <= 3 * est.standard_error


def test_estimates_unbiased_across_seeds():
    # spread of 20 independent estimates should be consistent with the
    # reported standard error (within a loose factor for a light meta-test)
    typical = typical_at(SCN.topology, 1500.0)
    means, ses = [], []
    for seed in range(20):
        _, _, c1 = estimate_coverage(typical, SCN, trials=20_000, seed=1000 + seed)
        means.append(c1.mean)
        ses.append(c1.standard_error)
    spread = np.std(means, ddof=1)
    assert 0.5 * np.mean(ses) < spread < 2.0 * np.mean(ses)


def test_interference_aggregation_is_linear_sum():
    # one interferer of power x == two interferers of x/2 in the same trial
    one = _sum_by_trial(np.array([0.3]), np.array([0]), trials=2)
    two = _sum_by_trial(np.array([0.15, 0.15]), np.array([0, 0]), trials=2)
    np.testing.assert_array_equal(one, two)
    mixed = _sum_by_trial(np.array([1.0, 2.0, 4.0]), np.array([1, 0, 1]), trials=3)
    np.testing.assert_array_equal(mixed, [2.0, 5.0, 0.0])


def test_shared_fading_estimate_dominates_product_form():
    # with one fading draw shared across all threshold events the events are
    # positively correlated, so the joint probability exceeds the product
    # form that the independent-draw estimator targets
    typical = typical_at(SCN.topology, 2100.0)
    _, _, c_shared = estimate_coverage(typical, SCN, trials=200_000, seed=9,
                                       shared_fading=True)
    _, _, c_indep = estimate_coverage(typical, SCN, trials=200_000, seed=9,
                                      shared_fading=False)
    assert c_shared.mean > c_indep.mean + 3 * c_indep.standard_error


@pytest.mark.parametrize("shared_fading", [False, True])
@pytest.mark.parametrize("count, distance", [
    (0, 400.0), (0, 2900.0), (250, 1100.0), (500, 2900.0), (2500, 400.0), (2500, 2100.0),
])
def test_exact_invariants(shared_fading, count, distance):
    scn = SCN.with_node_count(count)
    typical = typical_at(scn.topology, distance)
    h1, q1, c1 = estimate_coverage(typical, scn, trials=20_000, seed=count + 3,
                                   shared_fading=shared_fading)
    for est in (h1, q1, c1):
        assert 0.0 <= est.mean <= 1.0
    assert c1.mean <= min(h1.mean, q1.mean)
    if count == 0:
        # an interferer-free cell with finite noise: every q_t is 1
        assert (q1.mean, q1.standard_error) == (1.0, 0.0)
        assert 0.0 < h1.mean < 1.0
        if shared_fading:
            # the mean of 20,000 copies of H1 rounds within an ulp of H1
            assert c1.mean == pytest.approx(h1.mean, rel=1e-15, abs=0.0)
            assert c1.standard_error < 1e-15
        else:
            assert (c1.mean, c1.standard_error) == (h1.mean, 0.0)


def annulus_mean_power(scn, ring):
    """mu_j P G (lambda / 4 pi)^eta E[r^-eta], r uniform over ring j's annulus."""
    radio = scn.radio
    topo = scn.topology
    eta = radio.path_loss_exponent
    lo, hi = topo.boundaries_m[ring], topo.boundaries_m[ring + 1]
    mean_r_eta = 2.0 * (hi ** (2 - eta) - lo ** (2 - eta)) / ((2 - eta) * (hi ** 2 - lo ** 2))
    mu = topo.intensities[ring] * topo.ring_areas_m2[ring]
    return (mu * radio.tx_power_mw * radio.antenna_gain_linear
            * (radio.wavelength_m / (4 * np.pi)) ** eta * mean_r_eta), mu


@pytest.mark.parametrize("ring", [1, 2, 3, 4, 5])
def test_ring_interference_matches_annulus_mean(ring):
    # ring 0 touches the gateway, where E[r^-eta] is infinite for eta >= 2
    scn = SCN.with_node_count(500)
    trials = 200_000
    rng = np.random.default_rng(40 + ring)
    inter = _ring_exponent(rng, scn, ring, trials, 1.0, rng)
    expected, mu = annulus_mean_power(scn, ring)
    assert inter.shape == (trials,)
    assert abs(inter.mean() - expected) <= 4 * inter.std() / np.sqrt(trials)
    # Poisson splitting: a trial is interferer-free with probability exp(-mu)
    empty = np.mean(inter == 0.0)
    assert abs(empty - np.exp(-mu)) <= 4 * np.sqrt(np.exp(-mu) * (1 - np.exp(-mu)) / trials)


class FixedDraws:
    """Stands in for a generator: a fixed Poisson total and uniforms, or fixed
    fading for an interferer stream."""

    def __init__(self, uniforms=(), fading=()):
        self.uniforms = np.array(uniforms, dtype=float)
        self.fading = np.array(fading, dtype=float)

    def poisson(self, lam):
        return self.uniforms.size

    def random(self, size):
        assert size == self.uniforms.size
        return self.uniforms.copy()

    def exponential(self, size):
        assert size == self.fading.size
        return self.fading.copy()


@pytest.mark.parametrize("ring", [0, 3, 5])
def test_ring_exponent_per_trial_forms_are_exact(ring):
    scn = SCN.with_node_count(500)
    radio = scn.radio
    lo, hi = scn.topology.boundaries_m[ring:ring + 2]
    labels = [0, 3, 3, 0, 1, 3]             # trials 2 and 4 have no interferer
    fractions = [0.0, 0.5, 1023 / 1024, 0.25, 0.75, 0.125]
    fading = [0.3, 1.7, 0.01, 2.5, 1.0, 4.2]
    trials = 5
    # u = (label + fraction) / trials: dyadic fractions, so u m decodes exactly
    uniforms = (np.array(labels) + fractions) / trials
    assert np.array_equal(uniforms * trials - labels, fractions)
    r = np.sqrt(hi ** 2 + np.array(fractions) * (lo ** 2 - hi ** 2))
    power = radio.tx_power_mw * radio.antenna_gain_linear * path_gain(r, radio)
    # a same-SF typical node at the ring's outer edge: w P_k >= delta
    weight = scn.thresholds.sir_linear[ring, ring] / (
        radio.tx_power_mw * radio.antenna_gain_linear * path_gain(hi, radio))
    averaged, drawn = np.zeros(trials), np.zeros(trials)
    for t, p, h in zip(labels, power, fading):
        averaged[t] += np.log1p(weight * p)
        drawn[t] += p * h
    drawn *= weight
    assert averaged.max() > 1.0             # far from the linear regime of log1p

    got = _ring_exponent(FixedDraws(uniforms), scn, ring, trials, weight, None)
    np.testing.assert_allclose(got, averaged, rtol=1e-14, atol=0.0)
    assert got[2] == got[4] == 0.0
    # positions come from the first generator, fading only from the second
    got = _ring_exponent(FixedDraws(uniforms), scn, ring, trials, weight,
                         FixedDraws(fading=fading))
    np.testing.assert_allclose(got, drawn, rtol=1e-14, atol=0.0)
    assert got[2] == got[4] == 0.0


class DecodeLog:
    """numpy as the montecarlo module sees it, logging each ring draw's trial
    labels (the argument of np.bincount) and squared radii (that of np.power)."""

    def __init__(self):
        self.labels, self.r2 = [], []

    def __getattr__(self, name):
        return getattr(np, name)

    def bincount(self, x, *args, **kwargs):
        self.labels.append(x.copy())
        return np.bincount(x, *args, **kwargs)

    def power(self, x, *args, **kwargs):
        self.r2.append(x.copy())
        return np.power(x, *args, **kwargs)


@pytest.mark.parametrize("m", [1, 3, 1 << 17, 1 << 18])
def test_one_uniform_decodes_to_a_trial_and_an_annulus_position(m, monkeypatch):
    # u m gives the label floor(u m) and the fraction f = u m - floor(u m); ring 0
    # is a disk, r^2 = hi^2 (1 - f), so r^2 > 0 exactly when f < 1
    log = DecodeLog()
    monkeypatch.setattr(montecarlo, "np", log)
    hi2 = SCN.topology.boundaries_m[1] ** 2
    got = _ring_exponent(FixedDraws([0.0, 0.5, np.nextafter(1.0, 0.0)]), SCN, 0, m, 1.0,
                         None)
    (labels,), (r2,) = log.labels, log.r2
    assert labels.tolist() == [0, m // 2, m - 1] and got.shape == (m,)
    assert r2[0] == hi2
    assert r2[1] == (hi2 if m % 2 == 0 else pytest.approx(hi2 / 2, rel=1e-15))
    # u just below 1 lands within 2^-35 of the span from the centre, never on it:
    # the fraction keeps at least 35 bits up to the block's trial cap
    assert 0.0 < r2[2] <= hi2 * 2.0 ** -35 * (1 + 1e-4)
    assert np.all(np.isfinite(got))


def test_one_uniform_per_interferer_keeps_the_sampler_law(monkeypatch):
    # per-trial counts iid Poisson(mu), and r^2 uniform on (lo^2, hi^2] whatever
    # the trial. Small blocks of m = 8 trials let a label bias show in the
    # dispersion, and the radii of the first half of the trials show a position
    # that depends on the trial. Bounds: 4 SE, and a KS p-value of at least 1e-3.
    log = DecodeLog()
    monkeypatch.setattr(montecarlo, "np", log)
    scn, ring, m, calls = SCN.with_node_count(2500), 5, 8, 2_500
    topo = scn.topology
    mu = topo.intensities[ring] * topo.ring_areas_m2[ring]
    lo2, hi2 = np.square(topo.boundaries_m[ring:ring + 2])
    rng = np.random.default_rng(2020)
    for _ in range(calls):
        _ring_exponent(rng, scn, ring, m, 1.0, None)
    counts = np.concatenate([np.bincount(x, minlength=m) for x in log.labels])
    n = counts.size
    assert abs(counts.mean() - mu) <= 4 * np.sqrt(mu / n)
    assert abs(counts.var() / counts.mean() - 1) <= 4 * np.sqrt(2 / n)
    first_half = np.concatenate([r2[x < m // 2] for x, r2 in zip(log.labels, log.r2)])
    assert first_half.size > 30_000
    assert stats.kstest(first_half, "uniform", args=(lo2, hi2 - lo2)).pvalue >= 1e-3


def test_averaged_interferer_fading_lowers_variance():
    # Rao-Blackwell: q_t = E[exp(-sum_j w_j I_j) | positions] has the same mean
    # as the drawn-fading value and a smaller variance
    scn = SCN.with_node_count(2500)
    typical = typical_at(scn.topology, 1500.0)
    trials = 200_000
    _, q1, _ = estimate_coverage(typical, scn, trials, seed=13)
    radio = scn.radio
    s = radio.tx_power_mw * radio.antenna_gain_linear * path_gain(1500.0, radio)
    weights = scn.thresholds.sir_linear[typical.sf - SF_RANGE[0]] / s
    rng, fading = np.random.default_rng(13), np.random.default_rng(14)
    load = sum(_ring_exponent(rng, scn, j, trials, w, fading) for j, w in enumerate(weights))
    q_drawn = np.exp(-load)
    se_drawn = q_drawn.std() / np.sqrt(trials)
    assert q1.standard_error < se_drawn
    assert abs(q1.mean - q_drawn.mean()) <= 4 * np.hypot(q1.standard_error, se_drawn)


class RecordedDraws:
    """Delegates to a generator and logs every draw it returns."""

    def __init__(self, rng, log):
        self.rng, self.log = rng, log

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def logged(*args, **kwargs):
            out = draw(*args, **kwargs)
            self.log.append((name, np.copy(out)))
            return out
        return logged


def test_fading_modes_draw_the_same_interferer_positions(monkeypatch):
    # one log per block stream, so the check holds however the blocks are scheduled
    logs = {False: {}, True: {}}
    original = montecarlo._ring_exponent

    def recording(rng, scenario, ring, trials, weight, fading):
        log = logs[fading is not None].setdefault(rng.bit_generator.seed_seq.spawn_key, [])
        return original(RecordedDraws(rng, log), scenario, ring, trials, weight, fading)

    monkeypatch.setattr(montecarlo, "_ring_exponent", recording)
    monkeypatch.setattr(montecarlo, "_BLOCK", 35_000)    # 7,000 trials at N=500: 3 blocks
    typical = typical_at(SCN.topology, 1500.0)
    for shared_fading in (False, True):
        estimate_coverage(typical, SCN, trials=20_000, seed=31, shared_fading=shared_fading)
    assert logs[True].keys() == logs[False].keys() == {(0,), (1,), (2,)}
    assert (sum(map(len, logs[True].values())) == sum(map(len, logs[False].values()))
            == 3 * 6 * 2)           # per block and ring: the Poisson total, the uniforms
    for key, log in logs[False].items():
        assert len(log) == len(logs[True][key])
        for (name_a, a), (name_b, b) in zip(log, logs[True][key]):
            assert name_a == name_b != "exponential"
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("ring_sf", SF_RANGE)
def test_sir_ring_matches_closed_form_every_ring(ring_sf):
    typical = typical_at(SCN.topology, 2100.0)
    est = estimate_sir_ring(typical, ring_sf, SCN, trials=200_000, seed=500 + ring_sf)
    closed = coverage_probability(typical, SCN).p_sir[ring_sf - SF_RANGE[0]]
    assert abs(est.mean - closed) <= 4 * est.standard_error


def test_shared_fading_mean_never_rounds_above_h1():
    # interferer-free, so every shared-fading trial contributes exactly H1;
    # pick a distance where the float mean of those copies rounds above H1
    scn = SCN.with_node_count(0)
    trials = 20_000

    def h1_at(d):
        return coverage_probability(typical_at(scn.topology, d), scn).h1

    d = next(d for d in np.linspace(2000.0, 2900.0, 91)
             if np.full(trials, h1_at(d)).mean() > h1_at(d))
    h1, q1, c1 = estimate_coverage(typical_at(scn.topology, d), scn, trials, seed=4,
                                   shared_fading=True)
    assert c1.mean <= min(h1.mean, q1.mean)


def brute_force_coverage(typical, scn, trials, seed, shared_fading):
    """(H1, Q1, C1) with the typical node's fading drawn, not averaged.

    The interference is drawn exactly as `estimate_coverage` draws it for the
    same seed (the same trial blocks and block streams), so the two differ only
    by the fading draws.
    """
    topo = scn.topology
    sizes = _blocks(trials, float(np.sum(topo.intensities * topo.ring_areas_m2)))
    per_block = []
    for stream, m in zip(np.random.SeedSequence(seed).spawn(len(sizes)), sizes):
        rng = np.random.default_rng(stream)
        inter_fading = np.random.default_rng(stream.spawn(1)[0])
        per_block.append([_ring_exponent(rng, scn, j, m, 1.0, inter_fading)
                          for j in range(len(SF_RANGE))])
    interference = [np.concatenate(ring) for ring in zip(*per_block)]
    fading = np.random.default_rng(seed + 1)
    i = typical.sf - SF_RANGE[0]
    radio = scn.radio
    s = radio.tx_power_mw * radio.antenna_gain_linear * path_gain(typical.distance_m, radio)
    h = fading.exponential(size=trials)
    snr_ok = s * h > scn.thresholds.snr_floor_linear[i] * noise_power_mw(radio)
    all_sir = np.ones(trials, dtype=bool)
    for j, inter in enumerate(interference):
        fade = h if shared_fading else fading.exponential(size=trials)
        all_sir &= s * fade > scn.thresholds.sir_linear[i, j] * inter
    return snr_ok.mean(), all_sir.mean(), (snr_ok & all_sir).mean()


@pytest.mark.parametrize("shared_fading", [False, True])
@pytest.mark.parametrize("sir_db", [None, 0.0])
def test_averaged_fading_matches_drawn_fading(shared_fading, sir_db):
    # the packaged inter-SF thresholds are low, so the same-SF ring dominates;
    # a uniform 0 dB matrix makes every ring matter
    scn = SCN.with_node_count(500)
    if sir_db is not None:
        scn = replace(scn, thresholds=uniform_sir_thresholds(scn.thresholds.snr_floor_db,
                                                             sir_db))
    typical = typical_at(scn.topology, 1500.0)
    trials = 60_000
    estimates = estimate_coverage(typical, scn, trials, seed=8, shared_fading=shared_fading)
    drawn = brute_force_coverage(typical, scn, trials, 8, shared_fading)
    for est, p in zip(estimates, drawn):
        assert abs(est.mean - p) <= 4 * np.sqrt(p * (1 - p) / trials)


def test_chunked_estimate_pools_every_trial(monkeypatch):
    monkeypatch.setattr(montecarlo, "_BLOCK", 35_000)    # 7,000 trials at N=500: 8 blocks
    typical = typical_at(SCN.topology, 1500.0)
    for shared_fading in (False, True):
        h1, q1, c1 = estimate_coverage(typical, SCN, trials=50_000, seed=12,
                                       shared_fading=shared_fading)
        assert h1.trials == q1.trials == c1.trials == 50_000
        assert c1.mean <= min(h1.mean, q1.mean)
        if not shared_fading:
            assert abs(c1.mean - coverage_probability(typical, SCN).c1) <= 4 * c1.standard_error


@pytest.mark.parametrize("trials", [0, -5])
def test_estimators_reject_non_positive_trials(trials):
    typical = TypicalNode(1500.0, 8)
    with pytest.raises(ConfigurationError, match="trials must be at least 1"):
        estimate_coverage(typical, SCN, trials=trials, seed=1)
    with pytest.raises(ConfigurationError, match="trials must be at least 1"):
        estimate_sir_ring(typical, 9, SCN, trials=trials, seed=1)


@pytest.mark.parametrize("trials", [2.5, 1e3])
def test_estimators_reject_trials_that_are_not_a_whole_number(trials):
    typical = TypicalNode(1500.0, 8)
    with pytest.raises(ConfigurationError, match="trials must be a whole number"):
        estimate_coverage(typical, SCN, trials=trials, seed=1)
    with pytest.raises(ConfigurationError, match="trials must be a whole number"):
        estimate_sir_ring(typical, 9, SCN, trials=trials, seed=1)


@pytest.mark.parametrize("trials, interferers, sizes", [
    (200_000, 25.0, [10_000] * 20),             # N=2500: 10,485 trials a block at most
    (200_000, 2.5, [100_000] * 2),
    (1_000_000, 0.0, [250_000] * 4),            # interferer-free: the trial cap
    (7, 0.5, [7]),
    (5, 1e9, [1] * 5),                          # one trial a block, whatever its load
])
def test_blocks_are_equal_and_interference_sized(trials, interferers, sizes):
    assert _blocks(trials, interferers) == sizes


@pytest.mark.parametrize("trials", [1, 999, 20_000, 262_145, 1_000_003])
@pytest.mark.parametrize("interferers", [0.0, 5.0, 25.0, 3e5])
def test_block_sizes_cover_trials_within_bounds(trials, interferers):
    sizes = _blocks(trials, interferers)
    assert sum(sizes) == trials and max(sizes) - min(sizes) <= 1
    assert max(sizes) <= montecarlo._BLOCK <= 1 << 18     # the decode's 35-bit fraction
    budget = max(1.0, montecarlo._BLOCK / max(interferers, 1.0))   # trials a block may hold
    assert max(sizes) <= budget
    # as few blocks as the budget allows: one block fewer would overflow it
    assert len(sizes) == 1 or -(-trials // (len(sizes) - 1)) > budget


def test_blocks_pool_to_the_same_estimate_in_any_order_or_at_once(monkeypatch):
    # a block depends only on its own stream and size, so running the blocks
    # backwards or on threads pools them to the same bits
    monkeypatch.setattr(montecarlo, "_BLOCK", 1 << 15)   # N=2500: 23 blocks; one ring: 39
    scn = SCN.with_node_count(2500)
    typical = typical_at(scn.topology, 1500.0)

    def estimates():
        return ([estimate_coverage(typical, scn, 30_000, seed=17, shared_fading=shared)
                 for shared in (False, True)]
                + [estimate_sir_ring(typical, typical.sf, scn, 300_000, seed=17)])

    def backwards(block, streams, sizes):
        return [block(stream, m) for stream, m in zip(streams[::-1], sizes[::-1])][::-1]

    in_order = estimates()
    assert estimates() == in_order
    monkeypatch.setattr(montecarlo, "map", backwards, raising=False)
    assert estimates() == in_order
    with ThreadPoolExecutor(4) as pool:
        monkeypatch.setattr(montecarlo, "map", pool.map, raising=False)
        assert estimates() == in_order


@pytest.mark.parametrize("distance", [
    1.0, 400.0, 1100.0, 1500.0, 2100.0, 2900.0, SCN.topology.cell_radius_m])
def test_h1_is_the_closed_form_bit_for_bit(distance):
    # the criterion-6 grid and both ends of the cell
    for count in (250, 500, 2500):
        scn = SCN.with_node_count(count)
        typical = typical_at(scn.topology, distance)
        h1, _, _ = estimate_coverage(typical, scn, trials=1, seed=0)
        assert h1.mean == coverage_probability(typical, scn).h1
        assert h1.standard_error == 0.0


def quad_cumulants(scn, weights):
    """(kappa1, kappa2) of the per-trial exponent by scipy quadrature of
    mu_j E[log1p(c_j s^-beta)^n] in v = log s, split where c_j s^-beta = 1."""
    topo, beta = scn.topology, scn.radio.path_loss_exponent / 2.0
    kappas = np.zeros(2)
    for j, w in enumerate(weights):
        log_c = np.log(_received_mw(1.0, scn.radio) * w)
        lo, hi = topo.boundaries_m[j:j + 2]
        v_lo, v_hi = (np.log(lo * lo) if lo > 0 else -np.inf), np.log(hi * hi)
        cuts = [v_lo, *[v for v in [log_c / beta] if v_lo < v < v_hi], v_hi]

        def integrand(v, n):
            t = log_c - beta * v            # log of c s^-beta, with log1p kept stable
            g = t + np.log1p(np.exp(-t)) if t > 0 else np.log1p(np.exp(t))
            return np.exp(v) * g ** n

        for n in (1, 2):
            total = sum(integrate.quad(integrand, a, b, args=(n,), epsabs=0.0, epsrel=1e-13,
                                       limit=500)[0] for a, b in zip(cuts, cuts[1:]))
            mu = topo.intensities[j] * topo.ring_areas_m2[j]
            kappas[n - 1] += mu * total / (hi * hi - lo * lo)
    return kappas


@pytest.mark.parametrize("eta", [2.0001, 2.75, 4.0])
def test_load_cumulants_match_scipy_quadrature(eta):
    # from the gateway to the cell edge, with thresholds far into log1p's
    # linear (1e-12) and logarithmic (1e12) regimes
    for count in (250, 2500):
        scn = SCN.with_node_count(count)
        scn = replace(scn, radio=replace(scn.radio, path_loss_exponent=eta))
        for d in (1.0, 50.0, 1500.0, scn.topology.cell_radius_m - 1.0):
            for sf in (7, 12):
                for scale in (1e-12, 1.0, 1e12):
                    weights = (scale * scn.thresholds.sir_linear[sf - SF_RANGE[0]]
                               / _received_mw(d, scn.radio))
                    np.testing.assert_allclose(_load_cumulants(scn, weights),
                                               quad_cumulants(scn, weights), rtol=1e-12, atol=0)


@pytest.mark.parametrize("count, distance", [(2500, 1500.0), (250, 50.0)])
def test_sampled_load_has_the_cumulants_as_mean_and_variance(count, distance):
    # x summed over rings as `estimate_coverage` sums it; bounds 4 SE, the
    # variance's SE from the sample's fourth central moment
    scn = SCN.with_node_count(count)
    typical = typical_at(scn.topology, distance)
    weights = (scn.thresholds.sir_linear[typical.sf - SF_RANGE[0]]
               / _received_mw(distance, scn.radio))
    kappa1, kappa2 = _load_cumulants(scn, weights)
    trials = 200_000
    rng = np.random.default_rng(37)
    x = sum(_ring_exponent(rng, scn, j, trials, w, None) for j, w in enumerate(weights))
    mean, var = x.mean(), x.var()
    assert abs(mean - kappa1) <= 4 * np.sqrt(kappa2 / trials)
    assert abs(var - kappa2) <= 4 * np.sqrt((np.mean((x - mean) ** 4) - var * var) / trials)


def test_control_variate_pools_block_sums_and_floors_the_control_variance():
    x = np.random.default_rng(3).exponential(size=1000)
    q = np.exp(-x)
    parts = [_control_sums(x[:300]), _control_sums(x[300:700]), _control_sums(x[700:])]
    b = np.mean((x - x.mean()) * (q - q.mean())) / x.var()
    residual = (q - b * x).var()            # the textbook residual variance
    for kappa2 in (0.5 * x.var(), 2.0 * x.var()):
        est = _controlled(parts, 1.0, kappa2)
        assert est.trials == 1000
        assert est.mean == pytest.approx(q.mean() - b * (x.mean() - 1.0), rel=1e-12)
        floor = b * b * max(0.0, kappa2 - x.var())
        assert est.standard_error == pytest.approx(np.sqrt((residual + floor) / 1000),
                                                   rel=1e-10)
