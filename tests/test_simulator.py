import hashlib
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from loracell import (
    ConfigurationError,
    PacketEvent,
    ReplicationResult,
    default_scenario,
    draw_calendar,
    hata_rural_loss,
    multichannel_projection,
    pure_aloha_throughput,
    resolve_reception,
    run_replication,
    sensitivity_dbm,
    simulator,
    sweep,
    sweep_models,
)
from loracell.scenario import SF_RANGE

N1 = default_scenario("sim_n1")
N2 = default_scenario("sim_n2")

# Hand-evaluated open-area Okumura-Hata at f=868.1 MHz, hB=24 m, hm=3 m.
HATA_5KM = 120.24791515117186
HATA_13KM = 135.12870021184743


def pkt(sf, start, dur, rx_dbm, node=0, channel=0):
    return PacketEvent(node=node, sf=sf, start_s=start, duration_s=dur,
                       rx_power_dbm=rx_dbm, channel=channel)


def test_hata_reference_values_and_monotonicity():
    assert hata_rural_loss(5000.0, N1.radio) == pytest.approx(HATA_5KM, abs=1e-9)
    assert hata_rural_loss(13000.0, N1.radio) == pytest.approx(HATA_13KM, abs=1e-9)
    assert hata_rural_loss(2000.0, N1.radio) < hata_rural_loss(10000.0, N1.radio)


def test_hata_clamps_below_one_km():
    assert hata_rural_loss(200.0, N1.radio) == hata_rural_loss(1000.0, N1.radio)


def test_hata_rejects_out_of_domain_frequency():
    bad = replace(N1.radio, carrier_hz=100e6)
    with pytest.raises(ConfigurationError, match="150..1500 MHz"):
        hata_rural_loss(5000.0, bad)


@pytest.mark.parametrize("bound, outward", [(150.0, -math.inf), (1500.0, math.inf)])
def test_hata_domain_includes_its_bounds(bound, outward):
    # the carrier in MHz is carrier_hz / 1e6, which gives each float back exactly
    beyond = float(np.nextafter(bound, outward))
    for f_mhz in (bound, beyond):
        assert (f_mhz * 1e6) / 1e6 == f_mhz
    assert math.isfinite(hata_rural_loss(5000.0, replace(N1.radio, carrier_hz=bound * 1e6)))
    with pytest.raises(ConfigurationError, match="150..1500 MHz"):
        hata_rural_loss(5000.0, replace(N1.radio, carrier_hz=beyond * 1e6))


def test_cell_edge_link_closes_for_every_sf():
    # at 13 km the received power clears even the SF7 floor, and the SF12
    # link has double-digit margin, so PDR is ~100% absent collisions
    rx = N1.radio.tx_power_dbm - hata_rural_loss(13000.0, N1.radio)
    sens = sensitivity_dbm(N1.radio, N1.thresholds)
    assert rx >= sens.max() + 1.0          # SF7, the least sensitive
    assert rx >= sens.min() + 10.0         # SF12, with margin


def test_sensitivity_is_noise_plus_floor():
    sens = sensitivity_dbm(N1.radio, N1.thresholds)
    assert sens[0] == pytest.approx(-117.0308998699194 - 6.0, abs=1e-9)
    assert sens[5] == pytest.approx(-117.0308998699194 - 20.0, abs=1e-9)


def test_single_packet_received_under_all_models():
    for model in ("BP", "IC", "IIC"):
        assert resolve_reception([pkt(7, 0.0, 1.0, -100.0)], model,
                                 N1.thresholds, N1.radio) == [True]


def test_single_packet_below_sensitivity_lost():
    for model in ("BP", "IC", "IIC"):
        assert resolve_reception([pkt(7, 0.0, 1.0, -130.0)], model,
                                 N1.thresholds, N1.radio) == [False]


@pytest.mark.parametrize("model", ["BP", "IC", "IIC"])
def test_lone_packet_exactly_at_sensitivity_is_received(model):
    # a packet is received iff it clears sensitivity: equality clears it
    floor = sensitivity_dbm(N1.radio, N1.thresholds)
    for j, sf in enumerate(SF_RANGE):
        at, below = float(floor[j]), float(np.nextafter(floor[j], -math.inf))
        assert resolve_reception([pkt(sf, 0.0, 1.0, at)], model,
                                 N1.thresholds, N1.radio) == [True]
        assert resolve_reception([pkt(sf, 0.0, 1.0, below)], model,
                                 N1.thresholds, N1.radio) == [False]


def test_bp_any_overlap_destroys_all():
    packets = [pkt(7, 0.0, 1.0, -80.0), pkt(9, 0.5, 1.0, -80.0),
               pkt(8, 5.0, 1.0, -80.0)]
    got = resolve_reception(packets, "BP", N1.thresholds, N1.radio)
    assert got == [False, False, True]


def test_ic_equal_power_tie_loses_both():
    # a positive intra-SF capture threshold cannot be met by both of two
    # equal-power packets
    packets = [pkt(7, 0.0, 1.0, -80.0), pkt(7, 0.2, 1.0, -80.0)]
    assert resolve_reception(packets, "IC", N1.thresholds, N1.radio) == [False, False]


def test_ic_capture_stronger_packet_wins():
    packets = [pkt(7, 0.0, 1.0, -80.0), pkt(7, 0.2, 1.0, -90.0)]
    assert resolve_reception(packets, "IC", N1.thresholds, N1.radio) == [True, False]
    # 4 dB separation is below the 6 dB threshold: nobody wins
    packets = [pkt(7, 0.0, 1.0, -80.0), pkt(7, 0.2, 1.0, -84.0)]
    assert resolve_reception(packets, "IC", N1.thresholds, N1.radio) == [False, False]


def test_inter_sf_transparency_ic_vs_bp():
    packets = [pkt(7, 0.0, 1.0, -80.0), pkt(9, 0.0, 1.0, -80.0)]
    assert resolve_reception(packets, "IC", N2.thresholds, N2.radio) == [True, True]
    assert resolve_reception(packets, "BP", N2.thresholds, N2.radio) == [False, False]


def test_iic_pairwise_thresholds():
    # comparable powers: quasi-orthogonality lets both through
    packets = [pkt(7, 0.0, 1.0, -80.0), pkt(9, 0.0, 1.0, -80.0)]
    assert resolve_reception(packets, "IIC", N2.thresholds, N2.radio) == [True, True]
    # a near-noise SF7 packet cannot clear delta(7,9) = -18 dB against a
    # strong SF9 interferer, which itself still decodes
    packets = [pkt(7, 0.0, 1.0, -120.0), pkt(9, 0.0, 1.0, -80.0)]
    assert resolve_reception(packets, "IIC", N2.thresholds, N2.radio) == [False, True]


def test_episode_uniqueness_for_chained_packets():
    # A and C never overlap each other but share the episode through B; the
    # gateway still locks at most one same-SF reception per episode
    packets = [pkt(7, 0.0, 1.0, -80.0, node=1),
               pkt(7, 0.5, 1.0, -120.0, node=2),
               pkt(7, 1.2, 1.0, -80.5, node=3)]
    got = resolve_reception(packets, "IC", N1.thresholds, N1.radio)
    assert sum(got) == 1
    assert got[1] is False


def test_multichannel_packets_resolved_independently():
    packets = [pkt(7, 0.0, 1.0, -80.0, channel=0), pkt(7, 0.2, 1.0, -80.0, channel=1)]
    assert resolve_reception(packets, "BP", N1.thresholds, N1.radio) == [True, True]


@pytest.mark.parametrize("model", ["BP", "IC", "IIC"])
def test_channels_are_any_integer_labels(model):
    # a channel is a label, not an index: -1 and 868_100_000 resolve as 0 and 1,
    # and as two channels, not one
    def flags(a, b):
        packets = [pkt(7, 0.0, 1.0, -80.0, node=0, channel=a),
                   pkt(7, 0.2, 1.0, -90.0, node=1, channel=a),
                   pkt(8, 0.1, 1.0, -80.0, node=2, channel=a),
                   pkt(7, 0.5, 1.0, -80.0, node=3, channel=b)]
        return resolve_reception(packets, model, N1.thresholds, N1.radio)
    assert flags(-1, 868_100_000) == flags(0, 1) != flags(0, 0)


def test_replication_bit_exact_determinism():
    a = run_replication(N1, 0.3, seed=123)
    b = run_replication(N1, 0.3, seed=123)
    assert a == b


# Golden replications: every ReplicationResult field, floats as float.hex.
# The `draw_calendar` stage draws the cell's superposed Poisson stream (a total,
# the sorted times, then the node labels), so these values pin the random
# stream; a change to the draws must regenerate them.
# "N1x3" is N1 on three channels, which draws a channel per packet.
GOLDEN = {
    ("N1", "IC", 1.0, 123): dict(
        offered_load="0x1.0000000000000p+0",
        measured_g="0x1.fcc9c9327b5bep-1",
        tx_count=154412, rx_count=44485, dropped_busy=527, dropped_duty=0,
        pdr="0x1.2701d2dd824dfp-2",
        throughput="0x1.2528135c5cc87p-2",
        rx_airtime_fraction="0x1.2528135c5cc85p-2",
        per_sf_tx=(154412, 0, 0, 0, 0, 0),
        per_sf_rx=(44485, 0, 0, 0, 0, 0),
        max_node_airtime_fraction="0x1.e6b631bddea21p-9",
    ),
    ("N2", "IIC", 1.0, 2): dict(
        offered_load="0x1.0000000000000p+0",
        measured_g="0x1.f15bdf408979cp-1",
        tx_count=17879, rx_count=11866, dropped_busy=48, dropped_duty=266,
        pdr="0x1.53ce57f1ae788p-1",
        throughput="0x1.4a16c5b5efa6cp-1",
        rx_airtime_fraction="0x1.1faafaa81dc5ap-1",
        per_sf_tx=(2971, 3062, 2988, 3002, 3066, 2790),
        per_sf_rx=(2189, 2242, 2180, 2092, 1731, 1432),
        max_node_airtime_fraction="0x1.45ece5e390d03p-7",
    ),
    ("N1", "BP", 0.1, 7): dict(
        offered_load="0x1.999999999999ap-4",
        measured_g="0x1.99950d2fc7e9fp-4",
        tx_count=15538, rx_count=12835, dropped_busy=9, dropped_duty=0,
        pdr="0x1.a6eea27365644p-1",
        throughput="0x1.5254c01bfc3e7p-4",
        rx_airtime_fraction="0x1.5254c01bfc3e6p-4",
        per_sf_tx=(15538, 0, 0, 0, 0, 0),
        per_sf_rx=(12835, 0, 0, 0, 0, 0),
        max_node_airtime_fraction="0x1.e5de40bd8a649p-12",
    ),
    ("N1", "BP", 1.0, 11): dict(
        offered_load="0x1.0000000000000p+0",
        measured_g="0x1.fe5dd52218fafp-1",
        tx_count=154891, rx_count=21180, dropped_busy=508, dropped_duty=0,
        pdr="0x1.180bd57885a30p-3",
        throughput="0x1.17271c5ce6434p-3",
        rx_airtime_fraction="0x1.17271c5ce6434p-3",
        per_sf_tx=(154891, 0, 0, 0, 0, 0),
        per_sf_rx=(21180, 0, 0, 0, 0, 0),
        max_node_airtime_fraction="0x1.f1ad6ec225c1ap-9",
    ),
    ("N2", "BP", 1.0, 3): dict(
        offered_load="0x1.0000000000000p+0",
        measured_g="0x1.ec8f23017025dp-1",
        tx_count=17840, rx_count=3549, dropped_busy=58, dropped_duty=243,
        pdr="0x1.976b38b5d721cp-3",
        throughput="0x1.87f2eecc0cd7ap-3",
        rx_airtime_fraction="0x1.6508d1991dac3p-4",
        per_sf_tx=(3025, 2996, 3079, 2992, 2969, 2779),
        per_sf_rx=(1039, 909, 745, 572, 225, 59),
        max_node_airtime_fraction="0x1.45ece5e390d03p-7",
    ),
    ("N1x3", "IC", 0.7, 5): dict(
        offered_load="0x1.6666666666666p-1",
        measured_g="0x1.654477665f5f5p-1",
        tx_count=108427, rx_count=78819, dropped_busy=233, dropped_duty=0,
        pdr="0x1.74305d0b2f296p-1",
        throughput="0x1.03b57e1850758p-1",
        rx_airtime_fraction="0x1.03b57e1850757p-1",
        per_sf_tx=(108427, 0, 0, 0, 0, 0),
        per_sf_rx=(78819, 0, 0, 0, 0, 0),
        max_node_airtime_fraction="0x1.609782898c6e5p-9",
    ),
}
GOLDEN_CASES = {"N1": N1, "N2": N2, "N1x3": replace(N1, channels=3)}


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: f"{k[0]}-{k[1]}-G{k[2]}-s{k[3]}")
def test_golden_replication(key):
    case, model, g, seed = key
    scn = replace(GOLDEN_CASES[case], collision_model=model)
    expected = ReplicationResult(**{
        name: float.fromhex(v) if isinstance(v, str) else v
        for name, v in GOLDEN[key].items()})
    assert run_replication(scn, g, seed) == expected


# A wider bit-identity set: 5 case/models x G in {0.1, 0.5, 1.0, 1.6} x 4
# seeds, the same 5 on 2 and 3 channels at G=1, and N1/BP and N2/IIC at duty
# limits 0.001 and 0.0005. The hash covers the repr of every ReplicationResult,
# so any change to a count or a float bit shows.
REPLICATION_SET_SHA256 = "7853bb6e1d35174e17db4463ba5d824740242dcf5e809a44563dcb4e07c84a43"
CASE_MODELS = (("N1", "BP"), ("N1", "IC"), ("N2", "BP"), ("N2", "IC"), ("N2", "IIC"))


def replication_set():
    for case, model in CASE_MODELS:
        scn = replace(GOLDEN_CASES[case], collision_model=model)
        for g in (0.1, 0.5, 1.0, 1.6):
            for seed in range(4):
                yield scn, g, seed
    for case, model in CASE_MODELS:
        for channels in (2, 3):
            scn = replace(GOLDEN_CASES[case], collision_model=model, channels=channels)
            yield scn, 1.0, 10 + channels
    for case, model in (("N1", "BP"), ("N2", "IIC")):
        for duty in (0.001, 0.0005):
            scn = replace(GOLDEN_CASES[case], collision_model=model, duty_cycle_limit=duty)
            for g in (0.5, 1.0):
                yield scn, g, 20


def test_replication_set_bit_identical():
    digest = hashlib.sha256()
    count = 0
    for scn, g, seed in replication_set():
        digest.update(repr(run_replication(scn, g, seed)).encode())
        count += 1
    assert count == 98
    assert digest.hexdigest() == REPLICATION_SET_SHA256


@pytest.mark.parametrize("model", ["BP", "IC", "IIC"])
def test_replication_without_traffic(model):
    # a 10 ms run at G=0.001 draws no arrival: every tally is zero
    scn = replace(N2, collision_model=model, sim_duration_s=0.01, channels=2)
    r = run_replication(scn, 0.001, seed=0)
    assert (r.tx_count, r.rx_count, r.dropped_busy, r.dropped_duty) == (0, 0, 0, 0)
    assert r.measured_g == r.pdr == r.max_node_airtime_fraction == 0.0


def test_replication_accounting():
    rep = run_replication(N2, 0.8, seed=5)
    assert rep.rx_count <= rep.tx_count
    assert rep.tx_count == sum(rep.per_sf_tx)
    assert rep.rx_count == sum(rep.per_sf_rx)
    assert rep.dropped_busy >= 0 and rep.dropped_duty >= 0
    assert rep.pdr == pytest.approx(rep.rx_count / rep.tx_count)
    assert rep.throughput == pytest.approx(rep.measured_g * rep.pdr)
    assert rep.throughput <= rep.measured_g
    assert 0.0 <= rep.rx_airtime_fraction <= rep.measured_g


@pytest.mark.parametrize("scn,g", [
    (replace(N1, collision_model="IC"), 1.0),
    (replace(N2, collision_model="IIC"), 1.0),          # duty-bound SF12 nodes
    (replace(N2, collision_model="IC", channels=2), 0.6),
    (replace(N1, collision_model="BP", channels=3), 0.3)],
    ids=["N1-IC-1ch", "N2-IIC-1ch", "N2-IC-2ch", "N1-BP-3ch"])
def test_replication_tallies_its_calendar(scn, g):
    # the stage boundary: a replication's tallies are those recounted packet
    # by packet from the calendar `draw_calendar` draws and `_resolve`'s flags
    seed = 6
    cal = draw_calendar(scn, g, seed)
    received = simulator._resolve(cal, scn.collision_model, scn.thresholds, scn.radio).tolist()
    toa = cal.node_toa[cal.owner].tolist()
    sf = (cal.node_sf[cal.owner] + SF_RANGE[0]).tolist()
    node_airtime = [0.0] * scn.node_count
    for node, t in zip(cal.owner.tolist(), toa):
        node_airtime[node] += t
    rx_sf = Counter(s for s, ok in zip(sf, received) if ok)
    duration = scn.sim_duration_s

    r = run_replication(scn, g, seed)
    assert (r.tx_count, r.rx_count, r.dropped_busy, r.dropped_duty) == (
        len(toa), sum(received), cal.dropped_busy, cal.dropped_duty)
    assert r.per_sf_tx == tuple(Counter(sf)[s] for s in SF_RANGE)
    assert r.per_sf_rx == tuple(rx_sf[s] for s in SF_RANGE)
    assert r.measured_g == pytest.approx(math.fsum(toa) / duration, rel=1e-12, abs=0)
    assert r.rx_airtime_fraction == pytest.approx(
        math.fsum(t for t, ok in zip(toa, received) if ok) / duration, rel=1e-12, abs=0)
    assert r.max_node_airtime_fraction == pytest.approx(max(node_airtime) / duration,
                                                        rel=1e-12, abs=0)
    assert 0 < r.rx_count < r.tx_count


def test_measured_load_tracks_nominal():
    rep = run_replication(N1, 0.5, seed=9)
    assert rep.measured_g == pytest.approx(0.5, rel=0.05)


def test_bp_single_sf_matches_aloha_theory():
    (out,) = sweep(replace(N1, offered_loads=(0.4,), replications=6, rng_seed=31))
    theory = pure_aloha_throughput(out.measured_g)
    assert abs(out.throughput - theory) / theory < 0.02


def test_model_ordering_bp_iic_ic():
    outs = {}
    for model in ("BP", "IIC", "IC"):
        scn = replace(N2, collision_model=model)
        (outs[model],) = sweep(replace(scn, offered_loads=(0.6,), replications=6, rng_seed=17))
    slack_bp = outs["BP"].throughput_ci95 + outs["IIC"].throughput_ci95
    slack_ic = outs["IIC"].throughput_ci95 + outs["IC"].throughput_ci95
    assert outs["BP"].throughput <= outs["IIC"].throughput + slack_bp
    assert outs["IIC"].throughput <= outs["IC"].throughput + slack_ic


@pytest.mark.parametrize("g", [0.5, 1.0])
@pytest.mark.parametrize("seed", [3, 4])
def test_iic_equals_ic_on_a_single_sf_calendar(g, seed):
    # with one SF there is no inter-SF interference, so IIC's episodes and
    # winners are IC's; both resolve the same calendar
    ic, iic = simulator._replicate(N1, g, seed, ("IC", "IIC"))
    assert ic == iic


def test_duty_cycle_ceiling_enforced():
    rep = run_replication(N2, 1.0, seed=2)
    assert rep.max_node_airtime_fraction <= 0.0101


def test_sweep_deterministic_and_order_free():
    scn = replace(N1, offered_loads=(0.2, 0.5), replications=2)
    a = sweep(scn)
    b = sweep(scn)
    assert a == b
    c = sweep(scn, jobs=2)
    assert a == c



@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("scn,models", [
    (N1, ("BP", "IC")), (N2, ("BP", "IC", "IIC")), (replace(N2, channels=2), ("IIC", "BP", "IC")),
], ids=["N1", "N2", "N2x2"])
def test_sweep_models_equals_per_model_sweeps(scn, models, jobs):
    scn = replace(scn, offered_loads=(0.3, 1.0), replications=2, rng_seed=11)
    shared = sweep_models(scn, models, jobs=jobs)
    assert list(shared) == list(models)
    for model in models:
        assert shared[model] == sweep(replace(scn, collision_model=model))


@pytest.mark.parametrize("models", [(), ("IC", "IC"), ("BP", "XX"), ["ic"], "BP"])
def test_sweep_models_rejects_bad_model_lists(models):
    with pytest.raises(ConfigurationError, match="models must be distinct"):
        sweep_models(replace(N1, offered_loads=(0.3,), replications=1), models)


def test_single_load_sweep_parallel_matches_serial():
    scn = replace(N2, offered_loads=(0.6,), replications=3, rng_seed=8)
    assert sweep(scn, jobs=2) == sweep(scn, jobs=1)


# each bad scenario is a valid one-load, one-replication sweep with one field
# changed; `run_replication` checks the scenario as `sweep` does
VALID = replace(N2, offered_loads=(0.3,), replications=1)


@pytest.mark.parametrize("field,value", [
    ("rng_seed", -1), ("channels", 0), ("collision_model", "XX"),
    ("offered_loads", (1.5,)), ("offered_loads", (0.0,)), ("offered_loads", ()),
    ("sim_duration_s", 0.0), ("sim_duration_s", -5.0), ("duty_cycle_limit", 0.0),
    ("channels", math.inf), ("channels", 2.5), ("replications", 2.5), ("payload_bytes", 1.5),
    ("rng_seed", 1.5),
], ids=["negative-seed", "zero-channels", "bad-model", "load-above-one", "zero-load",
        "no-loads", "zero-duration", "negative-duration", "zero-duty", "infinite-channels",
        "fractional-channels", "fractional-replications", "fractional-payload",
        "fractional-seed"])
def test_run_and_sweep_validate_scenario(field, value):
    bad = replace(VALID, **{field: value})
    with pytest.raises(ConfigurationError, match=f"(?s)invalid scenario.*{field}"):
        sweep(bad)
    with pytest.raises(ConfigurationError, match=f"(?s)invalid scenario.*{field}"):
        run_replication(bad, 0.5, seed=0)


def test_duration_beyond_two_to_the_31_expected_arrivals_is_a_configuration_error():
    # finite, so `validate` passes it; the calendar refuses it before its Poisson draw
    with pytest.raises(ConfigurationError, match=r"sim_duration_s: 1e\+30 s expects"):
        run_replication(replace(VALID, sim_duration_s=1e30), 0.5, seed=0)


def test_copy_of_a_validated_scenario_is_checked_again():
    # a frozen scenario keeps its check after the first one; a
    # `dataclasses.replace` copy is a new object, so it is checked afresh
    scn = replace(VALID)
    run_replication(scn, 0.5, seed=0)
    bad = replace(scn, channels=0)
    with pytest.raises(ConfigurationError, match="(?s)invalid scenario.*channels"):
        run_replication(bad, 0.5, seed=0)
    with pytest.raises(ConfigurationError, match="(?s)invalid scenario.*channels"):
        sweep(bad)


@pytest.mark.parametrize("kwargs", [dict(replications=0), dict(replications=-1),
                                    dict(jobs=0), dict(jobs=-3)])
def test_sweep_rejects_bad_counts(kwargs):
    scn = replace(VALID, replications=kwargs.get("replications", 1))
    with pytest.raises(ConfigurationError, match="replications|jobs"):
        sweep(scn, jobs=kwargs.get("jobs", 1))


def test_run_rejects_zero_replications():
    bad = replace(VALID, replications=0)
    with pytest.raises(ConfigurationError, match="replications"):
        run_replication(bad, 0.2, seed=0)


def test_sweep_takes_no_positional_overrides():
    # the removed (loads, replications, master seed, jobs) positions
    with pytest.raises(TypeError):
        sweep(VALID, (0.3,), 1)
    with pytest.raises(TypeError):
        sweep_models(VALID, ("BP",), 2)


def test_channel_draw_leaves_traffic_unchanged():
    # the channel draw is the replication's last, so traffic and drops match
    # the one-channel run at the same seed
    one = run_replication(N2, 0.8, seed=7)
    three = run_replication(replace(N2, channels=3), 0.8, seed=7)
    assert three == run_replication(replace(N2, channels=3), 0.8, seed=7)
    for field in ("tx_count", "measured_g", "dropped_busy", "dropped_duty"):
        assert getattr(three, field) == getattr(one, field)

@pytest.mark.parametrize("channels", [1, 2])
def test_channel_labels_are_drawn_for_two_or_more_channels(channels):
    # one channel hands the resolver no label array; two draw a label per
    # packet, and both channels carry packets
    r = run_replication(replace(N2, channels=channels), 0.8, seed=7)
    chans = draw_calendar(replace(N2, channels=channels), 0.8, 7).channel
    if channels == 1:
        assert chans is None
    else:
        assert chans.size == r.tx_count and set(chans.tolist()) == {0, 1}


def test_multichannel_projection_scales_linearly():
    (out,) = sweep(replace(N1, offered_loads=(0.3,), replications=2, rng_seed=77))
    proj1 = multichannel_projection(out, 1)
    assert proj1 == out
    proj5 = multichannel_projection(out, 5)
    assert proj5.throughput == pytest.approx(5 * out.throughput, rel=1e-15)
    assert proj5.pdr == out.pdr
    assert proj5.tx_count == pytest.approx(5 * out.tx_count, rel=1e-15)
    for bad in (0, 2.5, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            multichannel_projection(out, bad)


def test_resolve_reception_rejects_bad_duration():
    with pytest.raises(ConfigurationError):
        resolve_reception([pkt(7, 0.0, 0.0, -80.0)], "BP", N1.thresholds, N1.radio)
    with pytest.raises(ConfigurationError):
        resolve_reception([pkt(7, 0.0, 1.0, -80.0)], "NOPE", N1.thresholds, N1.radio)
    with pytest.raises(ConfigurationError):
        resolve_reception([], "NOPE", N1.thresholds, N1.radio)


def test_resolve_checks_the_model_on_an_empty_calendar():
    cal = draw_calendar(N1, 0.1, 1)
    empty = replace(cal, starts=cal.starts[:0], owner=cal.owner[:0])
    for model in ("BP", "IC", "IIC"):
        assert simulator._resolve(empty, model, N1.thresholds, N1.radio).size == 0
    with pytest.raises(ConfigurationError, match="NOPE"):
        simulator._resolve(empty, "NOPE", N1.thresholds, N1.radio)


@pytest.mark.parametrize("field,bad", [
    ("sf", {"sf": 6}), ("sf", {"sf": 13}),
    ("start_s", {"start": math.inf}), ("start_s", {"start": math.nan}),
    ("duration_s", {"dur": math.nan}), ("duration_s", {"dur": math.inf}),
    ("rx_power_dbm", {"rx_dbm": math.nan}), ("rx_power_dbm", {"rx_dbm": -math.inf}),
])
@pytest.mark.parametrize("model", ["BP", "IC", "IIC"])
def test_resolve_reception_rejects_bad_packet_fields(field, bad, model):
    # an SF outside 7..12 would index the per-SF tables out of range or
    # from the end, and a non-finite time or power has no place in the order
    packet = dict(sf=7, start=0.5, dur=0.1, rx_dbm=-80.0) | bad
    packets = [pkt(7, 0.0, 0.1, -80.0), pkt(**packet)]
    with pytest.raises(ConfigurationError, match=field):
        resolve_reception(packets, model, N1.thresholds, N1.radio)


def test_resolve_reception_takes_integral_float_sf():
    packets = [pkt(7, 0.0, 1.0, -80.0), pkt(9, 0.5, 1.0, -80.0)]
    as_float = [replace(p, sf=float(p.sf)) for p in packets]
    for model in ("BP", "IC", "IIC"):
        assert resolve_reception(as_float, model, N2.thresholds, N2.radio) == \
            resolve_reception(packets, model, N2.thresholds, N2.radio)
