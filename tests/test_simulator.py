import hashlib
from dataclasses import replace

import pytest

from loracell import (
    ConfigurationError,
    PacketEvent,
    ReplicationResult,
    default_scenario,
    hata_rural_loss,
    multichannel_projection,
    pure_aloha_throughput,
    resolve_reception,
    run,
    run_replication,
    sensitivity_dbm,
    sweep,
)

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
# The traffic stage keeps the per-node RNG draws in node order, so these
# values pin the random stream; a change to the draws must regenerate them.
# "N1x3" is N1 on three channels, which draws a channel per packet.
GOLDEN = {
    ("N1", "IC", 1.0, 123): dict(
        offered_load="0x1.0000000000000p+0",
        measured_g="0x1.feb4b7193adfap-1",
        tx_count=154994, rx_count=42500, dropped_busy=535, dropped_duty=0,
        pdr="0x1.18c8f9dd9cb1dp-2",
        throughput="0x1.18134bf542668p-2",
        rx_airtime_fraction="0x1.18134bf542669p-2",
        per_sf_tx=(154994, 0, 0, 0, 0, 0),
        per_sf_rx=(42500, 0, 0, 0, 0, 0),
        max_node_airtime_fraction="0x1.f43541c3227a3p-9",
    ),
    ("N2", "IIC", 1.0, 2): dict(
        offered_load="0x1.0000000000000p+0",
        measured_g="0x1.e911156436bb0p-1",
        tx_count=17858, rx_count=11771, dropped_busy=62, dropped_duty=210,
        pdr="0x1.517b5ea4485d6p-1",
        throughput="0x1.425d9696291f1p-1",
        rx_airtime_fraction="0x1.17bdcc53d615fp-1",
        per_sf_tx=(3132, 3001, 2948, 3073, 2980, 2724),
        per_sf_rx=(2318, 2162, 2109, 2136, 1684, 1362),
        max_node_airtime_fraction="0x1.45ece5e390d03p-7",
    ),
    ("N1", "BP", 0.1, 7): dict(
        offered_load="0x1.999999999999ap-4",
        measured_g="0x1.94a0654dd900bp-4",
        tx_count=15350, rx_count=12726, dropped_busy=7, dropped_duty=0,
        pdr="0x1.a879f230e6043p-1",
        throughput="0x1.4f753332dd4d0p-4",
        rx_airtime_fraction="0x1.4f753332dd4cfp-4",
        per_sf_tx=(15350, 0, 0, 0, 0, 0),
        per_sf_rx=(12726, 0, 0, 0, 0, 0),
        max_node_airtime_fraction="0x1.072db866aaf68p-11",
    ),
    ("N1", "BP", 1.0, 11): dict(
        offered_load="0x1.0000000000000p+0",
        measured_g="0x1.fd15b3ec98f97p-1",
        tx_count=154502, rx_count=21178, dropped_busy=547, dropped_duty=0,
        pdr="0x1.18b98ce55c1a4p-3",
        throughput="0x1.17205cd4e3a16p-3",
        rx_airtime_fraction="0x1.17205cd4e3a16p-3",
        per_sf_tx=(154502, 0, 0, 0, 0, 0),
        per_sf_rx=(21178, 0, 0, 0, 0, 0),
        max_node_airtime_fraction="0x1.e78e22be32df9p-9",
    ),
    ("N2", "BP", 1.0, 3): dict(
        offered_load="0x1.0000000000000p+0",
        measured_g="0x1.e7026b35b2d27p-1",
        tx_count=17690, rx_count=3591, dropped_busy=65, dropped_duty=259,
        pdr="0x1.9fbc63adeafcdp-3",
        throughput="0x1.8b71a799c9b9fp-3",
        rx_airtime_fraction="0x1.753552e4c6047p-4",
        per_sf_tx=(2988, 3032, 2938, 3018, 3018, 2696),
        per_sf_rx=(980, 949, 771, 576, 252, 63),
        max_node_airtime_fraction="0x1.45ece5e390d03p-7",
    ),
    ("N1x3", "IC", 0.7, 5): dict(
        offered_load="0x1.6666666666666p-1",
        measured_g="0x1.65c226ab90672p-1",
        tx_count=108576, rx_count=78912, dropped_busy=259, dropped_duty=0,
        pdr="0x1.741de0c390a30p-1",
        throughput="0x1.0403f0a56f0fep-1",
        rx_airtime_fraction="0x1.0403f0a56f0fdp-1",
        per_sf_tx=(108576, 0, 0, 0, 0, 0),
        per_sf_rx=(78912, 0, 0, 0, 0, 0),
        max_node_airtime_fraction="0x1.5e0faf888fb5cp-9",
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
REPLICATION_SET_SHA256 = "45788e8131adbbb3449a5e127147ed877d477a98fe9279d8c61d18096965b5ce"
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


def test_measured_load_tracks_nominal():
    rep = run_replication(N1, 0.5, seed=9)
    assert rep.measured_g == pytest.approx(0.5, rel=0.05)


def test_bp_single_sf_matches_aloha_theory():
    out = run(N1, 0.4, replications=6, master_seed=31)
    theory = pure_aloha_throughput(out.measured_g)
    assert abs(out.throughput - theory) / theory < 0.02


def test_model_ordering_bp_iic_ic():
    outs = {}
    for model in ("BP", "IIC", "IC"):
        scn = replace(N2, collision_model=model)
        outs[model] = run(scn, 0.6, replications=6, master_seed=17)
    slack_bp = outs["BP"].throughput_ci95 + outs["IIC"].throughput_ci95
    slack_ic = outs["IIC"].throughput_ci95 + outs["IC"].throughput_ci95
    assert outs["BP"].throughput <= outs["IIC"].throughput + slack_bp
    assert outs["IIC"].throughput <= outs["IC"].throughput + slack_ic


def test_duty_cycle_ceiling_enforced():
    rep = run_replication(N2, 1.0, seed=2)
    assert rep.max_node_airtime_fraction <= 0.0101


def test_sweep_deterministic_and_order_free():
    scn = replace(N1, offered_loads=(0.2, 0.5))
    a = sweep(scn, replications=2)
    b = sweep(scn, replications=2)
    assert a == b
    c = sweep(scn, replications=2, jobs=2)
    assert a == c



def test_run_is_single_load_sweep():
    assert run(N2, 0.4, 3, 5) == sweep(N2, (0.4,), 3, 5)[0]


def test_single_load_sweep_parallel_matches_serial():
    assert sweep(N2, (0.6,), 3, 8, jobs=2) == sweep(N2, (0.6,), 3, 8, jobs=1)


@pytest.mark.parametrize("bad", [replace(N1, rng_seed=-1), replace(N1, channels=0)],
                         ids=["negative-seed", "zero-channels"])
def test_run_and_sweep_validate_scenario(bad):
    with pytest.raises(ConfigurationError, match="invalid scenario"):
        run(bad, 0.3, replications=1)
    with pytest.raises(ConfigurationError, match="invalid scenario"):
        sweep(bad, (0.3,), replications=1)


def test_channel_draw_leaves_traffic_unchanged():
    # the channel draw is the replication's last, so traffic and drops match
    # the one-channel run at the same seed
    one = run_replication(N2, 0.8, seed=7)
    three = run_replication(replace(N2, channels=3), 0.8, seed=7)
    assert three == run_replication(replace(N2, channels=3), 0.8, seed=7)
    for field in ("tx_count", "measured_g", "dropped_busy", "dropped_duty"):
        assert getattr(three, field) == getattr(one, field)

def test_multichannel_projection_scales_linearly():
    out = run(N1, 0.3, replications=2, master_seed=77)
    proj1 = multichannel_projection(out, 1)
    assert proj1 == out
    proj5 = multichannel_projection(out, 5)
    assert proj5.throughput == pytest.approx(5 * out.throughput, rel=1e-15)
    assert proj5.pdr == out.pdr
    assert proj5.tx_count == pytest.approx(5 * out.tx_count, rel=1e-15)
    with pytest.raises(ConfigurationError):
        multichannel_projection(out, 0)


def test_run_rejects_bad_model():
    bad = replace(N1, collision_model="XX")
    with pytest.raises(ConfigurationError):
        run(bad, 0.3, replications=1)


@pytest.mark.parametrize("kwargs", [dict(replications=0), dict(replications=-1),
                                    dict(jobs=0), dict(jobs=-3)])
def test_sweep_rejects_bad_counts(kwargs):
    with pytest.raises(ConfigurationError):
        sweep(N2, loads=(0.2,), **kwargs)


@pytest.mark.parametrize("loads", [(1.5,), (0.0,), ()])
def test_run_and_sweep_check_loads_as_scenario_loads(loads):
    with pytest.raises(ConfigurationError, match="invalid scenario"):
        sweep(N2, loads, replications=1)
    if loads:
        with pytest.raises(ConfigurationError, match="invalid scenario"):
            run(N2, loads[0], replications=1)


def test_run_rejects_zero_replications():
    with pytest.raises(ConfigurationError, match="replications"):
        run(N2, 0.2, replications=0)


def test_zero_duration_rejected():
    bad = replace(N1, sim_duration_s=0.0)
    with pytest.raises(ConfigurationError):
        run(bad, 0.3, replications=1)


def test_resolve_reception_rejects_bad_duration():
    with pytest.raises(ConfigurationError):
        resolve_reception([pkt(7, 0.0, 0.0, -80.0)], "BP", N1.thresholds, N1.radio)
    with pytest.raises(ConfigurationError):
        resolve_reception([pkt(7, 0.0, 1.0, -80.0)], "NOPE", N1.thresholds, N1.radio)
