"""Differential tests of reception against a reference resolver: the
searchsorted formulation that once was the library's own. The reference
aggregates each query's overlaps with two binary searches and a stable
argsort of the ends, resolves each channel through per-packet arrays, and
applies BP as "the only packet overlapping itself". The library's results
must equal it flag for flag."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loracell import (
    PacketEvent,
    default_scenario,
    per_node_rate,
    resolve_reception,
    sample_placement,
)
from loracell.coverage import noise_power_mw
from loracell.scenario import NUM_SF, SF_RANGE
from loracell.simulator import (
    _accept,
    _arrivals,
    _overlap_aggregate,
    _overlap_ranks,
    _resolve,
    hata_rural_loss,
    sensitivity_dbm,
)

N2 = default_scenario("sim_n2")
SF_TOA = (0.046336, 0.082432, 0.164864, 0.288768, 0.659456, 1.155072)


# ---------------------------------------------------------------------------
# Reference resolver

def ref_overlap_aggregate(sub_starts, sub_ends, sub_pw, q_starts, q_ends):
    order_e = np.argsort(sub_ends, kind="stable")
    ends_sorted = sub_ends[order_e]
    pref_s = np.concatenate(([0.0], np.cumsum(sub_pw)))
    pref_e = np.concatenate(([0.0], np.cumsum(sub_pw[order_e])))
    hi = np.searchsorted(sub_starts, q_ends, side="left")      # start_j < q_end
    lo = np.searchsorted(ends_sorted, q_starts, side="right")  # end_j <= q_start
    return pref_s[hi] - pref_e[lo], hi - lo


def ref_component_ids(starts, ends):
    n = len(starts)
    breaks = np.empty(n, dtype=bool)
    breaks[0] = True
    if n > 1:
        reach = np.maximum.accumulate(ends)
        breaks[1:] = starts[1:] >= reach[:-1]
    return np.cumsum(breaks) - 1


def ref_winners_per_group(group_ids, score):
    n = len(group_ids)
    heads = np.flatnonzero(np.diff(group_ids, prepend=group_ids[0] - 1))
    best = np.maximum.reduceat(score, heads)
    sizes = np.diff(heads, append=n)
    at_best = np.where(score == np.repeat(best, sizes), np.arange(n), -1)
    return np.maximum.reduceat(at_best, heads)


def ref_resolve_channel(starts, ends, sf_idx, pw_mw, sens_ok, model, sir_lin, noise_mw):
    n = len(starts)
    received = np.zeros(n, dtype=bool)
    if model == "BP":
        _, cnt = ref_overlap_aggregate(starts, ends, pw_mw, starts, ends)
        return sens_ok & (cnt == 1)
    if model == "IC":
        for s in range(NUM_SF):
            idx = np.flatnonzero(sf_idx == s)
            if idx.size == 0:
                continue
            st_, en, pw = starts[idx], ends[idx], pw_mw[idx]
            tot, cnt = ref_overlap_aggregate(st_, en, pw, st_, en)
            inter = tot - pw
            cnt = cnt - 1
            inter[cnt == 0] = 0.0
            sinr = pw / (noise_mw + inter)
            winners = ref_winners_per_group(ref_component_ids(st_, en), sinr)
            ok = sens_ok[idx][winners] & (
                (cnt[winners] == 0) | (sinr[winners] >= sir_lin[s, s]))
            received[idx[winners]] = ok
        return received
    comp_all = ref_component_ids(starts, ends)
    by_sf = [np.flatnonzero(sf_idx == j) for j in range(NUM_SF)]
    for s in range(NUM_SF):
        cand = by_sf[s]
        if cand.size == 0:
            continue
        q_st, q_en = starts[cand], ends[cand]
        inter_j = np.zeros((NUM_SF, cand.size))
        cnt_j = np.zeros((NUM_SF, cand.size), dtype=int)
        for j in range(NUM_SF):
            sub = by_sf[j]
            if sub.size == 0:
                continue
            tot, cnt = ref_overlap_aggregate(starts[sub], ends[sub], pw_mw[sub], q_st, q_en)
            if j == s:
                tot = tot - pw_mw[cand]
                cnt = cnt - 1
            tot[cnt == 0] = 0.0
            inter_j[j] = tot
            cnt_j[j] = cnt
        sinr_total = pw_mw[cand] / (noise_mw + inter_j.sum(axis=0))
        winners = ref_winners_per_group(comp_all[cand], sinr_total)
        ok = sens_ok[cand][winners]
        for j in range(NUM_SF):
            has = cnt_j[j][winners] > 0
            clears = pw_mw[cand][winners] >= sir_lin[s, j] * (
                noise_mw + inter_j[j][winners])
            ok &= ~has | clears
        received[cand[winners]] = ok
    return received


def ref_resolve(starts, durs, sf_idx, rx_dbm, chans, model, scenario=N2):
    """Per-packet inputs; each channel in numpy's stable start order."""
    radio, thresholds = scenario.radio, scenario.thresholds
    sens_ok = rx_dbm >= sensitivity_dbm(radio, thresholds)[sf_idx]
    pw = 10.0 ** (rx_dbm / 10.0)
    received = np.zeros(starts.size, dtype=bool)
    for ch in np.unique(chans):
        mask = np.flatnonzero(chans == ch)
        order = mask[np.argsort(starts[mask], kind="stable")]
        st_ = starts[order]
        received[order] = ref_resolve_channel(
            st_, st_ + durs[order], sf_idx[order], pw[order], sens_ok[order], model,
            thresholds.sir_linear, noise_power_mw(radio))
    return received


# ---------------------------------------------------------------------------
# Packet sets with the hard cases: tied starts, end == start touch points,
# same-SF packets of unequal duration (ends out of start order), strong and
# below-sensitivity powers with exact ties, and several channels.

POWERS = st.sampled_from([-80.0, -86.0, -90.0, -104.0, -135.0]) | st.floats(-140.0, -60.0)


@st.composite
def packet_sets(draw, max_packets=30):
    n = draw(st.integers(0, max_packets))
    channels = draw(st.integers(1, 3))
    airtime_per_sf = draw(st.booleans())       # else durations vary within an SF
    packets = []
    for _ in range(n):
        sf = draw(st.integers(SF_RANGE[0], SF_RANGE[-1]))
        dur = (SF_TOA[sf - SF_RANGE[0]] if airtime_per_sf
               else draw(st.sampled_from(SF_TOA) | st.floats(0.01, 1.5)))
        kind = draw(st.sampled_from(["tie", "touch", "free"]))
        if kind == "touch" and packets:
            prev = draw(st.sampled_from(packets))
            start = prev.start_s + prev.duration_s      # end == start, bit for bit
        elif kind == "tie":
            start = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
        else:
            start = draw(st.floats(0.0, 3.0))
        packets.append(PacketEvent(node=len(packets), sf=sf, start_s=start, duration_s=dur,
                                   rx_power_dbm=draw(POWERS),
                                   channel=draw(st.integers(0, channels - 1))))
    return packets


def as_arrays(packets):
    return (np.array([p.start_s for p in packets]), np.array([p.duration_s for p in packets]),
            np.array([p.sf - SF_RANGE[0] for p in packets], dtype=int),
            np.array([p.rx_power_dbm for p in packets]),
            np.array([p.channel for p in packets], dtype=int))


@settings(max_examples=500, deadline=None)
@given(packet_sets(), st.sampled_from(["BP", "IC", "IIC"]))
def test_resolve_reception_matches_reference(packets, model):
    got = resolve_reception(packets, model, N2.thresholds, N2.radio)
    want = ref_resolve(*as_arrays(packets), model) if packets else np.zeros(0, bool)
    assert got == want.tolist()


@st.composite
def node_tables(draw):
    """run_replication-style inputs: a few nodes, each with one SF, airtime
    and receive power, sending many packets over `channels` channels, some
    of which stay empty."""
    nodes = draw(st.integers(1, 6))
    node_sf = np.array(draw(st.lists(st.integers(0, NUM_SF - 1), min_size=nodes,
                                     max_size=nodes)))
    node_dbm = np.array(draw(st.lists(POWERS, min_size=nodes, max_size=nodes)))
    n = draw(st.integers(0, 40))
    owner = np.array(draw(st.lists(st.integers(0, nodes - 1), min_size=n, max_size=n)),
                     dtype=int)
    starts = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 0.5]) | st.floats(0.0, 4.0),
                                    min_size=n, max_size=n)))
    channels = draw(st.integers(1, 4))
    chans = np.array(draw(st.lists(st.integers(0, channels - 1), min_size=n, max_size=n)),
                     dtype=int)
    return starts, owner, chans, channels, node_sf, node_dbm


@settings(max_examples=300, deadline=None)
@given(node_tables(), st.sampled_from(["BP", "IC", "IIC"]))
def test_node_table_gathers_match_reference(tables, model):
    starts, owner, chans, channels, node_sf, node_dbm = tables
    node_toa = np.array(SF_TOA)[node_sf]
    order = np.argsort(starts, kind="stable")       # _resolve takes start order
    got = np.empty(starts.size, dtype=bool)
    got[order] = _resolve(starts[order], owner[order], chans[order], node_toa, node_sf,
                          node_dbm, model, N2.thresholds, N2.radio)
    want = ref_resolve(starts, node_toa[owner], node_sf[owner], node_dbm[owner], chans, model)
    assert np.array_equal(got, want)


def test_bp_touching_packets_both_received():
    # end == start is no overlap: a chain of touching packets all decode,
    # and a tie at one start destroys both packets that share it
    a = PacketEvent(node=0, sf=7, start_s=0.0, duration_s=0.3, rx_power_dbm=-80.0)
    b = PacketEvent(node=1, sf=7, start_s=0.3, duration_s=0.3, rx_power_dbm=-80.0)
    c = PacketEvent(node=2, sf=7, start_s=0.6, duration_s=0.3, rx_power_dbm=-80.0)
    d = PacketEvent(node=3, sf=9, start_s=0.6, duration_s=0.1, rx_power_dbm=-80.0)
    assert resolve_reception([a, b], "BP", N2.thresholds, N2.radio) == [True, True]
    assert resolve_reception([a, b, c, d], "BP", N2.thresholds, N2.radio) == \
        [True, True, False, False]


def test_ic_unequal_durations_ends_out_of_order():
    # a long packet covers two later short ones, so ends are not in start
    # order; its interferers sum to -87 dBm, a 7 dB SINR that clears the
    # 6 dB capture threshold, and it is the one winner of the episode
    long_ = PacketEvent(node=0, sf=7, start_s=0.0, duration_s=1.0, rx_power_dbm=-80.0)
    short = PacketEvent(node=1, sf=7, start_s=0.2, duration_s=0.1, rx_power_dbm=-90.0)
    after = PacketEvent(node=2, sf=7, start_s=0.5, duration_s=0.1, rx_power_dbm=-90.0)
    got = resolve_reception([long_, short, after], "IC", N2.thresholds, N2.radio)
    assert got == ref_resolve(*as_arrays([long_, short, after]), "IC").tolist()
    assert got == [True, False, False]


@pytest.mark.parametrize("model", ["BP", "IC", "IIC"])
def test_dense_touching_chains_match_reference(model):
    # thousands of packets, so every sort takes its large-array path: runs of
    # back-to-back packets (each start is the previous end, bit for bit),
    # exact start ties and random overlaps, two SFs with their own airtime
    rng = np.random.default_rng(2016)
    n = 4000
    sf_idx = rng.integers(0, 2, size=n)
    durs = np.array(SF_TOA)[sf_idx]
    starts = np.empty(n)
    t = 0.0
    for k in range(n):
        if rng.random() < 0.5:
            t = t + durs[k - 1] if k else 0.0       # touch the previous packet
        elif rng.random() < 0.3:
            pass                                    # tie with the previous start
        else:
            t = float(rng.uniform(0.0, 100.0))
        starts[k] = t
    rx_dbm = rng.choice([-80.0, -86.0, -90.0, -100.0], size=n)
    chans = np.zeros(n, dtype=int)
    order = np.argsort(starts, kind="stable")       # _resolve takes start order
    got = np.empty(n, dtype=bool)
    got[order] = _resolve(starts[order], order, chans, durs, sf_idx, rx_dbm, model,
                          N2.thresholds, N2.radio)
    assert np.array_equal(got, ref_resolve(starts, durs, sf_idx, rx_dbm, chans, model))


# ---------------------------------------------------------------------------
# Overlap ranks against their definitions: hi[i] = #{j: start_j < end_i},
# lo[i] = #{j: end_j <= start_i}, and order_e[:lo[i]] are those j.

GRID = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])    # exact ties of starts and ends


@st.composite
def sorted_intervals(draw, max_packets=40):
    n = draw(st.integers(0, max_packets))
    starts, ends = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["grid", "touch", "free"]))
        if kind == "touch" and ends:
            start = draw(st.sampled_from(ends))         # end == start, bit for bit
        elif kind == "grid":
            start = draw(GRID)
        else:
            start = draw(st.floats(0.0, 3.0))
        starts.append(start)
        ends.append(start + draw(GRID.filter(bool) | st.floats(0.01, 2.0)))
    order = np.argsort(np.array(starts), kind="stable")
    return np.array(starts)[order], np.array(ends)[order]


@settings(max_examples=500, deadline=None)
@given(sorted_intervals())
def test_overlap_ranks_match_definitions(intervals):
    starts, ends = intervals
    hi, lo, order_e = _overlap_ranks(starts, ends)
    assert hi.tolist() == [int((starts < e).sum()) for e in ends]
    assert lo.tolist() == [int((ends <= s).sum()) for s in starts]
    if order_e is None:
        assert np.all(np.diff(ends) >= 0)
    else:
        assert order_e.tolist() == np.argsort(ends, kind="stable").tolist()
        for i, s in enumerate(starts):
            assert sorted(order_e[:lo[i]]) == np.flatnonzero(ends <= s).tolist()


def test_overlap_ranks_small_inputs():
    hi, lo, order_e = _overlap_ranks(np.empty(0), np.empty(0))
    assert hi.size == lo.size == 0 and order_e is None
    hi, lo, order_e = _overlap_ranks(np.array([2.0]), np.array([3.0]))
    assert hi.tolist() == [1] and lo.tolist() == [0] and order_e is None
    # a long packet over a tied start, a tied end that the stable order keeps
    # in start order, and a packet that starts where both tied ends touch it
    hi, lo, order_e = _overlap_ranks(np.array([0.0, 0.0, 0.5, 1.0]),
                                     np.array([3.0, 1.0, 1.0, 1.5]))
    assert hi.tolist() == [4, 3, 3, 4] and lo.tolist() == [0, 0, 0, 2]
    assert order_e.tolist() == [1, 2, 3, 0]


def one_airtime_chain(n, depth, touch=False):
    """n start-ordered packets of one airtime in which each overlaps the next
    `depth` packets, or with touch the next depth - 1 and ends exactly where
    the depth-th starts; integer times keep every comparison exact."""
    starts = np.arange(n, dtype=float)
    return starts, starts + depth + (0.0 if touch else 0.5)


def touching_chain(n, tail_ties):
    """Back-to-back SF7 packets, each start the previous end bit for bit,
    every seventh start tied with the one before, then tail_ties more packets
    tied at the last start."""
    starts = [0.0]
    for k in range(1, n):
        starts.append(starts[-1] if k % 7 == 0 else starts[-1] + SF_TOA[0])
    starts = np.array(starts + starts[-1:] * tail_ties)
    return starts, starts + SF_TOA[0]


@pytest.mark.parametrize("starts,ends,lag_path", [
    (np.zeros(64), np.full(64, SF_TOA[0]), False),      # depth 63, cap 7
    (*one_airtime_chain(64, 6), True),                  # one lag under the cap
    (*one_airtime_chain(64, 7), False),                 # depth at the cap
    (*one_airtime_chain(2000, 10), True),               # cap 11
    (*one_airtime_chain(2000, 11, touch=True), True),   # end == next start
    (*one_airtime_chain(2000, 11), False),
    (*touching_chain(300, 0), True),
    (*touching_chain(300, 20), False),
], ids=["tied-64", "depth-6-cap-7", "depth-7-cap-7", "depth-10-cap-11",
        "touching-depth-10-cap-11", "depth-11-cap-11", "float-touching",
        "float-touching-tied-tail"])
def test_overlap_ranks_lag_count_and_merge_agree(monkeypatch, starts, ends, lag_path):
    # ends in start order take the lag count below the cap and the stable
    # merge from it on; both give the counts of the definitions above
    argsort_calls = []
    argsort = np.argsort

    def counting_argsort(*args, **kwargs):
        argsort_calls.append(kwargs)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    hi, lo, order_e = _overlap_ranks(starts, ends)
    assert (not argsort_calls) == lag_path and order_e is None
    assert hi.tolist() == [int((starts < e).sum()) for e in ends]
    assert lo.tolist() == [int((ends <= s).sum()) for s in starts]


def test_ic_without_candidate_receives_nothing():
    # two overlapping equal-power packets: each one's SINR is below 0 dB, so
    # no packet of the IC partition can be received
    a = PacketEvent(node=0, sf=7, start_s=0.0, duration_s=SF_TOA[0], rx_power_dbm=-80.0)
    b = PacketEvent(node=1, sf=7, start_s=0.01, duration_s=SF_TOA[0], rx_power_dbm=-80.0)
    got = resolve_reception([a, b], "IC", N2.thresholds, N2.radio)
    assert got == [False, False] == ref_resolve(*as_arrays([a, b]), "IC").tolist()


def _with_sir_sf7(db):
    rows = [list(r) for r in N2.thresholds.sir_db]
    rows[0][0] = db
    return replace(N2.thresholds, sir_db=tuple(tuple(r) for r in rows))


def _exact_sf7_db(linear):
    """A dB value whose linear SF7 threshold equals `linear` bit for bit,
    searched a few steps around 10 log10(linear); None if there is none."""
    db = 10.0 * math.log10(linear)
    for _ in range(8):
        got = _with_sir_sf7(db).sir_linear[0, 0]
        if got == linear:
            return db
        db = float(np.nextafter(db, math.inf if got < linear else -math.inf))
    return None


def test_ic_capture_tie_is_received():
    # the IC capture rule is SINR >= delta_ii: set the SF7 threshold to a dB
    # value whose linear form equals the stronger packet's SINR bit for bit
    toa, noise = SF_TOA[0], noise_power_mw(N2.radio)
    starts = np.array([0.0, 0.01])
    for weak_dbm in np.arange(-86.0, -87.0, -0.01):
        pw = 10.0 ** (np.array([-80.0, weak_dbm]) / 10.0)
        total, _ = _overlap_aggregate(starts, starts + toa, pw)
        sinr = pw[0] / (total[0] - pw[0] + noise)     # the resolver's order
        db = _exact_sf7_db(sinr)
        if db is not None:
            break
    else:
        pytest.fail("no dB threshold maps exactly onto the SINR")
    a = PacketEvent(node=0, sf=7, start_s=0.0, duration_s=toa, rx_power_dbm=-80.0)
    b = PacketEvent(node=1, sf=7, start_s=0.01, duration_s=toa, rx_power_dbm=float(weak_dbm))
    assert resolve_reception([a, b], "IC", _with_sir_sf7(db), N2.radio) == [True, False]
    # one step above the SINR, the stronger packet is no longer captured
    above = float(np.nextafter(db, math.inf))
    assert _with_sir_sf7(above).sir_linear[0, 0] > sinr
    assert resolve_reception([a, b], "IC", _with_sir_sf7(above), N2.radio) == [False, False]


def test_ic_full_n1_calendar_matches_reference():
    # one N1 replication's calendar at G=1: about 155k SF7 packets in one IC
    # partition, so reception takes the lag count and the candidate winners
    scn = replace(default_scenario("sim_n1"), collision_model="IC")
    radio = scn.radio
    rng = np.random.default_rng(2017)
    placement = sample_placement(scn, rng=rng)
    node_dbm = (radio.tx_power_dbm + radio.gateway_gain_dbi + radio.device_gain_dbi
                - hata_rural_loss(placement.distances_m, radio))
    node_sf = placement.sfs - SF_RANGE[0]
    node_toa = np.array(SF_TOA)[node_sf]
    rate = per_node_rate(1.0, scn.node_count, SF_TOA[0])
    times, nodes, by_node = _arrivals(rng, scn.node_count, rate, scn.sim_duration_s)
    keep = np.empty(times.size, dtype=bool)
    keep[by_node] = _accept(times[by_node], nodes[by_node], node_toa,
                            scn.duty_cycle_limit)[0]
    starts, owner = times[keep], nodes[keep]
    chans = np.zeros(starts.size, dtype=int)
    assert starts.size > 150_000
    got = _resolve(starts, owner, chans, node_toa, node_sf, node_dbm, "IC",
                   scn.thresholds, radio)
    want = ref_resolve(starts, node_toa[owner], node_sf[owner], node_dbm[owner], chans,
                       "IC", scn)
    assert np.array_equal(got, want)
    assert 0 < got.sum() < starts.size


@pytest.mark.parametrize("model", ["IC", "IIC"])
def test_unequal_durations_at_scale_match_reference(model):
    # thousands of packets whose same-SF durations differ, so the ends are
    # out of start order within every SF and on the channel: back-to-back
    # chains (each start is an earlier end, bit for bit), exact start ties,
    # equal ends from different starts, six SFs on two channels
    rng = np.random.default_rng(2018)
    n = 3000
    sf_idx = rng.integers(0, NUM_SF, size=n)
    durs = np.where(rng.random(n) < 0.5, np.array(SF_TOA)[rng.integers(0, NUM_SF, size=n)],
                    rng.choice([0.25, 0.5, 1.0], size=n))
    starts = np.empty(n)
    for k in range(n):
        u = rng.random()
        if k and u < 0.4:
            j = rng.integers(max(0, k - 5), k)
            starts[k] = starts[j] + durs[j]         # touch an earlier packet
        elif k and u < 0.55:
            starts[k] = starts[k - 1]               # tie with the previous start
        else:
            starts[k] = 0.25 * rng.integers(0, 400)
    rx_dbm = rng.choice([-80.0, -86.0, -90.0, -100.0, -135.0], size=n)
    chans = rng.integers(0, 2, size=n)
    packets = [PacketEvent(node=k, sf=int(sf_idx[k]) + SF_RANGE[0], start_s=float(starts[k]),
                           duration_s=float(durs[k]), rx_power_dbm=float(rx_dbm[k]),
                           channel=int(chans[k])) for k in range(n)]
    got = resolve_reception(packets, model, N2.thresholds, N2.radio)
    want = ref_resolve(starts, durs, sf_idx, rx_dbm, chans, model)
    assert got == want.tolist()
    assert 0 < sum(got) < n
    # the sums are bit-identical too: tied ends of unequal powers add up in
    # the stable end order
    order = np.argsort(starts, kind="stable")
    st_, en, pw = starts[order], (starts + durs)[order], rng.uniform(1e-12, 1e-8, size=n)
    for mine, ref in zip(_overlap_aggregate(st_, en, pw),
                         ref_overlap_aggregate(st_, en, pw, st_, en)):
        assert np.array_equal(mine, ref)
