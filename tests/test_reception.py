"""Differential tests of reception against two references written from the
rules of the simulator's module docstring. `pairwise_resolve` is an O(n^2)
pure-Python resolver: overlap tests on every pair, episodes by graph search,
and interference summed partner by partner. `ref_resolve` is vectorized for
the scale tests: each packet's later partners come from a binary search of
its end among the starts, and `np.add.at` adds their powers. Both add in the
documented order (lag by lag, at each lag the later partner before the
earlier one), so the library's flags must equal them flag for flag."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loracell import PacketEvent, default_scenario, lora_airtime, resolve_reception, simulator
from loracell.coverage import noise_power_mw
from loracell.scenario import NUM_SF, SF_RANGE
from loracell.simulator import (
    _calendar,
    _interference,
    _interference_by_row,
    _overlap_lags,
    _resolve,
    sensitivity_dbm,
)

N2 = default_scenario("sim_n2")
SF_TOA = tuple(lora_airtime(sf) for sf in SF_RANGE)


# ---------------------------------------------------------------------------
# Pairwise reference: the rules alone, one packet pair at a time

def pairwise_partition(starts, ends, sf, pw, ok, model, sir_lin, noise_mw):
    """Flags for one partition's packets, given in stable start order."""
    m = len(starts)
    partners = [[] for _ in range(m)]           # in the order of addition
    for k in range(1, m):
        for p in range(m):
            for q in (p + k, p - k):
                if 0 <= q < m and starts[p] < ends[q] and starts[q] < ends[p]:
                    partners[p].append(q)
    if model == "BP":                           # alone in its episode
        return [ok[p] and not partners[p] for p in range(m)]
    episode = [-1] * m                          # connected components
    for root in range(m):
        stack = [root] if episode[root] < 0 else []
        while stack:
            p = stack.pop()
            if episode[p] < 0:
                episode[p] = root
                stack.extend(partners[p])
    by_sf = [{} for _ in range(m)]              # p's summed partner power per SF
    for p in range(m):
        for q in partners[p]:
            by_sf[p][sf[q]] = by_sf[p].get(sf[q], 0.0) + pw[q]
    sinr = []
    for p in range(m):
        total = 0.0
        for j in sorted(by_sf[p]):
            total += by_sf[p][j]
        sinr.append(pw[p] / (noise_mw + total))
    best = {}                                   # (episode, SF) -> winner
    for p in range(m):                          # a later packet wins a tie
        key = (episode[p], sf[p])
        if key not in best or sinr[p] >= sinr[best[key]]:
            best[key] = p
    received = [False] * m
    for p in best.values():
        s = sf[p]
        if model == "IC":
            clears = not partners[p] or sinr[p] >= sir_lin[s][s]
        else:
            clears = all(pw[p] >= sir_lin[s][j] * (noise_mw + inter)
                         for j, inter in by_sf[p].items())
        received[p] = ok[p] and clears
    return received


def pairwise_resolve(starts, durs, sf_idx, rx_dbm, chans, model, scenario=N2):
    """Per-packet inputs; partitions are channels, or under IC (channel, SF)."""
    radio, thresholds = scenario.radio, scenario.thresholds
    ok = (rx_dbm >= sensitivity_dbm(radio, thresholds)[sf_idx]).tolist()
    pw = (10.0 ** (rx_dbm / 10.0)).tolist()
    sir_lin = thresholds.sir_linear.tolist()
    keys = [(c, s if model == "IC" else 0) for c, s in zip(chans.tolist(), sf_idx.tolist())]
    received = np.zeros(len(keys), dtype=bool)
    for key in set(keys):
        on = sorted((k for k in range(len(keys)) if keys[k] == key),
                    key=lambda k: starts[k])    # stable start order
        received[on] = pairwise_partition(
            [starts[k] for k in on], [starts[k] + durs[k] for k in on],
            [sf_idx[k] for k in on], [pw[k] for k in on], [ok[k] for k in on],
            model, sir_lin, noise_power_mw(radio))
    return received


# ---------------------------------------------------------------------------
# Vectorized direct-sum reference

def ref_pairs(starts, ends):
    """Target and source of every partner contribution, packets sorted by
    start, in the order of addition: at lag k, i takes j = i + k, then j
    takes i. The packets i < j < hi[i] are i's later partners."""
    n = len(starts)
    hi = np.searchsorted(starts, ends, side="left")
    depth = hi - np.arange(n) - 1
    i = np.repeat(np.arange(n), depth)
    k = np.arange(depth.sum()) - np.repeat(np.cumsum(depth) - depth, depth) + 1
    order = np.argsort(np.concatenate((2 * k, 2 * k + 1)), kind="stable")
    return np.concatenate((i, i + k))[order], np.concatenate((i + k, i))[order]


def ref_sums(tgt, src, pw, n, mask=None):
    """Direct partner sums and partner counts, np.add.at in order."""
    if mask is not None:
        tgt, src = tgt[mask], src[mask]
    inter = np.zeros(n)
    np.add.at(inter, tgt, pw[src])
    return inter, np.bincount(tgt, minlength=n)


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
    if model == "IC":
        for s in np.unique(sf_idx):
            idx = np.flatnonzero(sf_idx == s)
            st_, en, pw = starts[idx], ends[idx], pw_mw[idx]
            inter, cnt = ref_sums(*ref_pairs(st_, en), pw, idx.size)
            sinr = pw / (noise_mw + inter)
            winners = ref_winners_per_group(ref_component_ids(st_, en), sinr)
            ok = sens_ok[idx][winners] & (
                (cnt[winners] == 0) | (sinr[winners] >= sir_lin[s, s]))
            received[idx[winners]] = ok
        return received
    tgt, src = ref_pairs(starts, ends)
    if model == "BP":
        return sens_ok & (np.bincount(tgt, minlength=n) == 0)
    present = np.unique(sf_idx)
    rows = [ref_sums(tgt, src, pw_mw, n, sf_idx[src] == j) for j in present]
    total = np.zeros(n)
    for inter, _ in rows:
        total += inter
    sinr = pw_mw / (noise_mw + total)
    comp_all = ref_component_ids(starts, ends)
    for s in present:
        cand = np.flatnonzero(sf_idx == s)
        winners = cand[ref_winners_per_group(comp_all[cand], sinr[cand])]
        ok = sens_ok[winners]
        for j, (inter, cnt) in zip(present, rows):
            ok &= (cnt[winners] == 0) | (
                pw_mw[winners] >= sir_lin[s, j] * (noise_mw + inter[winners]))
        received[winners] = ok
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
    want = pairwise_resolve(*as_arrays(packets), model) if packets else np.zeros(0, bool)
    assert got == want.tolist()


@settings(max_examples=100, deadline=None)
@given(packet_sets())
def test_bp_receptions_are_ic_and_iic_receptions(packets):
    # a packet alone in its channel episode is alone in every partition of it
    bp = resolve_reception(packets, "BP", N2.thresholds, N2.radio)
    for model in ("IC", "IIC"):
        got = resolve_reception(packets, model, N2.thresholds, N2.radio)
        assert all(g for b, g in zip(bp, got) if b), model


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
    want = pairwise_resolve(starts, node_toa[owner], node_sf[owner], node_dbm[owner], chans,
                            model)
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
    assert got == pairwise_resolve(*as_arrays([long_, short, after]), "IC").tolist()
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
# Overlap lags against their definition: lag k yields the packets i with
# start[i+k] < end[i], which are exactly the pairs that overlap

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


def lag_sets(starts, ends):
    return [i.tolist() for _, i in _overlap_lags(starts, ends, starts[1:] < ends[:-1])]


def check_lags(starts, ends):
    """The yielded lags run 1, 2, ... with shrinking sets, hold every
    overlapping pair once, and stop at the deepest overlap."""
    n = len(starts)
    lags = list(_overlap_lags(starts, ends, starts[1:] < ends[:-1]))
    assert [k for k, _ in lags] == list(range(1, len(lags) + 1))
    for (_, wider), (_, narrower) in zip(lags, lags[1:]):
        assert set(narrower.tolist()) <= set(wider.tolist())
    pairs = sorted((int(a), int(a) + k) for k, i in lags for a in i)
    want = [(a, b) for a in range(n) for b in range(a + 1, n)
            if starts[a] < ends[b] and starts[b] < ends[a]]
    assert pairs == want
    depth = max((sum(1 for a, _ in want if a == p) for p in range(n)), default=0)
    assert len(lags) == depth


@settings(max_examples=500, deadline=None)
@given(sorted_intervals())
def test_overlap_lags_match_definitions(intervals):
    check_lags(*intervals)


def test_overlap_lags_small_inputs():
    assert lag_sets(np.empty(0), np.empty(0)) == []
    assert lag_sets(np.array([2.0]), np.array([3.0])) == []
    # a long packet over a tied start, a tied end, and a packet that starts
    # where both tied ends touch it: the long one overlaps all three
    assert lag_sets(np.array([0.0, 0.0, 0.5, 1.0]),
                    np.array([3.0, 1.0, 1.0, 1.5])) == [[0, 1], [0], [0]]


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


@pytest.mark.parametrize("starts,ends,depth", [
    (np.zeros(64), np.full(64, SF_TOA[0]), 63),
    (*one_airtime_chain(64, 6), 6),
    (*one_airtime_chain(64, 7), 7),
    (*one_airtime_chain(2000, 10), 10),
    (*one_airtime_chain(2000, 11, touch=True), 10),     # end == next start
    (*one_airtime_chain(2000, 11), 11),
    (*touching_chain(300, 0), 1),
    (*touching_chain(300, 20), 20),
], ids=["tied-64", "depth-6", "depth-7", "depth-10", "touching-depth-10", "depth-11",
        "float-touching", "float-touching-tied-tail"])
def test_overlap_lags_stop_at_the_deepest_overlap(starts, ends, depth):
    lags = lag_sets(starts, ends)
    assert len(lags) == depth
    if starts.size <= 400:
        check_lags(starts, ends)


def test_ic_without_candidate_receives_nothing():
    # two overlapping equal-power packets: each one's SINR is below 0 dB, so
    # no packet of the IC partition can be received
    a = PacketEvent(node=0, sf=7, start_s=0.0, duration_s=SF_TOA[0], rx_power_dbm=-80.0)
    b = PacketEvent(node=1, sf=7, start_s=0.01, duration_s=SF_TOA[0], rx_power_dbm=-80.0)
    got = resolve_reception([a, b], "IC", N2.thresholds, N2.radio)
    assert got == [False, False] == pairwise_resolve(*as_arrays([a, b]), "IC").tolist()


def _with_sir_sf7(db, j=0):
    """The N2 thresholds with SF7's threshold against SF_RANGE[j] set to `db`."""
    rows = [list(r) for r in N2.thresholds.sir_db]
    rows[0][j] = db
    return replace(N2.thresholds, sir_db=tuple(tuple(r) for r in rows))


def _exact_sf7_db(linear, j=0):
    """A dB value whose linear SF7 threshold against SF_RANGE[j] equals
    `linear` bit for bit, searched a few steps around 10 log10(linear); None
    if there is none."""
    db = 10.0 * math.log10(linear)
    for _ in range(8):
        got = _with_sir_sf7(db, j).sir_linear[0, j]
        if got == linear:
            return db
        db = float(np.nextafter(db, math.inf if got < linear else -math.inf))
    return None


def test_ic_capture_tie_is_received():
    # the IC capture rule is SINR >= delta_ii: set the SF7 threshold to a dB
    # value whose linear form equals the stronger packet's SINR bit for bit
    toa, noise = SF_TOA[0], noise_power_mw(N2.radio)
    for weak_dbm in np.arange(-86.0, -87.0, -0.01):
        pw = 10.0 ** (np.array([-80.0, weak_dbm]) / 10.0)
        sinr = pw[0] / (pw[1] + noise)                # one partner: a direct sum
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


def test_iic_pairwise_tie_is_received():
    # the IIC rule for a winner is P >= delta_ij (noise + I_j) against each SF
    # present: an SF7 packet over one SF8 partner, with a dB threshold whose
    # linear form times (noise + I_SF8) gives the SF7 power bit for bit. The
    # SF8 partner, 25 dB or more below, fails its packaged -24 dB threshold.
    toa, noise = SF_TOA[0], noise_power_mw(N2.radio)
    for weak_dbm in np.arange(-105.0, -109.0, -0.01):
        pw = 10.0 ** (np.array([-80.0, weak_dbm]) / 10.0)
        load = noise + pw[1]                          # one partner: a direct sum
        db = _exact_sf7_db(pw[0] / load, j=1)
        if db is None:
            continue
        above = float(np.nextafter(db, math.inf))
        if (_with_sir_sf7(db, 1).sir_linear[0, 1] * load == pw[0]
                and _with_sir_sf7(above, 1).sir_linear[0, 1] * load > pw[0]):
            break
    else:
        pytest.fail("no dB threshold puts the SF7 power exactly on its pairwise bound")
    a = PacketEvent(node=0, sf=7, start_s=0.0, duration_s=toa, rx_power_dbm=-80.0)
    b = PacketEvent(node=1, sf=8, start_s=0.01, duration_s=SF_TOA[1],
                    rx_power_dbm=float(weak_dbm))
    assert resolve_reception([a, b], "IIC", _with_sir_sf7(db, 1), N2.radio) == [True, False]
    # one step above the bound, the SF7 packet is lost to the SF8 interference
    assert resolve_reception([a, b], "IIC", _with_sir_sf7(above, 1), N2.radio) == [False, False]


def n1_calendar(seed=2017):
    """One N1 replication's calendar at G=1 as the simulator draws it, about
    155k SF7 packets in start order, with its node tables."""
    scn = replace(default_scenario("sim_n1"), collision_model="IC")
    starts, owner, _, node_toa, node_sf, node_dbm, _, _ = _calendar(
        np.random.default_rng(seed), scn, 1.0)
    assert starts.size > 150_000
    return scn, starts, owner, node_toa, node_sf, node_dbm


def test_ic_full_n1_calendar_matches_reference():
    # one IC partition of about 155k packets: the lag loop and the candidate
    # winners at full scale
    scn, starts, owner, node_toa, node_sf, node_dbm = n1_calendar()
    chans = np.zeros(starts.size, dtype=int)
    got = _resolve(starts, owner, chans, node_toa, node_sf, node_dbm, "IC",
                   scn.thresholds, scn.radio)
    want = ref_resolve(starts, node_toa[owner], node_sf[owner], node_dbm[owner], chans,
                       "IC", scn)
    assert np.array_equal(got, want)
    assert 0 < got.sum() < starts.size


@pytest.mark.parametrize("model", ["BP", "IC", "IIC"])
def test_one_channel_without_labels_matches_all_zero_labels(model):
    # one channel passes no label array; the flags equal those of an explicit
    # all-zero one. The N2 calendar has every SF, so IC resolves six partitions
    scn = replace(N2, collision_model=model)
    starts, owner, chans, node_toa, node_sf, node_dbm, _, _ = _calendar(
        np.random.default_rng(2018), scn, 1.0)
    assert chans is None and np.unique(node_sf[owner]).size == NUM_SF
    tables = (node_toa, node_sf, node_dbm, model, scn.thresholds, scn.radio)
    got = _resolve(starts, owner, None, *tables)
    assert np.array_equal(got, _resolve(starts, owner, np.zeros(starts.size, dtype=int),
                                        *tables))
    assert 0 < got.sum() < starts.size
    assert _resolve(starts[:0], owner[:0], None, *tables).size == 0


def test_interference_is_the_exact_sum_on_a_full_n1_calendar():
    # every packet's interference, as IC sums it and as IIC's rows add up,
    # equals math.fsum of its partners' powers within 1e-12 relative, and a
    # lone packet's is exactly 0.0. N1 has one SF, so the IIC rows are split
    # by node label into six. (The prefix-sum difference this replaced was
    # off by up to 3.1e-8 relative here, and left lone packets a residue.)
    _, starts, owner, node_toa, _, node_dbm = n1_calendar()
    ends = starts + node_toa[owner]
    pw = (10.0 ** (node_dbm / 10.0))[owner]
    first = starts[1:] < ends[:-1]
    tgt, src = ref_pairs(starts, ends)
    by_tgt = np.argsort(tgt, kind="stable")
    powers = pw[src[by_tgt]].tolist()
    bounds = np.concatenate(([0], np.cumsum(np.bincount(tgt, minlength=starts.size))))
    exact = np.array([math.fsum(powers[a:b]) for a, b in zip(bounds[:-1], bounds[1:])])
    lone = bounds[1:] == bounds[:-1]
    assert 0 < lone.sum() < starts.size
    rows, has = _interference_by_row(starts, ends, pw, first, owner % NUM_SF)
    for inter in (_interference(starts, ends, pw, first), sum(rows[1:], rows[0])):
        assert np.all(inter[lone] == 0.0)
        assert np.all(np.abs(inter - exact) <= 1e-12 * exact)
    assert np.array_equal(has.any(axis=0), ~lone)


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
    # the sums are bit-identical too, one sum and one row per SF: both add in
    # the documented order
    order = np.argsort(starts, kind="stable")
    st_, en, pw = starts[order], (starts + durs)[order], rng.uniform(1e-12, 1e-8, size=n)
    first = st_[1:] < en[:-1]
    tgt, src = ref_pairs(st_, en)
    assert np.array_equal(_interference(st_, en, pw, first), ref_sums(tgt, src, pw, n)[0])
    rows, has = _interference_by_row(st_, en, pw, first, sf_idx[order])
    for j in range(NUM_SF):
        inter, cnt = ref_sums(tgt, src, pw, n, sf_idx[order][src] == j)
        assert np.array_equal(rows[j], inter) and np.array_equal(has[j], cnt > 0)


def test_long_packet_over_ten_thousand_short_ones():
    # a 10^4-s SF12 packet under 10^4 SF7 packets, one every second: the
    # deepest overlap is 10^4, so the lag loop runs 10^4 steps of one pair
    n = 10_000
    starts = np.concatenate(([0.0], 0.5 + np.arange(n)))
    sf_idx = np.concatenate(([NUM_SF - 1], np.zeros(n, dtype=int)))
    durs = np.where(sf_idx == 0, SF_TOA[0], 1e4)
    rx_dbm = np.random.default_rng(2019).choice([-80.0, -95.0, -104.0, -130.0], size=n + 1)
    ends = starts + durs
    assert len(lag_sets(starts, ends)) == n
    chans = np.zeros(n + 1, dtype=int)
    got = _resolve(starts, np.arange(n + 1), chans, durs, sf_idx, rx_dbm, "IIC",
                   N2.thresholds, N2.radio)
    assert np.array_equal(got, ref_resolve(starts, durs, sf_idx, rx_dbm, chans, "IIC"))
    assert got.any()


@pytest.mark.parametrize("model", ["IC", "IIC"])
def test_two_thousand_mutually_overlapping_packets(model):
    # every packet overlaps every other: six SFs whose airtimes all exceed
    # the 40 ms the starts spread over, about 2 * 10^6 pairs
    rng = np.random.default_rng(2020)
    n = 2000
    starts = np.sort(rng.uniform(0.0, 0.04, size=n))
    sf_idx = rng.integers(0, NUM_SF, size=n)
    durs = np.array(SF_TOA)[sf_idx]
    rx_dbm = rng.uniform(-130.0, -70.0, size=n)
    chans = np.zeros(n, dtype=int)
    got = _resolve(starts, np.arange(n), chans, durs, sf_idx, rx_dbm, model,
                   N2.thresholds, N2.radio)
    assert np.array_equal(got, ref_resolve(starts, durs, sf_idx, rx_dbm, chans, model))


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("load", [0.3, 1.0])
@pytest.mark.parametrize("case", ["sim_n1", "sim_n2"])
def test_one_pass_over_five_channels_matches_each_partition_alone(case, load, seed,
                                                                  monkeypatch):
    # a five-channel calendar resolves in one pass, in partition-major order;
    # its flags equal each channel's start-ordered packets resolved alone,
    # and under IC each (channel, SF) pair's, and do not depend on which
    # label each channel carries
    scn = replace(default_scenario(case), channels=5)
    starts, owner, chans, *nodes, _, _ = _calendar(np.random.default_rng(seed), scn, load)
    node_sf = nodes[1]
    relabelled = np.array([3, 0, 4, 2, 1])[chans]
    one_pass = simulator._resolve_partition
    calls = []

    def counted(*args):
        calls.append(args[2] is None)           # True: one partition, no labels
        return one_pass(*args)

    monkeypatch.setattr(simulator, "_resolve_partition", counted)
    for model in ("BP", "IC", "IIC"):
        tables = (*nodes, model, scn.thresholds, scn.radio)
        calls.clear()
        got = _resolve(starts, owner, chans, *tables)
        assert calls == [False]                 # one labelled pass
        key = chans * NUM_SF + node_sf[owner] if model == "IC" else chans
        want = np.zeros(starts.size, dtype=bool)
        for k in np.unique(key):
            on = np.flatnonzero(key == k)
            calls.clear()
            want[on] = _resolve(starts[on], owner[on], None, *tables)
            assert calls == [True]              # one partition: no reorder
        assert np.array_equal(got, want)
        assert np.array_equal(_resolve(starts, owner, relabelled, *tables), got)
        assert 0 < got.sum() < starts.size


@pytest.mark.parametrize("model", ["BP", "IC", "IIC"])
def test_partition_boundary_in_one_pass(model):
    # partition-major order puts a lone packet of channel 0 right before a
    # channel 1 packet that starts before it ends, and a long, late SF7
    # packet of channel 1 (with a short one over it) right before channel
    # 1's SF8 pair and channel 2's early packets: its later lags reach
    # packets of the next partitions, which it overlaps only in time. The
    # ends are out of order inside channel 1, and channel 2 has a lone
    # packet that a reach carried over from channel 1 would join to an
    # episode. The short SF7 packet also overlaps the first packet of the
    # next partition in time (channel 1's SF8 pair under IC, channel 2
    # otherwise), whose capture margin is 6.5 dB against a 6 dB threshold:
    # its power leaking across the boundary would lose that packet
    def packet(sf, start, dur, dbm, channel):
        return PacketEvent(node=0, sf=sf, start_s=start, duration_s=dur, rx_power_dbm=dbm,
                           channel=channel)
    packets = [
        packet(7, 0.0, 0.1, -80.0, 0),      # alone
        packet(7, 0.05, 0.1, -80.0, 1),     # alone
        packet(8, 0.2, 0.15, -80.0, 1),     # captures the next by 6.5 dB
        packet(8, 0.25, 0.15, -86.5, 1),
        packet(7, 4.0, 11.0, -70.0, 1),     # long and strong: captures the next
        packet(7, 5.0, 0.2, -95.0, 1),
        packet(7, 0.5, 0.3, -80.0, 2),      # captures the next by 6.5 dB
        packet(7, 0.55, 0.1, -86.5, 2),
        packet(9, 2.0, 0.1, -80.0, 2),      # alone
    ]
    got = resolve_reception(packets, model, N2.thresholds, N2.radio)
    assert got == pairwise_resolve(*as_arrays(packets), model).tolist()
    capture = model != "BP"
    assert got == [True, True, capture, False, capture, False, capture, False, True]


@pytest.mark.parametrize("sf", SF_RANGE)
def test_iic_lone_winner_needs_only_sensitivity(sf):
    # with every pairwise threshold raised by 60 dB, no overlapping winner
    # clears it, and a packet alone in its episode is received exactly when
    # its power reaches its SF's sensitivity: one ulp below it is lost
    thresholds = replace(N2.thresholds, sir_db=tuple(
        tuple(v + 60.0 for v in row) for row in N2.thresholds.sir_db))
    sens = float(sensitivity_dbm(N2.radio, thresholds)[sf - SF_RANGE[0]])
    toa = SF_TOA[sf - SF_RANGE[0]]
    pair = [PacketEvent(node=0, sf=7, start_s=0.0, duration_s=SF_TOA[0], rx_power_dbm=-80.0),
            PacketEvent(node=1, sf=sf, start_s=0.01, duration_s=toa, rx_power_dbm=-90.0)]
    for dbm, received in ((np.nextafter(sens, -math.inf), False), (sens, True),
                          (np.nextafter(sens, math.inf), True)):
        lone = PacketEvent(node=2, sf=sf, start_s=10.0, duration_s=toa,
                           rx_power_dbm=float(dbm))
        got = resolve_reception(pair + [lone], "IIC", thresholds, N2.radio)
        assert got == [False, False, received]
        assert got == pairwise_resolve(*as_arrays(pair + [lone]), "IIC",
                                       replace(N2, thresholds=thresholds)).tolist()
