"""Differential tests of the vectorized traffic acceptance and winner
selection against the sequential per-node rule and the lexsort selector,
and statistical checks of the superposed arrival draw."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from loracell import default_scenario, lora_airtime, per_node_rate, sample_placement, simulator
from loracell.scenario import SF_RANGE
from loracell.simulator import (
    _accept,
    _accept_sequential,
    _arrivals,
    _episode_heads,
    _winners_per_group,
)

SF_TOA = tuple(lora_airtime(sf) for sf in SF_RANGE)


def duty_packets(toa, duty_limit):
    """The duty budget in packets: the largest k with k * toa <= budget +
    1e-12, counted down from two above the quotient's floor."""
    budget = duty_limit * 3600.0 + 1e-12
    k = int(budget / toa) + 2
    while k * toa > budget:
        k -= 1
    return k


def reference_node_transmissions(times, toa, duty_limit):
    """Kept times, busy drops and duty drops for one node's sorted arrivals:
    the sequential half-duplex rule, and a duty drop for an arrival with the
    budget's count of kept starts in its trailing hour."""
    budget_packets = duty_packets(toa, duty_limit)
    kept = []
    dropped_busy = 0
    dropped_duty = 0
    busy_until = -math.inf
    window: deque[float] = deque()
    for t in times:
        if t < busy_until:
            dropped_busy += 1
            continue
        while window and window[0] <= t - 3600.0:
            window.popleft()
        if len(window) >= budget_packets:
            dropped_duty += 1
            continue
        kept.append(t)
        window.append(t)
        busy_until = t + toa
    return np.asarray(kept), dropped_busy, dropped_duty


def reference_winners(group_ids, score):
    order = np.lexsort((score, group_ids))
    grouped = group_ids[order]
    last = np.flatnonzero(np.diff(grouped)) if len(grouped) > 1 else np.array([], dtype=int)
    last = np.concatenate((last, [len(grouped) - 1]))
    return order[last]


@st.composite
def node_arrivals(draw):
    """Sorted arrival times for one node. Gaps mix sub-ToA steps (chains of
    close arrivals, exact repeats) with multi-second and multi-hour gaps."""
    toa = draw(st.one_of(st.sampled_from(SF_TOA),
                         st.floats(0.01, 2.0, allow_nan=False)))
    gap = st.one_of(
        st.floats(0.0, 1.5, allow_nan=False).map(lambda f: f * toa),
        st.floats(0.0, 600.0, allow_nan=False),
        st.floats(3000.0, 4000.0, allow_nan=False),
        st.just(0.0),
    )
    gaps = draw(st.lists(gap, max_size=40))
    start = draw(st.floats(0.0, 7200.0, allow_nan=False))
    return toa, np.cumsum([start] + gaps)[:len(gaps)]


@st.composite
def duty_edge_nodes(draw, duty_limit):
    """One node at the edge of the duty screen. K airtimes fit the budget,
    with (budget + 1e-12) / toa at, just off or well off a whole number, and
    toa itself at or one ulp either side of that quotient.
    Bursts of K or more arrivals, some closer than one airtime, are
    separated by about an hour of silence, so the node saturates, recovers
    and saturates again, and some arrivals come exactly 3600 s after the
    K-th earlier one."""
    k = draw(st.integers(1, 6))
    off = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7, 2e-6])
               | st.floats(-0.5, 0.5, allow_nan=False))
    toa = (duty_limit * 3600.0 + 1e-12) / (k + off)
    toa = draw(st.sampled_from([toa, math.nextafter(toa, 0.0), math.nextafter(toa, math.inf)]))
    times = []
    t = draw(st.floats(0.0, 100.0, allow_nan=False))
    for _ in range(draw(st.integers(1, 4))):
        for _ in range(draw(st.integers(k, 3 * k + 2))):
            step = draw(st.sampled_from(["airtime", "echo", "close"]))
            if step == "echo" and len(times) >= k:
                t = max(t, times[-k] + 3600.0)
            elif step == "close":
                t += draw(st.floats(0.0, 1.0, allow_nan=False)) * toa
            else:
                t += draw(st.floats(1.0, 3.0, allow_nan=False)) * toa
            times.append(t)
        t += draw(st.sampled_from([3600.0, 3600.0 - toa])
                  | st.floats(0.0, 4000.0, allow_nan=False))
    return toa, np.array(times)


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       duty_limit=st.one_of(st.sampled_from([1e-4, 1e-3, 0.01, 1.0]),
                            st.floats(1e-5, 1.0, allow_nan=False)))
def test_accept_matches_sequential_reference(data, duty_limit):
    nodes = data.draw(st.lists(node_arrivals() | duty_edge_nodes(duty_limit),
                               min_size=1, max_size=8))
    node_toa = np.array([toa for toa, _ in nodes])
    counts = np.array([t.size for _, t in nodes])
    times = np.concatenate([t for _, t in nodes])
    node_ids = np.repeat(np.arange(len(nodes)), counts)

    keep, busy, duty = _accept(times, node_ids, node_toa, duty_limit)

    ref = [reference_node_transmissions(t, toa, duty_limit) for toa, t in nodes]
    ref_kept = np.concatenate([k for k, _, _ in ref])
    assert np.array_equal(times[keep], ref_kept)
    assert busy == sum(b for _, b, _ in ref)
    assert duty == sum(d for _, _, d in ref)


@pytest.mark.parametrize("toa, times", [
    # (budget + 1e-12) / toa is 3.0, but the float64 product 3 * toa lies
    # over the budget, so K is 2: the third arrival is a duty drop, with two
    # kept in the window
    ((1e-3 * 3600.0 + 1e-12) / 3, [0.0, 2.0, 4.0]),
    # 3.6 airtimes fit, and the fourth arrival comes exactly an hour after
    # the first: fl(t - 3600) is below the first start, so the loop's window
    # still holds all three kept starts and the fourth is a duty drop
    (1.0, [51.18216247002567, 61.0, 71.0, 51.18216247002567 + 3600.0]),
], ids=["whole-number-of-airtimes", "exactly-an-hour-later"])
def test_accept_duty_screen_edges(toa, times):
    times = np.array(times)
    keep, busy, duty = _accept(times, np.zeros(times.size, dtype=int), np.array([toa]), 1e-3)
    kept, ref_busy, ref_duty = reference_node_transmissions(times, toa, 1e-3)
    assert np.array_equal(times[keep], kept)
    assert (busy, duty) == (ref_busy, ref_duty) == (0, 1)


def test_accept_airtime_over_the_budget_drops_every_free_arrival():
    # K = 0: a 4 s airtime exceeds the 3.6 s budget at 0.1% duty, so every
    # arrival is a duty drop, and with nothing kept none is a busy drop, not
    # even one that comes 1 s after another
    toa, times = 4.0, np.array([0.0, 1.0, 5.0, 3605.0, 3606.0, 9000.0])
    keep, busy, duty = _accept(times, np.zeros(times.size, dtype=int), np.array([toa]), 1e-3)
    kept, ref_busy, ref_duty = reference_node_transmissions(times, toa, 1e-3)
    assert duty_packets(toa, 1e-3) == 0 and kept.size == 0 and not keep.any()
    assert (busy, duty) == (ref_busy, ref_duty) == (0, times.size)


@pytest.mark.parametrize("duty_limit, k, spacing, echo", [
    (0.01, 38, 10.0, False), (0.01, 31, 10.0, True),
    # the quotient rounds to 14.999999999999998, yet 15 * toa <= budget
    (0.01, 15, 10.0, True),
    (1e-3, 15, 60.0, True), (1e-3, 3, 60.0, True)])
def test_duty_budget_is_a_whole_number_of_airtimes(duty_limit, k, spacing, echo):
    # a saturated node with toa = (budget + 1e-12) / k for four hours, and with
    # echo an arrival half an airtime after every 7th. The keep mask is checked
    # against the rule itself: a dropped arrival inside a kept airtime is a busy
    # drop; any other drop has exactly K kept starts s > t - 3600.0 before it,
    # and no kept arrival has K.
    toa = (duty_limit * 3600.0 + 1e-12) / k
    budget_packets = duty_packets(toa, duty_limit)
    times = np.arange(0.0, 4 * 3600.0, spacing)
    if echo:
        times = np.sort(np.concatenate((times, times[::7] + 0.5 * toa)))
    keep, busy, duty = _accept(times, np.zeros(times.size, dtype=int), np.array([toa]),
                               duty_limit)
    kept_at = np.flatnonzero(keep)
    before = np.searchsorted(kept_at, np.arange(times.size))   # kept with a lower index
    in_hour = before - np.searchsorted(times[keep], times - 3600.0, side="right")
    inside = (before > 0) & (times < times[kept_at[before - 1]] + toa)
    assert budget_packets in (k - 1, k) and duty > 0
    assert not inside[keep].any() and np.all(in_hour[keep] < budget_packets)
    assert busy == np.count_nonzero(inside & ~keep) and (busy > 0) == echo
    assert np.all(in_hour[~keep & ~inside] == budget_packets)
    assert duty == np.count_nonzero(~keep & ~inside)


def test_accept_loop_runs_only_where_a_window_can_fill(monkeypatch):
    # SF12 at 1% duty: 31 airtimes fit the budget. 40 arrivals 180 s apart
    # hold more airtime than the budget, but no hour holds 32 of them, so
    # that node skips the sequential loop; a node with 32 arrivals 60 s
    # apart fills a window and runs it, and drops its 32nd arrival
    calls = []
    monkeypatch.setattr(simulator, "_accept_sequential",
                        lambda *args: calls.append(args) or _accept_sequential(*args))
    times = np.concatenate((np.arange(40) * 180.0, np.arange(32) * 60.0))
    node_ids = np.repeat([0, 1], [40, 32])
    keep, busy, duty = _accept(times, node_ids, np.full(2, SF_TOA[5]), 0.01)
    assert len(calls) == 1 and calls[0][0].size == 32
    assert keep[:40].all() and keep[40:71].all() and not keep[71]
    assert (busy, duty) == (0, 1)


def test_accept_binding_duty_cycle_and_chains():
    # SF12 at 1% duty: 36 s of airtime per trailing hour is 31 packets
    toa = SF_TOA[5]
    dense = np.arange(60) * 1.3                  # spaced past one ToA
    chain = np.array([0.0, 0.5, 1.0, 1.2, 5.0])  # 3+ within one ToA
    times = np.concatenate([dense, chain, [], [42.0]])
    node_ids = np.repeat(np.arange(4), [60, 5, 0, 1])
    keep, busy, duty = _accept(times, node_ids, np.full(4, toa), 0.01)
    assert keep[:60].sum() == 31 and duty == 29
    # the chain keeps 0.0, then 1.2 (>= 0.0 + toa), then 5.0
    assert np.array_equal(times[60:65][keep[60:65]], [0.0, 1.2, 5.0])
    assert busy == 2 and keep[-1]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("case, load, duty_limit", [
    ("sim_n1", 1.0, 0.01), ("sim_n2", 0.6, 0.01), ("sim_n2", 1.0, 0.01),
    ("sim_n1", 3.0, 0.01), ("sim_n1", 3.0, 1.0)])
def test_accept_matches_reference_on_whole_calendars(case, load, duty_limit, seed):
    # whole replication calendars. The 1% duty budget binds the N2 SF12 nodes
    # and, at load 3.0, the N1 nodes (all SF7), which then hold every chain of
    # close arrivals; with the budget at 100% those chains stand alone.
    scn = default_scenario(case)
    rng = np.random.default_rng(seed)
    node_toa = np.array(SF_TOA)[sample_placement(scn, rng=rng).sfs - SF_RANGE[0]]
    rate = per_node_rate(load, scn.node_count, float(node_toa.mean()))
    times, nodes, by_node = _arrivals(rng, scn.node_count, rate, scn.sim_duration_s)
    times, nodes = times[by_node], nodes[by_node]

    keep, busy, duty = _accept(times, nodes, node_toa, duty_limit)

    bounds = np.concatenate(([0], np.cumsum(np.bincount(nodes, minlength=scn.node_count))))
    ref_keep = np.zeros(times.size, dtype=bool)
    ref_busy = ref_duty = 0
    for k in range(scn.node_count):
        t_k = times[bounds[k]:bounds[k + 1]]
        kept, b, d = reference_node_transmissions(t_k, node_toa[k], duty_limit)
        ref_keep[bounds[k]:bounds[k + 1]] = np.isin(t_k, kept)
        ref_busy += b
        ref_duty += d
    assert np.array_equal(keep, ref_keep)
    assert (busy, duty) == (ref_busy, ref_duty)
    assert (duty == 0) == (duty_limit == 1.0 or (case, load) == ("sim_n1", 1.0))


@pytest.mark.parametrize("node_count", [300, 7])
def test_arrivals_are_independent_poisson_per_node(node_count):
    # per node the count is Poisson(rate * duration): mean and variance both
    # within 3 SE of it, pooled over fixed seeds; labels are uniform over nodes
    rate, duration = 0.01, 4000.0
    lam = rate * duration
    counts = []
    for seed in range(2000 // node_count + 5):
        times, nodes, by_node = _arrivals(np.random.default_rng(seed), node_count,
                                          rate, duration)
        assert np.all(times[1:] >= times[:-1])
        assert times.size == 0 or (times[0] >= 0.0 and times[-1] < duration)
        counts.append(np.bincount(nodes, minlength=node_count))
    counts = np.concatenate(counts)
    n = counts.size
    assert abs(counts.mean() - lam) <= 3 * np.sqrt(lam / n)
    # Var(s^2) of a Poisson sample is (lam + 2 lam^2) / n to first order
    assert abs(counts.var(ddof=1) - lam) <= 3 * np.sqrt((lam + 2 * lam ** 2) / n)
    per_node = counts.reshape(-1, node_count).sum(axis=0)
    assert stats.chisquare(per_node).pvalue > 1e-3


@pytest.mark.parametrize("node_count", [1, 200, 300, 70_000])
def test_arrivals_node_major_order_is_stable_argsort(node_count):
    # the order is one sort of node << b | position keys, which fit 32 bits here
    times, nodes, by_node = _arrivals(np.random.default_rng(3), node_count,
                                      30.0 / node_count, 1000.0)
    assert times.size > 0
    assert np.array_equal(by_node, np.argsort(nodes, kind="stable"))
    assert np.all(np.diff(times[by_node])[np.diff(nodes[by_node]) == 0] >= 0)


def test_arrivals_node_major_order_with_64_bit_keys():
    # 70,000 nodes need 17 bits and 2^16 or more arrivals another 17
    times, nodes, by_node = _arrivals(np.random.default_rng(5), 70_000, 1.5 / 1000.0,
                                      1000.0)
    assert times.size >= 2 ** 16
    assert 70_000 << (times.size - 1).bit_length() > 2 ** 32
    assert by_node.dtype == np.intp
    assert np.array_equal(by_node, np.argsort(nodes, kind="stable"))


@pytest.mark.parametrize("node_count", [1, 300])
def test_arrivals_node_major_order_of_zero_and_one_arrivals(node_count):
    # with one arrival the position takes no bit; one node keeps start order
    sizes = set()
    for seed in range(40):
        times, nodes, by_node = _arrivals(np.random.default_rng(seed), node_count,
                                          1.0 / node_count, 1.0)
        sizes.add(times.size)
        assert by_node.dtype == np.intp
        assert np.array_equal(by_node, np.argsort(nodes, kind="stable"))
        if node_count == 1:
            assert np.array_equal(by_node, np.arange(times.size))
    assert {0, 1} <= sizes


def test_arrivals_empty():
    times, nodes, by_node = _arrivals(np.random.default_rng(0), 300, 0.0, 7200.0)
    assert times.size == nodes.size == by_node.size == 0


def test_accept_empty():
    keep, busy, duty = _accept(np.empty(0), np.empty(0, dtype=int),
                               np.full(3, 0.05), 0.01)
    assert keep.size == 0 and busy == 0 and duty == 0


@st.composite
def grouped_scores(draw):
    """Non-decreasing group ids with gaps, and scores with exact ties."""
    steps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=60))
    group_ids = np.cumsum(steps)
    levels = st.sampled_from([0.5, 1.0, 2.0, 1e-3, 7.25])
    score = np.array(draw(st.lists(
        st.one_of(levels, st.floats(0.0, 1e6, allow_nan=False)),
        min_size=len(steps), max_size=len(steps))))
    return group_ids, score


@settings(max_examples=300, deadline=None)
@given(grouped_scores())
def test_winners_match_lexsort(data):
    group_ids, score = data
    assert np.array_equal(_winners_per_group(group_ids, score),
                          reference_winners(group_ids, score))


def test_winners_ties_and_single_element_groups():
    group_ids = np.array([0, 0, 0, 1, 2, 2, 5])
    score = np.array([3.0, 3.0, 1.0, 9.0, 2.0, 2.0, 0.0])
    # ties go to the last index among equal maxima
    assert _winners_per_group(group_ids, score).tolist() == [1, 3, 5, 6]


@pytest.mark.parametrize("group_ids, score, want", [
    ([4, 4, 4, 4], [1.0, 7.0, 2.0, 7.0], [3]),                   # one group
    ([2, 2, 2], [0.5, 0.5, 0.5], [2]),                          # all tied
    ([0, 0, 1, 1, 1], [np.inf, 1e308, 1e308, np.inf, np.inf], [0, 4]),
    ([0, 0, 3, 3], [-np.inf, -np.inf, 0.0, -1e308], [1, 2]),
    ([0, 1, 2, 9], [5.0, 0.0, 1e300, 2.0], [0, 1, 2, 3]),       # groups of one
    ([7], [0.0], [0]),
])
def test_winners_edges(group_ids, score, want):
    group_ids, score = np.array(group_ids), np.array(score)
    assert _winners_per_group(group_ids, score).tolist() == want
    assert _winners_per_group(group_ids, score).tolist() == (
        reference_winners(group_ids, score).tolist())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_winners_iic_style_candidate_subset(data):
    # IIC picks per-SF winners over the all-SF episode ids of a candidate
    # subset, so the ids are non-decreasing with gaps
    n = data.draw(st.integers(1, 50))
    gaps = data.draw(st.lists(st.floats(0.0, 2.0, allow_nan=False),
                              min_size=n, max_size=n))
    durs = data.draw(st.lists(st.sampled_from(SF_TOA), min_size=n, max_size=n))
    starts = np.cumsum(gaps)
    comp_all = np.cumsum(_episode_heads(starts, starts + np.array(durs))) - 1
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    cand = np.flatnonzero(mask)
    if cand.size == 0:
        return
    score = np.array(data.draw(st.lists(
        st.sampled_from([1.0, 2.0, 3.0]), min_size=cand.size, max_size=cand.size)))
    assert np.array_equal(_winners_per_group(comp_all[cand], score),
                          reference_winners(comp_all[cand], score))
