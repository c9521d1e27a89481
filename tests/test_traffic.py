"""Differential tests of the vectorized traffic acceptance, winner selection
and start-order sort against the sequential per-node rule, the lexsort
selector and numpy's stable argsort."""

import math
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from loracell.simulator import (
    _accept,
    _argsort_stable,
    _component_ids,
    _winners_per_group,
)

SF_TOA = (0.046336, 0.082432, 0.164864, 0.288768, 0.659456, 1.155072)


def reference_node_transmissions(times, toa, duty_limit):
    """Kept times, busy drops and duty drops for one node's sorted arrivals:
    the sequential half-duplex and trailing-hour duty-cycle rule."""
    budget = duty_limit * 3600.0
    kept = []
    dropped_busy = 0
    dropped_duty = 0
    busy_until = -math.inf
    window: deque[float] = deque()
    airtime_in_window = 0.0
    for t in times:
        if t < busy_until:
            dropped_busy += 1
            continue
        while window and window[0] <= t - 3600.0:
            window.popleft()
            airtime_in_window -= toa
        if airtime_in_window + toa > budget + 1e-12:
            dropped_duty += 1
            continue
        kept.append(t)
        window.append(t)
        airtime_in_window += toa
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


@settings(max_examples=300, deadline=None)
@given(nodes=st.lists(node_arrivals(), min_size=1, max_size=8),
       duty_limit=st.one_of(st.sampled_from([1e-4, 1e-3, 0.01, 1.0]),
                            st.floats(1e-5, 1.0, allow_nan=False)))
def test_accept_matches_sequential_reference(nodes, duty_limit):
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
    comp_all = _component_ids(starts, starts + np.array(durs))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    cand = np.flatnonzero(mask)
    if cand.size == 0:
        return
    score = np.array(data.draw(st.lists(
        st.sampled_from([1.0, 2.0, 3.0]), min_size=cand.size, max_size=cand.size)))
    assert np.array_equal(_winners_per_group(comp_all[cand], score),
                          reference_winners(comp_all[cand], score))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.5]) | st.floats(0.0, 10.0),
                max_size=80))
def test_argsort_stable_matches_numpy_stable(values):
    # a few repeated levels force exact ties, where sort orders may differ
    x = np.array(values, dtype=float)
    assert np.array_equal(_argsort_stable(x), np.argsort(x, kind="stable"))
