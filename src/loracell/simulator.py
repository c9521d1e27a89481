"""Event-driven simulation of a single-gateway LoRaWAN cell.

Class-A pure-ALOHA uplink on a shared channel: each node draws Poisson
arrivals and transmits immediately unless its radio is busy or the EU duty
cycle budget (airtime within the trailing hour) would be exceeded; such
arrivals are dropped, so the reported offered load is measured from the
airtime actually transmitted.

Traffic is the nodes' Poisson processes superposed (one Poisson total, sorted
uniform times, an iid node label each), and the acceptance rule runs over all
nodes at once in node-major order, which one sort of packed (node, position)
keys gives; its keep mask is scattered back, so packets stay in start order.
A node's packets share one airtime, so its duty budget is a whole number K
of packets per trailing hour (`_accept` defines K). An arrival at t is a duty
drop iff K = 0 or its node's K-th latest kept start is later than t - 3600,
and close iff t < t' + ToA for the node's previous arrival t'. Nodes with K+1
arrivals in one trailing hour or two consecutive close arrivals run that
sequential rule; every other node keeps the arrivals that are not close,
which is what the rule would keep, so the result equals it run on every node.

Propagation is the Okumura-Hata open-area (rural) median model, reception
is threshold-based: a packet is detectable iff its receive power clears the
per-SF sensitivity (noise floor + SNR demodulation floor).

Collision handling at the gateway. An overlap episode is a connected group
of time-overlapping packets on a channel; packets that never overlap each
other belong to one episode when a chain of overlapping packets links them.

  BP   pessimistic baseline: any overlap destroys every packet involved,
       so a packet is received iff it clears sensitivity and is alone in
       its overlap episode (a singleton episode).
  IC   intra-SF only: different SFs are transparent to each other, so
       episodes are formed within each SF. In each episode only the packet
       with the highest SINR (same-SF aggregate interference plus noise)
       can be received, iff it is alone or clears the intra-SF capture
       threshold; all others are lost.
  IIC  one episode spans every SF on the channel. Per SF, only the episode's
       highest-SINR packet of that SF can be received; its SINR accounts for
       all overlapping packets and it must additionally clear the pairwise
       threshold delta_ij against each interfering SF j present. Two
       same-SF packets that never overlap can therefore compete for one
       slot through a chain of other-SF packets. A winner alone in its
       episode has no interferer, so no pairwise threshold is checked.

Outcomes depend only on each packet's overlaps and its episode, so
reception is resolved after the fact over the sorted event calendar, which
permits a fully vectorized implementation. A `Calendar` is the boundary
between the stages: each packet's start, channel and sending node, the
per-node airtime, SF and receive power tables, and the busy and duty drop
counts. `draw_calendar` draws one per replication, and each model resolves
it; `resolve_reception` builds one from a stable argsort of the starts and
scatters the flags back. A calendar resolves in one pass over its partitions
(channels, and under IC (channel, SF) pairs) in partition-major order, start
order within each; no pair spans two. With starts sorted, packet i+k overlaps
packet i iff start[i+k] < end[i], whatever the order of the ends, and the
packets i that do so at lag k+1 are among those that do at lag k. So the
overlapping pairs come lag by lag from one shrinking index set, which stops
at the first empty lag: time O(n + overlapping pairs), memory O(n), and as
many lag steps as the deepest overlap. A packet's interference is the direct
sum of its partners' powers, added lag by lag and, at each lag, the later
partner before the earlier one; a lone packet's is exactly 0.0. IIC adds one
such sum per SF present, in SF order; each starts at -0.0, whose sign bit a
partner clears (even at 0.0 mW) to flag presence, as x + -0.0 == x. An exact
SINR tie goes to the later packet. A lone packet is its own winner; IC picks
the rest among those that clear delta_ii (no other can win), IIC among all.
A replication is bit-reproducible from its seed. No model draws from the
stream, so the models of a case resolve one calendar per seed
(`sweep_models`); replications use independently derived seeds and aggregate
by averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Sequence

import numpy as np

from .airtime import lora_airtime, per_node_rate
from .coverage import noise_power_dbm, noise_power_mw
from .scenario import (
    COLLISION_MODELS,
    NUM_SF,
    SF_RANGE,
    ConfigurationError,
    RadioConfig,
    Scenario,
    ThresholdSet,
    sample_placement,
    validate,
)

_HATA_MIN_KM = 1.0          # model floor; nearer links close regardless


def hata_rural_loss(distance_m, radio: RadioConfig):
    """Okumura-Hata open-area path loss in dB (scalar or array).

    L_urban = 69.55 + 26.16 log f - 13.82 log hB - a(hm)
              + (44.9 - 6.55 log hB) log d_km
    a(hm)   = (1.1 log f - 0.7) hm - (1.56 log f - 0.8)
    L_open  = L_urban - 4.78 (log f)^2 + 18.33 log f - 40.94

    with f in MHz. Distances below 1 km are clamped to the model floor.
    """
    f_mhz = radio.carrier_hz / 1e6
    if not 150.0 <= f_mhz <= 1500.0:
        raise ConfigurationError(
            f"hata_rural_loss: carrier {f_mhz:.1f} MHz outside the 150..1500 MHz domain"
        )
    d_km = np.maximum(np.asarray(distance_m, dtype=float) / 1000.0, _HATA_MIN_KM)
    lf = math.log10(f_mhz)
    lhb = math.log10(radio.gateway_height_m)
    a_hm = (1.1 * lf - 0.7) * radio.device_height_m - (1.56 * lf - 0.8)
    l_urban = (69.55 + 26.16 * lf - 13.82 * lhb - a_hm
               + (44.9 - 6.55 * lhb) * np.log10(d_km))
    l_open = l_urban - 4.78 * lf ** 2 + 18.33 * lf - 40.94
    if np.ndim(distance_m) == 0:
        return float(l_open)
    return l_open


def sensitivity_dbm(radio: RadioConfig, thresholds: ThresholdSet) -> np.ndarray:
    """Per-SF reception floor: noise power plus the SNR demodulation floor."""
    return noise_power_dbm(radio) + np.asarray(thresholds.snr_floor_db)


@dataclass(frozen=True)
class PacketEvent:
    """One uplink transmission as seen by the gateway. `resolve_reception`
    does not read `node`: each packet is its own node-table entry."""

    node: int
    sf: int
    start_s: float
    duration_s: float
    rx_power_dbm: float
    channel: int = 0


@dataclass(frozen=True, eq=False)         # the columns are arrays
class Calendar:
    """One replication's packets: packet k starts at starts[k] on channel
    channel[k] (a label in 0..C-1, or None for one channel) and is sent by
    node owner[k] (intp), whose airtime, SF index and receive power (dBm)
    the node tables give; plus the arrivals dropped busy and over duty.
    Packets come in start order, ties in their stable order: the resolver
    sorts none."""

    starts: np.ndarray
    owner: np.ndarray
    channel: np.ndarray | None
    node_toa: np.ndarray
    node_sf: np.ndarray
    node_dbm: np.ndarray
    dropped_busy: int = 0
    dropped_duty: int = 0


# ---------------------------------------------------------------------------
# Reception resolution

def _overlap_lags(starts, ends, first, stop=None):
    """Yield (k, i) lag by lag from k = 1: the packets i that overlap packet
    i + k < stop[i], the end of i's partition (n if None): start[i+k] <
    end[i]. `first` is the lag-1 mask. Each set is filtered from the one
    before; the first empty lag ends the loop (see the module docstring)."""
    n = starts.size
    i = np.flatnonzero(first)
    k = 1
    while i.size:
        yield k, i
        k += 1
        i = i[:np.searchsorted(i, n - k)] if stop is None else i[i + k < stop[i]]
        i = i[np.flatnonzero(starts[i + k] < ends[i])]


def _interference(starts, ends, pw, first, stop=None):
    """Summed power of each packet's overlapping partners, packets sorted by
    start, added in the module docstring's order; lag 1 over whole arrays."""
    inter = np.zeros(starts.size)
    np.multiply(pw[1:], first, out=inter[:-1])
    inter[1:] += pw[:-1] * first
    lags = _overlap_lags(starts, ends, first, stop)
    next(lags, None)                   # lag 1 is added above
    for k, i in lags:
        inter[i] += pw[i + k]
        inter[i + k] += pw[i]
    return inter


def _interference_by_row(starts, ends, pw, first, row, stop=None):
    """The same sums in the same order, split by the partner's row: [r, p]
    sums p's partners q with row[q] == r. Each starts at -0.0, and a partner,
    even at 0.0 mW, clears the sign bit, so it flags presence (x + -0.0 == x)."""
    n = starts.size
    at = row * n
    inter = np.full((row.max() + 1) * n, -0.0)
    for k, i in _overlap_lags(starts, ends, first, stop):
        j = i + k
        np.add.at(inter, at[j] + i, pw[j])      # i's entry for the later j, then j's for i
        np.add.at(inter, at[i] + j, pw[i])
    return inter.reshape(-1, n)


def _episode_heads(starts, ends, label=None):
    """True where a packet opens a new overlap episode; packets sorted by
    start within each run of equal `label` (one run if None), which opens
    one. Complex maxima order by label first, so the reach restarts too."""
    heads = np.empty(starts.size, dtype=bool)
    heads[0] = True
    if label is None:
        reach = ends if (ends[1:] >= ends[:-1]).all() else np.maximum.accumulate(ends)
        heads[1:] = starts[1:] >= reach[:-1]
    else:
        new = label[1:] != label[:-1]
        reach = (ends if (new | (ends[1:] >= ends[:-1])).all()
                 else np.maximum.accumulate(label + 1j * ends).imag)
        heads[1:] = new | (starts[1:] >= reach[:-1])
    return heads


def _winners_per_group(group_ids, score):
    """Index of the max-score element of each run of equal, non-decreasing
    group ids; among equal maxima the last index wins."""
    opens = np.empty(len(group_ids), dtype=bool)
    opens[0] = True
    opens[1:] = group_ids[1:] != group_ids[:-1]
    run = np.cumsum(opens)
    best = np.full(run[-1] + 1, -np.inf)
    np.maximum.at(best, run, score)
    at_best = np.flatnonzero(score == best[run])
    ids = run[at_best]
    return at_best[np.append(ids[1:] != ids[:-1], True)]


def _resolve(calendar: Calendar, model, thresholds, radio):
    """Received flag per packet of `calendar` under `model`. A packet competes
    only with its partition: its channel, and under IC its (channel, SF) pair.
    Several partitions are stably sorted by label into one pass in (label,
    start) order, whose flags are scattered back at the end; one partition
    keeps the calendar's order. A lone packet wins iff it clears sensitivity;
    under IC and IIC the others compete per episode (the module docstring)."""
    if model not in COLLISION_MODELS:
        raise ConfigurationError(f"unknown collision model {model!r}")
    starts, owner, label, node_sf = (
        calendar.starts, calendar.owner, calendar.channel, calendar.node_sf)
    n = starts.size
    if not n:
        return np.zeros(0, dtype=bool)
    # with one SF on every node, the IC (channel, SF) partitions are the channels
    if model == "IC" and np.ptp(node_sf):
        label = node_sf[owner] if label is None else label * NUM_SF + node_sf[owner]
    order = None
    if label is not None and label.min() < label.max():
        # small unsigned labels take numpy's radix sort: a tenth of int64's time
        order = np.argsort(label.astype(np.min_scalar_type(label.max())), kind="stable")
        starts, owner, label = starts[order], owner[order], label[order]
    else:
        label = None
    node_ok = calendar.node_dbm >= sensitivity_dbm(radio, thresholds)[node_sf]
    ends = starts + calendar.node_toa[owner]
    heads = _episode_heads(starts, ends, label)
    alone = heads & np.append(heads[1:], True)      # a singleton episode
    if model == "BP":
        received = node_ok[owner] & alone
    else:
        pw = (10.0 ** (calendar.node_dbm / 10.0))[owner]
        sir_lin, noise_mw = thresholds.sir_linear, noise_power_mw(radio)
        first = starts[1:] < ends[:-1]
        stop = None                    # the end of each packet's partition
        if label is not None:
            first &= label[1:] == label[:-1]
            stop = np.searchsorted(label, np.arange(label[-1] + 1), side="right")[label]
        if model == "IC":              # candidates only: see the module docstring
            sinr = pw / (_interference(starts, ends, pw, first, stop) + noise_mw)
            delta = np.diagonal(sir_lin)[
                node_sf[owner] if np.ptp(node_sf) else node_sf[owner[0]]]
            cand = np.flatnonzero(alone | (sinr >= delta))
            received = np.zeros(n, dtype=bool)
            # int32 episode ids: no calendar in memory nears 2^31
            group = np.cumsum(heads, dtype=np.int32)[cand]
        else:                          # IIC: one row per SF present, added in SF order
            sf_idx = node_sf[owner]
            present = np.flatnonzero(np.bincount(sf_idx, minlength=NUM_SF))
            row = np.searchsorted(present, np.arange(NUM_SF))[sf_idx]    # a six-entry table
            inter = _interference_by_row(starts, ends, pw, first, row, stop)
            sinr = pw / (noise_mw + sum(inter[1:], inter[0]))
            received = node_ok[owner] & alone    # a lone packet wins, with no threshold
            # the non-lone packets; groups run SF-major, then by start
            crowd = np.flatnonzero(~alone)
            cand = crowd[np.argsort(sf_idx[crowd].astype(np.uint8), kind="stable")]
            group = (sf_idx * n + np.cumsum(heads, dtype=np.int32))[cand]
        if cand.size:                  # one winner per group
            w = cand[_winners_per_group(group, sinr[cand])]
            clears = node_ok[owner[w]]
            if model == "IIC":         # the pairwise threshold per SF present, row by row
                sf_w, pw_w = sf_idx[w], pw[w]
                for r, j in enumerate(present):
                    i_r = inter[r].take(w)
                    clears &= np.signbit(i_r) | (
                        pw_w >= sir_lin[:, j].take(sf_w) * (noise_mw + i_r))
            received[w] = clears
    if order is not None:
        received[order] = received.copy()
    return received


def resolve_reception(packets: Sequence[PacketEvent], model: str,
                      thresholds: ThresholdSet, radio: RadioConfig) -> list[bool]:
    """Received/lost flag per packet under the given collision model."""
    starts = np.array([p.start_s for p in packets], dtype=float)
    durs = np.array([p.duration_s for p in packets], dtype=float)
    dbm = np.array([p.rx_power_dbm for p in packets], dtype=float)
    sfs = np.array([p.sf for p in packets])
    for name, v in (("start_s", starts), ("duration_s", durs), ("rx_power_dbm", dbm)):
        if not np.isfinite(v).all():
            raise ConfigurationError(f"packet {name} must be finite")
    if np.any(durs <= 0):
        raise ConfigurationError("packet duration_s must be positive")
    if not np.isin(sfs, SF_RANGE).all():
        raise ConfigurationError(f"packet sf must be in {SF_RANGE[0]}..{SF_RANGE[-1]}")
    # channels as labels 0..C-1; every packet is its own node-table entry
    chans = np.unique([p.channel for p in packets], return_inverse=True)[1]
    order = np.argsort(starts, kind="stable")
    cal = Calendar(starts[order], order, chans[order], durs, sfs.astype(int) - SF_RANGE[0], dbm)
    received = np.empty(order.size, dtype=bool)
    received[order] = _resolve(cal, model, thresholds, radio)
    return received.tolist()


# ---------------------------------------------------------------------------
# Traffic generation

def _arrivals(rng, node_count, rate, duration):
    """Start-ordered arrival times, their nodes as labels in their smallest
    dtype, and the node-major order of node_count Poisson(rate) processes over
    (0, duration), superposed. The order is one in-place sort of the keys
    node << b | position, b the bit length of the last position, masked back
    to the positions: these are unique, so it is the stable argsort."""
    times = rng.random(rng.poisson(rate * duration * node_count))
    times.sort()
    times *= duration
    nodes = rng.integers(0, node_count, size=times.size).astype(np.min_scalar_type(node_count))
    b = max(times.size - 1, 0).bit_length()
    key = nodes.astype(np.uint32 if node_count << b <= 2 ** 32 else np.uint64)
    key <<= b
    key |= np.arange(times.size, dtype=key.dtype)
    key.sort()
    return times, nodes, np.bitwise_and(key, (1 << b) - 1, out=np.empty(times.size, np.intp))


def _accept_sequential(times, toa, budget_packets):
    """Keep mask and duty-drop count for one node's sorted arrivals: one before
    `busy_until` is a busy drop, one is a duty drop if K = `budget_packets` is 0
    or its K-th latest kept start (-inf until K are kept) is > t - 3600.0."""
    keep = np.zeros(len(times), dtype=bool)
    dropped_duty = 0
    busy_until = -math.inf
    kept = [-math.inf] * budget_packets
    for i, t in enumerate(times.tolist()):
        if t < busy_until:
            continue
        if not budget_packets or kept[-budget_packets] > t - 3600.0:
            dropped_duty += 1
            continue
        keep[i] = True
        kept.append(t)
        busy_until = t + toa
    return keep, dropped_duty


def _accept(times, nodes, node_toa, duty_limit):
    """Keep mask over node-major sorted arrivals, plus busy and duty drops,
    equal to `_accept_sequential` per node. A node's budget is K packets per
    trailing hour: the largest whole K with K * toa <= duty_limit * 3600.0 +
    1e-12, K * toa one float64 product. A duty drop needs the K-th latest
    kept start later than t - 3600.0, so K earlier arrivals in that hour:
    t[i] > t[i+K] - 3600.0 for some i. The loop runs on each node with such
    an i, or with two consecutive close arrivals (t[i] < t[i-1] + toa). Any
    other node has no duty drop, and its close arrivals follow kept ones, so
    it keeps the rest."""
    bounds = np.searchsorted(nodes, np.arange(node_toa.size + 1, dtype=nodes.dtype))
    counts = np.diff(bounds)
    close = np.zeros(times.size, dtype=bool)
    close[1:] = ((nodes[1:] == nodes[:-1])
                 & (times[1:] < times[:-1] + np.repeat(node_toa, counts)[1:]))
    keep = ~close
    budget = duty_limit * 3600.0 + 1e-12
    lag = np.floor(budget / node_toa)               # the quotient may round across K
    lag += (lag + 1) * node_toa <= budget
    lag = (lag - (lag * node_toa > budget)).astype(np.intp)
    over = np.flatnonzero(counts > lag)             # a node with an arrival i + K
    span = counts[over] - lag[over]
    i = np.repeat(bounds[over] + span - np.cumsum(span), span) + np.arange(span.sum())
    full = times[i] > times[i + np.repeat(lag[over], span)] - 3600.0
    loop = np.zeros(node_toa.size, dtype=bool)
    loop[nodes[i[full]]] = True
    loop[nodes[1:][close[1:] & close[:-1]]] = True
    dropped_duty = 0
    for k in np.flatnonzero(loop):
        keep[bounds[k]:bounds[k + 1]], duty = _accept_sequential(
            times[bounds[k]:bounds[k + 1]], float(node_toa[k]), int(lag[k]))
        dropped_duty += duty
    dropped_busy = times.size - int(np.count_nonzero(keep)) - dropped_duty
    return keep, dropped_busy, dropped_duty


def draw_calendar(scenario: Scenario, offered_load: float, seed) -> Calendar:
    """One replication's `Calendar`, drawn from `np.random.default_rng(seed)`
    in this order: placement, the Poisson total, the arrival uniforms, their
    node labels and, with two channels or more, a channel label per kept
    packet. Owners are intp, which gathers faster than compact labels. The
    arrival arrays are freed on return, before reception. A duration that
    expects 2^31 arrivals or more is a `ConfigurationError`, and so is an
    invalid scenario, which `sample_placement` checks."""
    rng = np.random.default_rng(seed)
    placement = sample_placement(scenario, rng=rng)
    radio = scenario.radio
    node_dbm = (radio.tx_power_dbm + radio.gateway_gain_dbi + radio.device_gain_dbi
                - hata_rural_loss(placement.distances_m, radio))
    node_sf = placement.sfs - SF_RANGE[0]
    node_toa = np.array([lora_airtime(sf, scenario.payload_bytes, radio.bandwidth_hz,
                                      radio.coding_rate_index) for sf in SF_RANGE])[node_sf]
    rate = per_node_rate(offered_load, scenario.node_count, float(node_toa.mean()))
    expected = rate * scenario.sim_duration_s * scenario.node_count
    if expected >= 2 ** 31:            # the bound of `_resolve`'s int32 episode ids
        raise ConfigurationError(f"sim_duration_s: {scenario.sim_duration_s} s expects "
                                 f"{expected:.3g} arrivals, at least 2^31")
    times, nodes, by_node = _arrivals(rng, scenario.node_count, rate, scenario.sim_duration_s)
    keep = np.empty(times.size, dtype=bool)
    keep[by_node], dropped_busy, dropped_duty = _accept(
        times[by_node], nodes[by_node], node_toa, scenario.duty_cycle_limit)
    starts, owner = times[keep], nodes[keep].astype(np.intp)
    # one channel draws nothing from the stream, so it needs no label array
    chans = rng.integers(0, scenario.channels, size=starts.size) if scenario.channels > 1 else None
    return Calendar(starts, owner, chans, node_toa, node_sf, node_dbm, dropped_busy, dropped_duty)


@dataclass(frozen=True)
class ReplicationResult:
    """Tallies of one seeded replication."""

    offered_load: float
    measured_g: float             # transmitted airtime / duration
    tx_count: int
    rx_count: int
    dropped_busy: int
    dropped_duty: int
    pdr: float
    throughput: float             # measured_g * pdr
    rx_airtime_fraction: float
    per_sf_tx: tuple[int, ...]
    per_sf_rx: tuple[int, ...]
    max_node_airtime_fraction: float


def _replicate(scenario: Scenario, offered_load: float, seed,
               models: Sequence[str]) -> list[ReplicationResult]:
    """One seeded instance per model, in order: draw the calendar once, then
    resolve reception and tally under each model."""
    cal = draw_calendar(scenario, offered_load, seed)
    duration = scenario.sim_duration_s
    node_tx = np.bincount(cal.owner, minlength=scenario.node_count)
    node_airtime = node_tx * cal.node_toa
    tx = int(cal.starts.size)
    measured_g = float(node_airtime.sum() / duration)
    per_sf_tx = np.bincount(cal.node_sf, weights=node_tx, minlength=NUM_SF)
    results = []
    for model in models:
        received = _resolve(cal, model, scenario.thresholds, scenario.radio)
        rx = int(np.count_nonzero(received))
        pdr = rx / tx if tx else 0.0
        node_rx = np.bincount(cal.owner, weights=received, minlength=scenario.node_count)
        per_sf_rx = np.bincount(cal.node_sf, weights=node_rx, minlength=NUM_SF)
        results.append(ReplicationResult(
            offered_load=offered_load,
            measured_g=measured_g,
            tx_count=tx,
            rx_count=rx,
            dropped_busy=cal.dropped_busy,
            dropped_duty=cal.dropped_duty,
            pdr=pdr,
            throughput=measured_g * pdr,
            rx_airtime_fraction=float(node_rx @ cal.node_toa / duration),
            per_sf_tx=tuple(int(v) for v in per_sf_tx),
            per_sf_rx=tuple(int(v) for v in per_sf_rx),
            max_node_airtime_fraction=float(node_airtime.max() / duration),
        ))
    return results


def run_replication(scenario: Scenario, offered_load: float, seed) -> ReplicationResult:
    """One seeded instance: place nodes, generate traffic, resolve reception."""
    return _replicate(scenario, offered_load, seed, (scenario.collision_model,))[0]


@dataclass(frozen=True)
class SimOutcome:
    """Replication-averaged results at one offered load."""

    offered_load: float
    measured_g: float
    throughput: float
    throughput_ci95: float
    pdr: float
    pdr_ci95: float
    tx_count: float
    rx_count: float
    rx_airtime_fraction: float
    per_sf_tx: tuple[float, ...]
    per_sf_rx: tuple[float, ...]
    replications: int
    max_node_airtime_fraction: float


def _ci95(values: np.ndarray) -> float:
    """Half-width of the t-based 95% interval of the mean. One value leaves it
    undefined; 0.0 stands in, so `--replications 1` writes s_ci95 = pdr_ci95 = 0."""
    n = len(values)
    if n < 2:
        return 0.0
    from scipy import special

    half = special.stdtrit(n - 1, 0.975) * values.std(ddof=1) / math.sqrt(n)
    return float(half)


def _aggregate(offered_load: float, reps: list[ReplicationResult]) -> SimOutcome:
    thr = np.array([r.throughput for r in reps])
    pdr = np.array([r.pdr for r in reps])
    return SimOutcome(
        offered_load=offered_load,
        measured_g=float(np.mean([r.measured_g for r in reps])),
        throughput=float(thr.mean()),
        throughput_ci95=_ci95(thr),
        pdr=float(pdr.mean()),
        pdr_ci95=_ci95(pdr),
        tx_count=float(np.mean([r.tx_count for r in reps])),
        rx_count=float(np.mean([r.rx_count for r in reps])),
        rx_airtime_fraction=float(np.mean([r.rx_airtime_fraction for r in reps])),
        per_sf_tx=tuple(np.mean([r.per_sf_tx for r in reps], axis=0)),
        per_sf_rx=tuple(np.mean([r.per_sf_rx for r in reps], axis=0)),
        replications=len(reps),
        max_node_airtime_fraction=float(max(r.max_node_airtime_fraction for r in reps)),
    )


def sweep_models(scenario: Scenario, models: Sequence[str], *,
                 jobs: int = 1) -> dict[str, list[SimOutcome]]:
    """One SimOutcome per offered load of the scenario for each collision model
    in `models`. Each task is one replication, seeded from (rng_seed, load
    index, rep), whose one calendar every model resolves; each load averages
    its replications in order, so results do not depend on execution order or
    worker count, and a model's list is `sweep` of the scenario with it."""
    validate(scenario)
    if not 0 < len(models) == len(set(COLLISION_MODELS).intersection(models)):
        raise ConfigurationError(f"models must be distinct names from {COLLISION_MODELS}, "
                                 f"got {models}")
    g_list, reps = scenario.offered_loads, scenario.replications
    if jobs < 1:
        raise ConfigurationError(f"jobs must be at least 1, got {jobs}")
    task_loads = [g for g in g_list for _ in range(reps)]
    seeds = [np.random.SeedSequence([scenario.rng_seed, k, r])
             for k in range(len(g_list)) for r in range(reps)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_replicate, repeat(scenario), task_loads, seeds,
                                    repeat(models)))
    else:
        results = list(map(_replicate, repeat(scenario), task_loads, seeds, repeat(models)))
    return {model: [_aggregate(g, [r[m] for r in results[k * reps:(k + 1) * reps]])
                    for k, g in enumerate(g_list)] for m, model in enumerate(models)}


def sweep(scenario: Scenario, *, jobs: int = 1) -> list[SimOutcome]:
    """`sweep_models` under the scenario's own collision model alone."""
    model = scenario.collision_model
    return sweep_models(scenario, (model,), jobs=jobs)[model]


def multichannel_projection(outcome: SimOutcome, channels: int) -> SimOutcome:
    """Scale throughput and packet rates by an idealized channel count, a
    whole number of at least 1; per-channel load and PDR are unchanged."""
    if not (isinstance(channels, (int, np.integer)) and channels >= 1):
        raise ConfigurationError(f"channels must be a whole number at least 1, got {channels}")
    return replace(
        outcome,
        measured_g=outcome.measured_g * channels,
        throughput=outcome.throughput * channels,
        throughput_ci95=outcome.throughput_ci95 * channels,
        tx_count=outcome.tx_count * channels,
        rx_count=outcome.rx_count * channels,
        rx_airtime_fraction=outcome.rx_airtime_fraction * channels,
        per_sf_tx=tuple(v * channels for v in outcome.per_sf_tx),
        per_sf_rx=tuple(v * channels for v in outcome.per_sf_rx),
    )
