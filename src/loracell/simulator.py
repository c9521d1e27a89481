"""Event-driven simulation of a single-gateway LoRaWAN cell.

Class-A pure-ALOHA uplink on a shared channel: each node draws Poisson
arrivals and transmits immediately unless its radio is busy or the EU duty
cycle budget (airtime within the trailing hour) would be exceeded; such
arrivals are dropped, so the reported offered load is measured from the
airtime actually transmitted. Propagation is the Okumura-Hata open-area
(rural) median model, reception is threshold-based: a packet is detectable
iff its receive power clears the per-SF sensitivity (noise floor + SNR
demodulation floor).

Collision handling at the gateway. An overlap episode is a connected group
of time-overlapping packets on a channel; packets that never overlap each
other belong to one episode when a chain of overlapping packets links them.

  BP   pessimistic baseline: any overlap destroys every packet involved.
  IC   intra-SF only: different SFs are transparent to each other, so
       episodes are formed within each SF. In each episode only the packet
       with the highest SINR (same-SF aggregate interference plus noise)
       can be received, iff it clears the intra-SF capture threshold; all
       others are lost.
  IIC  one episode spans every SF on the channel. Per SF, only the episode's
       highest-SINR packet of that SF can be received; its SINR accounts for
       all overlapping packets and it must additionally clear the pairwise
       threshold delta_ij against each interfering SF j present. Two
       same-SF packets that never overlap can therefore compete for one
       slot through a chain of other-SF packets.

Outcomes depend only on each packet's overlaps and its episode, so
reception is resolved after the fact over the sorted event calendar, which
permits a fully vectorized implementation. A replication is bit-reproducible
from its seed; replications use independently derived seeds and aggregate
by averaging.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import stats

from .airtime import lora_airtime, per_node_rate
from .coverage import noise_power_dbm, noise_power_mw
from .scenario import (
    NUM_SF,
    SF_RANGE,
    ConfigurationError,
    RadioConfig,
    Scenario,
    ThresholdSet,
    sample_placement,
)

COLLISION_MODELS = ("BP", "IC", "IIC")

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
    """One uplink transmission as seen by the gateway."""

    node: int
    sf: int
    start_s: float
    duration_s: float
    rx_power_dbm: float
    channel: int = 0


# ---------------------------------------------------------------------------
# Reception resolution

def _overlap_aggregate(sub_starts, sub_ends, sub_pw, q_starts, q_ends):
    """Sum of powers and count of packets in `sub` overlapping each query
    interval. `sub_starts` must be sorted ascending."""
    order_e = np.argsort(sub_ends, kind="stable")
    ends_sorted = sub_ends[order_e]
    pref_s = np.concatenate(([0.0], np.cumsum(sub_pw)))
    pref_e = np.concatenate(([0.0], np.cumsum(sub_pw[order_e])))
    hi = np.searchsorted(sub_starts, q_ends, side="left")    # start_j < q_end
    lo = np.searchsorted(ends_sorted, q_starts, side="right")  # end_j <= q_start
    return pref_s[hi] - pref_e[lo], hi - lo


def _component_ids(starts, ends):
    """Connected overlap components of interval packets sorted by start."""
    n = len(starts)
    breaks = np.empty(n, dtype=bool)
    breaks[0] = True
    if n > 1:
        reach = np.maximum.accumulate(ends)
        breaks[1:] = starts[1:] >= reach[:-1]
    return np.cumsum(breaks) - 1


def _winners_per_group(group_ids, score):
    """Index of the max-score element of each contiguous group-id run."""
    order = np.lexsort((score, group_ids))
    grouped = group_ids[order]
    last = np.flatnonzero(np.diff(grouped)) if len(grouped) > 1 else np.array([], dtype=int)
    last = np.concatenate((last, [len(grouped) - 1]))
    return order[last]


def _resolve_channel(starts, ends, sf_idx, pw_mw, sens_ok, model,
                     sir_lin, noise_mw):
    """Reception flags for one channel; inputs sorted by start time."""
    n = len(starts)
    received = np.zeros(n, dtype=bool)
    if n == 0:
        return received

    if model == "BP":
        _, cnt = _overlap_aggregate(starts, ends, pw_mw, starts, ends)
        return sens_ok & (cnt == 1)        # only the packet itself overlaps

    if model == "IC":
        for s in range(NUM_SF):
            idx = np.flatnonzero(sf_idx == s)
            if idx.size == 0:
                continue
            st, en, pw = starts[idx], ends[idx], pw_mw[idx]
            tot, cnt = _overlap_aggregate(st, en, pw, st, en)
            inter = tot - pw
            cnt = cnt - 1
            inter[cnt == 0] = 0.0          # clear cancellation residue
            sinr = pw / (noise_mw + inter)
            comp = _component_ids(st, en)
            winners = _winners_per_group(comp, sinr)
            ok = sens_ok[idx][winners] & (
                (cnt[winners] == 0) | (sinr[winners] >= sir_lin[s, s])
            )
            received[idx[winners]] = ok
        return received

    if model == "IIC":
        comp_all = _component_ids(starts, ends)
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
                tot, cnt = _overlap_aggregate(
                    starts[sub], ends[sub], pw_mw[sub], q_st, q_en)
                if j == s:
                    tot = tot - pw_mw[cand]
                    cnt = cnt - 1
                tot[cnt == 0] = 0.0
                inter_j[j] = tot
                cnt_j[j] = cnt
            sinr_total = pw_mw[cand] / (noise_mw + inter_j.sum(axis=0))
            winners = _winners_per_group(comp_all[cand], sinr_total)
            ok = sens_ok[cand][winners]
            for j in range(NUM_SF):
                has = cnt_j[j][winners] > 0
                clears = pw_mw[cand][winners] >= sir_lin[s, j] * (
                    noise_mw + inter_j[j][winners])
                ok &= ~has | clears
            received[cand[winners]] = ok
        return received

    raise ConfigurationError(f"unknown collision model {model!r}")


def resolve_reception(packets: Sequence[PacketEvent], model: str,
                      thresholds: ThresholdSet, radio: RadioConfig) -> list[bool]:
    """Received/lost flag per packet under the given collision model."""
    if model not in COLLISION_MODELS:
        raise ConfigurationError(f"unknown collision model {model!r}")
    if not packets:
        return []
    starts = np.array([p.start_s for p in packets])
    durs = np.array([p.duration_s for p in packets])
    if np.any(durs <= 0):
        raise ConfigurationError("packet durations must be positive")
    sf_idx = np.array([p.sf - SF_RANGE[0] for p in packets])
    rx_dbm = np.array([p.rx_power_dbm for p in packets])
    chans = np.array([p.channel for p in packets])
    sens_ok = rx_dbm >= sensitivity_dbm(radio, thresholds)[sf_idx]
    pw = 10.0 ** (rx_dbm / 10.0)
    noise = noise_power_mw(radio)
    sir = thresholds.sir_linear

    received = np.zeros(len(packets), dtype=bool)
    for ch in np.unique(chans):
        mask = np.flatnonzero(chans == ch)
        order = mask[np.argsort(starts[mask], kind="stable")]
        flags = _resolve_channel(starts[order], starts[order] + durs[order],
                                 sf_idx[order], pw[order], sens_ok[order],
                                 model, sir, noise)
        received[order] = flags
    return received.tolist()


# ---------------------------------------------------------------------------
# Traffic generation

def _node_transmissions(rng, rate, duration, toa, duty_limit):
    """Accepted transmission start times for one node, plus drop counts.

    Arrivals during an ongoing transmission are dropped (half-duplex radio);
    arrivals whose airtime would push the trailing-hour airtime over
    duty_limit * 3600 s are dropped (duty cycle lockout).
    """
    n_arr = rng.poisson(rate * duration)
    if n_arr == 0:
        return np.empty(0), 0, 0
    times = np.sort(rng.random(n_arr)) * duration
    budget = duty_limit * 3600.0
    # fast path: no arrival lands inside a previous airtime and no trailing
    # hour can exceed the budget even if everything is kept
    busy_possible = n_arr > 1 and bool(np.any(np.diff(times) < toa))
    win_start = np.searchsorted(times, times - 3600.0, side="right")
    max_in_hour = (np.arange(n_arr) - win_start + 1).max()
    if not busy_possible and max_in_hour * toa <= budget:
        return times, 0, 0

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


def run_replication(scenario: Scenario, offered_load: float, seed) -> ReplicationResult:
    """One seeded instance: place nodes, generate traffic, resolve reception."""
    rng = np.random.default_rng(seed)
    placement = sample_placement(scenario, rng=rng)
    radio = scenario.radio
    duration = scenario.sim_duration_s

    loss = hata_rural_loss(placement.distances_m, radio)
    rx_dbm = (radio.tx_power_dbm + radio.gateway_gain_dbi + radio.device_gain_dbi
              - loss)
    toa_by_sf = {sf: lora_airtime(sf, scenario.payload_bytes,
                                  radio.bandwidth_hz, radio.coding_rate_index)
                 for sf in scenario.sf_set}
    node_toa = np.array([toa_by_sf[sf] for sf in placement.sfs])
    rate = per_node_rate(offered_load, scenario.node_count, float(node_toa.mean()))

    starts_parts, node_parts = [], []
    dropped_busy = dropped_duty = 0
    node_airtime = np.zeros(scenario.node_count)
    for k in range(scenario.node_count):
        t_k, busy, duty = _node_transmissions(
            rng, rate, duration, node_toa[k], scenario.duty_cycle_limit)
        dropped_busy += busy
        dropped_duty += duty
        node_airtime[k] = t_k.size * node_toa[k]
        starts_parts.append(t_k)
        node_parts.append(np.full(t_k.size, k))
    starts = np.concatenate(starts_parts)
    nodes = np.concatenate(node_parts).astype(int)
    if scenario.channels > 1:
        chans = rng.integers(0, scenario.channels, size=starts.size)
    else:
        chans = np.zeros(starts.size, dtype=int)

    sf_idx = placement.sfs[nodes] - SF_RANGE[0]
    durs = node_toa[nodes]
    pw_dbm = rx_dbm[nodes]
    sens_ok = pw_dbm >= sensitivity_dbm(radio, scenario.thresholds)[sf_idx]
    pw = 10.0 ** (pw_dbm / 10.0)
    noise = noise_power_mw(radio)
    sir = scenario.thresholds.sir_linear

    received = np.zeros(starts.size, dtype=bool)
    for ch in range(scenario.channels):
        mask = np.flatnonzero(chans == ch)
        if mask.size == 0:
            continue
        order = mask[np.argsort(starts[mask], kind="stable")]
        received[order] = _resolve_channel(
            starts[order], starts[order] + durs[order], sf_idx[order],
            pw[order], sens_ok[order], scenario.collision_model, sir, noise)

    tx = int(starts.size)
    rx = int(received.sum())
    measured_g = float(durs.sum() / duration)
    pdr = rx / tx if tx else 0.0
    per_sf_tx = np.bincount(sf_idx, minlength=NUM_SF)
    per_sf_rx = np.bincount(sf_idx[received], minlength=NUM_SF)
    return ReplicationResult(
        offered_load=offered_load,
        measured_g=measured_g,
        tx_count=tx,
        rx_count=rx,
        dropped_busy=dropped_busy,
        dropped_duty=dropped_duty,
        pdr=pdr,
        throughput=measured_g * pdr,
        rx_airtime_fraction=float(durs[received].sum() / duration),
        per_sf_tx=tuple(int(v) for v in per_sf_tx),
        per_sf_rx=tuple(int(v) for v in per_sf_rx),
        max_node_airtime_fraction=float(node_airtime.max() / duration),
    )


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
    n = len(values)
    if n < 2:
        return 0.0
    half = stats.t.ppf(0.975, n - 1) * values.std(ddof=1) / math.sqrt(n)
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


def _replication_seed(master_seed: int, stream_key: int, rep: int):
    return np.random.SeedSequence([master_seed, stream_key, rep])


def run(scenario: Scenario, offered_load: float, replications: int | None = None,
        master_seed: int | None = None, stream_key: int = 0) -> SimOutcome:
    """Run `replications` independent instances at one offered load."""
    if scenario.sim_duration_s <= 0:
        raise ConfigurationError("sim_duration_s must be positive")
    if scenario.collision_model not in COLLISION_MODELS:
        raise ConfigurationError(f"unknown collision model {scenario.collision_model!r}")
    n_reps = scenario.replications if replications is None else replications
    seed0 = scenario.rng_seed if master_seed is None else master_seed
    reps = [
        run_replication(scenario, offered_load, _replication_seed(seed0, stream_key, r))
        for r in range(n_reps)
    ]
    return _aggregate(offered_load, reps)


def _sweep_task(args):
    scenario, g, reps, seed, key = args
    return run(scenario, g, replications=reps, master_seed=seed, stream_key=key)


def sweep(scenario: Scenario, loads: Sequence[float] | None = None,
          replications: int | None = None, master_seed: int | None = None,
          jobs: int = 1) -> list[SimOutcome]:
    """One SimOutcome per offered load; seeds derive from (load index, rep),
    so results do not depend on execution order or worker count."""
    g_list = tuple(loads) if loads is not None else scenario.offered_loads
    if not g_list:
        raise ConfigurationError("sweep requires at least one offered load")
    reps = scenario.replications if replications is None else replications
    seed0 = scenario.rng_seed if master_seed is None else master_seed
    tasks = [(scenario, g, reps, seed0, k) for k, g in enumerate(g_list)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_sweep_task, tasks))
    return [_sweep_task(t) for t in tasks]


def multichannel_projection(outcome: SimOutcome, channels: int) -> SimOutcome:
    """Scale throughput and packet rates by an idealized channel count;
    per-channel load and PDR are unchanged."""
    if channels < 1:
        raise ConfigurationError("channels must be at least 1")
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
