"""Per-layer probes: timed calls into each loracell module's public functions.

These run in the traced run only, after the workload passes, and are the
same in every workload so that each traced run reports every layer. Inputs
derive from the run's seed; timings are medians over a few calls.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import tempfile
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

import loracell
import loracell.cli

from .tracing import LAYERS

SIM_CASES = (("n1_bp", "sim_n1", "BP"), ("n1_ic", "sim_n1", "IC"),
             ("n2_bp", "sim_n2", "BP"), ("n2_ic", "sim_n2", "IC"),
             ("n2_iic", "sim_n2", "IIC"))
SIM_LOADS = (0.1, 1.0)
MC_COUNTS = (250, 500, 2500)
MC_DISTANCE = 1500.0
MC_TRIALS = 250_000         # one estimator chunk; scaled to 1e6 trials
HYP_RANGES = ("x_small", "x_mid", "x_large")   # the evaluator's three branches
COUNT_KEYS = ("tx_per_rep", "dropped_busy", "dropped_duty", "kept_ratio", "pdr")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("scenario.load_ms", "ms", "lower"),
     ("scenario.placement_ms", "ms", "lower"),
     ("airtime.lora_airtime_us", "us", "lower")]
    + [(f"hypergeom.hyp2f1_us.{r}", "us", "lower") for r in HYP_RANGES]
    + [(f"hypergeom.arg_count.{r}", "count", "lower") for r in HYP_RANGES]
    + [("coverage.point_us", "us", "lower"),
       ("coverage.sweep_us_per_point", "us", "lower")]
    + [(f"montecarlo.s_per_1e6.N{n}", "s", "lower") for n in MC_COUNTS]
    + [("montecarlo.sir_ring_s_per_1e6.N2500", "s", "lower")]
    + [(f"montecarlo.interferers_per_trial.N{n}", "count", "lower") for n in MC_COUNTS]
    + [(f"simulator.replication_ms.{c}.g{g}", "ms", "lower")
       for c, _, _ in SIM_CASES for g in SIM_LOADS]
    + [(f"simulator.reception_ms.{c}", "ms", "lower") for c, _, _ in SIM_CASES]
    + [(f"simulator.{k}.{c}", "count" if k in ("tx_per_rep", "dropped_busy", "dropped_duty")
        else "ratio", "lower" if k.startswith("dropped") else "higher")
       for k in COUNT_KEYS for c, _, _ in SIM_CASES]
    + [("cli.reproduce_fig2_s", "s", "lower")]
    + [(f"self_ms.{layer}", "ms", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower"),
       ("trace.spans_per_pass", "count", "lower")]
)


def _median_call_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _hyp_range(x: float) -> str:
    """The `hyp2f1` branch an argument x <= 0 takes."""
    if x > -0.9:
        return "x_small"
    return "x_mid" if x >= -8.0 else "x_large"


def _scenario_probes(seed: int) -> dict[str, float]:
    names = ("coverage_eu868", "sim_n1", "sim_n2")
    load_s = statistics.median(
        _median_call_s(lambda name=name: loracell.default_scenario(name), 5)
        for name in names)
    n2 = loracell.default_scenario("sim_n2")
    placement_s = _median_call_s(lambda: loracell.sample_placement(n2, seed=seed), 20)

    def airtime_loop():
        for _ in range(200):
            for sf in loracell.scenario.SF_RANGE:
                loracell.lora_airtime(sf)

    airtime_s = _median_call_s(airtime_loop, 5) / (200 * len(loracell.scenario.SF_RANGE))
    return {"scenario.load_ms": load_s * 1e3, "scenario.placement_ms": placement_s * 1e3,
            "airtime.lora_airtime_us": airtime_s * 1e6}


def _coverage_probes(seed: int, heatmap) -> dict[str, float]:
    out = {}
    distances = heatmap.distances(seed, 0)
    by_range = {name: [] for name in HYP_RANGES}
    for eta in heatmap.etas:
        for b, x in heatmap.hyp2f1_arguments(distances, eta):
            by_range[_hyp_range(x)].append((b, x))
    for name, args in by_range.items():
        rows = len(heatmap.node_counts)
        out[f"hypergeom.arg_count.{name}"] = float(len(args) * rows)
        sample = args[::max(1, len(args) // 400)]

        def calls(sample=sample):
            for b, x in sample:
                loracell.hyp2f1(1.0, b, 1.0 + b, x)

        out[f"hypergeom.hyp2f1_us.{name}"] = (
            _median_call_s(calls, 3) / max(1, len(sample)) * 1e6 if sample else 0.0)

    cov = loracell.default_scenario("coverage_eu868")

    def points():
        for d in distances:
            loracell.coverage_probability(loracell.typical_at(cov.topology, float(d)), cov)

    out["coverage.point_us"] = _median_call_s(points, 3) / len(distances) * 1e6
    fig2_grid = np.arange(10.0, cov.topology.cell_radius_m + 5.0, 10.0)
    out["coverage.sweep_us_per_point"] = (
        _median_call_s(lambda: loracell.coverage_sweep(cov, fig2_grid), 3)
        / len(fig2_grid) * 1e6)
    return out


def _montecarlo_probes(seed: int) -> dict[str, float]:
    out = {}
    cov = loracell.default_scenario("coverage_eu868")
    scale = 1e6 / MC_TRIALS
    for n in MC_COUNTS:
        scn = cov.with_node_count(n)
        typical = loracell.typical_at(scn.topology, MC_DISTANCE)
        out[f"montecarlo.s_per_1e6.N{n}"] = _median_call_s(
            lambda: loracell.estimate_coverage(typical, scn, MC_TRIALS, seed), 1) * scale
        out[f"montecarlo.interferers_per_trial.N{n}"] = float(
            np.sum(scn.topology.intensities * scn.topology.ring_areas_m2))
        if n == 2500:
            out["montecarlo.sir_ring_s_per_1e6.N2500"] = _median_call_s(
                lambda: loracell.estimate_sir_ring(typical, typical.sf, scn, MC_TRIALS,
                                                   seed), 1) * scale
    return out


def _calendar(scn, seed_key) -> list:
    """PacketEvents of a Poisson G=1 cell, built from public functions."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_key))
    radio = scn.radio
    placement = loracell.sample_placement(scn, rng=rng)
    rx_dbm = (radio.tx_power_dbm + radio.gateway_gain_dbi + radio.device_gain_dbi
              - loracell.hata_rural_loss(placement.distances_m, radio))
    toa = np.array([loracell.lora_airtime(int(sf), scn.payload_bytes, radio.bandwidth_hz,
                                          radio.coding_rate_index)
                    for sf in placement.sfs])
    rate = loracell.per_node_rate(1.0, scn.node_count, float(toa.mean()))
    counts = rng.poisson(rate * scn.sim_duration_s, size=scn.node_count)
    nodes = np.repeat(np.arange(scn.node_count), counts)
    starts = rng.random(nodes.size) * scn.sim_duration_s
    return [loracell.PacketEvent(node=int(k), sf=int(placement.sfs[k]), start_s=float(t),
                                 duration_s=float(toa[k]), rx_power_dbm=float(rx_dbm[k]))
            for k, t in zip(nodes, starts)]


def _simulator_probes(seed: int) -> dict[str, float]:
    out = {}
    presets = {name: loracell.default_scenario(name) for name in ("sim_n1", "sim_n2")}
    calendars = {name: _calendar(scn, [seed, 98, k])
                 for k, (name, scn) in enumerate(presets.items())}
    for case_idx, (case, preset, model) in enumerate(SIM_CASES):
        scn = replace(presets[preset], collision_model=model)
        for g_idx, g in enumerate(SIM_LOADS):
            times, reps = [], []
            for rep in range(3):
                ss = np.random.SeedSequence([seed, 99, case_idx, g_idx, rep])
                t0 = perf_counter()
                reps.append(loracell.run_replication(scn, g, ss))
                times.append(perf_counter() - t0)
            out[f"simulator.replication_ms.{case}.g{g}"] = statistics.median(times) * 1e3
            if g == 1.0:
                r = reps[0]
                attempts = r.tx_count + r.dropped_busy + r.dropped_duty
                out[f"simulator.tx_per_rep.{case}"] = float(r.tx_count)
                out[f"simulator.dropped_busy.{case}"] = float(r.dropped_busy)
                out[f"simulator.dropped_duty.{case}"] = float(r.dropped_duty)
                out[f"simulator.kept_ratio.{case}"] = r.tx_count / attempts
                out[f"simulator.pdr.{case}"] = r.rx_count / r.tx_count
        events = calendars[preset]
        out[f"simulator.reception_ms.{case}"] = _median_call_s(
            lambda: loracell.resolve_reception(events, model, scn.thresholds, scn.radio),
            3) * 1e3
    return out


def _cli_probe(work_dir: Path) -> dict[str, float]:
    work_dir.mkdir(parents=True, exist_ok=True)

    def reproduce():
        with tempfile.TemporaryDirectory(dir=work_dir) as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            code = loracell.cli.main(["reproduce", "fig2", "--outdir", tmp])
        if code != 0:
            raise RuntimeError(f"loracell reproduce fig2 exited with {code}")

    return {"cli.reproduce_fig2_s": _median_call_s(reproduce, 3)}


def measure(seed: int, heatmap, work_dir: Path) -> dict[str, float]:
    """Every probe metric of PER_LAYER (all but self_ms.* and trace.*)."""
    out = {}
    out.update(_scenario_probes(seed))
    out.update(_coverage_probes(seed, heatmap))
    out.update(_montecarlo_probes(seed))
    out.update(_simulator_probes(seed))
    out.update(_cli_probe(work_dir))
    return out
