"""The four benchmark workloads.

Each workload is a list of items per pass; one item is one library call,
made closed-loop from a single caller (the next item starts when the previous
one returns, no pool). Every input, and every seed handed to the library, is
derived from the workload seed and the pass index, so one seed always gives
the same inputs. The checks run outside the timed phase:

* `check_item` verifies one item's output and returns a list of failures;
* `check_passes` verifies properties of whole sweeps or grids and returns
  (name, ok, detail) triples. Statistical checks use the first `min_passes`
  passes only, so their inputs, and verdict, are fixed by the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

import loracell
import loracell.cli  # noqa: F401  (imported so the tracer can wrap it)

LOADS = tuple(round(0.1 * k, 1) for k in range(1, 11))

# Acceptance-suite targets (criteria 3-5 and 10), at their tolerances. The
# N1/IC peak location of criterion 4 is not checked: S is flat within about
# 0.003 over G = 0.8..1.0, so at 3 replications the argmax moves with the seed.
ALOHA_REL_TOL = 0.02
TARGET_TOL = 0.05
S_MAX_TARGETS = {"n2_bp": 0.214, "n1_ic": 0.27, "n2_ic": 0.812, "n2_iic": 0.652}
PDR_ENDPOINT_TARGETS = {
    "n1_bp": (0.82, 0.135),
    "n2_bp": (0.826, 0.192),
    "n1_ic": (0.879, 0.27),
    "n2_iic": (0.952, 0.652),
    "n2_ic": (0.978, 0.812),
}
MAX_NODE_AIRTIME = 0.0101
# Standard error at which s_to_se_1e-3 is taken; SE scales as 1/sqrt(work).
TARGET_SE = 1e-3
MEASURED_G_REL_TOL = 1e-12


@dataclass(frozen=True)
class Item:
    key: tuple        # grid point; the same in every pass
    args: tuple       # inputs of the library call


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, *key])


def _ci95(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(stats.t.ppf(0.975, len(values) - 1) * values.std(ddof=1)
                 / math.sqrt(len(values)))


class Fig3:
    """One `run_replication` per item: every collision model at every load.

    The work unit is a simulated (transmitted) packet. The point estimate
    is the replication's throughput S; its standard error is the binomial
    one over transmitted packets, measured_g * sqrt(pdr (1 - pdr) / tx).
    """

    work_unit = "packets"
    min_passes = 3

    def __init__(self, name: str, key: int, preset: str, case: str,
                 models: tuple[str, ...], nominal_pass_s: float) -> None:
        self.name = name
        self.key = key
        self.case = case
        self.scenario_names = (preset,)
        self.nominal_pass_s = nominal_pass_s
        base = loracell.default_scenario(preset)
        self.scenarios = {m: replace(base, collision_model=m) for m in models}
        radio = base.radio
        self.toa = {sf: loracell.lora_airtime(sf, base.payload_bytes, radio.bandwidth_hz,
                                              radio.coding_rate_index)
                    for sf in loracell.scenario.SF_RANGE}
        self.duration = base.sim_duration_s

    def items(self, seed: int, pass_idx: int) -> list[Item]:
        return [Item((m, g), (m, g, (seed, self.key, pass_idx, k)))
                for k, (m, g) in enumerate((m, g) for m in self.scenarios for g in LOADS)]

    def warmup_items(self, seed: int) -> list[Item]:
        return [Item((m, LOADS[0]), (m, LOADS[0], (seed, self.key, 1 << 30, k)))
                for k, m in enumerate(self.scenarios)]

    def run_item(self, item: Item):
        model, load, seed_key = item.args
        return loracell.run_replication(self.scenarios[model], load,
                                        _seed_sequence(*seed_key))

    @staticmethod
    def work(result) -> float:
        return result.tx_count

    @staticmethod
    def time_to_se(seconds: float, result) -> float:
        se = result.measured_g * math.sqrt(result.pdr * (1.0 - result.pdr)
                                           / max(result.tx_count, 1))
        return seconds * (se / TARGET_SE) ** 2

    def check_item(self, item: Item, r) -> list[str]:
        fails = []
        if r.tx_count != sum(r.per_sf_tx):
            fails.append(f"tx {r.tx_count} != sum of per-SF tx {sum(r.per_sf_tx)}")
        if r.rx_count != sum(r.per_sf_rx):
            fails.append(f"rx {r.rx_count} != sum of per-SF rx {sum(r.per_sf_rx)}")
        if r.rx_count > r.tx_count:
            fails.append(f"rx {r.rx_count} > tx {r.tx_count}")
        airtime = sum(n * self.toa[sf] for sf, n in zip(loracell.scenario.SF_RANGE,
                                                        r.per_sf_tx))
        expected_g = airtime / self.duration
        if abs(r.measured_g - expected_g) > MEASURED_G_REL_TOL * max(expected_g, 1.0):
            fails.append(f"measured_g {r.measured_g!r} != airtime/duration {expected_g!r}")
        if r.max_node_airtime_fraction > MAX_NODE_AIRTIME:
            fails.append(f"node airtime {r.max_node_airtime_fraction:.5%} > 1.01%")
        return fails

    def _sweeps(self, passes) -> dict[str, list[dict]]:
        """Replication means per model and load, like `loracell.sweep`."""
        out = {}
        for model in self.scenarios:
            rows = []
            for g in LOADS:
                reps = [res for items, results in passes
                        for it, res in zip(items, results) if it.key == (model, g)]
                s = np.array([r.throughput for r in reps])
                pdr = np.array([r.pdr for r in reps])
                rows.append({"g": g, "measured_g": float(np.mean([r.measured_g for r in reps])),
                             "s": float(s.mean()), "s_ci": _ci95(s),
                             "pdr": float(pdr.mean())})
            out[f"{self.case}_{model.lower()}"] = rows
        return out

    def check_passes(self, passes) -> list[tuple[str, bool, str]]:
        sweeps = self._sweeps(passes[:self.min_passes])
        checks = []
        if "n1_bp" in sweeps:
            worst = max(abs(row["s"] - loracell.pure_aloha_throughput(row["measured_g"]))
                        / loracell.pure_aloha_throughput(row["measured_g"])
                        for row in sweeps["n1_bp"])
            checks.append(("n1_bp within 2% of G e^-2G", worst <= ALOHA_REL_TOL,
                           f"worst {worst:.4%}"))
        for case, target in S_MAX_TARGETS.items():
            if case not in sweeps:
                continue
            best = max(sweeps[case], key=lambda row: row["s"])
            ok = abs(best["s"] - target) <= TARGET_TOL
            checks.append((f"{case} S maximum", ok,
                           f"S max {best['s']:.4f} at G={best['g']} (target {target})"))
        for case, (lo, hi) in PDR_ENDPOINT_TARGETS.items():
            if case not in sweeps:
                continue
            first, last = sweeps[case][0]["pdr"], sweeps[case][-1]["pdr"]
            ok = abs(first - lo) <= TARGET_TOL and abs(last - hi) <= TARGET_TOL
            checks.append((f"{case} PDR endpoints", ok,
                           f"{first:.4f} -> {last:.4f} (target {lo} -> {hi})"))
        order = [f"{self.case}_{m}" for m in ("bp", "iic", "ic")
                 if f"{self.case}_{m}" in sweeps]
        ok = True
        for lower, upper in zip(order, order[1:]):
            for a, b in zip(sweeps[lower], sweeps[upper]):
                ok &= a["s"] <= b["s"] + a["s_ci"] + b["s_ci"]
        checks.append((f"model ordering {' <= '.join(order)}", ok,
                       "within CI overlap at every load"))
        return checks


class CoverageHeatmap:
    """One `coverage_sweep` row per item, for every (node count, eta) pair.

    The distance row is a 300-point grid over (0, R] with a seed-drawn offset
    shared by all rows of a pass. The work unit is a coverage point; the
    closed form has no sampling error, so one evaluation reaches any SE.
    """

    work_unit = "points"
    min_passes = 1
    node_counts = (250, 500, 1000, 2500, 5000)
    etas = (2.5, 2.75, 3.0, 3.5, 4.0)
    points_per_row = 300
    oracle_stride = 150         # every 150th point of a row is recomputed
    oracle_abs_tol = 1e-10

    def __init__(self, key: int, nominal_pass_s: float) -> None:
        self.name = "coverage_heatmap"
        self.key = key
        self.scenario_names = ("coverage_eu868",)
        self.nominal_pass_s = nominal_pass_s
        base = loracell.default_scenario("coverage_eu868")
        self.radius = base.topology.cell_radius_m
        self.rows = {
            (eta, n): loracell.validate(replace(
                base.with_node_count(n),
                radio=replace(base.radio, path_loss_exponent=eta)))
            for eta in self.etas for n in self.node_counts
        }

    def distances(self, seed: int, pass_idx: int) -> np.ndarray:
        u = np.random.default_rng(_seed_sequence(seed, self.key, pass_idx)).random()
        k = np.arange(self.points_per_row, dtype=float)
        return (k + 1.0 - u) * (self.radius / self.points_per_row)

    def items(self, seed: int, pass_idx: int) -> list[Item]:
        d = self.distances(seed, pass_idx)
        return [Item(row, (row, d, pass_idx)) for row in self.rows]

    def warmup_items(self, seed: int) -> list[Item]:
        return self.items(seed, 1 << 30)[:1]

    def run_item(self, item: Item):
        row, distances, _ = item.args
        return loracell.coverage_sweep(self.rows[row], distances)

    @staticmethod
    def work(result) -> float:
        return len(result)

    @staticmethod
    def time_to_se(seconds: float, result) -> float:
        return seconds / len(result)

    @staticmethod
    def _capture_terms(scn, distance: float) -> list[tuple[float, list]]:
        """Per interfering ring, as `capture_probability_ring` forms it from
        public attributes: the intensity, and (sign, edge, 2F1 argument) of
        each nonzero ring edge."""
        topo, thr, eta = scn.topology, scn.thresholds, scn.radio.path_loss_exponent
        sf = topo.sf_at(distance)
        terms = []
        for j, ring_sf in enumerate(loracell.scenario.SF_RANGE):
            scale = distance ** eta * thr.sir(sf, ring_sf)
            edges = [(sign, edge, -(edge ** eta) / scale)
                     for sign, edge in ((1.0, topo.boundaries_m[j + 1]),
                                        (-1.0, topo.boundaries_m[j]))
                     if edge != 0.0]
            terms.append((float(topo.intensities[j]), edges))
        return terms

    def hyp2f1_arguments(self, distances: np.ndarray, eta: float) -> list[tuple[float, float]]:
        """(b, x) of every 2F1 call `coverage_sweep` makes on one row."""
        scn = self.rows[(eta, self.node_counts[0])]
        return [(2.0 / eta, x) for d in distances
                for alpha, edges in self._capture_terms(scn, float(d)) if alpha != 0.0
                for _, _, x in edges]

    def _oracle_p_sir(self, scn, distance: float) -> list[float]:
        b = 2.0 / scn.radio.path_loss_exponent
        return [1.0 if alpha == 0.0 else math.exp(-math.pi * alpha * sum(
                    sign * edge * edge * loracell.hyp2f1_oracle(1.0, b, 1.0 + b, x)
                    for sign, edge, x in edges))
                for alpha, edges in self._capture_terms(scn, distance)]

    def check_item(self, item: Item, rows) -> list[str]:
        row, distances, pass_idx = item.args
        fails = []
        if len(rows) != len(distances):
            return [f"{len(rows)} points returned for {len(distances)} distances"]
        for d, cb in zip(distances, rows):
            values = (cb.h1, cb.q1, cb.c1, *cb.p_sir)
            if not all(0.0 <= v <= 1.0 for v in values):
                fails.append(f"d={d:.3f}: value outside [0, 1]")
            if not math.isclose(cb.c1, cb.h1 * cb.q1, rel_tol=1e-12, abs_tol=1e-300):
                fails.append(f"d={d:.3f}: C1 {cb.c1!r} != H1*Q1 {cb.h1 * cb.q1!r}")
            if not math.isclose(cb.q1, math.prod(cb.p_sir), rel_tol=1e-12, abs_tol=1e-300):
                fails.append(f"d={d:.3f}: Q1 != product of per-ring terms")
        offset = (pass_idx * 7 + list(self.rows).index(row) * 31) % self.oracle_stride
        for k in range(offset, len(distances), self.oracle_stride):
            want = self._oracle_p_sir(self.rows[row], float(distances[k]))
            worst = max(abs(a - b) for a, b in zip(rows[k].p_sir, want))
            if worst > self.oracle_abs_tol:
                fails.append(f"d={distances[k]:.3f}: capture term off the 2F1 oracle "
                             f"by {worst:.2e}")
        return fails

    def check_passes(self, passes) -> list[tuple[str, bool, str]]:
        checks = []
        for eta in self.etas:
            ok = True
            for items, results in passes:
                by_row = {it.key: res for it, res in zip(items, results)}
                prev = None
                for n in self.node_counts:
                    c1 = np.array([cb.c1 for cb in by_row[(eta, n)]])
                    if prev is not None:
                        ok &= bool(np.all(c1 <= prev + 1e-12))
                    prev = c1
            checks.append((f"eta={eta}: C1 non-increasing in N", ok,
                           f"N = {self.node_counts}, {len(passes)} passes"))
        return checks


class MCCrossval:
    """One `estimate_coverage` per item on the acceptance criterion-6 grid.

    The work unit is a Monte Carlo trial; the point estimate is C1 with the
    estimator's own standard error.
    """

    work_unit = "trials"
    min_passes = 3
    node_counts = (250, 500, 2500)
    distances = (400.0, 1100.0, 1500.0, 2100.0, 2900.0)
    trials = 200_000
    max_se = 3.0
    min_hits = 14

    def __init__(self, key: int, nominal_pass_s: float) -> None:
        self.name = "mc_crossval"
        self.key = key
        self.scenario_names = ("coverage_eu868",)
        self.nominal_pass_s = nominal_pass_s
        base = loracell.default_scenario("coverage_eu868")
        self.points = {}
        for n in self.node_counts:
            scn = base.with_node_count(n)
            for d in self.distances:
                self.points[(n, d)] = (scn, loracell.typical_at(scn.topology, d))

    def items(self, seed: int, pass_idx: int) -> list[Item]:
        out = []
        for k, point in enumerate(self.points):
            lib_seed = int(_seed_sequence(seed, self.key, pass_idx, k).generate_state(1)[0])
            out.append(Item(point, (point, self.trials, lib_seed)))
        return out

    def warmup_items(self, seed: int) -> list[Item]:
        point = next(iter(self.points))
        return [Item(point, (point, 10_000, seed))]

    def run_item(self, item: Item):
        point, trials, lib_seed = item.args
        scn, typical = self.points[point]
        return loracell.estimate_coverage(typical, scn, trials, lib_seed)

    @staticmethod
    def work(result) -> float:
        return result[2].trials

    @staticmethod
    def time_to_se(seconds: float, result) -> float:
        return seconds * (result[2].standard_error / TARGET_SE) ** 2

    def check_item(self, item: Item, result) -> list[str]:
        h1, q1, c1 = result
        fails = []
        for label, est in (("H1", h1), ("Q1", q1), ("C1", c1)):
            if est.trials != item.args[1]:
                fails.append(f"{label}: {est.trials} trials, asked {item.args[1]}")
            if not 0.0 <= est.mean <= 1.0:
                fails.append(f"{label}: mean {est.mean} outside [0, 1]")
            if not (math.isfinite(est.standard_error) and est.standard_error >= 0.0):
                fails.append(f"{label}: standard error {est.standard_error}")
        if c1.mean > min(h1.mean, q1.mean):
            fails.append(f"C1 {c1.mean} exceeds min(H1, Q1)")
        return fails

    def check_passes(self, passes) -> list[tuple[str, bool, str]]:
        pooled = {}
        for items, results in passes[:self.min_passes]:
            for it, (_, _, c1) in zip(items, results):
                pooled.setdefault(it.key, []).append(c1)
        hits = 0
        worst = 0.0
        for point, ests in pooled.items():
            n = sum(e.trials for e in ests)
            mean = sum(e.mean * e.trials for e in ests) / n
            se = math.sqrt(sum((e.standard_error * e.trials) ** 2 for e in ests)) / n
            scn, typical = self.points[point]
            analytic = loracell.coverage_probability(typical, scn).c1
            dev = abs(analytic - mean) / se if se > 0 else (0.0 if analytic == mean
                                                            else math.inf)
            worst = max(worst, dev)
            hits += dev <= self.max_se
        trials = sum(e.trials for e in next(iter(pooled.values())))
        return [(f"closed-form C1 within {self.max_se:g} SE of MC at >= {self.min_hits}/"
                 f"{len(pooled)} points", hits >= self.min_hits,
                 f"{hits}/{len(pooled)} within, worst {worst:.2f} SE, {trials} trials/point")]


def build(name: str):
    """The workload of that name, with its nominal pass time on the reference
    machine (2 cores, see README.md); the pass count of a run is
    `--seconds` divided by it."""
    if name == "fig3_n1":
        return Fig3(name, 1, "sim_n1", "n1", ("BP", "IC"), nominal_pass_s=1.85)
    if name == "fig3_n2":
        return Fig3(name, 2, "sim_n2", "n2", ("BP", "IC", "IIC"), nominal_pass_s=0.55)
    if name == "coverage_heatmap":
        return CoverageHeatmap(3, nominal_pass_s=0.64)
    if name == "mc_crossval":
        return MCCrossval(4, nominal_pass_s=2.35)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fig3_n1", "fig3_n2", "coverage_heatmap", "mc_crossval")
