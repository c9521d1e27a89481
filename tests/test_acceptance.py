"""Acceptance suite: every release criterion at its stated tolerance.

Each criterion prints one [ACCEPTANCE] line; run with `pytest -s` to see them
as they execute. The simulation sweeps (30 replications x 2 simulated hours)
are shared session-wide, so the whole suite stays within a desk-scale run.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from loracell import (
    coverage_probability,
    default_scenario,
    estimate_coverage,
    hyp2f1,
    hyp2f1_oracle,
    lora_airtime,
    multichannel_projection,
    paper,
    pure_aloha_throughput,
    resolve_reception,
    run_replication,
    sweep,
    sweep_models,
    typical_at,
)
from loracell.simulator import PacketEvent

REPS = 30
MC_TRIALS = 1_000_000
MC_DISTANCES = (400.0, 1100.0, 1500.0, 2100.0, 2900.0)
MC_NODE_COUNTS = (250, 500, 2500)
# (packaged scenario, collision models) of each simulated case
SIM_CASES = (("sim_n1", ("BP", "IC")), ("sim_n2", ("BP", "IC", "IIC")))

COV = default_scenario("coverage_eu868")
N1 = default_scenario("sim_n1")
N2 = default_scenario("sim_n2")


def report(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[ACCEPTANCE] criterion {num:>2}: {status} - {desc}{suffix}")
    assert ok, f"criterion {num} failed: {desc}{suffix}"


@pytest.fixture(scope="module")
def sim_sweeps():
    # the models of a case resolve one calendar per replication
    shared = {name.removeprefix("sim_"):
              sweep_models(replace(default_scenario(name), replications=REPS), models)
              for name, models in SIM_CASES}
    return {f"{case}_{model.lower()}": outcomes
            for case, sweeps in shared.items() for model, outcomes in sweeps.items()}


def test_criterion_1_pure_aloha_closed_form():
    s = pure_aloha_throughput(0.5)
    report(1, "pure-ALOHA S(0.5) = 0.18394 within 1e-4",
           abs(s - 0.18394) <= 1e-4, f"S(0.5)={s:.6f}")


def test_criterion_2_airtime_fixed_points():
    toa7 = lora_airtime(7) * 1000.0
    mean = float(np.mean([lora_airtime(sf) for sf in range(7, 13)])) * 1000.0
    ok = abs(toa7 - 46.3) <= 0.1 and abs(mean - 399.5) <= 5.0
    report(2, "ToA(SF7)=46.3 ms within 0.1 ms; mean SF7-12 = 399.5 ms within 5 ms",
           ok, f"ToA7={toa7:.3f} ms, mean={mean:.3f} ms")


def test_criterion_3_n1_bp_matches_aloha(sim_sweeps):
    worst = 0.0
    for out in sim_sweeps["n1_bp"]:
        theory = pure_aloha_throughput(out.measured_g)
        worst = max(worst, abs(out.throughput - theory) / theory)
    report(3, "N1/BP vs G e^(-2G) within 2% at every offered load",
           worst <= 0.02, f"worst rel dev {worst:.4%}")


def test_criterion_4_throughput_maxima(sim_sweeps):
    targets = {"n2_bp": 0.214, "n1_ic": 0.27, "n2_ic": 0.812, "n2_iic": 0.652}
    details = []
    ok = True
    for name, target in targets.items():
        best = max(sim_sweeps[name], key=lambda o: o.throughput)
        ok &= abs(best.throughput - target) <= 0.05
        details.append(f"{name}: {best.throughput:.3f} (target {target})")
        if name == "n1_ic":
            ok &= abs(best.offered_load - 0.8) <= 0.1
            details.append(f"n1_ic argmax G={best.offered_load:.1f}")
    report(4, "throughput maxima within 0.05 E (N1/IC peak near G=0.8)",
           ok, "; ".join(details))


def test_criterion_5_pdr_endpoints(sim_sweeps):
    targets = {
        "n1_bp": (0.82, 0.135),
        "n2_bp": (0.826, 0.192),
        "n1_ic": (0.879, 0.27),
        "n2_iic": (0.952, 0.652),
        "n2_ic": (0.978, 0.812),
    }
    ok = True
    details = []
    for name, (lo_g, hi_g) in targets.items():
        first, last = sim_sweeps[name][0], sim_sweeps[name][-1]
        ok &= abs(first.pdr - lo_g) <= 0.05 and abs(last.pdr - hi_g) <= 0.05
        details.append(f"{name}: {first.pdr:.3f}->{last.pdr:.3f} "
                       f"(target {lo_g}->{hi_g})")
    report(5, "PDR endpoints at G=0.1 and G=1.0 within 0.05", ok, "; ".join(details))


def test_criterion_6_analytic_vs_monte_carlo():
    hits = 0
    worst = 0.0
    seed = 611
    for count in MC_NODE_COUNTS:
        scn = COV.with_node_count(count)
        for d in MC_DISTANCES:
            typical = typical_at(scn.topology, d)
            analytic = coverage_probability(typical, scn).c1
            _, _, c1 = estimate_coverage(typical, scn, MC_TRIALS, seed)
            seed += 1
            dev = abs(analytic - c1.mean) / c1.standard_error
            worst = max(worst, dev)
            hits += dev <= 3.0
    report(6, "analytic C1 within 3 SE of 1e6-trial Monte Carlo at >= 14/15 points",
           hits >= 14, f"{hits}/15 within 3 SE, worst {worst:.2f} SE")


def test_criterion_7_coverage_shape():
    ok_counts = True
    grid = np.linspace(120.0, 2980.0, 10)
    prev = None
    for count in MC_NODE_COUNTS:
        scn = COV.with_node_count(count)
        c1 = np.array([coverage_probability(typical_at(scn.topology, float(d)), scn).c1
                       for d in grid])
        if prev is not None:
            ok_counts &= bool(np.all(c1 <= prev + 1e-12))
        prev = c1
    ok_within = True
    bounds = COV.topology.boundaries_m
    for j in range(6):
        ds = np.linspace(bounds[j] + 1.0, bounds[j + 1] - 1.0, 4)
        vals = [coverage_probability(typical_at(COV.topology, float(d)), COV).c1
                for d in ds]
        ok_within &= all(b < a for a, b in zip(vals, vals[1:]))
    ok_jump = True
    for boundary in bounds[1:-1]:
        before = coverage_probability(typical_at(COV.topology, boundary - 0.01), COV).c1
        after = coverage_probability(typical_at(COV.topology, boundary + 0.01), COV).c1
        ok_jump &= after > before
    report(7, "C1 non-increasing in node count, decreasing inside rings, "
              "upward jump at every ring boundary",
           ok_counts and ok_within and ok_jump,
           f"counts={ok_counts} within={ok_within} jumps={ok_jump}")


def test_criterion_8_hypergeometric_correctness():
    worst = 0.0
    for eta in (2.1, 2.75, 4.0):
        b = 2.0 / eta
        for ax in np.logspace(-6, 6, 200):
            got = hyp2f1(1.0, b, 1.0 + b, -float(ax))
            ref = hyp2f1_oracle(1.0, b, 1.0 + b, -float(ax))
            worst = max(worst, abs(got - ref) / abs(ref))
    worst_log = 0.0
    for x in np.logspace(-3, 3, 20):
        expected = math.log1p(x) / x
        got = hyp2f1(1.0, 1.0, 2.0, -float(x))
        worst_log = max(worst_log, abs(got - expected) / expected)
    ok = worst <= 1e-10 and worst_log <= 1e-12
    report(8, "2F1 within 1e-10 of quadrature oracle on 200-point grid; "
              "log identity at 20 points within 1e-12",
           ok, f"grid worst {worst:.2e}, identity worst {worst_log:.2e}")


def test_criterion_9_multichannel_projection(sim_sweeps):
    best = max(sim_sweeps["n1_ic"], key=lambda o: o.throughput)
    proj = multichannel_projection(best, 5)
    exact = (proj.throughput == 5.0 * best.throughput and proj.pdr == best.pdr)
    in_range = abs(proj.throughput - 1.35) <= 0.25
    report(9, "5-channel projection: S x5 exactly, PDR preserved, 1.35 E target",
           exact and in_range,
           f"S={best.throughput:.3f}->{proj.throughput:.3f}, PDR={proj.pdr:.3f}")


def test_criterion_10_property_suites(sim_sweeps):
    # determinism: identical scenario and seed give bit-identical outcomes
    det = replace(N1, offered_loads=(0.3,), replications=2, rng_seed=1001)
    det_a, det_b = sweep(det), sweep(det)
    ok_det = det_a == det_b

    # conservation: every transmitted packet is either received or lost, and
    # the measured load is exactly the transmitted airtime
    rep = run_replication(N2, 0.7, seed=55)
    toas = [lora_airtime(sf) for sf in range(7, 13)]
    airtime = sum(n * t for n, t in zip(rep.per_sf_tx, toas))
    ok_cons = (
        rep.tx_count == sum(rep.per_sf_tx)
        and rep.rx_count == sum(rep.per_sf_rx)
        and rep.rx_count <= rep.tx_count
        and rep.measured_g == pytest.approx(airtime / N2.sim_duration_s, rel=1e-12)
    )

    # capture uniqueness: no two overlapping same-SF packets are both
    # received under IC/IIC (random batch plus the chained construction)
    rng = np.random.default_rng(8)
    packets = [
        PacketEvent(node=i, sf=int(rng.integers(7, 13)),
                    start_s=float(rng.uniform(0, 30)),
                    duration_s=float(rng.uniform(0.5, 2.0)),
                    rx_power_dbm=float(rng.uniform(-125, -70)))
        for i in range(300)
    ]
    ok_uni = True
    for model in ("IC", "IIC"):
        got = resolve_reception(packets, model, N2.thresholds, N2.radio)
        received = [p for p, r in zip(packets, got) if r]
        for i, p in enumerate(received):
            for q in received[i + 1:]:
                if p.sf == q.sf and p.start_s < q.start_s + q.duration_s \
                        and q.start_s < p.start_s + p.duration_s:
                    ok_uni = False

    # model ordering: S_BP <= S_IIC <= S_IC at every load within CI overlap
    ok_order = True
    for bp, iic, ic in zip(sim_sweeps["n2_bp"], sim_sweeps["n2_iic"],
                           sim_sweeps["n2_ic"]):
        ok_order &= bp.throughput <= iic.throughput + bp.throughput_ci95 \
            + iic.throughput_ci95
        ok_order &= iic.throughput <= ic.throughput + iic.throughput_ci95 \
            + ic.throughput_ci95

    # duty cycle ceiling: no node ever exceeds 1% airtime
    worst_duty = max(out.max_node_airtime_fraction
                     for outs in sim_sweeps.values() for out in outs)
    ok_duty = worst_duty <= 0.0101

    ok = ok_det and ok_cons and ok_uni and ok_order and ok_duty
    report(10, "determinism, conservation, capture uniqueness, model ordering, "
               "duty-cycle ceiling",
           ok, f"det={ok_det} cons={ok_cons} uniq={ok_uni} order={ok_order} "
               f"duty={ok_duty} (worst node airtime {worst_duty:.4%})")


def test_paper_recipe_table_is_the_acceptance_recipe():
    # `reproduce` and the demos read the library's table; an edit to it fails
    # here until these literals are edited too, in the open
    assert default_scenario(paper.FIG2_SCENARIO) == COV
    assert paper.FIG2_NODE_COUNTS == MC_NODE_COUNTS
    assert paper.SIM_CASES == SIM_CASES
    assert paper.PROJECTION_CHANNELS == 5            # criterion 9's channel count


def test_bp_receives_no_more_per_sf_than_ic_or_iic(sim_sweeps):
    # a packet BP receives is alone in its episode, so IC and IIC receive it
    # too; on calendars shared by construction the means keep that order exactly
    for case, models in (("n1", ("ic",)), ("n2", ("ic", "iic"))):
        for model in models:
            for bp, other in zip(sim_sweeps[f"{case}_bp"], sim_sweeps[f"{case}_{model}"]):
                assert bp.offered_load == other.offered_load
                assert all(b <= o for b, o in zip(bp.per_sf_rx, other.per_sf_rx)), \
                    (case, model, bp.offered_load)
