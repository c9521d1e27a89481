"""Cross-validation of the closed-form coverage model by Monte Carlo.

The Monte Carlo estimator samples the interference from the generative
model (Poisson interferers per ring, uniform positions, Rayleigh fading) and
averages the typical node's own fading out in closed form, exp(-x / S), and
each interferer's too, 1 / (1 + w P) per interferer (the PGFL form). It
shares none of the 2F1 machinery, so agreement within a few standard errors
at every distance and density is a two-sided correctness check. Averaging
the fading, and taking each trial's exponent sum log1p(w P) as a control
variate whose mean and variance are known without the PGFL, make those
standard errors smaller, and the check stricter, than drawing the fading
and averaging plainly would.

Also shows what happens when the typical node's fading is shared across all
threshold events instead of independent per event (interferer fading is then
drawn, at the same interferer positions): the events become positively
correlated and the estimate exceeds the product form H1 * Q1.
"""

from loracell import coverage_sweep, default_scenario, estimate_coverage, typical_at

TRIALS = 200_000
DISTANCES = (400.0, 1100.0, 1500.0, 2100.0, 2900.0)


def main():
    base = default_scenario("coverage_eu868")
    print(f"{TRIALS} trials per point\n")
    print(f"{'N':>5} {'d [m]':>6} {'C1 analytic':>12} {'C1 MC':>9} "
          f"{'dev [SE]':>9} {'C1 MC shared-fading':>20}")
    for count in (500, 2500):
        scn = base.with_node_count(count)
        analytic_c1 = coverage_sweep(scn, DISTANCES).c1
        for k, (d, analytic) in enumerate(zip(DISTANCES, analytic_c1.tolist())):
            typical = typical_at(scn.topology, d)
            _, _, c1 = estimate_coverage(typical, scn, TRIALS, seed=300 + k)
            _, _, c1s = estimate_coverage(typical, scn, TRIALS, seed=300 + k,
                                          shared_fading=True)
            dev = (c1.mean - analytic) / c1.standard_error
            print(f"{count:>5} {d:>6.0f} {analytic:>12.5f} {c1.mean:>9.5f} "
                  f"{dev:>+9.2f} {c1s.mean:>20.5f}")
    print("\nshared-fading sits above the independent-draw estimate: one "
          "strong fading draw satisfies the SNR and all SIR events at once")


if __name__ == "__main__":
    main()
