"""Throughput and packet delivery ratio versus transmitted traffic.

Runs the paper's two simulation cases (N1: 300 nodes all on SF7; N2: 50
nodes per SF) under their collision models, as `loracell.paper` lists them,
and compares against the pure-ALOHA closed form. A light replication count
keeps this demo quick; the acceptance suite runs the full 30-replication
version. Writes throughput_sweep.csv and, if matplotlib is available, a
two-panel PNG.
"""

from dataclasses import replace

import numpy as np

from loracell import default_scenario, paper, pure_aloha_throughput, sweep_models

REPLICATIONS = 8


def main():
    results = {}
    for name, models in paper.SIM_CASES:
        scenario = replace(default_scenario(name), replications=REPLICATIONS)
        shared = sweep_models(scenario, models)
        for model, outcomes in shared.items():
            label = f"{name.removeprefix('sim_').upper()}/{model}"
            results[label] = outcomes
            best = max(outcomes, key=lambda o: o.throughput)
            print(f"{label:7s} max S = {best.throughput:.3f} E at G = "
                  f"{best.offered_load:.1f}, PDR there {best.pdr:.3f}")

    loads = np.array([o.offered_load for o in results["N1/BP"]])
    theory = np.array([pure_aloha_throughput(float(g)) for g in loads])
    cols = [loads, theory]
    header = ["offered_g", "aloha"]
    for label in results:
        cols.append(np.array([o.throughput for o in results[label]]))
        header.append("s_" + label.replace("/", "_").lower())
    for label in results:
        cols.append(np.array([o.pdr for o in results[label]]))
        header.append("pdr_" + label.replace("/", "_").lower())
    np.savetxt("throughput_sweep.csv", np.column_stack(cols), delimiter=",",
               header=",".join(header), comments="", fmt="%.6g")
    print("wrote throughput_sweep.csv")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed, skipping the plot")
        return
    fig, (ax_s, ax_p) = plt.subplots(1, 2, figsize=(10, 4))
    ax_s.plot(loads, theory, "k--", label="G e$^{-2G}$")
    for label in results:
        ax_s.plot(loads, [o.throughput for o in results[label]], marker="o",
                  ms=3, label=label)
        ax_p.plot(loads, [o.pdr for o in results[label]], marker="o", ms=3,
                  label=label)
    ax_s.set_xlabel("transmitted traffic G [E]")
    ax_s.set_ylabel("throughput S [E]")
    ax_p.set_xlabel("transmitted traffic G [E]")
    ax_p.set_ylabel("packet delivery ratio")
    ax_p.set_ylim(0, 1)
    ax_s.legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("throughput_sweep.png", dpi=150)
    print("wrote throughput_sweep.png")


if __name__ == "__main__":
    main()
