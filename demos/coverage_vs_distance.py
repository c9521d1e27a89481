"""Coverage probability across the cell for several interferer densities.

Sweeps the typical node from the gateway to the 3 km cell edge on the
paper's fig2 grid and node counts (`loracell.paper`). Within each
equal-area SF ring the coverage decays with path loss; at each ring boundary
the SF (and with it the SNR floor and capture thresholds) changes, producing
the characteristic upward sawtooth jumps. More nodes mean more interference
everywhere. Writes coverage_vs_distance.csv and, if matplotlib is
available, coverage_vs_distance.png.
"""

import numpy as np

from loracell import coverage_sweep, default_scenario, paper


def main():
    base = default_scenario(paper.FIG2_SCENARIO)
    step = paper.FIG2_GRID_STEP_M
    distances = np.arange(step, base.topology.cell_radius_m + step / 2, step)
    at_500 = np.searchsorted(distances, 500.0)
    curves = {}
    for count in paper.FIG2_NODE_COUNTS:
        scn = base.with_node_count(count)
        curves[count] = coverage_sweep(scn, distances).c1
        edge = curves[count][-1]
        print(f"N = {count:5d}: C1 at 500 m = {curves[count][at_500]:.3f}, "
              f"at cell edge = {edge:.3f}")

    header = "distance_m," + ",".join(f"c1_N{c}" for c in paper.FIG2_NODE_COUNTS)
    table = np.column_stack([distances] + [curves[c] for c in paper.FIG2_NODE_COUNTS])
    np.savetxt("coverage_vs_distance.csv", table, delimiter=",",
               header=header, comments="", fmt="%.6g")
    print("wrote coverage_vs_distance.csv")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed, skipping the plot")
        return
    fig, ax = plt.subplots(figsize=(7, 4.2))
    for count in paper.FIG2_NODE_COUNTS:
        ax.plot(distances, curves[count], label=f"N = {count}")
    for boundary in base.topology.boundaries_m[1:-1]:
        ax.axvline(boundary, color="0.85", lw=0.8, zorder=0)
    ax.set_xlabel("distance to gateway [m]")
    ax.set_ylabel("coverage probability C1")
    ax.set_ylim(0, 1)
    ax.legend()
    fig.tight_layout()
    fig.savefig("coverage_vs_distance.png", dpi=150)
    print("wrote coverage_vs_distance.png")


if __name__ == "__main__":
    main()
