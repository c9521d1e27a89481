"""Command-line front end.

Verbs: coverage (closed-form sweep over distance), mc (Monte Carlo
estimates), simulate (throughput/PDR sweep), reproduce (the recipes of one or
more reference figures, read from `paper`; fig3 and fig4 share one sweep per
case), validate-config. Every run writes a CSV plus a
.manifest.json recording the digest of every resolved configuration it ran;
re-running with the same digests reproduces the CSV byte for byte.

Exit codes: 0 success, 2 configuration or usage error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, paper
from .airtime import pure_aloha_throughput
from .coverage import TypicalNode, coverage_sweep, typical_at
from .montecarlo import estimate_coverage
from .scenario import (
    COLLISION_MODELS,
    SF_RANGE,
    ConfigurationError,
    Scenario,
    default_scenario,
    load_scenario,
    validate,
)
from .simulator import multichannel_projection, sweep, sweep_models

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_FIGURES = ("fig2", "fig3", "fig4")


def _fmt(value) -> str:
    """Fixed 12-significant-digit formatting so golden files are stable."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_table(path: Path, header: list[str], rows: list[list], sep: str = ",") -> None:
    """CSV, or with sep=" " gnuplot-friendly columnar text under a '# ' header."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [("# " if sep == " " else "") + sep.join(header)]
    lines += [sep.join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _scenario_digest(scenario: Scenario) -> str:
    blob = repr(scenario).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _emit(out: Path, header: list[str], rows: list[list], command: str, scenario_path: str,
          scenarios: dict[str, Scenario], seed: int | None) -> None:
    """Write the CSV and its manifest, which records the digest of every
    scenario the rows came from, and report the row count."""
    _write_table(out, header, rows)
    manifest = {
        "command": command,
        "scenario_path": str(scenario_path),
        "output_path": str(out),
        "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "tool_version": __version__,
        "config_digests": {label: _scenario_digest(scn) for label, scn in scenarios.items()},
    }
    path = out.with_suffix(out.suffix + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"{command}: wrote {len(rows)} rows to {out}")


def _override(scenario: Scenario, **values) -> Scenario:
    """Replace every field whose value is not None (a flag that was not given),
    then validate the result."""
    return validate(replace(scenario, **{k: v for k, v in values.items() if v is not None}))


def _load(args, **values) -> tuple[Scenario, str]:
    """The --scenario file with --seed and the given overrides applied, and its path."""
    scenario = _override(load_scenario(args.scenario), rng_seed=args.seed, **values)
    return scenario, str(args.scenario)


def _grid(radius: float, step: float) -> np.ndarray:
    """The multiples of `step` in (0, radius]; a step outside (0, radius] is an error."""
    if not 0 < step <= radius:
        raise ConfigurationError(f"--grid-step must be finite and positive and at most the "
                                 f"cell radius {radius} m, got {step}")
    distances = np.arange(step, radius + step / 2, step)
    return distances[distances <= radius]


def _coverage_rows(scenario: Scenario, distances) -> tuple[list[str], list[list]]:
    header = ["distance_m", "sf", "h1", "q1", "c1"] + [f"p_sir_sf{sf}" for sf in SF_RANGE]
    s = coverage_sweep(scenario, distances)
    columns = (s.distance_m, s.sf, s.h1, s.q1, s.c1, *s.p_sir)
    return header, [list(row) for row in zip(*(column.tolist() for column in columns))]


def cmd_coverage(args) -> int:
    scenario, spath = _load(args)
    distances = _grid(scenario.topology.cell_radius_m, args.grid_step)
    counts = args.node_counts or [scenario.node_count]
    if min(counts) < 1:
        raise ConfigurationError(f"--node-counts: counts must be at least 1, got {min(counts)}")
    if len(set(counts)) < len(counts):
        raise ConfigurationError(f"--node-counts: each count may appear once, got {counts}")
    multi = len(counts) > 1
    for count in counts:
        scn = scenario.with_node_count(count)
        header, rows = _coverage_rows(scn, distances)
        if args.validate:
            header += ["mc_c1", "mc_se"]
            for row in rows:    # each row starts with its distance_m and sf
                _, _, c1 = estimate_coverage(TypicalNode(*row[:2]), scn, args.trials,
                                             scn.rng_seed)
                row += [c1.mean, c1.standard_error]
        out = Path(args.out)
        if multi:
            out = out.with_name(f"{out.stem}_N{count}{out.suffix}")
        _emit(out, header, rows, "coverage", spath, {Path(spath).stem: scn}, scn.rng_seed)
    return EXIT_OK


def cmd_mc(args) -> int:
    scenario, spath = _load(args)
    header = ["distance_m", "sf", "trials", "h1", "h1_se", "q1", "q1_se", "c1", "c1_se"]
    rows = []
    for d in args.distances:
        typical = typical_at(scenario.topology, float(d))
        h1, q1, c1 = estimate_coverage(typical, scenario, args.trials,
                                       scenario.rng_seed,
                                       shared_fading=args.shared_fading)
        rows.append([d, typical.sf, args.trials, h1.mean, h1.standard_error,
                     q1.mean, q1.standard_error, c1.mean, c1.standard_error])
    _emit(Path(args.out), header, rows, "mc", spath, {Path(spath).stem: scenario},
          scenario.rng_seed)
    return EXIT_OK


def _loads(text: str | None) -> tuple[float, ...] | None:
    """The --loads comma list as floats; None when the flag was not given.
    Their range is a scenario check, so `validate` applies it."""
    if text is None:
        return None
    if not text.strip():
        raise ConfigurationError("--loads: must not be empty")
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"--loads: {exc}") from None


def _sim_rows(outcomes) -> tuple[list[str], list[list]]:
    header = ["offered_g", "measured_g", "s_mean", "s_ci95", "pdr_mean", "pdr_ci95",
              "tx_count", "rx_count", "aloha_theory"]
    rows = [[o.offered_load, o.measured_g, o.throughput, o.throughput_ci95,
             o.pdr, o.pdr_ci95, o.tx_count, o.rx_count,
             pure_aloha_throughput(o.measured_g)] for o in outcomes]
    return header, rows


def cmd_simulate(args) -> int:
    scenario, spath = _load(args, collision_model=args.model, replications=args.replications,
                            offered_loads=_loads(args.loads))
    header, rows = _sim_rows(sweep(scenario, jobs=args.jobs))
    _emit(Path(args.out), header, rows, "simulate", spath, {Path(spath).stem: scenario},
          scenario.rng_seed)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    figures = dict.fromkeys(args.figure)        # a figure named twice is written once
    sims, results = {}, {}
    if figures.keys() & {"fig3", "fig4"}:
        # fig3 (throughput) and fig4 (PDR) share one sweep per case; the manifest pins each model
        for name, models in paper.SIM_CASES:
            base = _override(default_scenario(name), rng_seed=args.seed,
                             replications=args.replications)
            for model, outcomes in sweep_models(base, models, jobs=args.jobs).items():
                label = f"{name.removeprefix('sim_')}_{model.lower()}"
                sims[label], results[label] = replace(base, collision_model=model), outcomes
    outdir = Path(args.outdir)
    for figure in figures:
        if figure == "fig2":
            scenario = _override(default_scenario(paper.FIG2_SCENARIO), rng_seed=args.seed)
            distances = _grid(scenario.topology.cell_radius_m, paper.FIG2_GRID_STEP_M)
            header = ["distance_m", "sf"] + [f"c1_N{count}" for count in paper.FIG2_NODE_COUNTS]
            curves = [coverage_sweep(scenario.with_node_count(count), distances)
                      for count in paper.FIG2_NODE_COUNTS]
            rows = list(zip(curves[0].distance_m.tolist(), curves[0].sf.tolist(),
                            *(curve.c1.tolist() for curve in curves)))
            stem, spath, seed = "fig2_coverage", f"{paper.FIG2_SCENARIO}.ini", scenario.rng_seed
            scenarios = {paper.FIG2_SCENARIO: scenario}
        else:
            if figure == "fig3":
                channels = paper.PROJECTION_CHANNELS
                header = (["offered_g", "aloha_theory"] + [f"s_{label}" for label in results]
                          + [f"s_n1_ic_x{channels}"])
                rows = [[o.offered_load, pure_aloha_throughput(o.measured_g),
                         *[results[label][k].throughput for label in results],
                         multichannel_projection(results["n1_ic"][k], channels).throughput]
                        for k, o in enumerate(results["n1_bp"])]
                stem = "fig3_throughput"
            else:
                header = ["offered_g"] + [f"pdr_{label}" for label in results]
                rows = [[o.offered_load, *[results[label][k].pdr for label in results]]
                        for k, o in enumerate(results["n1_bp"])]
                stem = "fig4_pdr"
            # without --seed each case keeps its own packaged seed, so none is shared
            spath = "+".join(f"{name}.ini" for name, _ in paper.SIM_CASES)
            scenarios, seed = sims, args.seed
        _write_table(outdir / f"{stem}.dat", header, rows, sep=" ")
        _emit(outdir / f"{stem}.csv", header, rows, f"reproduce {figure}", spath, scenarios, seed)
    return EXIT_OK


def cmd_validate_config(args) -> int:
    scenario = load_scenario(args.scenario)
    digest = _scenario_digest(scenario)
    print(f"{args.scenario}: valid (digest {digest[:16]})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loracell",
        description="LoRaWAN cell coverage and throughput experiments",
    )
    parser.add_argument("--version", action="version", version=f"loracell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True,
                       help="scenario file (path, $LORACELL_CONFIG_DIR, or packaged name)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("coverage", help="closed-form coverage sweep over distance")
    common(p)
    p.add_argument("--grid-step", type=float, default=10.0, help="distance step in m")
    p.add_argument("--node-counts", type=lambda s: [int(v) for v in s.split(",")],
                   default=None, help="comma list; one output file per count")
    p.add_argument("--validate", action="store_true",
                   help="append Monte Carlo estimate and standard error columns")
    p.add_argument("--trials", type=int, default=200_000,
                   help="Monte Carlo trials per point for --validate")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("mc", help="Monte Carlo coverage estimates at given distances")
    common(p)
    p.add_argument("--distances", type=lambda s: [float(v) for v in s.split(",")],
                   required=True, help="comma list of distances in m")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--shared-fading", action="store_true",
                   help="reuse one fading draw across all threshold events")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("simulate", help="event-driven throughput/PDR sweep")
    common(p)
    p.add_argument("--model", choices=COLLISION_MODELS, default=None,
                   help="override the scenario collision model")
    p.add_argument("--loads", default=None, help="comma list of offered loads")
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reproduce", help="run bundled reference-figure recipes")
    p.add_argument("figure", nargs="+", choices=_FIGURES)
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("validate-config", help="check a scenario file and print its digest")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_validate_config)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
