"""Run one loracell benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig3_n1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the repository root; the library is imported from `src/` next to
this directory. With `--trace 0` the last stdout line is a JSON object with
every end-to-end metric of BENCHMARK.json; with `--trace 1` it carries every
per-layer metric instead. Lines before it give each metric with its unit and
sample count, the output checks and the environment. A copy of the result,
and the spans of a traced run, go to `.bench_out/` under the root. The exit
status is 0 only if every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 20200306
SETUP_LAUNCHES = 5
SETUP_KERNEL_RUNS = 9       # reference kernel runs before each launch
TAIL_BEYOND = 10            # items beyond the reported tail percentile
CHILD_TIMEOUT_S = 170

# One fresh interpreter: import the library and load the packaged scenarios.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import loracell
for name in sys.argv[2:]:
    loracell.default_scenario(name)
print(time.perf_counter() - t0)
"""

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_ms_p50", "ms"),
    ("item_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("s_to_se_1e-3", "s"),
)


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def benchmark_metric_names() -> tuple[list[str], list[str]]:
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail_setup(f"cannot read {path.name}: {exc}")
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


# ---------------------------------------------------------------------------
# Environment and statistics

def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit, "seed": seed,
            "default_seed": DEFAULT_SEED, "src_py_lines": src_lines}


def tail(values: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least TAIL_BEYOND items beyond it
    (nearest rank), and that percentile."""
    ordered = sorted(values)
    pct = math.floor(100 * (len(ordered) - TAIL_BEYOND) / len(ordered))
    return ordered[math.ceil(pct * len(ordered) / 100) - 1], pct


def setup_seconds(scenario_names) -> tuple[list[float], list[float]]:
    """Set-up time of each launch, and the host speed factor just before it."""
    from perfbench import reference

    times, factors = [], []
    for _ in range(SETUP_LAUNCHES):
        samples = [reference.kernel_seconds() for _ in range(SETUP_KERNEL_RUNS)]
        factors.append(statistics.median(samples) / reference.NOMINAL_S)
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *scenario_names],
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=ROOT, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times, factors


# ---------------------------------------------------------------------------
# One workload

def run_pass(workload, items, tracer=None, pass_idx=0, kernel_times=None):
    """Run items closed-loop; returns (results, per-item seconds). With
    kernel_times, the reference kernel runs after each item."""
    from perfbench import reference

    results, times = [], []
    for k, item in enumerate(items):
        t0 = perf_counter()
        if tracer is None:
            results.append(workload.run_item(item))
        else:
            results.append(tracer.item(f"{workload.name}:{pass_idx}:{k}",
                                       workload.run_item, item))
        times.append(perf_counter() - t0)
        if kernel_times is not None:
            kernel_times.append(reference.kernel_seconds())
    return results, times


def run_workload(args) -> int:
    from perfbench import layers, reference, workloads
    from perfbench.tracing import LAYERS, Tracer

    e2e_names, layer_names = benchmark_metric_names()
    if e2e_names != [n for n, _ in END_TO_END] or \
            layer_names != [n for n, _, _ in layers.PER_LAYER]:
        fail_setup("metric lists in BENCHMARK.json and perfbench differ")

    workload = workloads.build(args.workload)
    env = environment(args.seed)
    passes = max(workload.min_passes, round(args.seconds / workload.nominal_pass_s))
    if args.trace:
        # Each traced pass repeats a plain one, so halve the count to keep
        # the run near --seconds.
        passes = max(workload.min_passes, (passes + 1) // 2)
    lines = [f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
             f"passes {passes}", f"environment {json.dumps(env)}"]

    setup, setup_factors = ([], []) if args.trace else setup_seconds(workload.scenario_names)
    for item in workload.warmup_items(args.seed):
        workload.run_item(item)

    plain, traced = [], []      # per pass: (items, results)
    pass_item_times, traced_times, kernel_times = [], [], []
    tracer = Tracer() if args.trace else None
    for p in range(passes):
        items = workload.items(args.seed, p)
        order = ("plain", "traced") if p % 2 == 0 else ("traced", "plain")
        for kind in order if args.trace else ("plain",):
            if kind == "plain":
                results, times = run_pass(workload, items,
                                          kernel_times=None if args.trace else kernel_times)
                plain.append((items, results))
                pass_item_times.append(times)
            else:
                tracer.install()
                try:
                    results, times = run_pass(workload, items, tracer, p)
                finally:
                    tracer.uninstall()
                traced.append((items, results))
                traced_times += times
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output checks, outside the timed phase.
    attempted = failed = 0
    check_lines = []
    for p, (items, results) in enumerate(plain):
        for k, (item, result) in enumerate(zip(items, results)):
            attempted += 1
            fails = workload.check_item(item, result)
            if traced and traced[p][1][k] != result:
                fails.append("traced output differs from the untraced one")
            if fails:
                failed += 1
                check_lines.append(f"  FAIL item {p}:{k} {item.key}: {'; '.join(fails)}")
    for name, ok, detail in workload.check_passes(plain):
        attempted += 1
        failed += not ok
        check_lines.append(f"  {'ok  ' if ok else 'FAIL'} {name}: {detail}")

    work = sum(workload.work(r) for _, results in plain for r in results)
    raw_times = [t for times in pass_item_times for t in times]
    raw_wall_s = sum(raw_times)
    if args.trace:
        values = layers.measure(args.seed, workloads.build("coverage_heatmap"), OUT_DIR)
        for layer in LAYERS:
            values[f"self_ms.{layer}"] = tracer.self_s[layer] / passes * 1e3
        values["trace.overhead_s"] = sum(traced_times) - raw_wall_s
        values["trace.spans_per_pass"] = (len(tracer.spans) + tracer.dropped) / passes
        units = {n: u for n, u, _ in layers.PER_LAYER}
        samples = {}
        lines.append(f"tracing overhead {values['trace.overhead_s']:+.4f} s on "
                     f"{raw_wall_s:.4f} s untraced "
                     f"({values['trace.overhead_s'] / raw_wall_s:+.1%}); "
                     f"self time per pass by layer: "
                     + ", ".join(f"{layer} {tracer.self_s[layer] / passes * 1e3:.2f} ms"
                                 for layer in (*LAYERS, "bench")))
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        lines.append(f"spans written to {spans_path.relative_to(ROOT)} "
                     f"({len(tracer.spans)} stored, {tracer.dropped} over the cap)")
    else:
        # Host times divided by the host speed factor around each item.
        factors = reference.speed_factors(kernel_times)
        item_times = [t / f for t, f in zip(raw_times, factors)]
        wall_s = sum(item_times)
        to_se = {}      # grid point -> time to SE 1e-3 of each of its items
        results = (r for _, rs in plain for r in rs)
        keys = (it.key for its, _ in plain for it in its)
        for key, result, t in zip(keys, results, item_times):
            to_se.setdefault(key, []).append(workload.time_to_se(t, result))
        tail_s, tail_pct = tail(item_times)
        values = {
            "setup_s": statistics.median(t / f for t, f in zip(setup, setup_factors)),
            "wall_s": wall_s,
            "item_ms_p50": statistics.median(item_times) * 1e3,
            "item_ms_tail": tail_s * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "work_per_s": work / wall_s,
            "s_to_se_1e-3": statistics.median(
                statistics.fmean(point) for point in to_se.values()),
        }
        units = dict(END_TO_END)
        n_items = len(item_times)
        lines.append(
            f"host speed factor: median {statistics.median(factors):.3f}, range "
            f"{min(factors):.3f}-{max(factors):.3f}; raw host times: setup_s "
            f"{statistics.median(setup):.4f} s, wall_s {raw_wall_s:.4f} s, item_ms_p50 "
            f"{statistics.median(raw_times) * 1e3:.4f} ms, item_ms_tail "
            f"{tail(raw_times)[0] * 1e3:.4f} ms")
        samples = {"setup_s": f"median of {len(setup)} launches",
                   "wall_s": f"{passes} passes, {n_items} items",
                   "item_ms_p50": f"{n_items} items",
                   "item_ms_tail": f"p{tail_pct}, {n_items} items, at least {TAIL_BEYOND} beyond",
                   "peak_rss_mb": "1 process",
                   "work_per_s": f"{workload.work_unit}/s, {work:.0f} {workload.work_unit}",
                   "s_to_se_1e-3": f"median over {len(to_se)} grid points of the "
                                   f"mean over {passes} passes"}
    for name, value in values.items():
        lines.append(f"  {name:<40} {value:>16.6f} {units[name]:<6} {samples.get(name, '')}")
    lines.append(f"ops_failed {failed} of ops_attempted {attempted}")
    lines += check_lines

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": values[n], "unit": units[n]}
                          for n in (e2e_names if not args.trace else layer_names)}}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "passes": passes, "samples": samples,
                                  "checks": check_lines, "item_seconds": raw_times,
                                  "kernel_seconds": kernel_times, **result}) + "\n",
                      encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, one after the other."""
    from perfbench.workloads import WORKLOADS

    status = 0
    summary = {}
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stderr.write(done.stderr)
        out = done.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        summary[name] = json.loads(out[-1]) if done.returncode in (0, 1) and out else None
        status = status or done.returncode
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "loracell" / "__init__.py").is_file():
        fail_setup(f"no loracell sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import loracell

    if not Path(loracell.__file__).resolve().is_relative_to(SRC):
        fail_setup(f"loracell imported from {loracell.__file__}, not from {SRC}")
    if args.workload == "all":
        return run_all(args)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail_setup(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}, all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
