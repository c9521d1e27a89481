"""Benchmark of the loracell toolkit: workloads, layer probes and tracing.

Run it with `python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>` from the repository root; see README.md in
this directory.
"""
