"""Imports: the package's cold start loads numpy and the standard library
only, scipy.special loads at the first 2F1 call and scipy.integrate at the
first oracle call, every loracell name the benchmark and the demos use
exists, and the benchmark's workloads run a few items and pass their own
output checks."""

import ast
import importlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import loracell
from loracell import simulator

_COLD_START = """
import json, sys
import loracell, loracell.cli

def heavy():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("scipy", "multiprocessing")
                  or m.split(".")[:2] == ["numpy", "polynomial"]
                  or m == "concurrent.futures.process")

steps = {"import": heavy()}
for name in ("coverage_eu868", "sim_n1", "sim_n2"):
    loracell.default_scenario(name)
steps["default_scenario"] = heavy()
assert loracell.cli.main(["validate-config", "--scenario", "sim_n2.ini"]) == 0
steps["validate-config"] = heavy()
loracell.run_replication(loracell.default_scenario("sim_n2"), 0.5, 1)
steps["run_replication"] = heavy()
cell = loracell.default_scenario("coverage_eu868")
typical = loracell.typical_at(cell.topology, 800.0)
loracell.estimate_coverage(typical, cell, 2000, 1, shared_fading=True)
steps["estimate_coverage shared"] = heavy()
loracell.estimate_coverage(typical, cell, 2000, 1)
steps["estimate_coverage"] = heavy()
value = loracell.hyp2f1(1.0, 0.5, 1.5, -3.0)
steps["hyp2f1"] = heavy()
steps["oracle_error"] = abs(loracell.hyp2f1_oracle(1.0, 0.5, 1.5, -3.0) - value)
steps["hyp2f1_oracle"] = heavy()
print(json.dumps(steps))
"""


def test_cold_start_loads_numpy_and_the_standard_library_only(tmp_path):
    # scipy.special, the process pool and numpy.polynomial each load at the
    # one call that needs them, so a process that only simulates or only
    # runs the Monte Carlo oracle never imports scipy
    src = str(Path(loracell.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", _COLD_START], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout.splitlines()[-1])
    for step in ("import", "default_scenario", "validate-config", "run_replication",
                 "estimate_coverage shared"):
        assert steps[step] == [], step
    # the control variate's cumulant quadrature is the first use of the
    # Gauss-Legendre table; the Monte Carlo path still loads no scipy
    assert "numpy.polynomial.legendre" in steps["estimate_coverage"]
    assert all(m.startswith("numpy.polynomial") for m in steps["estimate_coverage"])
    assert "scipy.special" in steps["hyp2f1"]
    assert not [m for m in steps["hyp2f1"]
                if m.startswith(("scipy.integrate", "scipy.stats", "multiprocessing"))]
    assert steps["oracle_error"] <= 1e-10
    assert "scipy.integrate" in steps["hyp2f1_oracle"]


def test_ci95_equals_scipy_stats_t_quantile_bit_for_bit():
    values = np.random.default_rng(20200306).random(64)
    for n in range(2, 65):
        v = values[:n]
        expected = float(stats.t.ppf(0.975, n - 1) * v.std(ddof=1) / math.sqrt(n))
        assert simulator._ci95(v) == expected
    assert simulator._ci95(values[:1]) == 0.0


def _dotted(node: ast.AST) -> str | None:
    """`a.b.c` for a chain of attributes on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _resolve(dotted: str):
    """Look a dotted loracell name up, importing submodules on the way."""
    obj, path = loracell, "loracell"
    for part in dotted.split(".")[1:]:
        path += "." + part
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)
    return obj


def _loracell_uses(tree: ast.AST) -> tuple[set[str], list[tuple[str, ast.Call]]]:
    """The dotted loracell names a module refers to, and its calls of them,
    with names bound by `from loracell... import` spelled out."""
    names, refs = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] == "loracell":
                names.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Import):
            refs.update(a.name for a in node.names if a.name.split(".")[0] == "loracell")

    def qualified(node):
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, dot, rest = dotted.partition(".")
        dotted = names.get(head, head) + dot + rest
        return dotted if dotted.startswith("loracell.") else None

    refs.update(names.values())
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (dotted := qualified(node)):
            refs.add(dotted)
        elif isinstance(node, ast.Call) and (dotted := qualified(node.func)):
            calls.append((dotted, node))
    return refs, calls


def _bind(func, call: ast.Call) -> str | None:
    """Why `call` does not fit `func`'s signature, or None if it does. A call
    that unpacks `*args` or `**kwargs` is not checked."""
    if (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg is None for kw in call.keywords)):
        return None
    try:
        inspect.signature(func).bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
    except TypeError as err:
        return str(err)
    return None


def test_benchmark_and_demo_loracell_names_resolve():
    # perfbench/ and demos/ are parsed, not run: a change that removes a name
    # they use, or a parameter their calls pass, fails here in well under a
    # second, not in the benchmark
    root = Path(__file__).parents[1]
    refs, calls = set(), []
    for path in sorted([*root.glob("perfbench/*.py"), *root.glob("demos/*.py")]):
        file_refs, file_calls = _loracell_uses(ast.parse(path.read_text(encoding="utf-8")))
        refs |= file_refs
        calls += [(f"{path.name}:{call.lineno} {dotted}", dotted, call)
                  for dotted, call in file_calls]
    assert {"loracell.lora_airtime", "loracell.scenario.SF_RANGE", "loracell.cli.main",
            "loracell.hyp2f1_oracle"} <= refs
    assert {"loracell.run_replication", "loracell.sweep_models",
            "loracell.coverage_sweep"} <= {dotted for _, dotted, _ in calls}
    missing = []
    for ref in sorted(refs):
        try:
            _resolve(ref)
        except (AttributeError, ImportError):
            missing.append(ref)
    assert not missing
    unbound = [f"{where}: {why}" for where, dotted, call in calls
               if (why := _bind(_resolve(dotted), call)) is not None]
    assert not unbound


@pytest.mark.parametrize("name", ["fig3_n1", "fig3_n2", "coverage_heatmap", "mc_crossval"])
def test_benchmark_workload_items_pass_their_checks(name, monkeypatch):
    # the name check above sees only `loracell.*` references; this one also
    # catches an attribute the workloads read, such as topology.boundaries_m
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1]))
    from perfbench.run import DEFAULT_SEED
    from perfbench.workloads import WORKLOADS, build

    assert name in WORKLOADS
    workload = build(name)
    for item in workload.warmup_items(DEFAULT_SEED):
        workload.run_item(item)
    for item in workload.items(DEFAULT_SEED, 0)[:3]:
        assert workload.check_item(item, workload.run_item(item)) == []


def _top_level_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names a module binds at top level by import, and the private names
    (leading underscore, not dunder) it defines or assigns there."""
    imported, private = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            private.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            private.update(t.id for t in targets if isinstance(t, ast.Name))
    return imported, {n for n in private if n.startswith("_") and not n.startswith("__")}


def _references(tree: ast.AST) -> list[str]:
    """Every name a module reads, as a bare name, an attribute or an import."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append(node.id)
        elif isinstance(node, ast.Attribute):
            refs.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.extend(a.name for a in node.names)
    return refs


def _unused_imports(tree: ast.Module) -> list[str]:
    """Top-level imports the module never reads as a bare name."""
    imported, _ = _top_level_names(tree)
    reads = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - reads)


def _prose(text: str) -> str:
    """A module's docstrings and comments."""
    docs = [ast.get_docstring(node) or "" for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
    comments = [tok.string for tok in tokenize.generate_tokens(io.StringIO(text).readline)
                if tok.type == tokenize.COMMENT]
    return "\n".join(docs + comments)


def test_src_has_no_unused_imports_or_private_names():
    # a dead-code guard: an import a module of src/, tests/ or demos/ never
    # reads, a private top-level name nothing in src/ refers to, or a
    # backticked private name in the prose of src/ or README.md that src/
    # no longer defines, is left over from a removal
    src = Path(loracell.__file__).parent
    texts = {p.name: p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py"))}
    trees = {name: ast.parse(text) for name, text in texts.items()}
    all_refs = {r for tree in trees.values() for r in _references(tree)}
    dead = []
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        _, private = _top_level_names(tree)
        dead += [f"{name}: unused import {n}" for n in _unused_imports(tree)]
        dead += [f"{name}: unreferenced {n}" for n in sorted(private) if n not in all_refs]
    root = Path(__file__).parents[1]
    for path in sorted([*root.glob("tests/*.py"), *root.glob("demos/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        dead += [f"{path.relative_to(root)}: unused import {n}" for n in _unused_imports(tree)]
    defined = set()                     # every function, class and assigned name
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
    prose = {name: _prose(text) for name, text in texts.items()}
    prose["README.md"] = (root / "README.md").read_text(encoding="utf-8")
    dead += [f"{name}: stale `{n}`" for name, text in prose.items()
             for n in sorted(set(re.findall(r"`(_[A-Za-z]\w*)", text)) - defined)]
    assert not dead


def test_monte_carlo_oracle_imports_no_closed_form():
    # the oracle shares only the node, the link budget and H1 with the model it
    # checks: no 2F1 and no capture term, so agreement is not by construction
    tree = ast.parse((Path(loracell.__file__).parent / "montecarlo.py").read_text(encoding="utf-8"))
    names = {(node.module or "", alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    names |= {("", alias.name) for node in ast.walk(tree) if isinstance(node, ast.Import)
              for alias in node.names}
    assert not [n for n in names if "hypergeom" in " ".join(n)]
    from_coverage = {name for module, name in names if module.split(".")[-1] == "coverage"}
    assert from_coverage <= {"TypicalNode", "_received_mw", "_connection", "sf_indices"}
    assert not [n for n in names if n[1].split(".")[-1] == "coverage"]
