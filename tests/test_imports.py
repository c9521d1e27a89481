"""Imports: the package's cold start loads scipy.special and nothing heavier,
and every loracell name the benchmark and the demos use exists."""

import ast
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats

import loracell
from loracell import simulator

_PROBE = """
import sys
import loracell, loracell.cli
heavy = [m for m in sys.modules if m.startswith(("scipy.stats", "scipy.integrate"))]
assert not heavy, heavy
from loracell import hyp2f1, hyp2f1_oracle
assert abs(hyp2f1_oracle(1.0, 0.5, 1.5, -3.0) - hyp2f1(1.0, 0.5, 1.5, -3.0)) <= 1e-10
assert "scipy.integrate" in sys.modules
"""


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    src = str(Path(loracell.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 0, done.stderr


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


def _resolve(dotted: str) -> None:
    """Look a dotted loracell name up, importing submodules on the way."""
    obj, path = loracell, "loracell"
    for part in dotted.split(".")[1:]:
        path += "." + part
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(path)


def test_benchmark_and_demo_loracell_names_resolve():
    # perfbench/ and demos/ are parsed, not run: a change that removes a name
    # they call fails here in well under a second, not in the benchmark
    root = Path(__file__).parents[1]
    refs = set()
    for path in sorted([*root.glob("perfbench/*.py"), *root.glob("demos/*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "loracell":
                    refs.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                refs.update(a.name for a in node.names if a.name.split(".")[0] == "loracell")
            elif isinstance(node, ast.Attribute):
                dotted = _dotted(node)
                if dotted is not None and dotted.startswith("loracell."):
                    refs.add(dotted)
    assert {"loracell.lora_airtime", "loracell.scenario.SF_RANGE", "loracell.cli.main",
            "loracell.hyp2f1_oracle"} <= refs
    missing = []
    for ref in sorted(refs):
        try:
            _resolve(ref)
        except (AttributeError, ImportError):
            missing.append(ref)
    assert not missing
