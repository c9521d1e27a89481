"""Spans around loracell's public functions, recorded from outside the library.

`Tracer.install()` replaces every public module-level function of the layer
modules with a timing wrapper, in every loracell namespace that binds it, so
calls the library makes internally (coverage -> hypergeom, simulator ->
scenario) are traced as well. `uninstall()` puts the originals back. Private
helpers (traffic generation, the reception resolver) have no public
boundary and are charged to the public function that calls them.

Spans are kept in memory and written out at the end. A layer's self time is
the duration of its spans minus the time covered by their child spans; it is
accumulated as spans close, so it stays exact when the stored span list is
capped.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("scenario", "airtime", "hypergeom", "coverage", "montecarlo",
          "simulator", "cli")
ROOT_LAYER = "bench"

# Spans beyond this many are counted but not stored: one coverage_heatmap
# pass opens about 180k spans.
SPAN_CAP = 200_000


class Tracer:
    """In-memory span and call-count sink for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []          # (id, name, start, end, parent, run)
        self.dropped = 0
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []          # [span id, child seconds]
        self._next_id = 0
        self._run = ""
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([span_id, 0.0])
        return span_id, parent

    def _close(self, layer: str, name: str, span_id: int, parent, start: float,
               end: float) -> None:
        _, child_s = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent, self._run))
        else:
            self.dropped += 1

    def item(self, run_id: str, fn, *args):
        """Call fn(*args) as the root span of one workload item."""
        self._run = run_id
        span_id, parent = self._open()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(ROOT_LAYER, f"{ROOT_LAYER}.item", span_id, parent, start,
                        perf_counter())

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(layer, name, span_id, parent, start, perf_counter())

        return traced

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"loracell.{layer}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(layer, value)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "loracell" and not mod_name.startswith("loracell."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the stored spans as JSON lines, then one summary line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, run in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start": start,
                                      "end": end, "parent": parent, "run": run}))
                out.write("\n")
            out.write(json.dumps({"summary": True, "spans_stored": len(self.spans),
                                  "spans_dropped": self.dropped,
                                  "calls": dict(sorted(self.calls.items())),
                                  "self_s": dict(sorted(self.self_s.items()))}))
            out.write("\n")
