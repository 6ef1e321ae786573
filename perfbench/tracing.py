"""Spans and counts at the program's layer boundaries, recorded from outside.

`Tracer.install` replaces every public function of the layer modules
(and the few methods the per-layer metrics need) with a wrapper that
records a span: name, start, end and the index of the enclosing span.
Calls between layers go through module attributes or module globals, so
the wrappers see them; nothing under src/ changes.  `uninstall` puts the
originals back.
"""

import functools
import inspect
import json
from time import perf_counter

import numpy as np

from qasian import cli, extraction, grid, inversion, oracle

LAYERS = {"grid": grid, "inversion": inversion, "extraction": extraction,
          "oracle": oracle, "cli": cli}

#: methods traced under a name of their own
METHODS = (
    (extraction.AmplitudeEstimator, "estimate_sqrt", "extraction.ae"),
    (extraction.Interpolant2D, "psi", "extraction.surface"),
    (extraction.Interpolant2D, "psi_sq", "extraction.surface"),
)

#: per-layer metrics and their units, in the order BENCHMARK.json lists them
PER_LAYER = {
    "grid.build_operators_s": "s",
    "grid.assemble_system_s": "s",
    "grid.build_rhs_calls": "count",
    "grid.build_centered_dft_calls": "count",
    "inversion.precondition_self_s": "s",
    "inversion.condition_report_s": "s",
    "inversion.solve_system_s": "s",
    "inversion.fast_invert_exact_calls": "count",
    "extraction.extract_psi_2d_self_s": "s",
    "extraction.estimate_rectangle_s": "s",
    "extraction.estimate_rectangle_calls": "count",
    "extraction.ae_calls": "count",
    "extraction.surface_eval_s": "s",
    "oracle.monte_carlo_price_s": "s",
    "oracle.mc_path_steps_per_s": "1/s",
    "oracle.crank_nicolson_solve_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1]
        self.path_steps = []  # (span index, n_paths * n_steps) of MC calls
        self._stack = []
        self._originals = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        mc_sig = inspect.signature(fn) if name == "oracle.monte_carlo_price" \
            else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            if mc_sig is not None:
                bound = mc_sig.bind(*args, **kwargs).arguments
                self.path_steps.append((idx, bound["n_paths"]
                                        * bound["n_steps"]))
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
        return traced

    def install(self):
        for layer, module in LAYERS.items():
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    self._originals.append((module, attr, fn))
                    setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))
        for cls, attr, name in METHODS:
            fn = vars(cls)[attr]
            self._originals.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    def pass_metrics(self, lo, hi):
        """Per-layer figures of the spans lo..hi-1 (one pass)."""
        names = [s[0] for s in self.spans[lo:hi]]
        dur = np.array([s[2] - s[1] for s in self.spans[lo:hi]])
        parent = np.array([s[3] - lo for s in self.spans[lo:hi]])
        child = np.zeros(len(names))
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])
        self_t = dur - child

        def total(name, times=dur):
            return float(sum(t for n, t in zip(names, times) if n == name))

        def calls(name):
            return names.count(name)

        # outermost surface spans only: psi calls psi_sq
        surface = sum(d for n, d, p in zip(names, dur, parent)
                      if n == "extraction.surface"
                      and (p < 0 or names[p] != "extraction.surface"))
        mc_s = total("oracle.monte_carlo_price")
        steps = sum(w for i, w in self.path_steps if lo <= i < hi)
        return {
            "grid.build_operators_s": total("grid.build_operators"),
            "grid.assemble_system_s": total("grid.assemble_system"),
            "grid.build_rhs_calls": calls("grid.build_rhs"),
            "grid.build_centered_dft_calls": calls("grid.build_centered_dft"),
            "inversion.precondition_self_s":
                total("inversion.precondition", self_t),
            "inversion.condition_report_s": total("inversion.condition_report"),
            "inversion.solve_system_s": total("inversion.solve_system"),
            "inversion.fast_invert_exact_calls":
                calls("inversion.fast_invert_exact"),
            "extraction.extract_psi_2d_self_s":
                total("extraction.extract_psi_2d", self_t),
            "extraction.estimate_rectangle_s":
                total("extraction.estimate_rectangle"),
            "extraction.estimate_rectangle_calls":
                calls("extraction.estimate_rectangle"),
            "extraction.ae_calls": calls("extraction.ae"),
            "extraction.surface_eval_s": float(surface),
            "oracle.monte_carlo_price_s": mc_s,
            "oracle.mc_path_steps_per_s": steps / mc_s if mc_s > 0 else 0.0,
            "oracle.crank_nicolson_solve_s":
                total("oracle.crank_nicolson_solve"),
            "cli.self_s": float(sum(t for n, t in zip(names, self_t)
                                    if n.startswith("cli."))),
        }

    def dump(self, path):
        """Write the spans as JSON lines: [name, start, end, parent]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
