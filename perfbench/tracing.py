"""Layer spans recorded from outside the program.

`Tracer.install()` replaces each layer's public functions, in every module
that holds a reference to them (including the names `cli` and `bounds`
import), with a wrapper that records a span (name, start, end, parent).  The
program's source is not touched.  Spans stay in memory; `summary()` turns
them into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import time

# span name -> the (module, attribute) references to wrap
LAYERS = {
    "catalog.build": [("envqueue.cli", "catalog"), ("envqueue.modelfile", "catalog"),
                      ("envqueue.catalog", "perishable_o"), ("envqueue.bounds", "perishable_minus"),
                      ("envqueue.bounds", "perishable_o"), ("envqueue.bounds", "perishable_plus")],
    "modelfile.load": [("envqueue.cli", "load_model")],
    "model.validate": [("envqueue.cli", "validate_model")],
    "separability.report": [("envqueue.cli", "separability_report")],
    "separability.product_form": [("envqueue.separability", "product_form"), ("envqueue.bounds", "product_form")],
    "ergodicity.certify": [("envqueue.cli", "certify")],
    "numerics.auto_truncate": [("envqueue.cli", "auto_truncate"), ("envqueue.bounds", "auto_truncate")],
    "numerics.solve": [("envqueue.cli", "solve_truncated"), ("envqueue.numerics", "solve_truncated")],
    "numerics.metrics": [("envqueue.cli", "metrics"), ("envqueue.bounds", "metrics"),
                         ("envqueue.numerics", "metrics")],
    "numerics.cut_check": [("envqueue.cli", "check_cut_structure")],
    "numerics.export": [("envqueue.cli", "export_csv")],
    "simulate.simulate": [("envqueue.cli", "simulate"), ("envqueue.bounds", "simulate")],
    "simulate.values": [("envqueue.bounds", "departure_values")],
    "simulate.isotone": [("envqueue.bounds", "isotone_check")],
    "bounds.report": [("envqueue.cli", "bound_report")],
    "bounds.sweep": [("envqueue.cli", "gamma_sweep")],
}
# generator_row is called per state, so it is counted, not spanned
ROW_REFS = [("envqueue.model", "generator_row"), ("envqueue.simulate", "generator_row"),
            ("envqueue.ergodicity", "generator_row")]

# per-layer self-time metric -> the spans whose self time it sums
SELF_TIME = {
    "cli.self_s": ("cli",),
    "catalog.build_s": ("catalog.build",),
    "modelfile.load_s": ("modelfile.load",),
    "model.validate_s": ("model.validate",),
    "separability.report_s": ("separability.report",),
    "separability.product_form_s": ("separability.product_form",),
    "ergodicity.certify_s": ("ergodicity.certify",),
    "numerics.solve_s": ("numerics.auto_truncate", "numerics.solve"),
    "numerics.metrics_s": ("numerics.metrics",),
    "numerics.cut_check_s": ("numerics.cut_check",),
    "numerics.export_s": ("numerics.export",),
    "simulate.sim_s": ("simulate.simulate",),
    "simulate.values_s": ("simulate.values",),
    "simulate.isotone_s": ("simulate.isotone",),
    "bounds.report_s": ("bounds.report",),
    "bounds.sweep_s": ("bounds.sweep",),
}
COUNTS = ("model.generator_rows", "numerics.solves", "numerics.levels_solved", "numerics.levels_kept",
          "numerics.residual_max", "simulate.jumps", "cli.bytes_written")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._saved = []

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called `name`."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
        self._observe(name, idx, result)
        return result

    def _observe(self, name, idx, result):
        c = self.counts
        if name == "numerics.solve":
            c["numerics.solves"] += 1
            c["numerics.levels_solved"] += result.N + 1
            c["numerics.residual_max"] = max(c["numerics.residual_max"], result.residual)
            parent = self.spans[idx][3]
            if parent is None or self.spans[parent][0] != "numerics.auto_truncate":
                c["numerics.levels_kept"] += result.N + 1
        elif name == "numerics.auto_truncate":
            c["numerics.levels_kept"] += result.N + 1
        elif name == "simulate.simulate":
            c["simulate.jumps"] += result.total_jumps

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _count_rows(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts["model.generator_rows"] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        for name, refs in LAYERS.items():
            for module, attr in refs:
                self._patch(module, attr, lambda fn, name=name: self._wrap(name, fn))
        for module, attr in ROW_REFS:
            self._patch(module, attr, self._count_rows)

    def _patch(self, module, attr, make):
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # -- results -------------------------------------------------------------

    def summary(self):
        """Per-layer self times and counts over everything recorded so far."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        by_name = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            by_name[name] = by_name.get(name, 0.0) + (end - start) - inner
        out = {metric: sum(by_name.get(n, 0.0) for n in names) for metric, names in SELF_TIME.items()}
        out.update(self.counts)
        return out

    def reset(self):
        """Drop recorded spans and counts; returns the spans dropped."""
        spans, self.spans = self.spans, []
        self.counts = dict.fromkeys(COUNTS, 0)
        return spans


def combine_rounds(round_summaries):
    """Per-layer metrics of a traced run from per-round summaries: the fastest
    round's time for each layer, counts per round, and derived ratios."""
    last = round_summaries[-1]
    out = {m: min(s[m] for s in round_summaries) for m in SELF_TIME}
    out.update({m: last[m] for m in COUNTS})
    out["numerics.residual_max"] = max(s["numerics.residual_max"] for s in round_summaries)
    solved = out["numerics.levels_solved"]
    out["numerics.level_yield"] = out.pop("numerics.levels_kept") / solved if solved else 0.0
    sim_s = out["simulate.sim_s"]
    out["simulate.jumps_per_s"] = out["simulate.jumps"] / sim_s if sim_s > 0 else 0.0
    return out


def merge(summaries):
    """Sum per-call summaries (from separate processes) into one round summary."""
    out = {}
    for s in summaries:
        for key, value in s.items():
            if key == "numerics.residual_max":
                out[key] = max(out.get(key, 0.0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out
