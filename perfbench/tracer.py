"""In-memory span tracing around calls into sampenopt's layers.

The tracer wraps public functions from outside the package: each wrapper is
bound at every module attribute that holds the original function, so calls
the package makes through its own module globals are traced as well as the
benchmark's calls. Spans (function, start, end, parent span, iteration) stay
in memory until the run ends. Self time is a span's duration minus the
durations of its direct children; the program is sequential, so children
never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
import time

# (module, function) pairs traced, one per row of the layer table in README.md
TRACED = (
    ("cli", "main"),
    ("ingest", "read_signals"),
    ("stats", "stationarity_pipeline"),
    ("stats", "adf_test"),
    ("signal", "normalize"),
    ("rng", "generator"),
    ("rng", "child_seed"),
    ("entropy", "count_matches"),
    ("entropy", "sampen"),
    ("entropy", "cp_sigma"),
    ("entropy", "fuzzen"),
    ("bootstrap", "stationary_bootstrap"),
    ("bootstrap", "bootstrap_sampen"),
    ("tpe", "propose"),
    ("optimizer", "optimize_set"),
    ("optimizer", "optimize_single"),
    ("baselines", "sampeneff_select"),
    ("baselines", "convergence_select"),
    ("baselines", "standard_params_eval"),
)

# ratio metrics: name -> (numerator counter, base counter)
RATIOS = {
    "optimizer.feasible_frac": ("optimizer.feasible_trials", "optimizer.trials"),
    "bootstrap.finite_frac": ("bootstrap.finite_replicates", "bootstrap.replicates"),
    "stats.retained_frac": ("stats.retained_signals", "stats.screened_signals"),
}
COUNTERS = (
    "optimizer.trials",
    "optimizer.feasible_trials",
    "bootstrap.replicates",
    "bootstrap.finite_replicates",
    "stats.screened_signals",
    "stats.retained_signals",
    "entropy.count_matches.pairs",
)


def _count_pairs(c, args, kwargs, out):
    # entries of the two (N-m) x (N-m) template distance matrices, as computed
    x = args[0] if args else kwargs["x"]
    p = args[1] if len(args) > 1 else kwargs["p"]
    c["entropy.count_matches.pairs"] += 2 * (x.n - p.m) ** 2


def _count_trials(c, args, kwargs, res):
    c["optimizer.trials"] += len(res.records)
    c["optimizer.feasible_trials"] += sum(1 for r in res.records if r.feasible)


def _count_replicates(c, args, kwargs, est):
    c["bootstrap.replicates"] += len(est.replicates)
    c["bootstrap.finite_replicates"] += len(est.finite_values())


def _count_retained(c, args, kwargs, report):
    c["stats.screened_signals"] += len(report.records)
    c["stats.retained_signals"] += report.retained.n if report.retained is not None else 0


HOOKS = {
    "entropy.count_matches": _count_pairs,
    "optimizer.optimize_set": _count_trials,
    "optimizer.optimize_single": _count_trials,
    "bootstrap.bootstrap_sampen": _count_replicates,
    "stats.stationarity_pipeline": _count_retained,
}


class Tracer:
    """Span recorder; install() rebinds the traced functions, uninstall() restores them."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent span or -1, iteration]
        self.counters = {k: 0 for k in COUNTERS}
        self.iteration = 0
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock, hook = self.spans, self._stack, time.perf_counter, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            span = [idx, 0.0, 0.0, stack[-1], self.iteration]
            spans.append(span)
            stack.append(sid)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "sampenopt" or k.startswith("sampenopt.")]
        for mod_name, fn_name in TRACED:
            orig = getattr(importlib.import_module(f"sampenopt.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in self._bindings:
            setattr(mod, attr, orig)
        self._bindings.clear()

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total_s and self_s per iteration, medians over iterations."""
        n = len(self.names)
        iters = sorted({s[4] for s in self.spans})
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        per_iter = {it: [[0, 0.0, 0.0] for _ in range(n)] for it in iters}
        for sid, (idx, t0, t1, _, it) in enumerate(self.spans):
            row = per_iter[it][idx]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[sid]
        table = {}
        for idx, name in enumerate(self.names):
            rows = [per_iter[it][idx] for it in iters] or [[0, 0.0, 0.0]]
            table[name] = {
                "calls": statistics.median(r[0] for r in rows),
                "total_s": statistics.median(r[1] for r in rows),
                "self_s": statistics.median(r[2] for r in rows),
            }
        return table

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("span,name,start,end,parent,iteration\n")
            for sid, (idx, t0, t1, parent, it) in enumerate(self.spans):
                fh.write(f"{sid},{self.names[idx]},{t0:.9f},{t1:.9f},{parent},{it}\n")
