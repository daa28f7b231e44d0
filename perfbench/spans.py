"""Outside-in tracing of circledyn's public functions.

The tracer wraps functions from outside the package: each wrapper replaces
the function under every ``circledyn.*`` module name that binds it (the
classifier imports ``periodic_points`` by name, dynamics imports
``chordal_distance`` by name), so calls between modules are seen too.

A span records its name, an optional label, start, end, parent span and the
benchmark operation it belongs to.  Spans stay in memory and are written out
once, when the run ends.  ``chordal_distance`` is only counted: it runs
millions of times in one round, and a span per call would cost more memory
than the workload itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _period_label(f, n, *args, **kwargs):
    return f"n{n}"


# (module, function, kind, label); kind is "span" or "count".
TARGETS = (
    ("algebra", "chordal_distance", "count", None),
    ("algebra", "conjugate", "span", None),
    ("algebra", "critical_points", "span", None),
    ("parser", "parse_map", "span", None),
    ("parser", "map_from_coeff_json", "span", None),
    ("roots", "all_roots", "span", None),
    ("dynamics", "periodic_points", "span", _period_label),
    ("dynamics", "real_multiplier_test", "span", None),
    ("dynamics", "julia_cloud", "span", None),
    ("dynamics", "backward_sample", "span", None),
    ("dynamics", "lyapunov_exponent", "span", None),
    ("dynamics", "preimage_points", "span", None),
    ("geometry", "best_circle", "span", None),
    ("geometry", "containment_residual", "span", None),
    ("geometry", "invariance_check", "span", None),
    ("geometry", "normalize_to_real_line", "span", None),
    ("linearizer", "poincare_coeffs", "span", None),
    ("linearizer", "valiron_order", "span", None),
    ("linearizer", "nonvanishing_witness", "span", None),
    ("linearizer", "periodic_shadow_witness", "span", None),
    ("classifier", "dichotomy_verdict", "span", None),
    ("classifier", "circle_case_classify", "span", None),
    ("classifier", "critical_escape_times", "span", None),
    ("classifier", "postcritical_analysis", "span", None),
    ("classifier", "detect_exceptional", "span", None),
    ("realjulia", "construct_polynomial", "span", None),
    ("realjulia", "build_example", "span", None),
    ("cli", "main", "span", None),
)

PERIODS = range(1, 10)


def layer_metric_names():
    """Every per-layer metric as (name, unit), in the order BENCHMARK.json lists them."""
    out = [("algebra.chordal_distance.calls", "count")]
    for module, func, kind, label in TARGETS:
        if kind != "span":
            continue
        out.append((f"{module}.{func}.s", "s"))
        out.append((f"{module}.{func}.calls", "count"))
        if label is _period_label:
            out.extend((f"{module}.{func}.n{k}.s", "s") for k in PERIODS)
    out += [
        ("classifier.dichotomy_verdict.self_s", "s"),
        ("classifier.dichotomy_verdict.child_share", "%"),
        ("cli.main.self_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.names = []
        self.labels = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.counts = Counter()
        self.op = -1
        self._stack = [-1]
        self._installed = []

    def _span(self, name, fn, label):
        names, labels, starts, ends = self.names, self.labels, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            labels.append(label(*args, **kwargs) if label else "")
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Swap every target for its wrapper under all names that bind it."""
        for module, func, kind, label in TARGETS:
            original = getattr(importlib.import_module(f"circledyn.{module}"), func)
            name = f"{module}.{func}"
            wrapper = (
                self._span(name, original, label)
                if kind == "span"
                else self._counter(name, original)
            )
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "circledyn" and not mod_name.startswith("circledyn."):
                    continue
                if getattr(mod, func, None) is original:
                    setattr(mod, func, wrapper)
                    self._installed.append((mod, func, original))

    def uninstall(self):
        for mod, func, original in reversed(self._installed):
            setattr(mod, func, original)
        self._installed.clear()

    def metrics(self) -> dict:
        """Layer figures from every span recorded so far."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur[i]
        total = defaultdict(float)
        calls = Counter()
        self_time = defaultdict(float)
        for i in range(n):
            name = self.names[i]
            calls[name] += 1
            self_time[name] += dur[i] - child[i]
            # time inside a call counts once, at the outermost same-name span
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                total[name] += dur[i]
                if self.labels[i]:
                    total[f"{name}.{self.labels[i]}"] += dur[i]
        out = {"algebra.chordal_distance.calls": self.counts["algebra.chordal_distance"]}
        for module, func, kind, label in TARGETS:
            if kind != "span":
                continue
            name = f"{module}.{func}"
            out[f"{name}.s"] = total[name]
            out[f"{name}.calls"] = calls[name]
            if label is _period_label:
                for k in PERIODS:
                    out[f"{name}.n{k}.s"] = total[f"{name}.n{k}"]
        dv = "classifier.dichotomy_verdict"
        out[f"{dv}.self_s"] = self_time[dv]
        out[f"{dv}.child_share"] = (
            100.0 * (1.0 - self_time[dv] / total[dv]) if total[dv] > 0 else 0.0
        )
        out["cli.main.self_s"] = self_time["cli.main"]
        return out

    def dump(self, path, op_names):
        with open(path, "w") as fh:
            json.dump(
                {
                    "ops": op_names,
                    "counts": dict(self.counts),
                    "spans": {
                        "name": self.names,
                        "label": self.labels,
                        "start": self.starts,
                        "end": self.ends,
                        "parent": self.parents,
                        "op": self.ops,
                    },
                },
                fh,
            )
