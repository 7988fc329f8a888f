"""In-memory spans and counters around the package's public functions.

Nothing in the package is edited: the tracer replaces names where their
callers look them up (module attributes, class attributes, and the
``simpson`` name the package binds at import) and can put the originals
back, so traced and untraced passes run in one process.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, attribute path, span name) of every traced boundary; dotted
# attribute paths name methods on a class.
SPANS = (
    ("consensuslab.cli", "main", "cli.main"),
    ("consensuslab.cli", "load_scenario", "cli.load_scenario"),
    ("consensuslab.graph", "check_joint_connectivity", "graph.check_joint_connectivity"),
    ("consensuslab.dynamics", "simulate", "dynamics.simulate"),
    ("consensuslab.analysis", "simulate", "dynamics.simulate"),
    ("consensuslab.dynamics", "NoiseProcess.windowed_random", "dynamics.NoiseProcess"),
    ("consensuslab.dynamics", "NoiseProcess.table", "dynamics.NoiseProcess"),
    ("consensuslab.dynamics", "NoiseProcess.window_energies", "dynamics.NoiseProcess"),
    ("consensuslab.dynamics", "Trajectory.write_csv", "dynamics.Trajectory.write_csv"),
    ("consensuslab.observability", "gramian", "observability.gramian"),
    ("consensuslab.observability", "reconstruct", "observability.reconstruct"),
    ("consensuslab.observability", "edge_signals", "observability.edge_signals"),
    ("consensuslab.observability", "EdgeSignalTrace.write_csv",
     "observability.EdgeSignalTrace.write_csv"),
    ("consensuslab.observability", "uniform_bounds_check", "observability.uniform_bounds_check"),
    ("consensuslab.analysis", "fit_exponential_rate", "analysis.fit_exponential_rate"),
    ("consensuslab.analysis", "robustness_report", "analysis.robustness_report"),
)

# counted but not timed: called per step or per kernel invocation
COUNTERS = (
    ("consensuslab.graph", "WeightSchedule.pieces", "graph.WeightSchedule.pieces.calls"),
    ("consensuslab.graph", "WeightSchedule.segment_index_at",
     "graph.WeightSchedule.segment_index_at.calls"),
)

# wrapped before the package is imported, because it binds them by name
KERNELS = (
    ("numpy.linalg", "eigh", "kernel.eigh.calls"),
    ("numpy.linalg", "eigvalsh", "kernel.eigvalsh.calls"),
    ("scipy.integrate", "simpson", "kernel.simpson.calls"),
)

MODULES = ("cli", "graph", "dynamics", "observability", "analysis")


def _on_result(name, counts, result):
    if name == "graph.check_joint_connectivity":
        counts[name + ".windows"] += len(result.windows)
    elif name == "dynamics.simulate":
        counts[name + ".samples"] += int(result.sample_times.size)


class Tracer:
    """Records spans (name, start, end, parent, op) and counters while active."""

    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patches = []  # (owner, attribute, original, replacement)

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        tracer = self
        module = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), None,
                   tracer._stack[-1] if tracer._stack else None, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[module + ".errors"] += 1
                raise
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            _on_result(name, tracer.counts, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace(self, owner, attr, make):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw, new))
        setattr(owner, attr, new)
        return new

    # -- installation -------------------------------------------------------

    def install_kernels(self):
        """Wrap the numerical kernels; call before importing consensuslab."""
        import importlib

        for module, attr, name in KERNELS:
            self._replace(importlib.import_module(module), attr,
                          lambda fn, name=name: self._counter(name, fn))

    def install_package(self):
        """Wrap the package boundaries; the package must be imported."""
        kernels = {id(new) for _, _, _, new in self._patches}
        # the package bound some wrapped kernels by name at import: record
        # those bindings too, so that set_installed(False) restores them
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("consensuslab"):
                for attr, value in list(vars(module).items()):
                    if id(value) in kernels:
                        original = next(o for _, _, o, n in self._patches if n is value)
                        self._patches.append((module, attr, original, value))
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for mod_name, path, name in table:
                owner = sys.modules[mod_name]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                self._replace(owner, attr, lambda fn, name=name, make=make: make(name, fn))

    def set_installed(self, on):
        """Put the wrappers in place (on) or restore the originals (off)."""
        for owner, attr, original, new in self._patches:
            setattr(owner, attr, new if on else original)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per span index, duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]


def parse_importtime(stderr_text):
    """Total, scipy and numpy import seconds from ``python -X importtime``.

    The total is the cumulative time of the top-level consensuslab imports;
    scipy and numpy are the cumulative times of their outermost modules,
    numpy modules first pulled in by scipy counting as scipy.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, label = line[len("import time:"):].split("|")
        name = label.strip()
        rows.append((len(label) - len(label.lstrip()), name, int(cumulative) * 1e-6))
    totals = {"total": 0.0, "scipy": 0.0, "numpy": 0.0}
    stack = []
    for level, name, cum in reversed(rows):  # pre-order: parents first
        while stack and stack[-1][0] >= level:
            stack.pop()
        root = name.split(".")[0]
        outer = {n.split(".")[0] for _, n in stack}
        if root == "consensuslab" and not stack:
            totals["total"] += cum
        elif root == "scipy" and "scipy" not in outer:
            totals["scipy"] += cum
        elif root == "numpy" and not outer & {"numpy", "scipy"}:
            totals["numpy"] += cum
        stack.append((level, name))
    return totals


def fit_exponent(xs, ys):
    """Least-squares slope of log(y) against log(x); 0 without two points."""
    import numpy as np

    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    lx, ly = np.log([p[0] for p in pts]), np.log([p[1] for p in pts])
    return float(np.polyfit(lx, ly, 1)[0])
