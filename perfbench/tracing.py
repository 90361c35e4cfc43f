"""Per-layer spans and work counters, attached to levelform from outside.

`Tracer.install()` replaces the public functions of each layer module with
timing wrappers, both in the defining module and under every name another
levelform module (or the package itself) re-binds them to, so a call from
`reduction` into `hard_truncation` or from `pushforward` into
`sample_domain` is attributed to the callee's layer.  A layer's busy time is
the self time of its spans: span duration minus the time of the spans it
caused.  Counters are read from call arguments and results only, so the
traced program computes exactly what the untraced one does.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

from levelform import (CLOSED_FORM, COAREA, MONTE_CARLO, cli, config,
                       geometry, kernels, pushforward, reduction, sampling,
                       sparse)

_METHOD_GROUP = {CLOSED_FORM: "pushforward.closed_form",
                 COAREA: "pushforward.coarea",
                 MONTE_CARLO: "pushforward.mc"}


def _by_method(position: int):
    """Group of a pushforward dispatcher, read from its `method` argument."""

    def group(args, kwargs):
        method = _arg(args, kwargs, position, "method", COAREA)
        # an unknown method fails inside the call, as it does untraced
        return _METHOD_GROUP.get(method, "pushforward.coarea")

    return group


# Functions not listed here and not covered by a whole-module entry below
# stay unwrapped; their time lands in the caller's self time.
_GROUPS = {
    kernels: {
        "hard_truncation": "kernels.truncation",
        "smooth_truncation": "kernels.truncation",
        "residual_truncation": "kernels.truncation",
        "truncation_batch": "kernels.truncation",
        "maximal_truncated": "kernels.truncation",
        "hl_maximal": "kernels.hl_maximal",
    },
    pushforward: {
        "density_monte_carlo": "pushforward.mc",
        "weighted_density_monte_carlo": "pushforward.mc",
        "density_coarea": "pushforward.coarea",
        "weighted_density_coarea": "pushforward.coarea",
        "density_closed_form": "pushforward.closed_form",
        "weighted_density_closed_form": "pushforward.closed_form",
        "critical_exponent": "pushforward.closed_form",
        "density_on_grid": _by_method(2),
        "weighted_density": _by_method(3),
        "fiber_norm": _by_method(4),
        "normalized_average": _by_method(3),
    },
    reduction: {
        "lhs_direct": "reduction.lhs",
        "rhs_reduced": "reduction.rhs",
        "verify_reduction_identity": "reduction.rhs",
        "uniform_bound_check": "reduction.uniform",
        "density_supremum": "reduction.uniform",
        "function_norm": "reduction.uniform",
        "estimate_beta": "reduction.regime",
        "classify_regime": "reduction.regime",
        "critical_window": "reduction.regime",
        "window_verdict": "reduction.regime",
        "integrability_scan": "reduction.regime",
        "pullback_norm": "reduction.regime",
    },
}
# every public function of these modules belongs to one group
_WHOLE_MODULES = {geometry: "geometry", sampling: "sampling", sparse: "sparse",
                  cli: "cli", config: "cli"}


def _arg(args, kwargs, position: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else default


def _outputs(F, eval_points) -> int:
    if eval_points is None:
        return len(F.values)
    return len(eval_points) if hasattr(eval_points, "__len__") else 1


def _single_cell_pairs(f_position: int):
    """outputs x inputs for a one-column, one-job truncated action."""

    def cells(args, kwargs, result):
        F = _arg(args, kwargs, f_position, "F")
        return _outputs(F, _arg(args, kwargs, f_position + 2, "eval_points")) * len(F.values)

    return cells


def _batch_cell_pairs(args, kwargs, result):
    functions = _arg(args, kwargs, 1, "functions")
    jobs = _arg(args, kwargs, 3, "jobs")
    F = functions[0]
    outputs = _outputs(F, _arg(args, kwargs, 4, "eval_points"))
    return outputs * len(F.values) * len(functions) * len(jobs)


def _maximal_cell_pairs(args, kwargs, result):
    F = _arg(args, kwargs, 1, "F")
    return len(F.values) ** 2 * len(_arg(args, kwargs, 2, "eps_values"))


def _requested(position: int):
    return lambda args, kwargs, result: int(_arg(args, kwargs, position, "count"))


# (module, function) -> [(counter, fn(args, kwargs, result) -> int)]
_COUNTERS = {
    (sampling, "sample_domain"): [("sampling.calls", lambda a, k, r: 1),
                                  ("sampling.points_requested", _requested(1))],
    (sampling, "sample_domain_pairs"): [("sampling.calls", lambda a, k, r: 1),
                                        ("sampling.points_requested", _requested(2))],
    (pushforward, "density_monte_carlo"): [
        ("pushforward.mc.points_used", lambda a, k, r: int(_arg(a, k, 2, "sample_count")))],
    (pushforward, "weighted_density_monte_carlo"): [
        ("pushforward.mc.points_used", lambda a, k, r: int(_arg(a, k, 3, "sample_count")))],
    (pushforward, "weighted_density_coarea"): [("pushforward.coarea.levels", lambda a, k, r: 1)],
    (kernels, "hard_truncation"): [("kernels.truncation.cell_pairs", _single_cell_pairs(1))],
    (kernels, "smooth_truncation"): [("kernels.truncation.cell_pairs", _single_cell_pairs(2))],
    (kernels, "residual_truncation"): [("kernels.truncation.cell_pairs", _single_cell_pairs(2))],
    (kernels, "truncation_batch"): [("kernels.truncation.cell_pairs", _batch_cell_pairs)],
    (kernels, "maximal_truncated"): [("kernels.truncation.cell_pairs", _maximal_cell_pairs)],
    (sparse, "build_sparse_greedy"): [("sparse.members", lambda a, k, r: len(r.members))],
    (cli, "write_report"): [("cli.report_bytes", lambda a, k, r: _file_size(_arg(a, k, 0, "path")))],
}


def _group_of(module, name: str):
    if module in _WHOLE_MODULES:
        return None if name.startswith("_") else _WHOLE_MODULES[module]
    return _GROUPS[module].get(name)


def _file_size(path) -> int:
    return os.path.getsize(path) if path is not None else 0


class Tracer:
    """Span stack, per-group self time and work counters for one process."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)
        self._stack: list[list[float]] = []
        self._originals: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int) -> None:
        self.counts[name] += int(n)

    def _wrap(self, fn, group, counters):
        tracer = self
        stack = self._stack
        label = f"{fn.__module__}.{fn.__name__}"

        def traced(*args, **kwargs):
            name = group(args, kwargs) if callable(group) else group
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                tracer.busy[name] += elapsed - children[0]
                tracer.calls[label] += 1
                if stack:
                    stack[-1][0] += elapsed
            for counter, measure in counters:
                tracer.counts[counter] += measure(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap every grouped function and re-bind it wherever it is imported."""
        wrapped = {}
        for module in (*_GROUPS, *_WHOLE_MODULES):
            for name, obj in vars(module).items():
                group = _group_of(module, name)
                if group is None or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                wrapped[obj] = self._wrap(obj, group, _COUNTERS.get((module, name), ()))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "levelform" or mod_name.startswith("levelform.")):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._originals.append((module, name, obj))
                    setattr(module, name, wrapped[obj])

    def uninstall(self) -> None:
        for module, name, obj in reversed(self._originals):
            setattr(module, name, obj)
        self._originals.clear()
