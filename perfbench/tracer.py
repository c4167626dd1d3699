"""Span recorder that wraps rdagg's functions from outside the package.

``install(recorder)`` replaces every public function of the measured modules
with a timing wrapper, in every ``rdagg`` module that binds it (so
``rdagg.simlab.estimate_upper`` is caught as well as
``rdagg.estimators.estimate_upper``), and returns a function that puts the
originals back. A span is ``[name, start_ns, end_ns, parent_index, op_id]``;
spans and counters stay in memory until the caller writes them out.

Three scalar per-record helpers are left unwrapped, because they are called
once per event inside Python loops and a span would cost as much as the call.
Three private functions are wrapped because a counter or a cost of interest
lives there.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("io", "design", "estimators", "regress", "simlab", "cli")
PRIVATE_SPANS = {"cli._sha256", "estimators._iv_estimate", "regress._screen_columns"}
UNWRAPPED = {"design.is_close", "design.cutoff_indicator", "design.kernel_weight"}


class Recorder:
    """Spans and integer counters of one op."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []

    def add_span(self, name: str, start_ns: int, end_ns: int) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start_ns, end_ns, parent, self.op])

    def wrap(self, name: str, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, perf_counter_ns(), 0, parent, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                caller = spans[parent][0] if parent >= 0 else ""
                hook(counts, _Call(args, kwargs), result, caller)
            return result

        return traced


class _Call:
    """Positional-or-keyword access to the arguments of one call."""

    def __init__(self, args, kwargs):
        self.args, self.kwargs = args, kwargs

    def get(self, index: int, name: str, default=None):
        if len(self.args) > index:
            return self.args[index]
        return self.kwargs.get(name, default)


def _width(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        return 1
    return 1 if len(shape) == 1 else int(shape[1])


def _rows(a) -> int:
    return int(a.shape[0]) if hasattr(a, "shape") else len(a)


def _outside(caller: str) -> bool:
    return not caller.startswith("regress.")


def _load_rows(counts, call, result, caller):
    rows = result.edges if hasattr(result, "edges") else result
    counts["io.rows"] += len(rows)
    counts["io.bytes_read"] += os.path.getsize(call.get(0, "path"))


def _hashed(counts, call, result, caller):
    counts["cli.bytes_hashed"] += os.path.getsize(call.get(0, "path"))


def _exposures(counts, call, result, caller):
    counts["design.events_in"] += len(call.get(1, "subunits"))
    graph = call.get(3, "graph")
    if graph is not None:
        counts["design.edges_in"] += len(graph.edges)


def _stacked(counts, call, result, caller):
    counts["estimators.stacked_rows"] += int(call.get(9, "n_stacked_rows", 0))


def _fit_bytes(counts, call, result, caller):
    if _outside(caller):
        problem = call.get(0, "problem")
        width = 1 + _width(problem.regressors)
        if problem.instruments is not None:
            width += _width(problem.instruments)
        counts["regress.bytes_in"] += 8 * _rows(problem.response) * width


def _residualize_bytes(counts, call, result, caller):
    if _outside(caller):
        columns, on = call.get(0, "columns"), call.get(1, "on")
        counts["regress.bytes_in"] += 8 * _rows(columns) * (_width(columns) + _width(on))


def _absorb_cells(counts, call, result, caller):
    columns = call.get(0, "columns")
    cells = _rows(columns) * _width(columns)
    counts["regress.absorb.cells"] += cells
    if _outside(caller):
        counts["regress.bytes_in"] += 8 * cells


def _failed_cells(counts, call, result, caller):
    counts["simlab.failed_cells"] += sum(c.n_fail for c in result.cells)


HOOKS = {
    "io.load_units": _load_rows,
    "io.load_subunits": _load_rows,
    "io.load_edges": _load_rows,
    "cli._sha256": _hashed,
    "design.unit_exposures": _exposures,
    "estimators._iv_estimate": _stacked,
    "regress.tsls_fit": _fit_bytes,
    "regress.wls_fit": _fit_bytes,
    "regress.residualize": _residualize_bytes,
    "regress.absorb_fixed_effects": _absorb_cells,
    "simlab.run_monte_carlo": _failed_cells,
}


def install(recorder: Recorder):
    """Wrap the measured functions everywhere rdagg binds them; return an undo."""
    importlib.import_module("rdagg.cli")  # imports every measured module
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"rdagg.{layer}")
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if not inspect.isfunction(value) or value.__module__ != module.__name__:
                continue
            if name in UNWRAPPED or (attr.startswith("_") and name not in PRIVATE_SPANS):
                continue
            wrappers[value] = recorder.wrap(name, value, HOOKS.get(name))
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "rdagg" and not modname.startswith("rdagg."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))

    def undo():
        for module, attr, value in patched:
            setattr(module, attr, value)

    return undo


# Per-layer metrics of one op: (metric, kind, argument). Kinds: "incl" is the
# summed duration of the named spans, "self" their summed self time, "mself"
# the self time of every span of a module, "calls" the number of spans, "count"
# a counter from a hook.
LAYER_METRICS = (
    ("cli.main_s", "incl", ("cli.main",)),
    ("cli.self_s", "mself", "cli"),
    ("cli.bytes_hashed", "count", "cli.bytes_hashed"),
    ("io.load_bundle_s", "incl", ("io.load_bundle",)),
    ("io.load_units_s", "incl", ("io.load_units",)),
    ("io.load_subunits_s", "incl", ("io.load_subunits",)),
    ("io.load_edges_s", "incl", ("io.load_edges",)),
    ("io.rows", "count", "io.rows"),
    ("io.bytes_read", "count", "io.bytes_read"),
    ("design.self_s", "mself", "design"),
    ("design.unit_exposures_s", "incl", ("design.unit_exposures",)),
    ("design.unit_exposures.self_s", "self", ("design.unit_exposures",)),
    ("design.unit_exposures.calls", "calls", ("design.unit_exposures",)),
    ("design.records_to_arrays_s", "incl", ("design.running_values", "design.importance_values")),
    ("design.close_mask_s", "incl", ("design.close_mask",)),
    ("design.events_in", "count", "design.events_in"),
    ("design.edges_in", "count", "design.edges_in"),
    ("estimators.estimate_upper_s", "incl", ("estimators.estimate_upper",)),
    ("estimators.estimate_lower_s", "incl", ("estimators.estimate_lower",)),
    ("estimators.verify_equivalence_s", "incl", ("estimators.verify_equivalence",)),
    ("estimators.estimate_spillover_upper_s", "incl", ("estimators.estimate_spillover_upper",)),
    ("estimators.estimate_spillover_bilateral_s", "incl",
     ("estimators.estimate_spillover_bilateral",)),
    ("estimators.self_s", "mself", "estimators"),
    ("estimators.calls", "calls", (
        "estimators.estimate_upper", "estimators.estimate_lower",
        "estimators.verify_equivalence", "estimators.estimate_spillover_upper",
        "estimators.estimate_spillover_bilateral", "estimators.estimate_spillover_collapsed",
        "estimators.estimate_sharp_rd")),
    ("estimators.stacked_rows", "count", "estimators.stacked_rows"),
    ("regress.self_s", "mself", "regress"),
    ("regress.tsls_fit.self_s", "self", ("regress.tsls_fit",)),
    ("regress.wls_fit.self_s", "self", ("regress.wls_fit",)),
    ("regress.screen_columns_s", "incl", ("regress._screen_columns",)),
    ("regress.residualize_s", "incl", ("regress.residualize",)),
    ("regress.hc1_cov_s", "incl", ("regress.hc1_cov",)),
    ("regress.hc1_cov.calls", "calls", ("regress.hc1_cov",)),
    ("regress.fits", "calls", ("regress.tsls_fit", "regress.wls_fit")),
    ("regress.bytes_in", "count", "regress.bytes_in"),
    ("regress.absorb_fixed_effects_s", "incl", ("regress.absorb_fixed_effects",)),
    ("regress.absorb.calls", "calls", ("regress.absorb_fixed_effects",)),
    ("regress.absorb.cells", "count", "regress.absorb.cells"),
    ("regress.fixed_effect_dof_s", "incl", ("regress.fixed_effect_dof",)),
    ("simlab.run_monte_carlo_s", "incl", ("simlab.run_monte_carlo",)),
    ("simlab.self_s", "mself", "simlab"),
    ("simlab.generate_dgp_s", "incl", ("simlab.generate_dgp",)),
    ("simlab.generate_dgp.calls", "calls", ("simlab.generate_dgp",)),
    ("simlab.bootstrap_median_ci_s", "incl", ("simlab.bootstrap_median_ci",)),
    ("simlab.failed_cells", "count", "simlab.failed_cells"),
    ("trace.spans", "spans", None),
)

# Counters that must repeat exactly between runs of one op on one seed.
EXACT_COUNTS = (
    "io.rows", "io.bytes_read", "design.events_in", "design.edges_in",
    "estimators.stacked_rows", "regress.fits", "regress.bytes_in",
    "regress.absorb.cells", "simlab.generate_dgp.calls",
)


def op_layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one op from its spans and counters."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    incl, own, calls = defaultdict(int), defaultdict(int), Counter()
    for i, (name, start, end, _parent, _op) in enumerate(spans):
        incl[name] += end - start
        own[name] += end - start - child_ns[i]
        calls[name] += 1
    out = {}
    for metric, kind, arg in LAYER_METRICS:
        if kind == "incl":
            out[metric] = sum(incl[n] for n in arg) / 1e9
        elif kind == "self":
            out[metric] = sum(own[n] for n in arg) / 1e9
        elif kind == "mself":
            out[metric] = sum(v for n, v in own.items() if n.startswith(arg + ".")) / 1e9
        elif kind == "calls":
            out[metric] = sum(calls[n] for n in arg)
        elif kind == "count":
            out[metric] = int(counts.get(arg, 0))
        else:
            out[metric] = len(spans)
    return out
