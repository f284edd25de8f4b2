"""Span recording around the public functions of the ``expcircle`` modules.

The program itself is not edited.  ``Tracer.install`` replaces every public
module-level function of the layer modules by a wrapper, in every
``expcircle`` namespace that bound the function (``from .x import f``
copies the reference, so the defining module alone is not enough).
``Tracer.remove`` puts the originals back.

A span is ``[name, start, end, parent, thread, work, key]``.  ``parent`` is
the innermost open span of the same thread; a span opened on a thread with
no open span (a ``run_all`` pool worker) takes the innermost open span of
the thread that installed the tracer.  ``work`` is a per-function work
count taken from the arguments or the result, ``key`` an identity used to
spot the first call per (map, resolution).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("circle_map", "density_grid", "inverse_branches", "transfer_operator",
          "system_constants", "coupling_lab", "correlation_suite", "audits",
          "cli")

NAME, START, END, PARENT, THREAD, WORK, KEY = range(7)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _points(x) -> int:
    return int(np.size(x))


def _write_csv_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path")), None


def _apply_work(args, kwargs, result):
    m, f = _arg(args, kwargs, 0, "m"), _arg(args, kwargs, 1, "f")
    return m.winding * f.resolution, (m, f.resolution)


def _pull_work(points_at, bid_at, per_step=1):
    """Single-step root solves: points x depth (x2 for a carried pair)."""
    def work(args, kwargs, result):
        x = _arg(args, kwargs, points_at, "x")
        bid = _arg(args, kwargs, bid_at, "bid")
        return per_step * _points(x) * bid.depth, None
    return work


# Work counted per call, keyed by "<module>.<function>".  Only functions that
# do the work themselves count it: inverse_weight_sum and deep_preimages
# reach their root solves through pullback_orbit and pullback.
WORK_COUNTS = {
    "circle_map.evaluate":
        lambda a, k, r: (_points(_arg(a, k, 1, "x")), None),
    "density_grid.holder_profile": lambda a, k, r: (len(r), None),
    "density_grid.sample": lambda a, k, r: (_points(r), None),
    "density_grid.write_csv": _write_csv_bytes,
    "inverse_branches.preimages":
        lambda a, k, r: (_arg(a, k, 0, "m").winding, None),
    "inverse_branches.pullback": _pull_work(1, 2),
    "inverse_branches.pullback_orbit": _pull_work(1, 2),
    "inverse_branches.branch_contraction_check": _pull_work(1, 4, per_step=2),
    "inverse_branches.distortion_ratio": _pull_work(1, 4, per_step=2),
    "transfer_operator.apply_function": _apply_work,
    "transfer_operator.invariant_density": lambda a, k, r: (r[1].n_steps, None),
    "coupling_lab.monte_carlo_coupling":
        lambda a, k, r: (r.trials * int(r.ns[-1]), None),
}


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self):
        self.spans: list = []
        self.count_errors: list = []        # names of calls not counted
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list = []
        self._patched: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self
        work = WORK_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home else None
            span = [name, 0.0, 0.0, parent, threading.get_ident(), 0, None]
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if work is not None:
                try:
                    span[WORK], span[KEY] = work(args, kwargs, result)
                except Exception:  # a changed signature must not break the run
                    tracer.count_errors.append(name)
            return result

        return wrapper

    def install(self) -> int:
        """Wrap every public function of the layer modules; returns the
        number of functions wrapped."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"expcircle.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "expcircle" and not modname.startswith("expcircle."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))
        return len(wrappers)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def _union_length(intervals) -> float:
    """Length of the union of (lo, hi) intervals, each with lo < hi."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_times(spans) -> dict:
    """Self time per span (keyed by ``id``): duration minus the part of the
    span covered by its children.

    Children on the span's own thread are nested and disjoint, so this is
    duration minus their summed durations.  Children on other threads (the
    audits a ``run_all`` span fans out to its pool) overlap each other, so
    the child intervals are merged before they are subtracted: the parent
    is charged only for the time in which none of them ran.  Each child's
    own self time is taken on its own thread, so summed self times exceed
    wall time where threads overlap.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[id(s[PARENT])].append(s)
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered = [(max(k[START], lo), min(k[END], hi))
                   for k in children.get(id(s), ())]
        out[id(s)] = (hi - lo) - _union_length(
            [iv for iv in covered if iv[1] > iv[0]])
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_records(spans) -> dict:
    """Column-wise, JSON-ready copy of the spans (parent as an index)."""
    index = {id(s): i for i, s in enumerate(spans)}
    threads = {}
    return {
        "name": [s[NAME] for s in spans],
        "start": [s[START] for s in spans],
        "end": [s[END] for s in spans],
        "parent": [index.get(id(s[PARENT]), -1) for s in spans],
        "thread": [threads.setdefault(s[THREAD], len(threads)) for s in spans],
        "work": [s[WORK] for s in spans],
    }


# The audit functions of expcircle.audits, without their "audit_" prefix.
AUDIT_FUNCTIONS = (
    "certificate", "second_derivative", "arc_expansion", "preimage_roundtrip",
    "partition", "backward_contraction", "distortion", "operator_identities",
    "duality", "sup_c1_bounds", "regularity_sweep", "class_entry",
    "invariant_density", "cesaro", "coupling_deterministic",
    "coupling_monte_carlo", "correlation_decay", "reduction_chain",
    "density_convergence", "quadrature", "sampling", "constants_reference",
    "constants_monotonic",
)

# Layer metrics derived from the spans, in report order.
SPAN_METRICS = (
    ("density_grid.holder.calls", "count"),
    ("density_grid.holder.alpha_scans", "count"),
    ("density_grid.holder.self_s", "s"),
    ("density_grid.sample.draws", "count"),
    ("density_grid.sample.self_s", "s"),
    ("density_grid.write_csv.bytes", "bytes"),
    ("density_grid.write_csv.self_s", "s"),
    ("inverse_branches.calls", "count"),
    ("inverse_branches.pull_steps", "count"),
    ("inverse_branches.pullback_orbit.self_s", "s"),
    ("inverse_branches.pair_checks.self_s", "s"),
    ("inverse_branches.inverse_weight_sum.self_s", "s"),
    ("transfer_operator.apply.calls", "count"),
    ("transfer_operator.apply.node_evals", "count"),
    ("transfer_operator.apply.self_s", "s"),
    ("transfer_operator.first_apply_s", "s"),
    ("transfer_operator.table_builds", "count"),
    ("transfer_operator.invariant_density.calls", "count"),
    ("transfer_operator.invariant_density.steps", "count"),
    ("transfer_operator.invariant_density.self_s", "s"),
    ("circle_map.construct.calls", "count"),
    ("circle_map.construct.self_s", "s"),
    ("circle_map.evaluate.points", "count"),
    ("circle_map.evaluate.self_s", "s"),
    ("system_constants.compute_ledger.calls", "count"),
    ("system_constants.class_check.calls", "count"),
    ("system_constants.class_check.self_s", "s"),
    ("coupling_lab.monte_carlo.trial_steps", "count"),
    ("coupling_lab.monte_carlo.self_s", "s"),
    ("coupling_lab.deterministic.self_s", "s"),
    ("correlation_suite.decay_report.self_s", "s"),
    ("correlation_suite.convergence.self_s", "s"),
    ("correlation_suite.correlation_series.self_s", "s"),
    *((f"audits.{a}.wall_s", "s") for a in AUDIT_FUNCTIONS),
    ("audits.overlap", "ratio"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.spans", "count"),
)

_CONSTRUCTORS = ("circle_map.linear_map", "circle_map.perturbed_map",
                 "circle_map.custom_map")
_CLASS_CHECKS = ("system_constants.hoelder_class_check",
                 "system_constants.pointwise_log_bounds_check")
_PAIR_CHECKS = ("inverse_branches.branch_contraction_check",
                "inverse_branches.distortion_ratio")
_APPLY = "transfer_operator.apply_function"


def layer_metrics(spans) -> dict:
    """Every SPAN_METRICS entry as name -> value."""
    own = self_times(spans)
    by_name = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        by_name[s[NAME]].append(s)
        layer_self[layer_of(s[NAME])] += own[id(s)]

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def work(*names):
        return sum(s[WORK] for n in names for s in by_name[n])

    def self_s(*names):
        return sum(own[id(s)] for n in names for s in by_name[n])

    def wall(*names):
        return sum(s[END] - s[START] for n in names for s in by_name[n])

    first_apply_s, seen = 0.0, set()
    for s in sorted(by_name[_APPLY], key=lambda s: s[START]):
        if s[KEY] not in seen:
            seen.add(s[KEY])
            first_apply_s += s[END] - s[START]
    audit_names = [f"audits.audit_{a}" for a in AUDIT_FUNCTIONS]
    run_all_wall = wall("audits.run_all")
    return {
        "density_grid.holder.calls": calls("density_grid.holder_profile"),
        "density_grid.holder.alpha_scans": work("density_grid.holder_profile"),
        "density_grid.holder.self_s": self_s("density_grid.holder_profile",
                                             "density_grid.holder_coefficient"),
        "density_grid.sample.draws": work("density_grid.sample"),
        "density_grid.sample.self_s": self_s("density_grid.sample"),
        "density_grid.write_csv.bytes": work("density_grid.write_csv"),
        "density_grid.write_csv.self_s": self_s("density_grid.write_csv"),
        "inverse_branches.calls": sum(len(v) for k, v in by_name.items()
                                      if layer_of(k) == "inverse_branches"),
        "inverse_branches.pull_steps": sum(
            work(k) for k in list(by_name) if layer_of(k) == "inverse_branches"),
        "inverse_branches.pullback_orbit.self_s":
            self_s("inverse_branches.pullback_orbit"),
        "inverse_branches.pair_checks.self_s": self_s(*_PAIR_CHECKS),
        "inverse_branches.inverse_weight_sum.self_s":
            self_s("inverse_branches.inverse_weight_sum"),
        "transfer_operator.apply.calls": calls(_APPLY),
        "transfer_operator.apply.node_evals": work(_APPLY),
        "transfer_operator.apply.self_s": self_s(_APPLY,
                                                 "transfer_operator.apply"),
        "transfer_operator.first_apply_s": first_apply_s,
        "transfer_operator.table_builds": len(seen),
        "transfer_operator.invariant_density.calls":
            calls("transfer_operator.invariant_density"),
        "transfer_operator.invariant_density.steps":
            work("transfer_operator.invariant_density"),
        "transfer_operator.invariant_density.self_s":
            self_s("transfer_operator.invariant_density"),
        "circle_map.construct.calls": calls(*_CONSTRUCTORS),
        "circle_map.construct.self_s": self_s(*_CONSTRUCTORS),
        "circle_map.evaluate.points": work("circle_map.evaluate"),
        "circle_map.evaluate.self_s": self_s("circle_map.evaluate"),
        "system_constants.compute_ledger.calls":
            calls("system_constants.compute_ledger"),
        "system_constants.class_check.calls": calls(*_CLASS_CHECKS),
        "system_constants.class_check.self_s": self_s(*_CLASS_CHECKS),
        "coupling_lab.monte_carlo.trial_steps":
            work("coupling_lab.monte_carlo_coupling"),
        "coupling_lab.monte_carlo.self_s":
            self_s("coupling_lab.monte_carlo_coupling"),
        "coupling_lab.deterministic.self_s":
            self_s("coupling_lab.deterministic_contraction_run"),
        "correlation_suite.decay_report.self_s":
            self_s("correlation_suite.decay_report"),
        "correlation_suite.convergence.self_s":
            self_s("correlation_suite.density_convergence_report"),
        "correlation_suite.correlation_series.self_s":
            self_s("correlation_suite.correlation_series"),
        **{f"audits.{a}.wall_s": wall(n)
           for a, n in zip(AUDIT_FUNCTIONS, audit_names)},
        "audits.overlap": wall(*audit_names) / run_all_wall if run_all_wall else 0.0,
        **{f"{layer}.self_s": t for layer, t in layer_self.items()},
        "trace.spans": len(spans),
    }
