"""Spans around the calls into each ``riemannlab`` module, and the per-layer
metrics derived from them.

Tracing lives entirely in the benchmark: :func:`install` swaps every public
function of the package for a wrapper in every module namespace that binds
it (``neumaier_sum`` is bound separately in ``geometry``, ``quadrature``,
``curve_surface`` and ``theorems``, and all of those bindings are swapped),
and :func:`uninstall` puts the originals back. Field, path and surface
handles are counted by wrapping the callables the benchmark passes in
(:func:`traced_handle`). Spans stay in memory as plain lists and are
written out when the benchmark exits.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

import numpy as np

# The package modules that are layers. ``scenarios`` is a registry lookup and
# ``errors`` holds only exception classes, so neither gets a layer.
LAYERS = (
    "geometry",
    "fields",
    "summation",
    "quadrature",
    "curve_surface",
    "theorems",
    "harness",
    "cli",
)

# Private functions that are layer boundaries all the same: every
# finite-difference partial goes through ``fields._fd_partial``.
EXTRA = {"fields": ("_fd_partial",)}

# Span fields: layer, name, start, end, parent span index (-1 at the root),
# operation id, work count.
LAYER, NAME, START, END, PARENT, OP, WORK = range(7)


def _size(args, kwargs, result):
    return int(np.size(args[0])) if args else 0


def _cells(args, kwargs, result):
    return int(result.m)


def _count(args, kwargs, result):
    return len(result)


def _file_bytes(args, kwargs, result):
    dest = args[1] if len(args) > 1 else kwargs.get("destination")
    if isinstance(dest, (str, os.PathLike)):
        return os.path.getsize(dest)
    return 0


# Work recorded on a span, by function name.
WORK_COUNTERS = {
    "neumaier_sum": _size,
    "make_uniform_partition": _cells,
    "make_partition": _cells,
    "select_indices": _count,
    "emit_csv": _file_bytes,
}


class Tracer:
    """In-memory span recorder; inactive until :attr:`active` is set."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1

    def call(self, layer, name, fn, args, kwargs, work=None):
        if not self.active:
            return fn(*args, **kwargs)
        rec = [layer, name, perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1, self.op, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            self.stack.pop()
        if work is not None:
            rec[WORK] = work(args, kwargs, result)
        return result


def _wrap(tracer, layer, fn):
    name = fn.__name__
    work = WORK_COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs, work)

    return wrapper


def _targets():
    """(layer, function) for every function that gets a span."""
    out = []
    for layer in LAYERS:
        mod = sys.modules[f"riemannlab.{layer}"]
        for name, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and (not name.startswith("_") or name in EXTRA.get(layer, ()))
            ):
                out.append((layer, obj))
    return out


def install(tracer: Tracer) -> list[tuple]:
    """Swap every target function in every ``riemannlab`` namespace.

    Returns the undo list for :func:`uninstall`.
    """
    wrappers = {id(fn): _wrap(tracer, layer, fn) for layer, fn in _targets()}
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "riemannlab" and not modname.startswith("riemannlab."):
            continue
        for name, obj in list(vars(mod).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                setattr(mod, name, wrapper)
                undo.append((mod, name, obj))
    return undo


def uninstall(undo: list[tuple]) -> None:
    for mod, name, obj in undo:
        setattr(mod, name, obj)


def traced_handle(tracer: Tracer | None, fn, point_dim: int, name: str):
    """Wrap a field/path/surface handle so its calls and points are counted.

    ``point_dim`` is the length of one input point (1 for a path parameter).
    With no tracer the handle is returned unchanged.
    """
    if tracer is None:
        return fn

    def points(args, kwargs, result):
        return int(np.size(args[0])) // point_dim

    def handle(x):
        return tracer.call("fields", f"eval:{name}", fn, (x,), {}, points)

    return handle


# --- per-layer metrics ----------------------------------------------------------

# Each group metric is (layer, span names, what to report). Time is the
# inclusive time of the group's outermost spans; a span nested in another
# span of the same group is not counted twice.
_EVAL = "eval:"
GROUPS = {
    "summation.reduce": ("summation", {"neumaier_sum", "masked_neumaier_sum"}),
    "geometry.partition": ("geometry", {"make_uniform_partition", "make_partition"}),
    "geometry.perturb": ("geometry", {"perturb", "apply_perturbation"}),
    "geometry.select": ("geometry", {"select_indices", "bind_deletion"}),
    "fields.eval": ("fields", _EVAL),
    "fields.fd": ("fields", {"_fd_partial"}),
    "theorems.check": ("theorems", {"green_check", "gauss_check", "stokes_check"}),
    "harness.csv": ("harness", {"emit_csv"}),
    "cli.main": ("cli", {"main"}),
}

# Per-layer metric -> (source, unit). Sources: ("time", group) outermost
# inclusive seconds; ("calls", group, name) spans named ``name`` (or any in
# the group when ``name`` is None); ("work", group, name) summed work
# counts; ("self", layer) self time.
PER_LAYER = {
    "summation.reduce_s": (("time", "summation.reduce"), "s"),
    "summation.reduce_calls": (("calls", "summation.reduce", "neumaier_sum"), "count"),
    "summation.reduce_terms": (("work", "summation.reduce", "neumaier_sum"), "count"),
    "geometry.partition_s": (("time", "geometry.partition"), "s"),
    "geometry.partition_cells": (("work", "geometry.partition", None), "count"),
    "geometry.perturb_s": (("time", "geometry.perturb"), "s"),
    "geometry.perturb_calls": (("calls", "geometry.perturb", "perturb"), "count"),
    "geometry.select_s": (("time", "geometry.select"), "s"),
    "geometry.deleted_terms": (("work", "geometry.select", "select_indices"), "count"),
    "fields.eval_s": (("time", "fields.eval"), "s"),
    "fields.eval_calls": (("calls", "fields.eval", None), "count"),
    "fields.eval_points": (("work", "fields.eval", None), "count"),
    "fields.fd_s": (("time", "fields.fd"), "s"),
    "fields.fd_calls": (("calls", "fields.fd", None), "count"),
    "quadrature.self_s": (("self", "quadrature"), "s"),
    "curve_surface.self_s": (("self", "curve_surface"), "s"),
    "theorems.self_s": (("self", "theorems"), "s"),
    "theorems.checks": (("calls", "theorems.check", None), "count"),
    "harness.self_s": (("self", "harness"), "s"),
    "harness.csv_s": (("time", "harness.csv"), "s"),
    "harness.csv_bytes": (("work", "harness.csv", None), "B"),
    "cli.self_s": (("self", "cli"), "s"),
    "cli.calls": (("calls", "cli.main", None), "count"),
}


def _in_group(span, group) -> bool:
    layer, names = GROUPS[group]
    if span[LAYER] != layer:
        return False
    if names == _EVAL:
        return span[NAME].startswith(_EVAL)
    return span[NAME] in names


def layer_totals(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per-layer metrics, self time per layer and span count per metric.

    ``spans`` must be complete: every parent index refers into the list.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s, c in zip(spans, child):
        self_s[s[LAYER]] += (s[END] - s[START]) - c

    groups = {g: [i for i, s in enumerate(spans) if _in_group(s, g)] for g in GROUPS}
    members = {g: set(idx) for g, idx in groups.items()}

    def outermost(g):
        for i in groups[g]:
            p = spans[i][PARENT]
            while p >= 0 and p not in members[g]:
                p = spans[p][PARENT]
            if p < 0:
                yield spans[i]

    metrics, counts = {}, {}
    for metric, (source, _unit) in PER_LAYER.items():
        kind = source[0]
        if kind == "self":
            layer = source[1]
            metrics[metric] = self_s[layer]
            counts[metric] = sum(1 for s in spans if s[LAYER] == layer)
            continue
        group = source[1]
        if kind == "time":
            chosen = list(outermost(group))
            metrics[metric] = sum(s[END] - s[START] for s in chosen)
        else:
            name = source[2]
            chosen = [spans[i] for i in groups[group]
                      if name is None or spans[i][NAME] == name]
            metrics[metric] = len(chosen) if kind == "calls" else sum(s[WORK] for s in chosen)
        counts[metric] = len(chosen)
    return metrics, self_s, counts
