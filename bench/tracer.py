"""Span tracing of green3's layers from outside the package.

``Tracer.install`` wraps the public functions of each green3 module and
rebinds every module-level name that refers to them, so a call such as
``potentials.hankel1(...)`` or ``cli.dtn_map(...)`` records a span.  Calls
inside ``specfun`` stay unwrapped: they are how a special function is
evaluated, so their time belongs to the function called from outside.
Private helpers are never wrapped; their time is self time of their caller.
``numpy.linalg`` is wrapped at the module attribute and records only calls
made from green3 code.

Spans (id, parent, name, start, end, thread, info) stay in memory until the
run ends.  A span opened on a worker thread of the CLI's pool has the job's
root span as parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("specfun", "geometry", "potentials", "weyl", "coupling", "interval_model", "reports", "cli")
LINALG = ("svd", "inv", "solve", "eigvalsh")
ROOT = "cli.main"


def _size(value) -> int:
    return int(np.size(value))


def _assembly_key(curve, grid, z, *args, **kwargs):
    z = getattr(z, "z", z)
    return (curve.shape, curve.a, curve.b, grid.n, complex(z).real, complex(z).imag)


def _field_pairs(curve, grid, z, density, points, *args, **kwargs):
    return (_size(points) // 2) * grid.n


# What each span records besides its times: points evaluated, pairs, or the
# assembly key used for the redundancy ratio.
INFO = {
    "specfun.hankel1": lambda order, w, *a, **k: _size(w),
    "specfun.bessel_j": lambda order, w, *a, **k: _size(w),
    "specfun.fundamental_solution": lambda n, z, r, *a, **k: _size(r),
    "specfun.fundamental_solution_gradient": lambda n, z, x, *a, **k: _size(x) // 2,
    "potentials.assemble_single_layer": _assembly_key,
    "potentials.assemble_double_layer": _assembly_key,
    "potentials.assemble_adjoint_double_layer": _assembly_key,
    "potentials.eval_single_layer_field": _field_pairs,
    "potentials.eval_double_layer_field": _field_pairs,
}
for _name in LINALG:
    INFO[f"linalg.{_name}"] = lambda a, *rest, **k: int(np.shape(a)[-1]) ** 3


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = 0
        self._undo = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs, info):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = info(*args, **kwargs) if info is not None else None
            self.spans.append((sid, parent, name, start, end, threading.get_ident(), extra))

    def wrap(self, name: str, fn):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs, info)

        return traced

    def root(self, fn, *args):
        """Run one job as the root span; spans on other threads attach to it."""
        sid = next(self._ids)
        self._root = sid
        start = time.perf_counter()
        self._stack().append(sid)
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self._root = 0
            self.spans.append((sid, 0, ROOT, start, end, threading.get_ident(), None))

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"green3.{name}") for name in LAYERS}
        namespaces = [m for name, m in sys.modules.items()
                      if name == "green3" or name.startswith("green3.")]
        for layer, module in modules.items():
            if layer == "cli":
                continue  # the job's root span is the call into cli.main
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn and not (ns is module and layer == "specfun"):
                        self._patch(ns, attr, traced)
        report = modules["reports"].ResidualReport
        for attr in ("to_json", "to_csv"):
            self._patch(report, attr, self.wrap("reports.serialize", getattr(report, attr)))
        for attr in ("sorted", "without_timing"):
            self._patch(report, attr, self.wrap(f"reports.{attr}", getattr(report, attr)))
        for attr in LINALG:
            self._patch(np.linalg, attr, self._linalg(attr, getattr(np.linalg, attr)))

    def _linalg(self, attr, fn):
        traced = self.wrap(f"linalg.{attr}", fn)

        @functools.wraps(fn)
        def from_green3(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            return (traced if caller.startswith("green3") else fn)(*args, **kwargs)

        return from_green3

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, thread, info in self.spans:
                if isinstance(info, tuple):
                    info = list(info)
                fh.write(json.dumps([sid, parent, name, start, end, thread, info]) + "\n")


def _union(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for sid, parent, name, start, end, thread, info in spans:
        children[parent].append((start, end))
    return {sid: (end - start) - _union(children.get(sid, ()), start, end)
            for sid, parent, name, start, end, thread, info in spans}


# Per-layer metric groups: metric prefix -> span names it sums over.
GROUPS = {
    "specfun.hankel1": ("specfun.hankel1",),
    "specfun.bessel_j": ("specfun.bessel_j",),
    "specfun.modified": ("specfun.modified_i", "specfun.modified_k",
                         "specfun.modified_i_derivative", "specfun.modified_k_derivative"),
    "specfun.fundamental": ("specfun.fundamental_solution", "specfun.fundamental_solution_gradient"),
    "potentials.assemble": ("potentials.assemble_single_layer", "potentials.assemble_double_layer",
                            "potentials.assemble_adjoint_double_layer"),
    "potentials.field": ("potentials.eval_single_layer_field", "potentials.eval_double_layer_field"),
    "potentials.jumps": ("potentials.jump_relation_residuals",),
    "weyl.dtn_map": ("weyl.dtn_map",),
    "weyl.mode_eigenvalue": ("weyl.mode_eigenvalue",),
    "coupling.indicator": ("coupling.eigenvalue_indicator",),
    "coupling.modes": ("coupling.krein_resolvent_disk_mode", "coupling.mixed_resolvent_disk_mode",
                       "coupling.resolvent_difference_disk_mode"),
    "coupling.green": ("coupling.third_green_identity_residual", "coupling.jump_brackets",
                       "coupling.transmission_point_sources", "coupling.probe_ring"),
    "coupling.rellich": ("coupling.rellich_quotient",),
    "reports.serialize": ("reports.serialize",),
    **{f"linalg.{name}": (f"linalg.{name}",) for name in LINALG},
}

UNITS = {"calls": "count", "points": "count", "pairs": "count", "rows": "count", "jobs": "count",
         "self_s": "s", "ns_per_point": "ns", "redundancy": "ratio", "n3": "count",
         "coverage": "ratio", "overhead_frac": "ratio", "fail_frac": "ratio"}


def layer_metrics(spans) -> dict:
    """Per-layer metrics from the spans of a run, named as in BENCHMARK.json."""
    own = self_times(spans)
    layer_of = {sid: name.split(".")[0] for sid, parent, name, *_ in spans}
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "points": 0, "keys": set()})
    by_layer = defaultdict(lambda: {"entries": 0, "self_s": 0.0})
    for sid, parent, name, start, end, thread, info in spans:
        entry = by_name[name]
        entry["calls"] += 1
        entry["self_s"] += own[sid]
        if isinstance(info, tuple):
            entry["keys"].add(info)
        elif info is not None:
            entry["points"] += info
        layer = layer_of[sid]
        by_layer[layer]["self_s"] += own[sid]
        if layer_of.get(parent) != layer:
            by_layer[layer]["entries"] += 1

    def group(prefix):
        names = GROUPS[prefix]
        return {key: sum(by_name[n][key] for n in names) for key in ("calls", "self_s", "points")}

    m = {}
    for prefix in GROUPS:
        g = group(prefix)
        m[f"{prefix}.calls"] = g["calls"]
        m[f"{prefix}.self_s"] = g["self_s"]
    for prefix in ("specfun.hankel1", "specfun.bessel_j", "specfun.fundamental"):
        m[f"{prefix}.points"] = group(prefix)["points"]
    kernel_points = m["specfun.hankel1.points"] + m["specfun.bessel_j.points"]
    kernel_s = m["specfun.hankel1.self_s"] + m["specfun.bessel_j.self_s"]
    m["specfun.ns_per_point"] = 1e9 * kernel_s / kernel_points if kernel_points else 0.0
    distinct = sum(len(by_name[n]["keys"]) for n in GROUPS["potentials.assemble"])
    m["potentials.assemble.redundancy"] = m["potentials.assemble.calls"] / distinct if distinct else 0.0
    m["potentials.field.pairs"] = group("potentials.field")["points"]
    m["linalg.n3"] = sum(by_name[f"linalg.{n}"]["points"] for n in LINALG)
    m["geometry.self_s"] = by_layer["geometry"]["self_s"]
    m["interval_model.calls"] = by_layer["interval_model"]["entries"]
    m["interval_model.self_s"] = by_layer["interval_model"]["self_s"]
    m["reports.rows"] = by_name["reports.check_row"]["calls"]
    roots = [s for s in spans if s[2] == ROOT]
    root_wall = sum(end - start for _, _, _, start, end, _, _ in roots)
    root_self = sum(own[s[0]] for s in roots)
    m["cli.jobs"] = len(roots)
    m["cli.run.self_s"] = root_self
    m["trace.coverage"] = 1.0 - root_self / root_wall if root_wall else 0.0
    return m
