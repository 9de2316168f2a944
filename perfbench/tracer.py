"""Spans around the calls into each torsionlab layer, recorded from outside.

The traced passes rebind every public function of each layer module (and a
few hot methods) to a wrapper that records a span: name, start, end, parent
span and task id.  A function is rebound in every ``torsionlab`` module that
holds it by name, because modules such as ``experiments`` and ``forests``
import functions by name; ``cli`` imports lazily at call time, so it picks up
whatever its source module holds.  Untraced passes run the original
functions, since ``uninstall`` restores every binding.

Counts are read from call arguments and results (mesh sizes, matrix shapes,
enumeration sizes) by per-function hooks.  A layer's self time is its span
time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from workloads import EMBEDDING_TOL, RENORM_TOL

PACKAGE = "torsionlab"
LAYERS = ("complexes", "surfaces", "meshes", "bundles", "laplacian", "forests",
          "meshspectra", "torsion", "experiments", "cli")
# The spans of the benchmark itself (passes, tasks) belong to this pseudo-layer.
BENCH = "bench"
# Hot methods wrapped in addition to the module-level public functions.
METHODS = {
    "complexes": {"SquareComplex": ("refine", "vertex_classes", "vertex_class_of")},
    "meshes": {"MeshGraph": ("faces", "refine_cuts", "cone_neighbor_sets",
                             "excluded_vertex_ids", "edges_csv", "cycle_winding")},
}


class Tracer:
    """Spans in flat arrays, plus counters fed by the hooks."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.stack = []
        self.task_id = -1
        self.counts = Counter()
        self.maxima = Counter()
        self.seen_meshes = set()
        self._sub = {}

    def open(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        """End span ``idx``; returns the counts its children reported."""
        self.end[idx] = perf_counter()
        self.stack.pop()
        return self._sub.pop(idx, None) or Counter()

    def count(self, metric, value=1):
        """Add to a counter; the enclosing open span sees it as a child count."""
        self.counts[metric] += value
        if self.stack:
            self._sub.setdefault(self.stack[-1], Counter())[metric] += value

    def peak(self, metric, value):
        self.maxima[metric] = max(self.maxima[metric], value)

    def spans(self):
        """(names, name ids, starts, ends, parents, task ids) as arrays."""
        return (self.names, np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.task, dtype=np.int32))


def self_times(start, end, parent):
    """Per span: its duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    covered = [0.0] * len(start)
    s, e, p = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0.0
    for i in np.lexsort((start, parent)).tolist():
        pi = p[i]
        if pi < 0:
            continue
        if pi != current:
            current, reach = pi, s[pi]
        lo = max(s[i], reach)
        hi = min(e[i], e[pi])
        if hi > lo:
            covered[pi] += hi - lo
            reach = hi
    return (end - start) - np.asarray(covered)


def layer_of(span_name):
    head = span_name.split(".", 1)[0]
    return head if head in LAYERS else BENCH


# -- hooks: counts read from arguments and results -----------------------------


def _grid_size(tracer, a, b, n):
    cells = a * n * b * n
    tracer.count("meshspectra.eigenvalues", cells)
    tracer.count("meshspectra.grid_bytes", 8 * cells)


def _hook_grid(tracer, args, kwargs, result, sub):
    # (a, b, n, ...) for the functions that build an (an, bn) eigenvalue grid
    _grid_size(tracer, *args[:3])


def _hook_closed_form(tracer, args, kwargs, result, sub):
    _grid_size(tracer, *args[1:4])


def _hook_spectrum(tracer, args, kwargs, result, sub):
    dim = np.shape(args[0])[0]
    tracer.count("laplacian.solves")
    tracer.count("laplacian.dense_bytes", 16 * dim * dim)
    tracer.peak("laplacian.dim_max", dim)


def _hook_discretize(tracer, args, kwargs, result, sub):
    tracer.count("meshes.vertices", result.n_vertices)
    tracer.count("meshes.edges", len(result.edges))


def _hook_refine(tracer, args, kwargs, result, sub):
    tracer.count("complexes.cells_refined", result.n_cells)


def _hook_monodromy(tracer, args, kwargs, result, sub):
    tracer.count("bundles.monodromies")


def _hook_flat_check(tracer, args, kwargs, result, sub):
    tracer.count("bundles.faces_checked", sub["bundles.monodromies"])
    tracer.peak("bundles.flat_defect_max", result[1])


def _hook_enumerate(tracer, args, kwargs, result, sub):
    mesh = args[0]
    key = (mesh.surface.name, mesh.n)
    tracer.count("forests.enumerations")
    if key in tracer.seen_meshes:
        tracer.count("forests.repeat_enumerations")
    tracer.seen_meshes.add(key)
    nv, ne = mesh.n_vertices, len(mesh.edges)
    tracer.count("forests.subsets_tested", math.comb(ne, nv) if nv <= ne else 0)
    tracer.count("forests.crsfs_found", len(result))


def _hook_weighted_sum(tracer, args, kwargs, result, sub):
    crsfs = kwargs.get("crsfs", args[1] if len(args) > 1 else None)
    tracer.count("forests.forest_terms",
                 len(crsfs) if crsfs is not None else sub["forests.crsfs_found"])


def _hook_expectation(tracer, args, kwargs, result, sub):
    tracer.count("forests.forest_terms", sub["forests.crsfs_found"])


def _hook_census(tracer, args, kwargs, result, sub):
    conn = kwargs.get("conn", args[1] if len(args) > 1 else None)
    if conn is not None:
        tracer.count("forests.forest_terms", sub["forests.crsfs_found"])


def _hook_embedding(tracer, args, kwargs, result, sub):
    support = int(np.count_nonzero(args[2]))
    tracer.count("experiments.embedding_pairs", support * support)
    worst = max(abs(result[0] - 1.0), abs(result[1] - 1.0))
    tracer.peak("experiments.residual_over_tol_max", worst / EMBEDDING_TOL)


def _hook_convergence(tracer, args, kwargs, result, sub):
    if result.target is not None:
        err = abs(result.extrapolated - result.target)
        tracer.peak("experiments.residual_over_tol_max", err / RENORM_TOL[args[0].kind])


def _hook_cli_main(tracer, args, kwargs, result, sub):
    argv = list(args[0]) if args else []
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    if out is not None and os.path.isdir(out):
        with os.scandir(out) as entries:
            tracer.count("cli.bytes_written",
                         sum(e.stat().st_size for e in entries if e.is_file()))


HOOKS = {
    "meshspectra.mesh_eigenvalue_grid": _hook_grid,
    "meshspectra.torus_mesh_spectrum": _hook_grid,
    "meshspectra.cylinder_mesh_spectrum": _hook_grid,
    "meshspectra.closed_form_log_det": _hook_closed_form,
    "laplacian.spectrum": _hook_spectrum,
    "meshes.discretize": _hook_discretize,
    "complexes.SquareComplex.refine": _hook_refine,
    "bundles.cycle_monodromy": _hook_monodromy,
    "bundles.flat_check": _hook_flat_check,
    "forests.enumerate_crsfs": _hook_enumerate,
    "forests.crsf_weighted_sum": _hook_weighted_sum,
    "forests.noncontractible_expectation": _hook_expectation,
    "forests.crsf_census_csv": _hook_census,
    "experiments.embedding_check": _hook_embedding,
    "experiments.convergence_study": _hook_convergence,
    "cli.main": _hook_cli_main,
}


def _wrap(tracer, span, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            sub = tracer.close(idx)
        if hook is not None:
            hook(tracer, args, kwargs, result, sub)
        return result
    return traced


class Instrumentation:
    """Wrappers for every layer function, installed and removed per pass."""

    def __init__(self, tracer):
        self.functions = {}     # id(original) -> (original, wrapper)
        self.methods = []       # (class, attribute, original, wrapper)
        self._restore = []
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                span = f"{layer}.{attr}"
                self.functions[id(fn)] = (fn, _wrap(tracer, span, fn, HOOKS.get(span)))
            for cls_name, attrs in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for attr in attrs:
                    fn = vars(cls)[attr]
                    span = f"{layer}.{cls_name}.{attr}"
                    self.methods.append((cls, attr, fn, _wrap(tracer, span, fn, HOOKS.get(span))))

    def install(self):
        for module in [m for name, m in sys.modules.items()
                       if name == PACKAGE or name.startswith(PACKAGE + ".")]:
            for attr, value in list(vars(module).items()):
                entry = self.functions.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, value))
        for cls, attr, fn, wrapper in self.methods:
            setattr(cls, attr, wrapper)
            self._restore.append((cls, attr, fn))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
