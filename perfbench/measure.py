"""Passes over a workload's task list, the percentile rule and per-layer sums."""

from __future__ import annotations

import math
import statistics
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from tracer import BENCH, LAYERS, layer_of, self_times

# A high percentile is reported only with this many samples above it.
MIN_ABOVE = 10
PERCENTILES = (0.999, 0.99, 0.95, 0.9)


def percentile(samples, p):
    """Nearest-rank p-quantile of ``samples``, or None when fewer than
    MIN_ABOVE samples lie above its rank."""
    n = len(samples)
    rank = math.ceil(p * n)
    if n == 0 or n - rank < MIN_ABOVE:
        return None
    return sorted(samples)[rank - 1]


def highest_percentile(samples):
    """(p, value) for the highest of PERCENTILES the samples support, or None."""
    for p in PERCENTILES:
        value = percentile(samples, p)
        if value is not None:
            return p, value
    return None


def timing_summary(samples):
    """Median, the highest supported percentile, and the sample count."""
    high = highest_percentile(samples)
    return {"median": statistics.median(samples), "n": len(samples),
            "high_percentile": None if high is None else {"p": high[0], "value": high[1]}}


@dataclass
class PassResult:
    wall: float
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def run_pass(tasks, tracer=None):
    """Run every task once, checks included; a failing task does not stop the pass.

    A task's latency covers its run, not its check.
    """
    result = PassResult(wall=0.0)
    if tracer is not None:
        tracer.seen_meshes.clear()
        root = tracer.open("bench.pass")
    start = perf_counter()
    for task in tasks:
        if tracer is not None:
            tracer.task_id += 1
            span = tracer.open("bench.task")
        t0 = perf_counter()
        latency = None
        try:
            value = task.run()
            latency = perf_counter() - t0
            task.check(value)
        except Exception:   # counted against the task; the pass goes on
            result.failures.append(f"{task.name}: {traceback.format_exc(limit=-3)}")
        result.latencies.append(perf_counter() - t0 if latency is None else latency)
        if tracer is not None:
            tracer.close(span)
    result.wall = perf_counter() - start
    if tracer is not None:
        tracer.close(root)
    return result


def enough_samples(passes):
    """True once the task latencies support the 90th percentile."""
    return percentile([x for p in passes for x in p.latencies], 0.9) is not None


def measure(tasks, seconds, limit):
    """Untraced passes until ``seconds`` have passed and the 90th percentile
    of the task latencies is supported, or until ``limit`` seconds."""
    passes = []
    start = perf_counter()
    while ((perf_counter() - start < seconds or not enough_samples(passes))
           and perf_counter() - start < limit):
        passes.append(run_pass(tasks))
    return passes


def measure_traced(tasks, seconds, limit, tracer, instrumentation):
    """Alternate untraced and traced passes; at least two of each."""
    plain, traced = [], []
    start = perf_counter()
    while ((perf_counter() - start < seconds or len(traced) < 2)
           and perf_counter() - start < limit):
        plain.append(run_pass(tasks))
        instrumentation.install()
        try:
            traced.append(run_pass(tasks, tracer))
        finally:
            instrumentation.uninstall()
    return plain, traced


def layer_totals(tracer):
    """Self time per layer and per span name, summed over all recorded spans."""
    names, name_ids, start, end, parent, _ = tracer.spans()
    own = self_times(start, end, parent)
    per_name = np.bincount(name_ids, weights=own, minlength=len(names))
    calls = np.bincount(name_ids, minlength=len(names))
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS + (BENCH,)}
    for name, t, c in zip(names, per_name.tolist(), calls.tolist()):
        entry = layers[layer_of(name)]
        entry["self_s"] += t
        if layer_of(name) != BENCH:
            entry["calls"] += c
    by_name = {name: {"self_s": t, "calls": c}
               for name, t, c in zip(names, per_name.tolist(), calls.tolist())}
    pass_id = tracer.name_ids.get("bench.pass")
    pass_spans = (end - start)[name_ids == pass_id] if pass_id is not None else end[:0]
    return layers, by_name, pass_spans


def per_layer_metrics(tracer, plain, traced):
    """The per-layer metrics, per traced pass, from the recorded spans and counters."""
    layers, by_name, pass_spans = layer_totals(tracer)
    k = len(pass_spans)
    counts, maxima = tracer.counts, tracer.maxima

    def per_pass(x):
        return x / k

    def self_s(layer):
        return per_pass(layers[layer]["self_s"])

    def span_self(name):
        return per_pass(by_name.get(name, {"self_s": 0.0})["self_s"])

    vertices = per_pass(counts["meshes.vertices"])
    subsets = counts["forests.subsets_tested"]
    untraced = statistics.median(p.wall for p in plain)
    traced_median = statistics.median(p.wall for p in traced)
    values = {
        "meshspectra.self_s": self_s("meshspectra"),
        "meshspectra.calls": per_pass(layers["meshspectra"]["calls"]),
        "meshspectra.eigenvalues": per_pass(counts["meshspectra.eigenvalues"]),
        "meshspectra.grid_bytes": per_pass(counts["meshspectra.grid_bytes"]),
        "torsion.self_s": self_s("torsion"),
        "torsion.calls": per_pass(layers["torsion"]["calls"]),
        "experiments.self_s": self_s("experiments"),
        "experiments.calls": per_pass(layers["experiments"]["calls"]),
        "experiments.embedding_pairs": per_pass(counts["experiments.embedding_pairs"]),
        "experiments.residual_over_tol_max": maxima["experiments.residual_over_tol_max"],
        "laplacian.self_s": self_s("laplacian"),
        "laplacian.assemble_s": span_self("laplacian.assemble"),
        "laplacian.solve_s": span_self("laplacian.spectrum"),
        "laplacian.solves": per_pass(counts["laplacian.solves"]),
        "laplacian.dim_max": maxima["laplacian.dim_max"],
        "laplacian.dense_bytes": per_pass(counts["laplacian.dense_bytes"]),
        "meshes.self_s": self_s("meshes"),
        "meshes.calls": per_pass(layers["meshes"]["calls"]),
        "meshes.vertices": vertices,
        "meshes.edges": per_pass(counts["meshes.edges"]),
        "meshes.us_per_vertex": 1e6 * self_s("meshes") / vertices if vertices else 0.0,
        "complexes.self_s": self_s("complexes"),
        "complexes.cells_refined": per_pass(counts["complexes.cells_refined"]),
        "bundles.self_s": self_s("bundles"),
        "bundles.faces_checked": per_pass(counts["bundles.faces_checked"]),
        "bundles.monodromies": per_pass(counts["bundles.monodromies"]),
        "bundles.flat_defect_max": maxima["bundles.flat_defect_max"],
        "forests.self_s": self_s("forests"),
        "forests.enumerations": per_pass(counts["forests.enumerations"]),
        "forests.repeat_enumerations": per_pass(counts["forests.repeat_enumerations"]),
        "forests.subsets_tested": per_pass(subsets),
        "forests.crsfs_found": per_pass(counts["forests.crsfs_found"]),
        "forests.useful_ratio": counts["forests.crsfs_found"] / subsets if subsets else 0.0,
        "forests.forest_terms": per_pass(counts["forests.forest_terms"]),
        "surfaces.self_s": self_s("surfaces"),
        "surfaces.calls": per_pass(layers["surfaces"]["calls"]),
        "cli.self_s": self_s("cli"),
        "cli.bytes_written": per_pass(counts["cli.bytes_written"]),
        "bench.self_s": self_s(BENCH),
        "trace.pass_s": per_pass(float(np.sum(pass_spans))),
        "trace.overhead_frac": traced_median / untraced - 1.0,
    }
    return values, by_name
