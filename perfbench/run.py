"""torsionlab benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload crsf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, a table

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of the traced passes (see tracer.py).  The last line of
standard output is a JSON object with the keys correct, attempted, failed and
metrics; the line before it is a report with the environment, the seed and
the sample counts, also written under ``.perfbench_out/``.  The exit code is
non-zero when a task fails its check, or when the program cannot be found.
"""

import time

START = time.perf_counter()     # set-up time counts from here, before any import

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# name -> unit; the same six on every workload
END_TO_END = {"setup_s": "s", "pass_s": "s", "task_p50_s": "s", "task_p90_s": "s",
              "peak_rss_mb": "MB", "success_rate": "fraction"}
PER_LAYER = {
    "meshspectra.self_s": "s", "meshspectra.calls": "count",
    "meshspectra.eigenvalues": "count", "meshspectra.grid_bytes": "B",
    "torsion.self_s": "s", "torsion.calls": "count",
    "experiments.self_s": "s", "experiments.calls": "count",
    "experiments.embedding_pairs": "count", "experiments.residual_over_tol_max": "ratio",
    "laplacian.self_s": "s", "laplacian.assemble_s": "s", "laplacian.solve_s": "s",
    "laplacian.solves": "count", "laplacian.dim_max": "count", "laplacian.dense_bytes": "B",
    "meshes.self_s": "s", "meshes.calls": "count", "meshes.vertices": "count",
    "meshes.edges": "count", "meshes.us_per_vertex": "us",
    "complexes.self_s": "s", "complexes.cells_refined": "count",
    "bundles.self_s": "s", "bundles.faces_checked": "count", "bundles.monodromies": "count",
    "bundles.flat_defect_max": "abs",
    "forests.self_s": "s", "forests.enumerations": "count",
    "forests.repeat_enumerations": "count", "forests.subsets_tested": "count",
    "forests.crsfs_found": "count", "forests.useful_ratio": "fraction",
    "forests.forest_terms": "count",
    "surfaces.self_s": "s", "surfaces.calls": "count",
    "cli.self_s": "s", "cli.bytes_written": "B",
    "bench.self_s": "s", "trace.pass_s": "s", "trace.overhead_frac": "fraction",
}
WORKLOADS = ("closed-form", "dense-general", "crsf", "mesh-build")
# Set-up runs this many more times, each in a fresh process, for its median.
SETUP_PROBES = 6
# Passes go on at most this many seconds past --seconds to gather the task
# samples the 90th percentile needs.
GRACE_S = 90
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "TORSIONLAB_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit (internal)")
    return parser.parse_args(argv)


def import_program():
    """Import torsionlab from this checkout's src/, or exit 2."""
    if not (SRC / "torsionlab" / "__init__.py").is_file():
        sys.exit(f"error: no torsionlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import torsionlab
    if Path(torsionlab.__file__).resolve().parent != SRC / "torsionlab":
        sys.exit(f"error: torsionlab imported from {torsionlab.__file__}, not {SRC}")


def environment():
    """Machine, interpreter, numpy/BLAS build and BLAS thread settings."""
    import importlib.metadata
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy_version,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "threads_after_warmup": threads}


def setup_probes(args):
    """Set-up times of SETUP_PROBES fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def warm_up():
    """Start the BLAS thread pool and load LAPACK's Hermitian eigensolver.

    The first complex ``eigvalsh`` large enough to use threads costs about a
    second; without this the first timed pass would pay it.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    np.linalg.eigvalsh(a + a.conj().T)


def write_spans(tracer, args):
    """Every recorded span, as arrays, under .perfbench_out/."""
    import numpy as np
    names, name_ids, start, end, parent, task = tracer.spans()
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"spans-{args.workload}-seed{args.seed}.npz", names=np.array(names),
             name=name_ids, start=start, end=end, parent=parent, task=task)


def metric(value, unit):
    return {"value": value, "unit": unit}


def traced_metrics(tasks, args, report):
    """Alternating untraced and traced passes; the per-layer metrics."""
    import measure
    from tracer import BENCH, LAYERS, Instrumentation, Tracer
    tracer = Tracer()
    plain, traced = measure.measure_traced(tasks, args.seconds, args.seconds + GRACE_S,
                                           tracer, Instrumentation(tracer))
    values, by_name = measure.per_layer_metrics(tracer, plain, traced)
    report["untraced_pass_s"] = measure.timing_summary([p.wall for p in plain])
    report["traced_pass_s"] = measure.timing_summary([p.wall for p in traced])
    report["layers_plus_bench_s"] = sum(values[f"{layer}.self_s"]
                                        for layer in LAYERS + (BENCH,))
    report["spans"] = by_name
    write_spans(tracer, args)
    return plain + traced, {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}


def end_to_end_metrics(tasks, args, setup_s, report):
    """Untraced passes, then the set-up probes; the end-to-end metrics."""
    import measure
    passes = measure.measure(tasks, args.seconds, args.seconds + GRACE_S)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + setup_probes(args)
    latencies = [x for p in passes for x in p.latencies]
    p90 = measure.percentile(latencies, 0.9)
    if p90 is None:
        raise SystemExit(f"error: {len(latencies)} task samples cannot support "
                         "the 90th percentile")
    error_rate = sum(len(p.failures) for p in passes) / len(latencies)
    values = {"setup_s": statistics.median(setups),
              "pass_s": statistics.median(p.wall for p in passes),
              "task_p50_s": statistics.median(latencies),
              "task_p90_s": p90,
              "peak_rss_mb": peak_rss_mb,
              "success_rate": 1.0 - error_rate}
    report["setup_s"] = setups
    report["pass_s"] = measure.timing_summary([p.wall for p in passes])
    report["pass_walls"] = [p.wall for p in passes]
    report["task_s"] = measure.timing_summary(latencies)
    report["error_rate"] = error_rate
    return passes, {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def run_workload(args):
    import_program()
    import workloads

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        tasks = workloads.build(args.workload, args.seed, workdir)
        warm_up()
        setup_s = time.perf_counter() - START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment(),
                  "tasks": [t.name for t in tasks]}
        if args.trace:
            passes, metrics = traced_metrics(tasks, args, report)
        else:
            passes, metrics = end_to_end_metrics(tasks, args, setup_s, report)
        failures = [f for p in passes for f in p.failures]
        report["failures"] = failures[:20]
        result = {"correct": not failures,
                  "attempted": sum(len(p.latencies) for p in passes),
                  "failed": len(failures), "metrics": metrics}
        OUT.mkdir(exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps({"report": report, "result": result}, indent=1))
        print(json.dumps({"report": report}))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args):
    """Every workload in its own fresh process; a table of the metrics."""
    units = PER_LAYER if args.trace else END_TO_END
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = code or proc.returncode or 1
            combined["correct"] = False
            if not lines:
                continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name in units:
            m = result["metrics"][name]
            combined["metrics"][f"{workload}.{name}"] = m
            print(f"{workload:14s} {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(combined))
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
