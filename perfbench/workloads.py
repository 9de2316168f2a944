"""The benchmark's workloads: inputs drawn from the seed, tasks and their checks.

Each workload is a fixed list of tasks.  A task is one ``torsionlab run``
experiment, invoked in-process through ``torsionlab.cli.main``, or one of the
library pipelines the acceptance battery uses that has no CLI kind.  Every
task's result is checked against an oracle at the acceptance tolerances.

Each list has 25 tasks.  With 25 tasks, half of 25 and nine tenths of 25 both
fall halfway between two whole numbers, so the median and the 90th percentile
of the task latencies land in the middle of the 13th and the 23rd task's
cluster of samples, whatever the number of passes; a count of 20 or 30 would
put them on the boundary between two different tasks.  The lists are also
built so that the 13th and 23rd fastest tasks sit in a group of tasks of about
the same cost, so that a percentile is read from the samples of several tasks
and not from a jump in latency between two.

The program receives only what is generated here: configs, representations
as explicit generators, twist phases, profile coefficients and sections.
Every call goes through a module attribute (``meshes.discretize``, never a
name imported from it), so the traced passes see it.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from torsionlab import (bundles, cli, experiments, forests, laplacian, meshes,
                        meshspectra, surfaces, torsion)

# Acceptance tolerances, by the criterion they come from.
RENORM_TOL = {"torus": 1e-3, "rectangle": 2e-3, "cylinder": 2e-3}  # 05, 06
RENORM_LAST_TOL = 5e-3          # 05: last point of the torus series
RATIO_SYMMETRY_TOL = 1e-12      # 12
SZEGO_LAST_TOL = 0.02           # 09
HEAT_TOL = 1e-5                 # 08
IDENTITY_TOL = 1e-9             # 02: CRSF sums against dense det'
SPECTRUM_TOL = 1e-10            # 03: rescaled closed-form vs dense deviation
MATRIX_TREE_TOL = 1e-6          # 01
EMBEDDING_TOL = 1e-7            # 10
LOGDET_TOL = 1e-10              # dense log det' against its oracle, relative
TORSION_TOL = 1e-12
FLATNESS_TOL = 1e-10


class CheckFailed(Exception):
    """A task's result disagrees with its oracle."""


def require(ok, what):
    if not ok:
        raise CheckFailed(what)


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]     # raises CheckFailed


def contracting(xs):
    """True when the successive differences of ``xs`` strictly shrink."""
    d = [abs(b - a) for a, b in zip(xs, xs[1:])]
    return len(d) >= 2 and all(y < x for x, y in zip(d, d[1:]))


def decreasing(xs):
    return len(xs) >= 2 and all(y < x for x, y in zip(xs, xs[1:]))


def number(field):
    """A float from a CSV field.

    The CLI writes numpy scalars with their repr, so under numpy 2 some
    fields read ``np.float64(x)``; the value inside is still exact.
    """
    if field.startswith("np.float64(") and field.endswith(")"):
        field = field[len("np.float64("):-1]
    return float(field)


# -- CLI runs ----------------------------------------------------------------


class CliRun:
    """One ``torsionlab run`` of a config written at set-up, invoked in-process."""

    def __init__(self, workdir, name, cfg, seed):
        self.out = workdir / name
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(cfg))
        self.argv = ["run", "--config", str(path), "--out", str(self.out),
                     "--seed", str(seed)]

    def __call__(self):
        return cli.main(self.argv)

    def meta(self):
        return json.loads((self.out / "meta.json").read_text())

    def rows(self, name):
        with open(self.out / name, newline="") as fh:
            return list(csv.DictReader(fh))

    def text(self, name):
        return (self.out / name).read_text()


def cli_task(workdir, seed, name, cfg, check):
    """A task running ``cfg`` through the CLI; ``check`` reads its outputs."""
    run = CliRun(workdir, name, cfg, seed)

    def check_outputs(code):
        try:
            require(code == 0, f"exit code {code}")
            check(run)
        finally:
            # the next pass must not find this pass's files
            shutil.rmtree(run.out, ignore_errors=True)

    return Task(name, run, check_outputs)


def _phase(rng):
    return float(2 * math.pi * rng.random())


def _rank1_rep(phases):
    gens = [np.array([[np.exp(1j * p)]]) for p in phases]
    return bundles.HolonomyRepresentation(rank=1, generators=gens)


def _rank2_rep(rng, phases):
    """Commuting SU(2) generators g diag(e^{i p}, e^{-i p}) g*: the bundle
    splits into the line bundles with phases +p and -p."""
    g = bundles.random_su2(rng)
    gens = [g @ np.diag([np.exp(1j * p), np.exp(-1j * p)]) @ g.conj().T for p in phases]
    return bundles.HolonomyRepresentation(rank=2, generators=gens)


def _bundle_cfg(rep):
    return {"kind": "raw", **rep.to_json()}


# -- closed-form ---------------------------------------------------------------


def closed_form(seed, workdir):
    """The renormalized-determinant study on the separable surfaces."""
    rng = np.random.default_rng(seed)
    cyl_alpha, tor_alpha, tor_beta = _phase(rng), _phase(rng), _phase(rng)
    ratio_alpha, ratio_b1, ratio_b2 = _phase(rng), _phase(rng), _phase(rng)
    profiles = [{"a": 2, "b": 2, "coeffs": [[i, j, float(rng.standard_normal())]
                                            for i, j in ((0, 0), (2, 0), (1, 1))]}
                for _ in range(5)]
    ladder = [256, 512, 1024, 2048]
    tasks = []

    def add(name, cfg, check):
        tasks.append(cli_task(workdir, seed, name, cfg, check))

    def renorm(kind, a, b, ns, bundle=None):
        cfg = {"experiment": "renorm-series", "surface": {"kind": kind, "a": a, "b": b},
               "n_list": ns}
        if bundle:
            cfg["bundle"] = bundle
        return cfg

    def near_target(kind, last_tol=None):
        def check(run):
            meta = run.meta()
            require(meta["target"] is not None, "no target")
            err = abs(meta["extrapolated"] - meta["target"])
            require(err < RENORM_TOL[kind], f"|extrapolated - target| = {err:.3e}")
            if last_tol is not None:
                last = float(run.rows("series.csv")[-1]["renormalized"])
                off = abs(last - meta["target"])
                require(off < last_tol, f"last point off by {off:.3e}")
        return check

    def contracts(run):
        renorms = [float(r["renormalized"]) for r in run.rows("series.csv")]
        require(contracting(renorms), f"series does not contract: {renorms}")
        require(math.isfinite(run.meta()["extrapolated"]), "extrapolated limit not finite")

    add("renorm-torus11", renorm("torus", 1, 1, ladder + [4096]),
        near_target("torus", RENORM_LAST_TOL))
    add("renorm-rectangle11", renorm("rectangle", 1, 1, ladder), near_target("rectangle"))
    add("renorm-rectangle21", renorm("rectangle", 2, 1, ladder), near_target("rectangle"))
    add("renorm-torus21", renorm("torus", 2, 1, ladder), near_target("torus"))
    add("renorm-cylinder21", renorm("cylinder", 2, 1, ladder), near_target("cylinder"))
    add("renorm-cylinder21-twisted",
        renorm("cylinder", 2, 1, ladder, {"alpha": cyl_alpha}), contracts)
    add("renorm-torus11-twisted",
        renorm("torus", 1, 1, ladder, {"alpha": tor_alpha, "beta": tor_beta}), contracts)

    def ratio(alpha_a, beta_a, alpha_b, beta_b):
        return {"experiment": "ratio", "surface": {"kind": "torus", "a": 1, "b": 1},
                "surface_b": {"kind": "torus", "a": 1, "b": 1},
                "bundle": {"alpha": alpha_a, "beta": beta_a},
                "bundle_b": {"alpha": alpha_b, "beta": beta_b}, "n_list": ladder}

    def symmetric(run):
        ratios = [float(r["ratio"]) for r in run.rows("ratios.csv")]
        require(all(abs(r - 1.0) < RATIO_SYMMETRY_TOL for r in ratios),
                f"swapped phases change det': {ratios}")

    def cauchy(run):
        diffs = run.meta()["cauchy_diffs"]
        require(decreasing(diffs), f"Cauchy differences do not decrease: {diffs}")

    add("ratio-swap", ratio(ratio_alpha, ratio_b1, ratio_b1, ratio_alpha), symmetric)
    add("ratio-cauchy", ratio(ratio_alpha, ratio_b1, ratio_alpha, ratio_b2), cauchy)
    add("ratio-cauchy-half-turns", ratio(math.pi, math.pi, math.pi, 0.0), cauchy)

    def szego(run):
        rows = run.rows("szego.csv")
        errs = [abs(number(r["direct"]) - number(r["predicted"])) for r in rows]
        require(decreasing(errs) and errs[-1] < SZEGO_LAST_TOL,
                f"|direct - predicted| = {errs}")

    for k, prof in enumerate(profiles):
        add(f"szego-{k}", {"experiment": "szego", "profile": prof,
                           "n_list": [128, 256, 512, 1024]}, szego)

    def weyl(run):
        require(run.meta()["C_min"] > 0, "C_min <= 0")

    add("weyl-rectangle11", {"experiment": "weyl-check",
                             "surface": {"kind": "rectangle", "a": 1, "b": 1},
                             "n_list": [2, 4, 8, 16, 32, 64, 128, 256]}, weyl)

    def heat(run):
        worst = max(float(r["abs_resid"]) for r in run.rows("heat.csv"))
        require(worst < HEAT_TOL, f"heat-trace residual {worst:.3e}")

    t_list = np.linspace(0.02, 0.2, 37).tolist()
    for kind, a, b in (("rectangle", 2, 2), ("torus", 4, 4), ("cylinder", 4, 2)):
        add(f"heat-{kind}{a}{b}", {"experiment": "heat-trace",
                                   "surface": {"kind": kind, "a": a, "b": b},
                                   "t_list": t_list}, heat)

    def torsion_equals(expect):
        def check(run):
            got = run.meta()["log_det_prime"]
            require(abs(got - expect()) < TORSION_TOL, f"log det' {got!r}")
        return check

    eta_i = math.gamma(0.25) / (2 * math.pi ** 0.75)
    for name, kind, a, b, expect in (
            ("torsion-torus11", "torus", 1, 1, lambda: 4 * math.log(eta_i)),
            ("torsion-torus21", "torus", 2, 1, lambda: torsion.torus_torsion(1, 2)),
            ("torsion-rectangle21", "rectangle", 2, 1,
             lambda: torsion.rectangle_torsion(1, 2))):
        add(name, {"experiment": "torsion", "surface": {"kind": kind, "a": a, "b": b}},
            torsion_equals(expect))

    def zeta_equals(expect):
        def check(run):
            got = Fraction(run.meta()["zeta0"])
            require(got == expect, f"zeta(0) = {got}, expected {expect}")
        return check

    for name, spec, expect in (
            ("zeta0-rectangle11", {"kind": "rectangle", "a": 1, "b": 1}, Fraction(-3, 4)),
            ("zeta0-lshape", {"kind": "lshape"}, Fraction(-13, 18)),
            ("zeta0-cylinder32", {"kind": "cylinder", "a": 3, "b": 2}, Fraction(-1))):
        add(name, {"experiment": "zeta0", "surface": spec}, zeta_equals(expect))
    return tasks


# -- dense-general -------------------------------------------------------------


def dense_general(seed, workdir):
    """Twisted log det' on general surfaces through the dense route."""
    rng = np.random.default_rng(seed)
    tasks = []

    def logdet_cfg(spec, n, bundle=None):
        cfg = {"experiment": "logdet", "surface": spec, "n": n}
        if bundle:
            cfg["bundle"] = bundle
        return cfg

    def logdet_equals(expect, kernel_dim):
        def check(run):
            meta = run.meta()
            require(meta["kernel_dim"] == kernel_dim, f"kernel dim {meta['kernel_dim']}")
            got = meta["logdet_prime"]
            require(abs(got - expect) <= LOGDET_TOL * abs(expect),
                    f"log det' {got!r}, oracle {expect!r}")
        return check

    # Trivial bundle: the matrix-tree theorem gives det' = |V| det(reduced L),
    # a route independent of the eigensolver.
    for name, spec, n in (("logdet-cone3", {"kind": "cone", "k": 3}, 5),
                          ("logdet-lshape", {"kind": "lshape"}, 8),
                          ("logdet-slit", {"kind": "slit"}, 7)):
        mesh = meshes.discretize(surfaces.build_surface(spec), n)
        lap = laplacian.assemble(bundles.trivial_connection(mesh, 1)).real
        sign, logabs = np.linalg.slogdet(lap[1:, 1:])
        require(sign > 0, f"{name}: reduced Laplacian not positive definite")
        tasks.append(cli_task(workdir, seed, name, logdet_cfg(spec, n),
                              logdet_equals(math.log(mesh.n_vertices) + logabs, 1)))

    # Random flat bundles on tori and cylinders: the closed form is the sum of
    # the line-bundle closed forms.
    for kind, a, b, n in (("torus", 2, 2, 10), ("cylinder", 3, 2, 8)):
        ngens = 2 if kind == "torus" else 1
        spec = {"kind": kind, "a": a, "b": b}
        phases = [_phase(rng) for _ in range(ngens)]
        for rep, signs in ((_rank1_rep(phases), (1,)), (_rank2_rep(rng, phases), (1, -1))):
            expect = sum(meshspectra.closed_form_log_det(kind, a, b, n, *[s * p for p in phases])
                         for s in signs)
            tasks.append(cli_task(workdir, seed, f"logdet-{kind}{a}{b}-rank{rep.rank}",
                                  logdet_cfg(spec, n, _bundle_cfg(rep)),
                                  logdet_equals(expect, 0)))

    def series_contracts(renorms):
        require(contracting(renorms), f"series does not contract: {renorms}")

    tasks.append(Task("dense-series-cone1",
                      lambda: experiments.dense_renorm_series(surfaces.cone_model(1), [2, 4, 8]),
                      lambda s: series_contracts(s.renorms)))
    tasks.append(Task("dense-series-lshape",
                      lambda: experiments.dense_renorm_series(surfaces.lshape(), [2, 4, 8]),
                      lambda s: series_contracts(s.renorms)))
    tasks.append(Task("model-correction-slit",
                      lambda: experiments.model_correction_series(surfaces.slit(), [2, 4, 8]),
                      lambda r: series_contracts(r[1])))

    # Closed-form against dense spectra (criterion 03), one task per shape.
    def sweep(kind, a, b, phases):
        def run():
            worst = 0.0
            surface = (surfaces.rectangle if kind == "rectangle" else surfaces.torus)(a, b)
            for n in range(1, 6):
                mesh = meshes.discretize(surface, n)
                if kind == "rectangle":
                    conn = bundles.trivial_connection(mesh, 1)
                    closed = meshspectra.rectangle_mesh_spectrum(a, b, n)
                else:
                    conn = bundles.connection_from_holonomy(mesh, _rank1_rep(phases))
                    closed = meshspectra.torus_mesh_spectrum(a, b, n, *phases)
                dense = laplacian.spectrum(laplacian.assemble(conn))
                dev = np.max(np.abs(dense.eigenvalues - closed.eigenvalues)) * n * n
                worst = max(worst, float(dev))
            return worst
        return Task(f"spectra-{kind}{a}{b}", run,
                    lambda worst: require(worst < SPECTRUM_TOL,
                                          f"rescaled deviation {worst:.3e}"))

    for a, b in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
        tasks.append(sweep("rectangle", a, b, None))
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            tasks.append(sweep("torus", a, b, (_phase(rng), _phase(rng))))
    return tasks


# -- crsf ------------------------------------------------------------------------


def crsf(seed, workdir):
    """The Kenyon and Forman identity sweeps over brute-force CRSF sums."""
    rng = np.random.default_rng(seed)
    tasks = []
    found = {}      # mesh key -> the CRSFs its enumeration task found this pass

    # CRSF counts of these meshes (combinatorial facts of the graphs).
    sweeps = (("cylinder31n2", surfaces.cylinder(3, 1), 2, 11208, {1: 1, 2: 1}),
              ("torus21n2", surfaces.torus(2, 1), 2, 7510, {1: 5, 2: 2}),
              ("torus11n3", surfaces.torus(1, 1), 3, 27950, {1: 0, 2: 2}))
    graphs = {key: meshes.discretize(surface, n) for key, surface, n, _, _ in sweeps}
    for key, _, _, count, _ in sweeps:
        def enumerate_run(mesh=graphs[key], key=key):
            found[key] = forests.enumerate_crsfs(mesh)
            return found[key]

        tasks.append(Task(f"enumerate-{key}", enumerate_run,
                          lambda r, count=count: require(len(r) == count,
                                                         f"{len(r)} CRSFs, expected {count}")))

    def identity(name, mesh, rep, crsfs):
        """Kenyon (rank 2, sum = sqrt det') or Forman (rank 1, sum = det')."""
        def run():
            conn = bundles.connection_from_holonomy(mesh, rep)
            total = forests.crsf_weighted_sum(conn, crsfs=crsfs())
            spec = laplacian.spectrum(laplacian.assemble(conn), expected_kernel_dim=0)
            return total, laplacian.log_det_prime(spec)

        def check(result):
            total, logdet = result
            want = math.exp(logdet if rep.rank == 1 else 0.5 * logdet)
            require(abs(total - want) <= IDENTITY_TOL * want,
                    f"CRSF sum {total!r} vs {want!r}")
        return Task(name, run, check)

    for key, surface, _, _, reps in sweeps:
        for rank in (1, 2):
            for k in range(reps[rank]):
                rep = bundles.random_flat_representation(surface, rank, rng)
                tasks.append(identity(f"identity-{key}-rank{rank}-{k}", graphs[key], rep,
                                      lambda key=key: found[key]))

    # Small graphs of criterion 02, enumerated inside the task.
    for key, surface, n, rank, reps in (("torus11n2", surfaces.torus(1, 1), 2, 2, 2),
                                        ("cylinder31n1", surfaces.cylinder(3, 1), 1, 2, 1)):
        mesh = meshes.discretize(surface, n)
        for k in range(reps):
            rep = bundles.random_flat_representation(surface, rank, rng)
            tasks.append(identity(f"identity-{key}-rank{rank}-{k}", mesh, rep,
                                  lambda mesh=mesh: forests.enumerate_crsfs(mesh)))

    # The non-contractible expectation enumerates again and checks sqrt(det')
    # itself; 6334 of the 7510 CRSFs have only non-contractible cycles.
    tor_mesh = meshes.discretize(surfaces.torus(2, 1), 2)
    tor_rep = bundles.random_flat_representation(tor_mesh.surface, 2, rng)

    def expectation_ok(result):
        value, count = result
        require(count == 6334, f"{count} non-contractible CRSFs, expected 6334")
        require(math.isfinite(value), f"expectation {value!r}")

    tasks.append(Task("noncontractible-torus21n2",
                      lambda: forests.noncontractible_expectation(
                          bundles.connection_from_holonomy(tor_mesh, tor_rep)),
                      expectation_ok))

    # The CLI enumerates twice: once for the sum, once for the census.
    def verified(run):
        require(run.text("report.txt").rstrip().endswith("sqrt_ok=true"),
                f"report: {run.text('report.txt').strip()}")
        require(run.meta()["identity_ok"] is True, "identity_ok is not true")
        rows = len(run.rows("crsf.csv"))
        require(rows == 66, f"census has {rows} rows, expected 66")

    small_rep = bundles.random_flat_representation(surfaces.torus(1, 1), 2, rng)
    tasks.append(cli_task(workdir, seed, "crsf-verify-torus11n2",
                          {"experiment": "crsf-verify",
                           "surface": {"kind": "torus", "a": 1, "b": 1}, "n": 2,
                           "bundle": _bundle_cfg(small_rep)}, verified))

    # Matrix-tree counts (criterion 01): brute force and det'/|V| agree.
    def trees(surface, expect):
        def run():
            mesh = meshes.discretize(surface, 1)
            brute = forests.count_spanning_trees(mesh)
            spec = laplacian.spectrum(laplacian.assemble(bundles.trivial_connection(mesh, 1)),
                                      expected_kernel_dim=1)
            return brute, math.exp(laplacian.log_det_prime(spec)) / mesh.n_vertices

        def check(result):
            brute, mt = result
            require(brute == expect and abs(mt - brute) < MATRIX_TREE_TOL * brute,
                    f"trees: brute {brute}, det'/|V| {mt!r}, expected {expect}")
        return Task(f"trees-{surface.name}", run, check)

    for surface, expect in ((surfaces.rectangle(2, 2), 4), (surfaces.rectangle(2, 3), 15),
                            (surfaces.rectangle(3, 3), 192), (surfaces.cylinder(3, 1), 3),
                            (surfaces.cylinder(4, 1), 4), (surfaces.cylinder(5, 1), 5)):
        tasks.append(trees(surface, expect))
    return tasks


# -- mesh-build --------------------------------------------------------------------


def mesh_build(seed, workdir):
    """The front half of the general-surface pipeline at large n, with no solve."""
    rng = np.random.default_rng(seed)
    tasks = []
    built = {}      # mesh key -> the mesh its discretize task built this pass

    def discretize_task(key, surface, n):
        summary = surfaces.geometry_summary(surface)
        vertices = summary.area * n * n
        # every subcell has four sides; a paired side pair is one edge
        edges = 2 * vertices - summary.perimeter * n // 2

        def run():
            built[key] = meshes.discretize(surface, n)
            return built[key]

        def check(mesh):
            require(mesh.n_vertices == vertices and len(mesh.edges) == edges,
                    f"V={mesh.n_vertices} E={len(mesh.edges)}, expected {vertices}, {edges}")
        return Task(f"discretize-{key}", run, check), summary

    for key, surface, n in (("cone3n14", surfaces.cone_model(3), 14),
                            ("slitn18", surfaces.slit(), 18),
                            ("lshapen20", surfaces.lshape(), 20)):
        task, summary = discretize_task(key, surface, n)
        tasks.append(task)
        quadrants = {pid: vc.quadrants for pid, vc in surface.singular_points().items()}

        def neighbors(key=key):
            mesh = built[key]
            return {pid: meshes.cone_neighbors(mesh, pid) for pid in mesh.cone_neighbor_sets()}

        def neighbors_ok(sets, quadrants=quadrants):
            sizes = {pid: len(set(ids)) for pid, ids in sets.items()}
            require(sizes == quadrants, f"neighbor set sizes {sizes}, expected {quadrants}")

        def faces_ok(faces, key=key, chi=summary.euler_char):
            # interior lattice points of the refined complex: chi + E - V
            mesh = built[key]
            expect = chi + len(mesh.edges) - mesh.n_vertices
            require(len(faces) == expect, f"{len(faces)} faces, expected {expect}")

        def flat_ok(result):
            ok, worst = result
            require(ok and worst == 0.0, f"trivial connection not flat: {worst!r}")

        def csv_ok(text, key=key):
            lines = text.splitlines()
            total = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
            require(lines[0] == "u,v,multiplicity" and total == len(built[key].edges),
                    f"edge multiplicities sum to {total}")

        tasks.append(Task(f"cone-neighbors-{key}", neighbors, neighbors_ok))
        tasks.append(Task(f"faces-{key}", lambda key=key: built[key].faces(), faces_ok))
        tasks.append(Task(f"flat-check-{key}",
                          lambda key=key: bundles.flat_check(
                              bundles.trivial_connection(built[key], 1)), flat_ok))
        tasks.append(Task(f"edges-csv-{key}", lambda key=key: built[key].edges_csv(), csv_ok))

    # A random rank-2 flat bundle on a large torus.
    torus = surfaces.torus(3, 2)
    task, _ = discretize_task("torus32n24", torus, 24)
    tasks.append(task)
    rep = bundles.random_flat_representation(torus, 2, rng)
    connection = {}

    def connect():
        connection["conn"] = bundles.connection_from_holonomy(built["torus32n24"], rep)
        return connection["conn"]

    def holonomy_ok(conn):
        loop = bundles.generator_loop(conn.graph, 0)
        dev = np.max(np.abs(bundles.cycle_monodromy(conn, loop) - rep.generators[0]))
        require(dev < FLATNESS_TOL, f"generator loop holonomy off by {dev:.3e}")

    def flat_rank2_ok(result):
        ok, worst = result
        require(ok and worst < FLATNESS_TOL, f"flatness defect {worst!r}")

    tasks.append(Task("connection-torus32n24-rank2", connect, holonomy_ok))
    tasks.append(Task("flat-check-torus32n24-rank2",
                      lambda: bundles.flat_check(connection["conn"]), flat_rank2_ok))

    # Embedding identities (criterion 10).
    def embedding_ok(worst):
        require(worst < EMBEDDING_TOL, f"embedding ratio deviation {worst:.3e}")

    tasks.append(cli_task(workdir, seed, "embedding-check-torus22",
                          {"experiment": "embedding-check",
                           "surface": {"kind": "torus", "a": 2, "b": 2},
                           "n_list": [2, 3, 4], "trials": 2},
                          lambda run: embedding_ok(run.meta()["worst_deviation"])))
    bump = experiments.build_bump()
    for surface in (surfaces.torus(2, 2), surfaces.rectangle(2, 2)):
        for n in (3, 4, 6):
            mesh = meshes.discretize(surface, n)
            section = rng.standard_normal(mesh.n_vertices)
            section[sorted(mesh.excluded_vertex_ids())] = 0.0

            def embed(surface=surface, n=n, section=section):
                ratios = experiments.embedding_check(meshes.discretize(surface, n),
                                                     bump, section)
                return max(abs(r - 1.0) for r in ratios)

            tasks.append(Task(f"embedding-{surface.name}-n{n}", embed, embedding_ok))
    return tasks


TASK_LISTS = {"closed-form": closed_form, "dense-general": dense_general,
            "crsf": crsf, "mesh-build": mesh_build}


def build(workload, seed, workdir):
    """The task list of ``workload``, with its inputs drawn from ``seed``."""
    workdir.mkdir(parents=True, exist_ok=True)
    tasks = TASK_LISTS[workload](seed, workdir)
    if len(tasks) != 25:
        raise ValueError(f"{workload}: {len(tasks)} tasks, the percentile layout needs 25")
    return tasks
