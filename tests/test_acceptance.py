"""Acceptance battery: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np

import oracles
from torsionlab import (bundles, experiments as ex, forests, laplacian, meshes,
                        meshspectra as ms, surfaces, torsion as ts)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name} {detail}".rstrip())
    assert ok, f"criterion {num}: {name}: {detail}"


def _dense_logdet(conn, expected_kernel_dim):
    spec = laplacian.spectrum(laplacian.assemble(conn),
                              expected_kernel_dim=expected_kernel_dim)
    return laplacian.log_det_prime(spec)


def test_criterion_01_matrix_tree():
    t0 = time.time()
    cases = [
        (surfaces.rectangle(2, 2), 4), (surfaces.rectangle(2, 3), 15),
        (surfaces.rectangle(3, 3), 192), (surfaces.cylinder(3, 1), 3),
        (surfaces.cylinder(4, 1), 4), (surfaces.cylinder(5, 1), 5),
    ]
    ok = True
    for surf, expect in cases:
        mesh = meshes.discretize(surf, 1)
        brute = forests.count_spanning_trees(mesh)
        conn = bundles.trivial_connection(mesh, 1)
        mt = math.exp(_dense_logdet(conn, 1)) / mesh.n_vertices
        ok &= brute == expect and round(mt) == brute and abs(mt - brute) < 1e-6 * brute
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    _report(1, "matrix-tree counts (2x2, 2x3, 3x3, C3-C5)", ok,
            f"elapsed {elapsed:.2f}s")


def test_criterion_02_kenyon_crsf():
    t0 = time.time()
    rng = np.random.default_rng(17041)
    graphs = [
        (surfaces.cylinder(3, 1), 1),   # C3
        (surfaces.cylinder(4, 1), 1),   # C4
        (surfaces.cylinder(3, 1), 2),
        (surfaces.torus(1, 1), 2),
    ]
    reps_per_graph = 50
    worst2 = worst1 = 0.0
    for surf, n in graphs:
        mesh = meshes.discretize(surf, n)
        crsfs = forests.enumerate_crsfs(mesh)
        for _ in range(reps_per_graph):
            rep = bundles.random_flat_representation(surf, 2, rng)
            conn = bundles.connection_from_holonomy(mesh, rep)
            sqrt_det = math.exp(0.5 * _dense_logdet(conn, 0))
            s = forests.crsf_weighted_sum(conn, crsfs=crsfs)
            worst2 = max(worst2, abs(s - sqrt_det) / sqrt_det)
        for _ in range(reps_per_graph):
            rep = bundles.random_flat_representation(surf, 1, rng)
            conn = bundles.connection_from_holonomy(mesh, rep)
            det = math.exp(_dense_logdet(conn, 0))
            s = forests.crsf_weighted_sum(conn, crsfs=crsfs)
            worst1 = max(worst1, abs(s - det) / det)
    elapsed = time.time() - t0
    ok = worst2 < 1e-9 and worst1 < 1e-9 and elapsed < 60.0
    _report(2, "Kenyon and Forman CRSF identities, 50 seeded reps/graph", ok,
            f"worst rank-2 {worst2:.2e}, rank-1 {worst1:.2e}, elapsed {elapsed:.1f}s")


def test_criterion_03_closed_form_spectra():
    worst = 0.0
    alpha, beta = 1.3, -0.7
    for a in range(1, 5):
        for b in range(1, 5):
            for n in range(1, 11):
                mesh = meshes.discretize(surfaces.rectangle(a, b), n)
                ev = np.linalg.eigvalsh(laplacian.assemble(
                    bundles.trivial_connection(mesh, 1)))
                cf = ms.rectangle_mesh_spectrum(a, b, n).eigenvalues
                worst = max(worst, float(np.max(np.abs(np.sort(ev) - cf))) * n * n)
                surf = surfaces.torus(a, b)
                mesh = meshes.discretize(surf, n)
                rep = bundles.HolonomyRepresentation(
                    1, [np.array([[np.exp(1j * alpha)]]),
                        np.array([[np.exp(1j * beta)]])])
                conn = bundles.connection_from_holonomy(mesh, rep)
                ev = np.linalg.eigvalsh(laplacian.assemble(conn))
                cf = ms.torus_mesh_spectrum(a, b, n, alpha, beta).eigenvalues
                worst = max(worst, float(np.max(np.abs(np.sort(ev) - cf))) * n * n)
    ok = worst < 1e-10
    _report(3, "closed-form vs dense spectra, a,b <= 4, n <= 10, with torus phases",
            ok, f"worst rescaled deviation {worst:.2e}")


def test_criterion_04_sine_product():
    worst = 0.0
    for m in range(1, 65):
        for x in (0.1, 0.5, 1.0, 2.0, 4.0):
            direct = ms.sin_product_direct(m, x)
            worst = max(worst, abs(ms.sin_product(m, x) - direct) / direct)
    printed = ms.sin_product_uncorrected(2, 1.0)
    typo_documented = (abs(printed - math.sqrt(2)) < 1e-12
                       and abs(ms.sin_product_direct(2, 1.0) - 1.5) < 1e-12)
    ok = worst < 1e-12 and typo_documented
    _report(4, "corrected sine product, m <= 64; printed form fails at (2,1)", ok,
            f"worst rel err {worst:.2e}, printed(2,1)={printed:.12f}")


def test_criterion_05_torus_convergence():
    t0 = time.time()
    setup = ts.SeparableSurface("torus", 1, 1)
    series = ex.convergence_study(setup, [64, 128, 256, 512, 1024, 2048, 4096])
    target = series.target   # 4 log eta(i) via the eta product
    err_extrap = abs(series.extrapolated - target)
    err_last = abs(series.renorms[-1] - target)
    elapsed = time.time() - t0
    ok = err_extrap < 1e-3 and err_last < 5e-3 and elapsed < 120.0
    _report(5, "unit torus renormalized logdet -> 4 log eta(i)", ok,
            f"target {target:.6f}, |extrap-target| {err_extrap:.2e}, "
            f"|x(4096)-target| {err_last:.2e}, elapsed {elapsed:.1f}s")


def test_criterion_06_rectangle_convergence():
    setup = ts.SeparableSurface("rectangle", 1, 1)
    series = ex.convergence_study(setup, [64, 128, 256, 512, 1024, 2048])
    err = abs(series.extrapolated - series.target)
    ok = err < 2e-3
    _report(6, "unit square renormalized logdet -> rectangle torsion - log2/4", ok,
            f"target {series.target:.6f}, |extrap-target| {err:.2e}")


def test_criterion_07_zeta_zero():
    vals = {
        "rectangle": (surfaces.rectangle(1, 1), Fraction(-3, 4)),
        "lshape": (surfaces.lshape(), Fraction(-13, 18)),
        "torus": (surfaces.torus(1, 1), Fraction(-1)),
        "cylinder": (surfaces.cylinder(3, 2), Fraction(-1)),
    }
    ok = True
    for name, (surf, expect) in vals.items():
        got = ts.zeta_zero(surfaces.geometry_summary(surf))
        ok &= got == expect
    mellin = ts.SeparableSurface("rectangle", 1, 1).zeta0_from_heat_trace()
    ok &= abs(mellin - (-0.75)) < 1e-6
    _report(7, "zeta(0) exact values and Mellin cross-check", ok,
            f"mellin err {abs(mellin + 0.75):.2e}")


def test_criterion_08_heat_trace():
    worst = 0.0
    for kind, a, b in (("rectangle", 2, 2), ("torus", 4, 4), ("cylinder", 4, 2)):
        setup = ts.SeparableSurface(kind, a, b)
        for t in np.linspace(0.02, 0.2, 37):
            resid = abs(setup.heat_trace(t) - setup.heat_trace_expansion(t))
            worst = max(worst, resid)
    # the expansion is asymptotic: residuals die off exponentially as t -> 0,
    # demonstrated on the unit torus where the window above is not yet asymptotic
    unit_torus = ts.SeparableSurface("torus", 1, 1)
    small_t = abs(unit_torus.heat_trace(0.01) - unit_torus.heat_trace_expansion(0.01))
    ok = worst < 1e-5 and small_t < 1e-8
    _report(8, "heat-trace expansion, t in [0.02, 0.2]", ok,
            f"worst residual {worst:.2e}, torus(1,1)@t=0.01 {small_t:.2e}")


def test_criterion_09_szego_pipeline():
    rng = np.random.default_rng(20240517)
    cos_profile = ms.FourierProfile(2, 2, {(1, 0): 1.0})
    rand_profile = ms.FourierProfile(
        2, 2, {(0, 0): float(rng.standard_normal()),
               (2, 0): float(rng.standard_normal()),
               (1, 1): float(rng.standard_normal())})
    ok = True
    details = []
    for label, prof in (("cos", cos_profile), ("rand3", rand_profile)):
        errs = [abs(ms.szego_trace_direct(prof, n) - ms.szego_expansion_predicted(prof, n))
                for n in (32, 64, 128)]
        ok &= errs[0] > errs[1] > errs[2] and errs[2] < 0.02
        details.append(f"{label}: {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f}")
    worst_oracle = 0.0
    for n in (2, 4, 8):
        for prof in (cos_profile, rand_profile):
            worst_oracle = max(worst_oracle, abs(
                ms.szego_trace_direct(prof, n) - oracles.szego_trace_contraction(prof, n)))
    ok &= worst_oracle < 1e-9
    _report(9, "Szego direct vs predicted expansion and contraction oracle", ok,
            "; ".join(details) + f"; oracle dev {worst_oracle:.2e}")


def test_criterion_10_embedding():
    bump = ex.build_bump()
    # independent piece-aligned Simpson evaluation of int rho'^2
    dp = bump.half.derivative()
    simpson = 0.0
    for x0, x1 in zip(bump.half.breaks[:-1], bump.half.breaks[1:]):
        xs = np.linspace(x0, x1, 2049)
        w = np.ones_like(xs)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        simpson += (xs[1] - xs[0]) / 3 * float(np.sum(w * dp(xs) ** 2))
    ok = abs(simpson - bump.C) < 1e-10
    worst = 0.0
    n_sections = 0
    rng = np.random.default_rng(314159)
    for surf in (surfaces.rectangle(2, 2), surfaces.torus(2, 2)):
        for n in (2, 3, 4):
            mesh = meshes.discretize(surf, n)
            excluded = mesh.excluded_vertex_ids()
            for _ in range(17):
                f = rng.standard_normal(mesh.n_vertices)
                for v in excluded:
                    f[v] = 0.0
                nr, fr = ex.embedding_check(mesh, bump, f)
                worst = max(worst, abs(nr - 1.0), abs(fr - 1.0))
                n_sections += 1
    ok &= worst < 1e-7 and n_sections >= 100
    _report(10, "embedding norm/form ratios = 1 and C = int rho'^2", ok,
            f"{n_sections} sections, worst ratio dev {worst:.2e}, "
            f"|C - simpson| {abs(simpson - bump.C):.2e}")


def test_criterion_11_uniform_weyl():
    from torsionlab.meshspectra import rectangle_mesh_spectrum, torus_mesh_spectrum
    ok = True
    details = []
    for label, maker in (("square", rectangle_mesh_spectrum), ("torus", torus_mesh_spectrum)):
        spectra = [maker(1, 1, n).rescaled(n) for n in range(2, 17)]
        cmin, _ = ex.uniform_weyl_check(spectra)
        slope = ex.weyl_slope(maker(1, 1, 64).rescaled(64), 1.0)
        ok &= cmin > 0 and abs(slope - 1.0) < 0.1
        details.append(f"{label}: C_min {cmin:.3f}, slope {slope:.4f}")
    _report(11, "uniform weak Weyl bound and Weyl slope at n=64", ok,
            "; ".join(details))


def test_criterion_12_ratio_limits():
    sym_ratios, _ = ex.ratio_study(
        ts.SeparableSurface("torus", 1, 1, alpha=math.pi, beta=0.0),
        ts.SeparableSurface("torus", 1, 1, alpha=0.0, beta=math.pi),
        [64, 128, 256])
    sym_ok = all(abs(r - 1.0) < 1e-12 for r in sym_ratios)
    _, diffs = ex.ratio_study(
        ts.SeparableSurface("torus", 1, 1, alpha=math.pi, beta=math.pi),
        ts.SeparableSurface("torus", 1, 1, alpha=math.pi, beta=0.0),
        [64, 128, 256, 512, 1024])
    cauchy_ok = all(y < x for x, y in zip(diffs, diffs[1:]))
    ok = sym_ok and cauchy_ok
    _report(12, "twisted torus ratio limits: symmetry and Cauchy decay", ok,
            f"cauchy diffs {['%.2e' % d for d in diffs]}")


def test_criterion_12_note_cone_model_differences():
    # the general cone-surface limit is only defined up to an implicit
    # constant; its difference sequence is constant-free and must contract
    series = ex.dense_renorm_series(surfaces.cone_model(1), [2, 4, 8, 16])
    d = [abs(b - a) for a, b in zip(series.renorms, series.renorms[1:])]
    ok = all(y < x for x, y in zip(d, d[1:]))
    series = ex.dense_renorm_series(surfaces.lshape(), [3, 6, 12])
    d2 = [abs(b - a) for a, b in zip(series.renorms, series.renorms[1:])]
    ok &= all(y < x for x, y in zip(d2, d2[1:]))
    _report(12, "(note) cone/corner model difference sequences contract", ok,
            f"cone-pi {['%.2e' % x for x in d]}, lshape {['%.2e' % x for x in d2]}")
