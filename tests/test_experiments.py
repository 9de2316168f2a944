"""Renormalized series, ratio limits, Weyl checks, bumps and embeddings."""

import math

import numpy as np
import pytest

from torsionlab import bundles, experiments as ex, meshes, surfaces
from torsionlab.errors import (BudgetExceeded, HypothesisViolation,
                               SupportViolation)
from torsionlab.meshspectra import (CATALAN, closed_form_log_det,
                                    rectangle_mesh_spectrum, torus_mesh_spectrum)
from torsionlab.torsion import zeta_zero


def test_renormalized_logdet_formula():
    # torus: logdet - (4G/pi) n^2 - 2 log n; rectangle: minus boundary term too
    n, ld = 5, 123.456
    got = ex.renormalized_logdet(ld, 1, 1, 0, -1.0, n)
    assert abs(got - (ld - 4 * CATALAN / math.pi * 25 - 2 * math.log(n))) < 1e-12
    got = ex.renormalized_logdet(ld, 1, 1, 4, -0.75, n)
    expect = (ld - 4 * CATALAN / math.pi * 25
              - math.log(math.sqrt(2) - 1) / 2 * 4 * n - 1.5 * math.log(n))
    assert abs(got - expect) < 1e-12


def test_rank2_trivial_doubles():
    # doubling the rank doubles logdet and zeta(0) (with dim H0 = 2), so the
    # renormalized value doubles as well
    n, ld = 4, 77.7
    r1 = ex.renormalized_logdet(ld, 1, 1, 0, -1.0, n)
    r2 = ex.renormalized_logdet(2 * ld, 2, 1, 0, -2.0, n)
    assert abs(r2 - 2 * r1) < 1e-12


def test_richardson():
    ns = [4, 8, 16]
    xs = [1.0 + 3.0 * n ** -2.0 for n in ns]
    limit, err = ex.richardson_extrapolate(ns, xs)
    assert abs(limit - 1.0) < 1e-12
    assert err < 0.02


def test_richardson_needs_a_geometric_ladder():
    xs = [1.0 + 3.0 * n ** -2.0 for n in (10, 20, 40)]
    rho = (xs[2] - xs[1]) / (xs[1] - xs[0])
    assert ex.richardson_extrapolate([10, 20, 40], xs)[0] == xs[2] + (xs[2] - xs[1]) * rho / (1 - rho)
    with pytest.raises(HypothesisViolation):
        ex.richardson_extrapolate([10, 11, 1000], xs)


def test_torus_convergence():
    s = ex.convergence_study(ex.FlatSetup("torus", 1, 1), [32, 64, 128, 256])
    assert s.target is not None
    assert abs(s.extrapolated - s.target) < 1e-5
    errs = s.abs_errors()
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_rectangle_convergence():
    s = ex.convergence_study(ex.FlatSetup("rectangle", 1, 1), [32, 64, 128, 256])
    assert abs(s.extrapolated - s.target) < 1e-5


def test_cylinder_convergence_two_routes():
    # the closed-form cylinder torsion is derived independently of the mesh
    # route, so agreement here is a genuine two-sided check
    s = ex.convergence_study(ex.FlatSetup("cylinder", 2, 1), [32, 64, 128, 256])
    assert abs(s.extrapolated - s.target) < 1e-5
    s = ex.convergence_study(ex.FlatSetup("cylinder", 1, 2), [32, 64, 128, 256])
    assert abs(s.extrapolated - s.target) < 1e-5


def test_twisted_torus_cauchy():
    s = ex.convergence_study(ex.FlatSetup("torus", 1, 1, alpha=math.pi, beta=math.pi),
                             [32, 64, 128, 256])
    assert s.target is None
    d = [abs(b - a) for a, b in zip(s.renorms, s.renorms[1:])]
    assert all(y < x for x, y in zip(d, d[1:]))


def test_twisted_torus_vs_dense():
    # the twisted closed-form route agrees with a dense eigensolve at small n
    import torsionlab.bundles as bundles
    import torsionlab.laplacian as laplacian
    setup = ex.FlatSetup("torus", 1, 1, alpha=1.1, beta=-0.4)
    mesh = meshes.discretize(surfaces.torus(1, 1), 3)
    rep = bundles.HolonomyRepresentation(
        1, [np.array([[np.exp(1.1j)]]), np.array([[np.exp(-0.4j)]])])
    conn = bundles.connection_from_holonomy(mesh, rep)
    spec = laplacian.spectrum(laplacian.assemble(conn), expected_kernel_dim=0)
    assert abs(setup.log_det(3) - laplacian.log_det_prime(spec)) < 1e-10


def test_scaling_ladder_models():
    for surf, ns in ((surfaces.cone_model(1), [2, 4, 8]),
                     (surfaces.lshape(), [2, 4, 8])):
        s = ex.dense_renorm_series(surf, ns)
        d = [abs(b - a) for a, b in zip(s.renorms, s.renorms[1:])]
        assert all(y < x for x, y in zip(d, d[1:]))


def test_model_correction_series():
    # the correction sequence of the L-shape is the model series itself, and
    # subtracting it from the surface series leaves a contracting remainder
    ns, ca = ex.model_correction_series(surfaces.lshape(), [2, 4, 8])
    own = ex.dense_renorm_series(surfaces.lshape(), [2, 4, 8])
    rem = [a - b for a, b in zip(own.renorms, ca)]
    assert max(abs(x) for x in rem) < 1e-9
    # a rescaled L-shape shares the angle data, so the same correction applies;
    # the corrected remainder contracts toward its limit
    big = ex.dense_renorm_series(surfaces.rescale(surfaces.lshape(), 2), [2, 4, 8])
    rem2 = [a - b for a, b in zip(big.renorms, ca)]
    d = [abs(y - x) for x, y in zip(rem2, rem2[1:])]
    assert all(y < x for x, y in zip(d, d[1:]))


def test_dense_series_runs_up_to_the_budget():
    # r|V| = 625: no cap on n, only the dense budget
    series = ex.dense_renorm_series(surfaces.torus(1, 1), [25])
    closed = closed_form_log_det("torus", 1, 1, 25)
    assert abs(series.logdets[0] - closed) <= 1e-9 * abs(closed)


def test_dense_series_renormalizes_at_the_rank_of_rep():
    # a split SU(2) bundle is the sum of its two characters: its series is
    # the sum of the rank-1 closed-form series at the two opposite phases
    phases = (0.7, 0.3)
    rep = bundles.HolonomyRepresentation(2, [np.diag(np.exp([1j * p, -1j * p])) for p in phases])
    surf = surfaces.torus(1, 1)
    summary = surfaces.geometry_summary(surf)
    z0 = zeta_zero(summary, rank=1, dim_h0=0)
    series = ex.dense_renorm_series(surf, [2, 4, 8], rep=rep)
    for n, got in zip(series.ns, series.renorms):
        want = sum(ex.renormalized_logdet(closed_form_log_det("torus", 1, 1, n, s * phases[0],
                                                              s * phases[1]),
                                          1, summary.area, summary.perimeter, z0, n)
                   for s in (1, -1))
        assert abs(got - want) <= 1e-9


def test_dense_budget():
    with pytest.raises(BudgetExceeded):
        ex.dense_renorm_series(surfaces.rectangle(4, 4), [25])
    with pytest.raises(BudgetExceeded):
        ex.dense_renorm_series(surfaces.rectangle(4, 4), [20])


def test_ratio_symmetric_is_one():
    ratios, _ = ex.ratio_study(ex.FlatSetup("torus", 1, 1, alpha=math.pi, beta=0.0),
                               ex.FlatSetup("torus", 1, 1, alpha=0.0, beta=math.pi),
                               [8, 16, 32])
    assert all(abs(r - 1.0) < 1e-12 for r in ratios)


def test_ratio_identical_setups():
    ratios, _ = ex.ratio_study(ex.FlatSetup("torus", 1, 1), ex.FlatSetup("torus", 1, 1),
                               [8, 16])
    assert all(r == 1.0 for r in ratios)


def test_ratio_cauchy():
    _, diffs = ex.ratio_study(ex.FlatSetup("torus", 1, 1, alpha=math.pi, beta=math.pi),
                              ex.FlatSetup("torus", 1, 1, alpha=math.pi, beta=0.0),
                              [32, 64, 128, 256])
    assert len(diffs) == 3
    assert all(y < x for x, y in zip(diffs, diffs[1:]))


def test_ratio_hypothesis_violation():
    with pytest.raises(HypothesisViolation):
        ex.ratio_study(ex.FlatSetup("torus", 1, 1), ex.FlatSetup("rectangle", 1, 1), [4])
    with pytest.raises(HypothesisViolation):
        ex.ratio_study(ex.FlatSetup("torus", 1, 1),
                       ex.FlatSetup("torus", 1, 1, alpha=math.pi), [4])


def test_corrupted_catalan_is_detected(monkeypatch):
    # fault injection: a wrong area constant throws the renormalized series
    # off its target by ~ delta * n^2, so the trend check must fail
    good = ex.convergence_study(ex.FlatSetup("torus", 1, 1), [16, 32])
    assert abs(good.renorms[-1] - good.target) < 1e-3
    monkeypatch.setattr(ex, "CATALAN", CATALAN + 1e-6)
    bad = ex.convergence_study(ex.FlatSetup("torus", 1, 1), [16, 32])
    assert abs(bad.renorms[-1] - bad.target) > 1e-4


def test_uniform_weyl_check():
    spectra = [rectangle_mesh_spectrum(1, 1, n).rescaled(n) for n in range(2, 17)]
    cmin, table = ex.uniform_weyl_check(spectra)
    assert cmin > 0 and len(table) == 15
    spectra = [torus_mesh_spectrum(1, 1, n).rescaled(n) for n in range(2, 17)]
    cmin, _ = ex.uniform_weyl_check(spectra)
    assert cmin > 0
    # degenerate single-spectrum input: one row, C_min = min ratio of that row
    one = [torus_mesh_spectrum(1, 1, 2).rescaled(2)]
    cmin1, table1 = ex.uniform_weyl_check(one)
    assert len(table1) == 1 and cmin1 == table1[0][2]


def test_weyl_slope():
    sl = ex.weyl_slope(torus_mesh_spectrum(1, 1, 64).rescaled(64), 1.0)
    assert abs(sl - 1.0) < 0.1
    sl = ex.weyl_slope(rectangle_mesh_spectrum(1, 1, 64).rescaled(64), 1.0)
    assert abs(sl - 1.0) < 0.1


# -- bump profiles ---------------------------------------------------------------


def test_bump_constraints():
    bump = ex.build_bump()
    assert 0.0 < bump.t_mix < 1.0
    assert max(bump.residuals.values()) < 1e-10
    assert abs(bump.half.integrate() - 0.5) < 1e-12
    assert abs(ex.product_integral(bump.half, bump.half) - 0.5) < 1e-12
    assert abs(bump.rho(0.0) - 1.0) < 1e-14
    assert abs(bump.rho(1.0)) < 1e-14
    assert abs(bump.rho(0.6) - bump.rho(-0.6)) < 1e-15


def test_bump_seed_profiles_bracket():
    r1 = ex._rho1_half()
    r2 = ex._rho2_half()
    d1 = r1.integrate() - ex.product_integral(r1, r1)
    d2 = r2.integrate() - ex.product_integral(r2, r2)
    assert d1 > 0 > d2
    # rho1 stays within [0, 1]; rho2 peaks at 4 on [1/4, 1/3]
    xs = np.linspace(0, 1, 1001)
    assert np.all(r1(xs) >= -1e-14) and np.all(r1(xs) <= 1 + 1e-14)
    assert np.allclose(r2(np.linspace(0.25, 1 / 3, 11)), 4.0)
    assert np.all(r2(np.linspace(0, 0.5, 501)) > 0)


def test_bump_dirichlet_constant():
    bump = ex.build_bump()
    # composite Simpson cross-check of C = int rho'^2
    xs = np.linspace(0.0, 1.0, 40001)
    dp = bump.half.derivative()(xs)
    h = xs[1] - xs[0]
    w = np.ones_like(xs)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    simpson = h / 3 * float(np.sum(w * dp * dp))
    assert abs(simpson - bump.C) < 1e-8


# -- embedding identities -----------------------------------------------------


@pytest.fixture(scope="module")
def bump():
    return ex.build_bump()


@pytest.mark.parametrize("surf", [surfaces.rectangle(2, 2), surfaces.torus(2, 2)],
                         ids=["rect22", "torus22"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_embedding_random_sections(surf, n, bump):
    rng = np.random.default_rng(83 + n)
    mesh = meshes.discretize(surf, n)
    excluded = mesh.excluded_vertex_ids()
    for _ in range(5):
        f = rng.standard_normal(mesh.n_vertices)
        for v in excluded:
            f[v] = 0.0
        nr, fr = ex.embedding_check(mesh, bump, f)
        assert abs(nr - 1.0) < 1e-7
        assert abs(fr - 1.0) < 1e-7


def test_embedding_indicator_and_zero(bump):
    mesh = meshes.discretize(surfaces.rectangle(2, 2), 2)
    inner = sorted(set(range(mesh.n_vertices)) - mesh.excluded_vertex_ids())
    f = np.zeros(mesh.n_vertices)
    f[inner[0]] = 1.0
    nr, fr = ex.embedding_check(mesh, bump, f)
    assert abs(nr - 1.0) < 1e-7 and abs(fr - 1.0) < 1e-7
    assert ex.embedding_check(mesh, bump, np.zeros(mesh.n_vertices)) == (1.0, 1.0)


def test_embedding_cross_term_orthogonality(bump):
    prof = ex._AxisProfile(bump, "interior")
    assert abs(ex.product_integral(prof.pp, prof.pp, shift=1.0)) < 1e-9
    assert abs(ex.product_integral(prof.pp, prof.pp) - 1.0) < 1e-12


def test_embedding_support_violation(bump):
    mesh = meshes.discretize(surfaces.rectangle(2, 2), 2)
    f = np.ones(mesh.n_vertices)
    with pytest.raises(SupportViolation):
        ex.embedding_check(mesh, bump, f)
    with pytest.raises(SupportViolation):
        ex.embedding_check(meshes.discretize(surfaces.cylinder(2, 1), 2), bump,
                           np.zeros(8))
