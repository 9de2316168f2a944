"""Renormalized series, ratio limits, Weyl checks, bumps and embeddings."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from torsionlab import bundles, experiments as ex, meshes, surfaces
from torsionlab.errors import (BisectionFailure, BudgetExceeded,
                               HypothesisViolation, SupportViolation)
from torsionlab.meshspectra import (CATALAN, closed_form_log_det,
                                    rectangle_mesh_spectrum, torus_mesh_spectrum)
from torsionlab.torsion import SeparableSurface, zeta_zero

import oracles


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


def test_a_constant_ladder_is_refused():
    # 8^2 = 8 * 8, but three equal ns would give a zero error bar
    with pytest.raises(HypothesisViolation, match="n1 < n2 < n3"):
        ex.richardson_extrapolate([8, 8, 8], [1.0, 1.0, 1.0])


def test_torus_convergence():
    s = ex.convergence_study(SeparableSurface("torus", 1, 1), [32, 64, 128, 256])
    assert s.target is not None
    assert abs(s.extrapolated - s.target) < 1e-5
    errs = s.abs_errors()
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_rectangle_convergence():
    s = ex.convergence_study(SeparableSurface("rectangle", 1, 1), [32, 64, 128, 256])
    assert abs(s.extrapolated - s.target) < 1e-5


def test_cylinder_convergence_two_routes():
    # the closed-form cylinder torsion is derived independently of the mesh
    # route, so agreement here is a genuine two-sided check
    s = ex.convergence_study(SeparableSurface("cylinder", 2, 1), [32, 64, 128, 256])
    assert abs(s.extrapolated - s.target) < 1e-5
    s = ex.convergence_study(SeparableSurface("cylinder", 1, 2), [32, 64, 128, 256])
    assert abs(s.extrapolated - s.target) < 1e-5


def test_twisted_torus_cauchy():
    s = ex.convergence_study(SeparableSurface("torus", 1, 1, alpha=math.pi, beta=math.pi),
                             [32, 64, 128, 256])
    assert isinstance(s.target, float)
    d = [abs(b - a) for a, b in zip(s.renorms, s.renorms[1:])]
    assert all(y < x for x, y in zip(d, d[1:]))


def test_twisted_torus_vs_dense():
    # the twisted closed-form route agrees with a dense eigensolve at small n
    import torsionlab.bundles as bundles
    import torsionlab.laplacian as laplacian
    setup = SeparableSurface("torus", 1, 1, alpha=1.1, beta=-0.4)
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


@pytest.mark.parametrize("surf,rep", [
    (surfaces.cone_model(1), None),
    (surfaces.lshape(), None),
    (surfaces.angle_model(4), None),
    # split SU(2): no flat section (k = 0)
    (surfaces.torus(1, 1), bundles.HolonomyRepresentation(
        2, [np.diag(np.exp([1j * p, -1j * p])) for p in (0.7, 0.3)])),
    # diag(1, e^{i phi}): one flat section of two (0 < k < r), so vertex 0's
    # fiber is rotated inside every solve of the series
    (surfaces.torus(1, 1), bundles.HolonomyRepresentation(
        2, [np.diag([1.0, np.exp(1j * p)]) for p in (0.9, -1.4)])),
], ids=["cone1", "lshape", "angle4", "torus-su2-split", "torus-rank2-k1"])
def test_mesh_source_series_matches_the_dense_oracle(surf, rep):
    got = ex.convergence_study(ex.MeshSource(surf, rep), [2, 4, 8])
    want = ex.dense_renorm_series(surf, [2, 4, 8], rep=rep)
    assert got.ns == want.ns and got.label == want.label
    assert max(abs(x - y) for x, y in zip(got.renorms, want.renorms)) < 1e-9
    assert abs(got.extrapolated - want.extrapolated) < 1e-9
    assert got.target is None and want.health is None
    assert len(got.health) == 3
    # the trivial bundle takes the strip route, a holonomy the sparse one
    assert all(h["kernel_gap"] > 0 and h["route"] == ("sparse" if rep else "strip")
               for h in got.health)
    assert all(h["factor_nnz"] >= h["nnz"] > 0 if rep else h["K"] > 0 for h in got.health)


def test_mesh_source_renormalizes_at_the_holonomy_rank_and_kernel():
    rep = bundles.HolonomyRepresentation(2, [np.diag([1.0, np.exp(0.9j)]),
                                             np.diag([1.0, np.exp(-1.4j)])])
    source = ex.MeshSource(surfaces.torus(1, 1), rep)
    assert source.rank == 2
    assert source.zeta0 == zeta_zero(surfaces.geometry_summary(surfaces.torus(1, 1)),
                                      rank=2, dim_h0=1)
    assert SeparableSurface("torus", 1, 1).rank == 1
    assert ex.convergence_study(SeparableSurface("torus", 1, 1), [4, 8]).health is None


def test_mesh_source_refuses_an_over_budget_n_before_building(monkeypatch):
    def no_mesh(*args):
        raise AssertionError("discretize called for an over-budget n")

    monkeypatch.setattr(ex, "discretize", no_mesh)
    monkeypatch.setattr(meshes, "discretize", no_mesh)
    with pytest.raises(BudgetExceeded, match="strip budget"):
        ex.MeshSource(surfaces.lshape()).log_det(2048)
    with pytest.raises(BudgetExceeded, match="sparse budget"):
        ex.MeshSource(surfaces.lshape(), bundles.HolonomyRepresentation(1, [])).log_det(256)


@pytest.mark.parametrize("series,surface,ns", [
    (lambda surface, ns: ex.convergence_study(ex.MeshSource(surface), ns),
     surfaces.lshape(), [512, 1024, 2048]),
    (ex.dense_renorm_series, surfaces.rectangle(4, 4), [10, 20, 40])],
    ids=["mesh-source", "dense"])
def test_a_ladder_beyond_its_budget_is_refused_before_its_first_mesh(monkeypatch, series,
                                                                      surface, ns):
    def no_mesh(*args):
        raise AssertionError("discretize called for a refused ladder")

    monkeypatch.setattr(ex, "discretize", no_mesh)
    monkeypatch.setattr(meshes, "discretize", no_mesh)
    with pytest.raises(BudgetExceeded):
        series(surface, ns)


def test_a_ladder_that_is_not_geometric_is_refused_before_its_first_mesh(monkeypatch):
    def no_mesh(*args):
        raise AssertionError("discretize called for a refused ladder")

    monkeypatch.setattr(ex, "discretize", no_mesh)
    monkeypatch.setattr(meshes, "discretize", no_mesh)
    with pytest.raises(HypothesisViolation, match="geometric ladder"):
        ex.convergence_study(ex.MeshSource(surfaces.lshape()), [4, 5, 32])


def test_dense_budget():
    with pytest.raises(BudgetExceeded):
        ex.dense_renorm_series(surfaces.rectangle(4, 4), [25])
    with pytest.raises(BudgetExceeded):
        ex.dense_renorm_series(surfaces.rectangle(4, 4), [20])


def test_ratio_symmetric_is_one():
    ratios, _ = ex.ratio_study(SeparableSurface("torus", 1, 1, alpha=math.pi, beta=0.0),
                               SeparableSurface("torus", 1, 1, alpha=0.0, beta=math.pi),
                               [8, 16, 32])
    assert all(abs(r - 1.0) < 1e-12 for r in ratios)


def test_ratio_identical_setups():
    ratios, _ = ex.ratio_study(SeparableSurface("torus", 1, 1), SeparableSurface("torus", 1, 1),
                               [8, 16])
    assert all(r == 1.0 for r in ratios)


def test_ratio_cauchy():
    _, diffs = ex.ratio_study(SeparableSurface("torus", 1, 1, alpha=math.pi, beta=math.pi),
                              SeparableSurface("torus", 1, 1, alpha=math.pi, beta=0.0),
                              [32, 64, 128, 256])
    assert len(diffs) == 3
    assert all(y < x for x, y in zip(diffs, diffs[1:]))


def test_ratio_hypothesis_violation():
    with pytest.raises(HypothesisViolation):
        ex.ratio_study(SeparableSurface("torus", 1, 1), SeparableSurface("rectangle", 1, 1), [4])
    with pytest.raises(HypothesisViolation):
        ex.ratio_study(SeparableSurface("torus", 1, 1),
                       SeparableSurface("torus", 1, 1, alpha=math.pi), [4])


def test_corrupted_catalan_is_detected(monkeypatch):
    # fault injection: a wrong area constant throws the renormalized series
    # off its target by ~ delta * n^2, so the trend check must fail
    good = ex.convergence_study(SeparableSurface("torus", 1, 1), [16, 32])
    assert abs(good.renorms[-1] - good.target) < 1e-3
    monkeypatch.setattr(ex, "CATALAN", CATALAN + 1e-6)
    bad = ex.convergence_study(SeparableSurface("torus", 1, 1), [16, 32])
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


@pytest.fixture(scope="module")
def bisected_bump():
    return oracles.bisection_bump()


def test_bump_quadratic_root_matches_the_bisection_oracle(bisected_bump):
    bump = ex.build_bump()
    assert abs(bump.t_mix - bisected_bump.t_mix) < 1e-12
    assert abs(bump.C - bisected_bump.C) < 1e-10
    assert all(r < 1e-10 for r in bump.residuals.values())
    assert bump.residuals["orthogonality"] <= bisected_bump.residuals["orthogonality"]


def test_bump_embedding_ratios_match_the_bisection_oracle(bisected_bump):
    # the six meshes of the mesh-build workload's embedding tasks
    bump = ex.build_bump()
    rng = np.random.default_rng(11)
    for surf in (surfaces.torus(2, 2), surfaces.rectangle(2, 2)):
        for n in (3, 4, 6):
            mesh = meshes.discretize(surf, n)
            f = rng.standard_normal(mesh.n_vertices)
            f[sorted(mesh.excluded_vertex_ids())] = 0.0
            ours = ex.embedding_check(mesh, bump, f)
            theirs = ex.embedding_check(mesh, bisected_bump, f)
            assert max(abs(a - b) for a, b in zip(ours, theirs)) < 1e-12


def _pair_table(bump):
    """Every pair integral of ``bump``, (deriv, kind1, kind2, shift + 1)."""
    k1, k2, shift = np.meshgrid(*(np.arange(len(ex._AXIS_KINDS)),) * 2, np.arange(-1, 2),
                                indexing="ij")
    return np.stack(bump.pair_integrals(k1, k2, shift))


def test_piecewise_evaluation_matches_the_piece_by_piece_oracle(monkeypatch):
    fresh = ex.build_bump.__wrapped__()
    profiles = [p for prof in fresh._axis_profiles for p in (prof.pp, prof.dpp)]
    rng = np.random.default_rng(97)
    for pp in [fresh.half, fresh.half.derivative(), *profiles]:
        lo, hi = pp.breaks[0], pp.breaks[-1]
        for x in (rng.uniform(lo - 0.5, hi + 0.5, 257), pp.breaks, np.empty(0),
                  0.5 * (pp.breaks[1:] + pp.breaks[:-1])[:, None], 0.3 * lo + 0.7 * hi, hi):
            got, want = pp(x), oracles.piecewise_by_piece(pp, x)
            assert type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # the bump and all 96 pair integrals carry the oracle's bits
    table = _pair_table(fresh)
    monkeypatch.setattr(ex.PiecewisePoly, "__call__", oracles.piecewise_by_piece)
    slow = ex.build_bump.__wrapped__()
    assert (fresh.t_mix.hex(), fresh.C.hex()) == (slow.t_mix.hex(), slow.C.hex())
    assert {k: v.hex() for k, v in fresh.residuals.items()} == {
        k: v.hex() for k, v in slow.residuals.items()}
    assert table.tobytes() == _pair_table(slow).tobytes()


def test_bump_identical_seed_profiles_bracket_no_root(monkeypatch):
    # d = r1 - r2 = 0 leaves the constant defect c0 < 0, with no sign change
    monkeypatch.setattr(ex, "_rho1_half", ex._rho2_half)
    with pytest.raises(BisectionFailure):
        ex.build_bump.__wrapped__()


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


def _embedding_all_pairs(mesh, bump, f):
    """The embedding ratios from a scan over every pair of support vertices,
    summing every lattice translate (dx, dy) that takes the first to the
    second."""
    surf = mesh.surface
    n = mesh.n
    an, bn = surf.params["a"] * n, surf.params["b"] * n
    periodic = surf.kind == "torus"
    coords = [(p * n + i, q * n + j) for (p, q), i, j in oracles.vertex_cells(mesh)]
    profiles = {k: ex._AxisProfile(bump, k) for k in ("interior", "bleft", "bright", "walls")}

    def kind(g, size):
        if periodic:
            return "interior"
        return {(True, True): "walls", (True, False): "bleft",
                (False, True): "bright", (False, False): "interior"}[g == 0, g == size - 1]

    def moved(g, d, size):
        return (g + d) % size if periodic else g + d

    @functools.lru_cache(maxsize=None)
    def pair(k1, k2, delta, deriv):
        p1, p2 = profiles[k1], profiles[k2]
        if deriv:
            return ex.product_integral(p1.dpp, p2.dpp, shift=float(delta))
        return ex.product_integral(p1.pp, p2.pp, shift=float(delta))

    support = [v for v in range(mesh.n_vertices) if f[v]]
    norm_quad = energy_quad = 0.0
    for vi in support:
        gi, gj = coords[vi]
        ki, kj = kind(gi, an), kind(gj, bn)
        for vj in support:
            hi, hj = coords[vj]
            li, lj = kind(hi, an), kind(hj, bn)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    if (moved(gi, dx, an), moved(gj, dy, bn)) != (hi, hj):
                        continue
                    ix, iy = pair(ki, li, dx, False), pair(kj, lj, dy, False)
                    dxx, dyy = pair(ki, li, dx, True), pair(kj, lj, dy, True)
                    w = f[vi] * f[vj]
                    norm_quad += w * ix * iy
                    energy_quad += w * (dxx * iy + ix * dyy)
    energy_graph = 0.0
    for u, v in oracles.edge_ends(mesh):
        energy_graph += (f[u] - f[v]) ** 2
    return (float(np.sum(f * f)) / (n * n)) / (norm_quad / (n * n)), \
        energy_graph / (energy_quad / bump.C)


# the meshes from torus(2,2) at n = 1 on are those where translates meet (a
# torus axis of at most 2 cells) or an axis touches both walls (a rectangle
# axis of 1 cell)
@pytest.mark.parametrize("surf,n", [(surfaces.torus(1, 1), 1), (surfaces.torus(1, 1), 2),
                                    (surfaces.torus(1, 1), 3), (surfaces.torus(2, 1), 2),
                                    (surfaces.rectangle(3, 2), 2), (surfaces.rectangle(2, 2), 4),
                                    (surfaces.torus(2, 2), 1), (surfaces.torus(1, 2), 2),
                                    (surfaces.torus(2, 3), 1), (surfaces.rectangle(1, 3), 1),
                                    (surfaces.rectangle(1, 5), 1)],
                         ids=lambda x: getattr(x, "name", str(x)))
def test_embedding_neighbor_scan_equals_all_pairs_bit_for_bit(surf, n, bump):
    rng = np.random.default_rng(7 * n)
    mesh = meshes.discretize(surf, n)
    for keep in (1.0, 0.4):
        f = rng.standard_normal(mesh.n_vertices) * (rng.random(mesh.n_vertices) < keep)
        f[sorted(mesh.excluded_vertex_ids())] = 0.0
        if f.any():
            ratios = ex.embedding_check(mesh, bump, f)
            assert ratios == _embedding_all_pairs(mesh, bump, f)
            # a one-vertex torus has constant sections: its form ratio is 0/0
            if mesh.n_vertices > 1:
                assert all(abs(r - 1.0) < 1e-10 for r in ratios)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from([surfaces.torus, surfaces.rectangle]), a=st.integers(1, 3),
       b=st.integers(1, 3), n=st.integers(1, 4), sparse=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_embedding_identities_hold_and_match_all_pairs(kind, a, b, n, sparse, seed, bump):
    assume(not (kind is surfaces.torus and a * b * n * n == 1))    # form ratio 0/0
    mesh = meshes.discretize(kind(a, b), n)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(mesh.n_vertices)
    if sparse:
        f *= rng.random(mesh.n_vertices) < 0.3
    f[sorted(mesh.excluded_vertex_ids())] = 0.0
    ratios = ex.embedding_check(mesh, bump, f)
    assert all(abs(r - 1.0) < 1e-7 for r in ratios)
    if f.any():
        assert ratios == _embedding_all_pairs(mesh, bump, f)
