"""Closed-form mesh spectra, the sine product, and the Szego trace pipeline."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from torsionlab import bundles, laplacian, meshes, meshspectra as ms, surfaces, torsion
from torsionlab.errors import HypothesisViolation, IndexOutOfRange, SupportTooWide
from torsionlab.experiments import convergence_study


def test_catalan_constant():
    import mpmath
    with mpmath.workdps(30):
        assert ms.CATALAN == float(mpmath.catalan)
        assert ms.LOG_SQRT2M1 == float(mpmath.log(mpmath.sqrt(2) - 1))
    # bracketing by raw alternating partial sums around an even/odd cut
    s = 0.0
    partials = []
    for k in range(20000):
        s += (-1) ** k / (2 * k + 1) ** 2
        partials.append(s)
    lo, hi = sorted((partials[-1], partials[-2]))
    assert lo <= ms.CATALAN <= hi


def test_mesh_eigenvalue_examples():
    assert abs(oracles.mesh_eigenvalue(2, 2, 1, 1, 1) - 4.0) < 1e-14
    assert abs(oracles.mesh_eigenvalue(2, 1, 1, 1, 0) - 2.0) < 1e-14
    v = oracles.mesh_eigenvalue(1, 1, 10, 1, 0)
    assert abs(v - 400 * math.sin(math.pi / 20) ** 2) < 1e-12
    assert abs(v - math.pi ** 2) < 0.1
    assert oracles.mesh_eigenvalue(1, 1, 2, 0, 0) == 1.0
    with pytest.raises(IndexOutOfRange):
        oracles.mesh_eigenvalue(1, 1, 2, 2, 0)


def _vertex_permutation(mesh, a, b, n):
    order = []
    for (tile, i, j) in oracles.vertex_cells(mesh):
        p, q = tile
        order.append((p * n + i) * b * n + (q * n + j))
    return np.array(order)


def test_eigenvector_residual_and_norm():
    for (a, b, n) in [(2, 2, 1), (2, 3, 2), (1, 1, 3)]:
        an, bn = a * n, b * n
        mesh = meshes.discretize(surfaces.rectangle(a, b), n)
        A = laplacian.assemble(bundles.trivial_connection(mesh, 1)).real
        order = _vertex_permutation(mesh, a, b, n)
        P = np.zeros((an * bn, an * bn))
        P[np.arange(an * bn), order] = 1.0
        A = P.T @ A @ P
        for (i, j) in [(0, 0), (1, 0), (0, 1), (1, 1), (an - 1, bn - 1)]:
            f = np.array([[oracles.mesh_eigenvector(a, b, n, i, j, k, l)
                           for l in range(bn)] for k in range(an)]).ravel()
            lam = 0.0 if (i, j) == (0, 0) else oracles.mesh_eigenvalue(a, b, n, i, j) / (n * n)
            assert np.max(np.abs(A @ f - lam * f)) < 1e-10
            assert abs(float(f @ f) - oracles.mesh_eigenvector_norm_sq(a, b, n, i, j)) < 1e-10


def test_eigenvector_values_and_orthogonality():
    assert abs(oracles.mesh_eigenvector(2, 2, 1, 1, 1, 0, 0) - math.cos(math.pi / 4) ** 2) < 1e-14
    f10 = np.array([[oracles.mesh_eigenvector(2, 2, 1, 1, 0, k, l) for l in range(2)]
                    for k in range(2)]).ravel()
    f01 = np.array([[oracles.mesh_eigenvector(2, 2, 1, 0, 1, k, l) for l in range(2)]
                    for k in range(2)]).ravel()
    assert abs(float(f10 @ f01)) < 1e-14
    # the constant mode has squared norm = number of vertices
    assert oracles.mesh_eigenvector_norm_sq(2, 2, 1, 0, 0) == 4.0


@pytest.mark.parametrize("a,b,n", [(1, 1, 2), (2, 3, 2), (3, 2, 3), (4, 1, 4)])
def test_rectangle_closed_form_vs_assembled(a, b, n):
    mesh = meshes.discretize(surfaces.rectangle(a, b), n)
    ev = np.linalg.eigvalsh(laplacian.assemble(bundles.trivial_connection(mesh, 1)))
    cf = ms.rectangle_mesh_spectrum(a, b, n).eigenvalues
    assert np.max(np.abs(np.sort(ev) - cf)) < 1e-11


@pytest.mark.parametrize("a,b,n,alpha,beta", [
    (1, 1, 1, math.pi, 0.0), (1, 1, 3, 0.0, 0.0), (1, 1, 2, 1.0, 2.0),
    (2, 1, 3, 0.7, -1.3), (2, 2, 2, math.pi, math.pi),
])
def test_torus_closed_form_vs_assembled(a, b, n, alpha, beta):
    surf = surfaces.torus(a, b)
    mesh = meshes.discretize(surf, n)
    rep = bundles.HolonomyRepresentation(
        1, [np.array([[np.exp(1j * alpha)]]), np.array([[np.exp(1j * beta)]])])
    conn = bundles.connection_from_holonomy(mesh, rep)
    ev = np.linalg.eigvalsh(laplacian.assemble(conn))
    cf = ms.torus_mesh_spectrum(a, b, n, alpha, beta).eigenvalues
    assert np.max(np.abs(np.sort(ev) - cf)) < 1e-11


def test_torus_spectrum_phase_symmetry():
    s1 = ms.torus_mesh_spectrum(2, 1, 2, 0.9, -1.7).eigenvalues
    s2 = ms.torus_mesh_spectrum(2, 1, 2, -0.9, 1.7).eigenvalues
    assert np.max(np.abs(s1 - s2)) < 1e-13


def test_torus_kernel_only_when_untwisted():
    assert ms.torus_mesh_spectrum(1, 1, 3).kernel_dim == 1
    assert ms.torus_mesh_spectrum(1, 1, 3, 0.3, 0.0).kernel_dim == 0


def test_single_vertex_twisted_loop():
    spec = ms.torus_mesh_spectrum(1, 1, 1, math.pi, 0.0)
    mesh = meshes.discretize(surfaces.torus(1, 1), 1)
    rep = bundles.HolonomyRepresentation(
        1, [np.array([[np.exp(1j * math.pi)]]), np.array([[1.0 + 0j]])])
    A = laplacian.assemble(bundles.connection_from_holonomy(mesh, rep))
    assert abs(spec.eigenvalues[0] - A[0, 0].real) < 1e-13


def test_cylinder_closed_form_vs_assembled():
    for (a, b, n, alpha) in [(3, 1, 1, 0.0), (3, 2, 2, 1.1), (2, 3, 2, math.pi)]:
        surf = surfaces.cylinder(a, b)
        mesh = meshes.discretize(surf, n)
        rep = bundles.HolonomyRepresentation(1, [np.array([[np.exp(1j * alpha)]])])
        conn = bundles.connection_from_holonomy(mesh, rep)
        ev = np.linalg.eigvalsh(laplacian.assemble(conn))
        cf = torsion.SeparableSurface("cylinder", a, b, alpha).mesh_spectrum(n).eigenvalues
        assert np.max(np.abs(np.sort(ev) - cf)) < 1e-11


def test_sin_product_against_direct():
    for m in (1, 2, 3, 5, 8, 16, 33, 64):
        for x in (0.1, 0.5, 1.0, 2.0, 4.0):
            direct = ms.sin_product_direct(m, x)
            assert abs(ms.sin_product(m, x) - direct) <= 1e-12 * direct
    assert ms.sin_product(7, 0.0) == 0.0


def test_sin_product_examples():
    assert abs(ms.sin_product(1, 1.0) - 1.0) < 1e-14
    assert abs(ms.sin_product(2, 1.0) - 1.5) < 1e-14


def test_sin_product_other_sign_fails():
    # the variant with a minus sign in the second bracket evaluates to sqrt(2)
    # at (m, x) = (2, 1) while the product itself is 3/2
    bad = ms.sin_product_uncorrected(2, 1.0)
    assert abs(bad - math.sqrt(2)) < 1e-12
    assert abs(bad - ms.sin_product_direct(2, 1.0)) > 0.08


def test_profile_json_and_support():
    prof = ms.FourierProfile.from_json({"a": 2, "b": 2, "coeffs": [[1, 0, 1.0]]})
    assert prof.coeffs == {(1, 0): 1.0}
    assert prof.to_json()["coeffs"] == [[1, 0, 1.0]]
    wide = ms.FourierProfile(2, 2, {(5, 0): 1.0})
    with pytest.raises(SupportTooWide):
        ms.szego_trace_direct(wide, 2)
    assert abs(prof(0.0, 0.3) - 1.0) < 1e-14    # cos(pi * 0) = 1


def test_szego_constant_mode_is_logdet():
    prof = ms.FourierProfile(2, 2, {(0, 0): 1.0})
    n = 3
    tr = ms.szego_trace_direct(prof, n)
    lam = oracles.mesh_eigenvalue_grid(2, 2, n)
    assert abs(tr - float(np.sum(np.log(lam)))) < 1e-12


def test_szego_pure_mode_formula():
    # a = b = 2, n = 2, phi = cos(pi x): the half-difference of rows 1 and 3
    prof = ms.FourierProfile(2, 2, {(1, 0): 1.0})
    L = np.log(oracles.mesh_eigenvalue_grid(2, 2, 2))
    expect = 0.5 * float(np.sum(L[1, :]) - np.sum(L[3, :]))
    assert abs(ms.szego_trace_direct(prof, 2) - expect) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_szego_direct_vs_contraction_oracle(n):
    rng = np.random.default_rng(79)
    coeffs = {(0, 0): float(rng.standard_normal()),
              (1, 0): float(rng.standard_normal()),
              (0, 2): float(rng.standard_normal()),
              (2, 1): float(rng.standard_normal()),
              (1, 1): float(rng.standard_normal())}
    prof = ms.FourierProfile(2, 2, coeffs)
    d = ms.szego_trace_direct(prof, n)
    o = oracles.szego_trace_contraction(prof, n)
    assert abs(d - o) < 1e-9


def test_szego_linearity():
    p1 = ms.FourierProfile(2, 2, {(1, 0): 0.7})
    p2 = ms.FourierProfile(2, 2, {(1, 1): -0.3})
    p12 = ms.FourierProfile(2, 2, {(1, 0): 0.7, (1, 1): -0.3})
    got = ms.szego_trace_direct(p12, 4)
    assert abs(got - ms.szego_trace_direct(p1, 4) - ms.szego_trace_direct(p2, 4)) < 1e-12


def test_szego_expansion_converges():
    prof = ms.FourierProfile(2, 2, {(1, 0): 1.0})
    errs = [abs(ms.szego_trace_direct(prof, n) - ms.szego_expansion_predicted(prof, n))
            for n in (16, 32, 64)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.01


def test_szego_printed_constant_is_off():
    # with the other sign inside the pure-mode constant the prediction misses
    # the computed trace by about 0.043 for phi = cos(pi x) on the 2x2 square:
    # the printed sign turns log1p(e^-pi) into log1p(-e^-pi), times 1/2
    prof = ms.FourierProfile(2, 2, {(1, 0): 1.0})
    n = 128
    predicted = ms.szego_expansion_predicted(prof, n)
    printed = predicted + 0.5 * (math.log1p(-math.exp(-math.pi))
                                 - math.log1p(math.exp(-math.pi)))
    good = abs(ms.szego_trace_direct(prof, n) - predicted)
    bad = abs(ms.szego_trace_direct(prof, n) - printed)
    assert good < 0.005
    assert 0.03 < bad < 0.06


def test_szego_boundary_coefficient_fit():
    # fitted linear-in-n coefficient of the direct trace matches b log(sqrt2 - 1)
    prof = ms.FourierProfile(2, 2, {(1, 0): 1.0})
    n = 128
    t1 = ms.szego_trace_direct(prof, n)
    t2 = ms.szego_trace_direct(prof, 2 * n)
    slope = (t2 - t1 + 0.5 * math.log(2)) / n
    target = 2 * math.log(math.sqrt(2) - 1)
    assert abs(slope - target) < 0.01 * abs(target)


def test_closed_form_log_det_matches_spectra():
    for kind, spec in (("rectangle", ms.rectangle_mesh_spectrum(2, 3, 2)),
                       ("torus", ms.torus_mesh_spectrum(2, 3, 2, 0.4, 1.1)),
                       ("cylinder", torsion.SeparableSurface("cylinder", 3, 2, 0.8)
                        .mesh_spectrum(2))):
        lam = spec.nonzero
        args = dict(alpha=spec.meta.get("alpha", 0.0), beta=spec.meta.get("beta", 0.0))
        total = ms.closed_form_log_det(kind, *_ab(spec), spec.meta["n"], **args)
        assert abs(total - float(np.sum(np.log(lam)))) < 1e-9


def _ab(spec):
    name = spec.meta["surface"]
    inside = name[name.index("(") + 1:name.index(")")]
    a, b = inside.split(",")
    return int(a), int(b)


# phases with trivial holonomy (0, +-2 pi, 4 pi), a half turn and a tiny twist
_PHASES = st.one_of(st.sampled_from([0.0, 2 * math.pi, -2 * math.pi, 4 * math.pi,
                                     math.pi, 1e-7]),
                    st.floats(-10.0, 10.0))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["rectangle", "torus", "cylinder"]),
       a=st.integers(1, 3), b=st.integers(1, 3), n=st.integers(1, 4),
       alpha=_PHASES, beta=_PHASES)
def test_factor_table_matches_dense_and_holonomy(kind, a, b, n, alpha, beta):
    surface = surfaces.build_surface({"kind": kind, "a": a, "b": b})
    # one phase per standard cut: none on the rectangle, alpha on the cylinder
    phases = [alpha, beta][:len(surfaces.standard_cuts(surface))]
    rep = bundles.HolonomyRepresentation(1, [np.array([[np.exp(1j * p)]]) for p in phases])
    conn = bundles.connection_from_holonomy(meshes.discretize(surface, n), rep)
    dense = np.linalg.eigvalsh(laplacian.assemble(conn))
    spec = torsion.SeparableSurface(kind, a, b, *phases).mesh_spectrum(n)
    assert np.max(np.abs(np.sort(dense) - spec.eigenvalues)) < 1e-11
    assert abs(laplacian.log_det_prime(spec)
               - ms.closed_form_log_det(kind, a, b, n, *phases)) < 1e-9
    assert (spec.kernel_dim == torsion.SeparableSurface(kind, a, b, *phases).dim_h0
            == bundles.flat_sections_dim(rep))


@pytest.mark.parametrize("alpha,beta", [(8e-11, 8e-11), (5e-11, 5e-11), (5e-11, 0.5),
                                        (1.2e-10, 0.0), (2 * math.pi, 0.0)])
def test_closed_form_and_mesh_count_the_same_kernel_near_a_trivial_twist(alpha, beta):
    # one rule for both: the stacked g - I of the generators, not each phase alone
    rep = bundles.HolonomyRepresentation(1, [np.array([[np.exp(1j * p)]]) for p in (alpha, beta)])
    conn = bundles.connection_from_holonomy(meshes.discretize(surfaces.torus(1, 1), 2), rep)
    setup = torsion.SeparableSurface("torus", 1, 1, alpha, beta)
    assert setup.dim_h0 == setup.mesh_spectrum(2).kernel_dim == conn.flat_sections
    assert all(f.phase == 0.0 for f in setup.factors) == bool(setup.dim_h0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["rectangle", "torus", "cylinder"]),
       a=st.integers(1, 3), b=st.integers(1, 3), n=st.integers(1, 64),
       alpha=_PHASES, beta=_PHASES)
def test_row_products_match_the_eigenvalue_grid(kind, a, b, n, alpha, beta):
    phases = [alpha, beta][:sum(torsion.SEPARABLE_KINDS[kind])]
    spec = torsion.SeparableSurface(kind, a, b, *phases).mesh_spectrum(n)
    grid = laplacian.log_det_prime(spec)
    rows = ms.closed_form_log_det(kind, a, b, n, *phases)
    assert abs(rows - grid) <= 1e-12 * max(1.0, abs(grid))


def test_closed_form_log_det_is_bitwise_symmetric_under_factor_swap():
    for n in (1, 7, 64, 1000):
        assert (ms.closed_form_log_det("torus", 1, 1, n, 0.3, 1.1)
                == ms.closed_form_log_det("torus", 1, 1, n, 1.1, 0.3))
        assert (ms.closed_form_log_det("torus", 2, 1, n, 0.3, 1.1)
                == ms.closed_form_log_det("torus", 1, 2, n, 1.1, 0.3))


def test_a_factor_refuses_a_non_integral_site_count():
    side = torsion.Factor(True, 1.5)
    for call in (side.mesh_eigenvalues, lambda n: side.log_shifted_product(n, 0.0),
                 lambda n: ms.closed_form_log_det("torus", 1.5, 1, n)):
        with pytest.raises(HypothesisViolation):
            call(3)
    # a float side is a valid length wherever it gives whole sites
    assert ms.closed_form_log_det("torus", 1.5, 1, 4) == ms.closed_form_log_det("torus", 3, 2, 2)


def test_closed_form_log_det_builds_no_grid():
    # the (4096, 4096) eigenvalue grid would take 134 MB
    tracemalloc.start()
    try:
        ms.closed_form_log_det("torus", 1, 1, 4096, 0.3, 1.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("kind,a,b", [("torus", 1, 1), ("rectangle", 1, 1), ("cylinder", 2, 1)])
def test_convergence_beyond_grid_sizes(kind, a, b):
    series = convergence_study(torsion.SeparableSurface(kind, a, b),
                               [2 ** 15, 2 ** 16, 2 ** 17])
    assert abs(series.renorms[-1] - series.target) < 1e-4
