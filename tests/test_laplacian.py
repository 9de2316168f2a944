"""Laplacian assembly, spectra, determinants, discrete zeta sums, and the
sparse LU of the oracles against the dense eigensolve."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import sparse_log_det
from torsionlab import bundles, laplacian, meshes, surfaces
from torsionlab.errors import EmptySpectrum, KernelMismatch, LanczosNoConvergence
from torsionlab.torsion import SeparableSurface


def _c3_connection(theta):
    mesh = meshes.discretize(surfaces.cylinder(3, 1), 1)
    rep = bundles.HolonomyRepresentation(1, [np.array([[np.exp(1j * theta)]])])
    return bundles.connection_from_holonomy(mesh, rep)


def test_grid_2x2():
    mesh = meshes.discretize(surfaces.rectangle(1, 1), 2)
    A = laplacian.assemble(bundles.trivial_connection(mesh, 1))
    assert np.allclose(np.diag(A), 2.0)
    spec = laplacian.spectrum(A, expected_kernel_dim=1)
    assert np.allclose(spec.eigenvalues, [0, 2, 2, 4], atol=1e-13)
    assert abs(laplacian.log_det_prime(spec) - math.log(16)) < 1e-13


def test_path_graph():
    mesh = meshes.discretize(surfaces.rectangle(2, 1), 1)
    spec = laplacian.spectrum(laplacian.assemble(bundles.trivial_connection(mesh, 1)),
                              expected_kernel_dim=1)
    assert np.allclose(spec.eigenvalues, [0, 2], atol=1e-14)


def test_c3_twisted_det():
    conn = _c3_connection(math.pi)
    spec = laplacian.spectrum(laplacian.assemble(conn), expected_kernel_dim=0)
    assert abs(math.exp(laplacian.log_det_prime(spec)) - 4.0) < 1e-12


def test_hermiticity_and_psd():
    rng = np.random.default_rng(53)
    surf = surfaces.torus(2, 2)
    mesh = meshes.discretize(surf, 2)
    rep = bundles.random_flat_representation(surf, 2, rng)
    A = laplacian.assemble(bundles.connection_from_holonomy(mesh, rep))
    assert np.max(np.abs(A - A.conj().T)) < 1e-14
    lam = np.linalg.eigvalsh(A)
    assert lam[0] > -1e-10
    assert lam[-1] <= 8 * 2 + 1e-9


def test_spectral_bound_8r():
    for surf, rank in [(surfaces.torus(1, 1), 1), (surfaces.cone_model(1), 1),
                       (surfaces.lshape(), 2)]:
        mesh = meshes.discretize(surf, 2)
        spec = laplacian.spectrum(laplacian.assemble(bundles.trivial_connection(mesh, rank)))
        spec.validate(rank=rank)
        assert spec.eigenvalues[-1] <= 8 * rank + 1e-9


def test_loop_contribution():
    # single torus vertex: loops with transport w contribute 2 - w - w* each
    mesh = meshes.discretize(surfaces.torus(1, 1), 1)
    rep = bundles.HolonomyRepresentation(
        1, [np.array([[np.exp(1j * math.pi)]]), np.array([[1.0 + 0j]])])
    conn = bundles.connection_from_holonomy(mesh, rep)
    A = laplacian.assemble(conn)
    assert A.shape == (1, 1) and abs(A[0, 0] - 4.0) < 1e-14
    conn0 = bundles.trivial_connection(mesh, 1)
    assert abs(laplacian.assemble(conn0)[0, 0]) < 1e-14


def test_kernel_mismatch_raises():
    mesh = meshes.discretize(surfaces.rectangle(1, 1), 2)
    A = laplacian.assemble(bundles.trivial_connection(mesh, 1))
    with pytest.raises(KernelMismatch):
        laplacian.spectrum(A, expected_kernel_dim=0)


def test_empty_spectrum():
    with pytest.raises(EmptySpectrum):
        laplacian.spectrum(np.zeros((0, 0)))


def test_union_additivity():
    # log det' of a disjoint union is the sum: spectra concatenate
    meshA = meshes.discretize(surfaces.rectangle(1, 1), 2)
    meshB = meshes.discretize(surfaces.cylinder(3, 1), 1)
    specA = laplacian.spectrum(laplacian.assemble(bundles.trivial_connection(meshA, 1)))
    specB = laplacian.spectrum(laplacian.assemble(bundles.trivial_connection(meshB, 1)))
    union = laplacian.HermitianSpectrum(
        np.concatenate([specA.eigenvalues, specB.eigenvalues]),
        kernel_dim=specA.kernel_dim + specB.kernel_dim)
    assert abs(laplacian.log_det_prime(union)
               - laplacian.log_det_prime(specA) - laplacian.log_det_prime(specB)) < 1e-12


def test_single_vertex_logdet_empty_product():
    mesh = meshes.discretize(surfaces.torus(1, 1), 1)
    spec = laplacian.spectrum(laplacian.assemble(bundles.trivial_connection(mesh, 1)))
    assert spec.kernel_dim == 1
    assert laplacian.log_det_prime(spec) == 0.0


def test_discrete_zeta_at_zero_counts_modes():
    mesh = meshes.discretize(surfaces.torus(1, 1), 2)
    spec = laplacian.spectrum(laplacian.assemble(bundles.trivial_connection(mesh, 1)),
                              expected_kernel_dim=1)
    z0 = laplacian.discrete_zeta(spec, 2, 0.0)
    assert abs(z0 - (4 - 1)) < 1e-12


def test_discrete_zeta_derivative_is_logdet():
    mesh = meshes.discretize(surfaces.rectangle(2, 1), 2)
    spec = laplacian.spectrum(laplacian.assemble(bundles.trivial_connection(mesh, 1)),
                              expected_kernel_dim=1)
    h = 1e-5
    dz = (laplacian.discrete_zeta(spec, 2, h) - laplacian.discrete_zeta(spec, 2, -h)) / (2 * h)
    # the log det' of the rescaled spectrum: each nonzero mode adds log n^2
    rescaled = laplacian.log_det_prime(spec) + spec.nonzero.size * math.log(4)
    assert abs(-dz.real - rescaled) < 1e-8


def test_discrete_zeta_reads_the_spectrum_at_scale_n():
    mesh = meshes.discretize(surfaces.rectangle(1, 1), 2)
    spec = laplacian.spectrum(laplacian.assemble(bundles.trivial_connection(mesh, 1)))
    lam = spec.nonzero * 2 * 2
    assert laplacian.discrete_zeta(spec, 2, 2.0) == complex(np.sum(lam.astype(complex) ** -2.0))
    # n^2 lambda: the sum at n = 2 is 2^(-2z) times the sum at n = 1
    z = 1.5 + 0.25j
    ratio = laplacian.discrete_zeta(spec, 2, z) / laplacian.discrete_zeta(spec, 1, z)
    assert abs(ratio - 2.0 ** (-2 * z)) < 1e-13


def test_discrete_zeta_approaches_continuum():
    from torsionlab.meshspectra import rectangle_mesh_spectrum
    n = 64
    spec = rectangle_mesh_spectrum(1, 1, n)
    z2 = laplacian.discrete_zeta(spec, n, 2.0).real
    cutoff = 5e5
    lams = SeparableSurface("rectangle", 1, 1).continuum_eigenvalues(cutoff)
    cont = sum(1.0 / x ** 2 for x in lams[1:])
    tail = 1.0 / (4 * math.pi * cutoff)   # Weyl integral bound on the dropped modes
    assert abs(z2 - cont) < 1e-3 + tail


# (surface spec, largest n): every kind the CLI builds, small enough for eigvalsh
SPARSE_CASES = [
    ({"kind": "rectangle", "a": 2, "b": 3}, 3), ({"kind": "torus", "a": 1, "b": 1}, 4),
    ({"kind": "torus", "a": 2, "b": 1}, 3), ({"kind": "cylinder", "a": 3, "b": 1}, 3),
    ({"kind": "cylinder", "a": 2, "b": 2}, 3), ({"kind": "lshape"}, 3),
    ({"kind": "slit"}, 2), ({"kind": "cone", "k": 1}, 3), ({"kind": "cone", "k": 3}, 2),
    ({"kind": "angle", "k": 5}, 2),
]


def _partially_trivial(surface, rank, rng):
    """Commuting generators fixing exactly one direction: one flat section."""
    g = bundles.random_unitary(rng, rank)
    gens = []
    for _ in surfaces.standard_cuts(surface):
        phases = np.exp(1j * rng.uniform(0.5, 2 * math.pi - 0.5, rank))
        phases[0] = 1.0
        gens.append(g @ np.diag(phases) @ g.conj().T)
    return bundles.HolonomyRepresentation(rank, gens)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(SPARSE_CASES), n=st.integers(1, 4), rank=st.integers(1, 3),
       bundle=st.sampled_from(["trivial", "random", "partial"]), gauge=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_sparse_log_det_agrees_with_the_dense_oracle(case, n, rank, bundle, gauge, seed):
    spec, n_max = case
    rng = np.random.default_rng(seed)
    surface = surfaces.build_surface(spec)
    mesh = meshes.discretize(surface, min(n, n_max))
    if bundle == "trivial":
        conn = bundles.trivial_connection(mesh, rank)
    else:
        rep = (bundles.random_flat_representation(surface, rank, rng) if bundle == "random"
               else _partially_trivial(surface, rank, rng))
        conn = bundles.connection_from_holonomy(mesh, rep)
    if gauge:
        conn = bundles.gauge_transform(
            conn, [bundles.random_unitary(rng, rank) for _ in range(mesh.n_vertices)])
    dense = laplacian.spectrum(laplacian.assemble(conn), expected_kernel_dim=conn.flat_sections)
    want = laplacian.log_det_prime(dense)
    got = sparse_log_det(conn)
    assert got.kernel_dim == dense.kernel_dim
    assert abs(got.log_det_prime - want) <= 1e-10 * max(1.0, abs(want))
    if dense.nonzero.size:
        assert abs(got.kernel_gap - dense.nonzero[0]) <= 1e-6 * dense.nonzero[0]
    else:
        assert got.kernel_gap is None


def test_sparse_log_det_reads_the_flat_basis():
    # one flat section of three: vertex 0 loses one coordinate, not three
    rng = np.random.default_rng(5)
    surface = surfaces.torus(2, 1)
    mesh = meshes.discretize(surface, 3)
    conn = bundles.connection_from_holonomy(mesh, _partially_trivial(surface, 3, rng))
    assert conn.flat_basis.shape == (3, 1)
    got = sparse_log_det(conn)
    assert got.kernel_dim == 1 and got.nnz > 0 and got.factor_nnz >= got.nnz


def test_sparse_log_det_refuses_a_kernel_the_holonomy_does_not_give():
    # a 1e-7 twist has no flat section but an eigenvalue below the tolerance
    mesh = meshes.discretize(surfaces.torus(1, 1), 4)
    rep = bundles.HolonomyRepresentation(1, [np.array([[np.exp(1e-7j)]]), np.eye(1)])
    with pytest.raises(KernelMismatch):
        sparse_log_det(bundles.connection_from_holonomy(mesh, rep))
    # a basis vector that is no flat section: the twisted bundle claims a kernel
    rep = bundles.HolonomyRepresentation(1, [-np.eye(1), np.eye(1)])
    twisted = bundles.connection_from_holonomy(mesh, rep)
    claimed = bundles.UnitaryConnection(mesh, 1, twisted.transports, np.eye(1))
    with pytest.raises(KernelMismatch):
        sparse_log_det(claimed)


@pytest.mark.parametrize("surface,n,gens", [
    (surfaces.torus(1, 1), 4, [np.exp(1e-9j) * np.eye(1)] * 2),
    (surfaces.cylinder(2, 1), 6, [np.exp(1e-9j) * np.eye(1)]),
    (surfaces.torus(1, 1), 4, [np.diag([1, np.exp(1e-9j)])] * 2)],
    ids=["torus", "cylinder", "rank-2"])
def test_sparse_log_det_refuses_a_holonomy_within_rounding_of_trivial(surface, n, gens):
    # no flat section (or one, of rank 2), but a mode of eigenvalue ~1e-18:
    # L_red has a pivot of 1e-15, its LU inverse is far from Hermitian and
    # Lanczos on it settles on a meaningless gap
    rep = bundles.HolonomyRepresentation(len(gens[0]), gens)
    conn = bundles.connection_from_holonomy(meshes.discretize(surface, n), rep)
    with pytest.raises(KernelMismatch, match="not Hermitian"):
        sparse_log_det(conn)


def test_assemble_is_real_for_real_transports():
    mesh = meshes.discretize(surfaces.torus(1, 1), 3)
    assert laplacian.assemble(bundles.trivial_connection(mesh, 2)).dtype == np.float64
    rep = bundles.HolonomyRepresentation(1, [-np.eye(1), np.eye(1)])
    assert laplacian.assemble(bundles.connection_from_holonomy(mesh, rep)).dtype == np.float64
    rep = bundles.HolonomyRepresentation(1, [np.exp(0.3j) * np.eye(1), np.eye(1)])
    assert laplacian.assemble(bundles.connection_from_holonomy(mesh, rep)).dtype == complex


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("phase", [0.0, math.pi, 0.8])
def test_sparse_log_det_on_one_vertex(rank, phase):
    # |V| = 1: only loops, and an operator too small for Lanczos
    mesh = meshes.discretize(surfaces.torus(1, 1), 1)
    g = np.diag(np.exp(1j * phase * np.arange(1, rank + 1)))
    conn = bundles.connection_from_holonomy(
        mesh, bundles.HolonomyRepresentation(rank, [g, np.eye(rank)]))
    dense = laplacian.spectrum(laplacian.assemble(conn), expected_kernel_dim=conn.flat_sections)
    got = sparse_log_det(conn)
    assert abs(got.log_det_prime - laplacian.log_det_prime(dense)) <= 1e-12
    if dense.nonzero.size:
        assert abs(got.kernel_gap - dense.nonzero[0]) <= 1e-12
    else:
        assert got.kernel_gap is None


def _psd(rng, n, dtype, eigenvalues):
    """Q diag(eigenvalues) Q* with Q a random unitary (orthogonal when real)."""
    x = rng.standard_normal((n, n))
    if dtype == complex:
        x = x + 1j * rng.standard_normal((n, n))
    q = np.linalg.qr(x)[0]
    return (q * eigenvalues) @ q.conj().T


def _top(a):
    return laplacian._largest_eigenvalue(lambda v: a @ v, a.shape[0], a.dtype)


@pytest.mark.parametrize("dtype", [float, complex])
def test_largest_eigenvalue_matches_eigvalsh(dtype):
    rng = np.random.default_rng(11)
    for n in range(1, 41):
        spread = rng.uniform(0.0, 3.0, n)
        repeated = np.sort(spread)
        repeated[-2:] = repeated[-1]                    # a double top eigenvalue
        deficient = np.where(np.arange(n) < n // 2, 0.0, spread)    # rank n - n//2
        for eigenvalues in (spread, repeated, deficient):
            a = _psd(rng, n, dtype, eigenvalues)
            want = np.linalg.eigvalsh(a)[-1]
            got, steps = _top(a)
            assert abs(got - want) <= laplacian.LANCZOS_TOL * want
            assert 1 <= steps <= n


def test_lanczos_raises_at_its_basis_cap(monkeypatch):
    # a cluster of top eigenvalues 1e-6 apart: four steps cannot resolve it
    rng = np.random.default_rng(3)
    eigenvalues = np.concatenate([rng.uniform(0.0, 0.5, 30), 1.0 - 1e-6 * np.arange(10)])
    a = _psd(rng, 40, complex, eigenvalues)
    monkeypatch.setattr(laplacian, "LANCZOS_MAX_STEPS", 4)
    with pytest.raises(LanczosNoConvergence):
        _top(a)


def test_sparse_log_det_never_calls_arpack(monkeypatch):
    import scipy.sparse.linalg

    def refuse(*args, **kwargs):
        raise AssertionError("ARPACK was called")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
    rng = np.random.default_rng(2)
    torus = surfaces.torus(2, 1)
    twisted = bundles.connection_from_holonomy(
        meshes.discretize(torus, 3), bundles.random_flat_representation(torus, 2, rng))
    trivial = bundles.trivial_connection(meshes.discretize(surfaces.lshape(), 3), 1)
    for conn in (twisted, trivial):
        dense = laplacian.spectrum(laplacian.assemble(conn),
                                   expected_kernel_dim=conn.flat_sections)
        want = laplacian.log_det_prime(dense)
        got = sparse_log_det(conn)
        assert abs(got.log_det_prime - want) <= 1e-10 * abs(want)
        assert abs(got.kernel_gap - dense.nonzero[0]) <= 1e-6 * dense.nonzero[0]
        assert 1 <= got.lanczos_steps <= laplacian.LANCZOS_MAX_STEPS
