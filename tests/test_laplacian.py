"""Laplacian assembly, spectra, determinants, discrete zeta sums."""

import math

import numpy as np
import pytest

from torsionlab import bundles, laplacian, meshes, surfaces
from torsionlab.errors import EmptySpectrum, KernelMismatch
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
                              expected_kernel_dim=1).rescaled(2)
    z0 = laplacian.discrete_zeta(spec, 0.0)
    assert abs(z0 - (4 - 1)) < 1e-12


def test_discrete_zeta_derivative_is_logdet():
    mesh = meshes.discretize(surfaces.rectangle(2, 1), 2)
    spec = laplacian.spectrum(laplacian.assemble(bundles.trivial_connection(mesh, 1)),
                              expected_kernel_dim=1).rescaled(2)
    h = 1e-5
    dz = (laplacian.discrete_zeta(spec, h) - laplacian.discrete_zeta(spec, -h)) / (2 * h)
    assert abs(-dz.real - laplacian.log_det_prime(spec)) < 1e-8


def test_discrete_zeta_requires_rescaling():
    mesh = meshes.discretize(surfaces.rectangle(1, 1), 2)
    spec = laplacian.spectrum(laplacian.assemble(bundles.trivial_connection(mesh, 1)))
    with pytest.raises(ValueError):
        laplacian.discrete_zeta(spec, 2.0)


def test_discrete_zeta_approaches_continuum():
    from torsionlab.meshspectra import rectangle_mesh_spectrum
    n = 64
    spec = rectangle_mesh_spectrum(1, 1, n).rescaled(n)
    z2 = laplacian.discrete_zeta(spec, 2.0).real
    cutoff = 5e5
    lams = SeparableSurface("rectangle", 1, 1).continuum_eigenvalues(cutoff)
    cont = sum(1.0 / x ** 2 for x in lams[1:])
    tail = 1.0 / (4 * math.pi * cutoff)   # Weyl integral bound on the dropped modes
    assert abs(z2 - cont) < 1e-3 + tail


def test_spectrum_csv():
    mesh = meshes.discretize(surfaces.rectangle(1, 1), 2)
    spec = laplacian.spectrum(laplacian.assemble(bundles.trivial_connection(mesh, 1)))
    csv = laplacian.spectrum_csv(spec)
    lines = csv.strip().split("\n")
    assert lines[0] == "index,eigenvalue" and len(lines) == 5
