"""Twisted combinatorial Laplacian: assembly, spectra, determinants, zeta sums.

The Laplacian acts blockwise: row v carries deg(v)*I minus the sum of
transports into v; a loop with transport w contributes 2I - w - w* at its
vertex, and each copy of a multi-edge is summed separately.  One triplet
builder gives its entries, and ``assemble`` scatters them into the dense
matrix that ``spectrum`` diagonalizes: the dense eigensolve, the oracle of
every faster route.

``_largest_eigenvalue`` is the Lanczos loop that finds a kernel gap as the
top eigenvalue of L^+ without eigenvalues of L: the strip route (``strips``)
and the sparse LU of the tests' oracles apply L^+ through their factors.  Its
vector work is in ``einsum``, not numpy's BLAS: between the sparse LU's solves,
which run on scipy's own OpenBLAS, waking numpy's thread pool made the loop up
to 20 times slower on two cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, EmptySpectrum, KernelMismatch, LanczosNoConvergence

DENSE_BUDGET = 6000      # largest r|V| assembled as a dense matrix
ZERO_EIGENVALUE_TOL = 1e-8
PSD_TOL = 1e-10
# relative Ritz residual at which Lanczos stops; a Ritz value of a Hermitian
# operator lies within its residual of an eigenvalue, so the gap is this exact
LANCZOS_TOL = 1e-8
# Krylov vectors Lanczos keeps at most (it converges in about 10); the strip
# route keeps fewer where its budget leaves less room (strips.STRIP_BUDGET)
LANCZOS_MAX_STEPS = 64


def check_dense_budget(rank, n_vertices):
    """BudgetExceeded when a dense matrix of side r|V| is beyond DENSE_BUDGET."""
    if rank * n_vertices > DENSE_BUDGET:
        raise BudgetExceeded(f"dense budget: r|V| = {rank * n_vertices} > {DENSE_BUDGET}")


def _triplets(conn):
    """(rows, cols, vals) of the Laplacian of ``conn``; entries at one place
    add up in the order given.

    Edge by edge: I at (u, u), I at (v, v), -t at (v, u) and -t* at (u, v),
    t mapping the fiber at u to the fiber at v.  vals are real when every
    transport is.
    """
    g = conn.graph
    r = conn.rank
    t = conn.transports
    if not np.any(t.imag):
        t = t.real
    ne = len(g.edge_u)
    a = np.arange(r)
    bu = (g.edge_u * r)[:, None]
    bv = (g.edge_v * r)[:, None]
    rows_vu = np.broadcast_to((bv + a)[:, :, None], (ne, r, r)).reshape(ne, r * r)
    cols_vu = np.broadcast_to((bu + a)[:, None, :], (ne, r, r)).reshape(ne, r * r)
    rows = np.hstack([bu + a, bv + a, rows_vu, cols_vu]).ravel()
    cols = np.hstack([bu + a, bv + a, cols_vu, rows_vu]).ravel()
    vals = np.hstack([np.ones((ne, 2 * r), dtype=t.dtype), -t.reshape(ne, r * r),
                      -t.conj().reshape(ne, r * r)]).ravel()
    return rows, cols, vals


def assemble(conn):
    """Dense Hermitian matrix of the twisted Laplacian, shape (r|V|, r|V|), real
    when every transport is; BudgetExceeded beyond DENSE_BUDGET."""
    r = conn.rank
    nv = conn.graph.n_vertices
    check_dense_budget(r, nv)
    rows, cols, vals = _triplets(conn)
    A = np.zeros((r * nv, r * nv), dtype=vals.dtype)
    np.add.at(A, (rows, cols), vals)
    return A


@dataclass
class HermitianSpectrum:
    """Sorted eigenvalues of the unrescaled mesh Laplacian and the kernel
    dimension; a reader of n^2 lambda takes n beside the spectrum."""

    eigenvalues: np.ndarray
    kernel_dim: int

    def __post_init__(self):
        self.eigenvalues = np.sort(np.asarray(self.eigenvalues, dtype=float))

    @property
    def nonzero(self):
        return self.eigenvalues[self.kernel_dim:]

    def validate(self, rank=1):
        lam = self.eigenvalues
        if lam.size and lam[0] < -PSD_TOL:
            raise KernelMismatch(f"negative eigenvalue {lam[0]:.3e}")
        if lam.size and lam[-1] > 8 * rank + 1e-9:
            raise KernelMismatch(f"eigenvalue above 8r bound: {lam[-1]:.6f}")
        return self


def spectrum(A, expected_kernel_dim=None):
    """Eigenvalues of a Hermitian PSD matrix; the kernel counts those below
    ZERO_EIGENVALUE_TOL and must equal ``expected_kernel_dim`` (a connection's
    ``flat_sections``) when given, else KernelMismatch."""
    A = np.asarray(A)
    if A.size == 0:
        raise EmptySpectrum("empty operator")
    lam = np.linalg.eigvalsh(A)
    kdim = int(np.sum(lam < ZERO_EIGENVALUE_TOL))
    if expected_kernel_dim is not None and kdim != expected_kernel_dim:
        raise KernelMismatch(f"kernel dimension {kdim} (tol {ZERO_EIGENVALUE_TOL}) "
                             f"!= expected {expected_kernel_dim}")
    return HermitianSpectrum(lam, kdim)


def log_det_prime(spec):
    """Sum of log(lambda) over the nonzero part of the spectrum."""
    if spec.eigenvalues.size == 0:
        raise EmptySpectrum("no eigenvalues")
    return math.fsum(math.log(x) for x in spec.nonzero)


def _largest_eigenvalue(apply, size, dtype, max_steps=None):
    """(top eigenvalue, steps) of the Hermitian PSD operator ``apply`` on
    vectors of ``size`` entries of ``dtype``, by Lanczos from a seeded start,
    keeping at most ``max_steps`` (default LANCZOS_MAX_STEPS) Krylov vectors.

    Each step applies the operator once, orthogonalizes against the whole
    basis twice (full reorthogonalization) and diagonalizes the tridiagonal
    T_j.  It stops when the top Ritz pair's
    residual beta_j |s_j,last| is within LANCZOS_TOL of its value, at
    breakdown, or after ``size`` steps: then the Krylov space is invariant and
    the Ritz value exact.  LanczosNoConvergence after ``max_steps``.

    That residual holds only for a Hermitian operator, so the top Ritz vector
    is then applied once more: KernelMismatch when its true residual is above
    100 LANCZOS_TOL of the Ritz value.  L^+ is that far from Hermitian when
    L_red has a pivot near zero, a zero mode the flat basis does not count.
    """
    w = np.random.default_rng(0).standard_normal(size).astype(dtype)
    b = _norm(w)
    cap = LANCZOS_MAX_STEPS if max_steps is None else max_steps
    basis = np.empty((min(size, cap), size), dtype=dtype)
    alpha, beta = [], []
    for j in range(len(basis)):
        basis[j] = w / b
        if j:
            beta.append(b)
        w = apply(basis[j])
        alpha.append(np.einsum("i,i->", basis[j].conj(), w).real)
        prev = basis[:j + 1]
        for _ in range(2):
            w = w - np.einsum("ji,j->i", prev, np.einsum("ji,i->j", prev.conj(), w))
        b = _norm(w)
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        residual = b * abs(s[-1, -1])
        if residual <= LANCZOS_TOL * theta[-1] or b == 0.0 or j + 1 == size:
            ritz = np.einsum("j,ji->i", s[:, -1], basis[:j + 1])
            true = _norm(apply(ritz) - theta[-1] * ritz)
            if true > 100 * LANCZOS_TOL * theta[-1]:
                raise KernelMismatch(f"Lanczos: true Ritz residual {true / theta[-1]:.3e} "
                                     "relative, the operator is not Hermitian: more zero "
                                     "modes than the flat basis")
            return float(theta[-1]), j + 1
    raise LanczosNoConvergence(f"Lanczos: Ritz residual {residual:.3e} of {theta[-1]:.6e} "
                               f"above {LANCZOS_TOL} relative after {len(basis)} steps")


def _norm(v):
    return math.sqrt(np.einsum("i,i->", v.conj(), v).real)


def discrete_zeta(spec, n, z):
    """Finite zeta sum over the spectrum at mesh size n: sum (n^2 lambda)^(-z)."""
    lam = (spec.nonzero * n * n).astype(complex)
    return complex(np.sum(lam ** (-z)))
