"""Twisted combinatorial Laplacian: assembly, spectra, determinants, zeta sums.

The Laplacian acts blockwise: row v carries deg(v)*I minus the sum of
transports into v; a loop with transport w contributes 2I - w - w* at its
vertex, and each copy of a multi-edge is summed separately.  One triplet
builder gives its entries; ``assemble`` scatters them into the dense matrix
that ``spectrum`` diagonalizes, and ``sparse_log_det`` wraps them as CSC.

The sparse route takes log det' without eigenvalues.  The flat sections
span the kernel, and their values at vertex 0 span the connection's
``flat_basis`` W (k columns).  Rotating vertex 0's fiber to [W, W-perp] and
deleting W's k coordinates leaves a positive definite L_red, and
log det' L = k log|V| + log det L_red (the matrix-tree theorem for flat
unitary bundles: a flat section has the same norm at every vertex).  The
same LU factor then confirms the kernel: k solves give it, and Lanczos on
the pseudo-inverse gives the gap lambda_{k+1}.  SuperLU is the only scipy
code on this route; the Lanczos loop is numpy, with its vector work in
``einsum``, because numpy and scipy each load their own OpenBLAS and two
thread pools taking turns spin against each other on a small machine.
The sparse route serves a bundle given by a holonomy and a gluing with E/W
half-turns, and is the oracle of the strip route (``strips``), which takes
the trivial bundle with numpy alone and shares its Lanczos loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, EmptySpectrum, KernelMismatch, LanczosNoConvergence

DENSE_BUDGET = 6000      # largest r|V| assembled as a dense matrix
# largest r|V| + 2 r^2 |E|, the stored entries before duplicates merge, that
# the sparse route assembles: the L-shape at n = 128 (983 040) runs, n = 256
# (3.9 million, 3.2 GB at the LU) is refused
SPARSE_BUDGET = 2_000_000
ZERO_EIGENVALUE_TOL = 1e-8
PSD_TOL = 1e-10
# relative Ritz residual at which Lanczos stops; a Ritz value of a Hermitian
# operator lies within its residual of an eigenvalue, so the gap is this exact
LANCZOS_TOL = 1e-8
# Krylov vectors Lanczos keeps at most (it converges in about 10): at the
# largest r|V| that SPARSE_BUDGET admits, about 400 000, the basis is 0.4 GB
# of complex doubles, well under the LU's own peak there
LANCZOS_MAX_STEPS = 64


def check_dense_budget(rank, n_vertices):
    """BudgetExceeded when a dense matrix of side r|V| is beyond DENSE_BUDGET."""
    if rank * n_vertices > DENSE_BUDGET:
        raise BudgetExceeded(f"dense budget: r|V| = {rank * n_vertices} > {DENSE_BUDGET}")


def check_sparse_budget(rank, n_vertices, n_edges):
    """BudgetExceeded when the sparse route would store more than SPARSE_BUDGET
    entries, r|V| + 2 r^2 |E| before duplicates merge."""
    entries = rank * n_vertices + 2 * rank * rank * n_edges
    if entries > SPARSE_BUDGET:
        raise BudgetExceeded(f"sparse budget: r|V| + 2r^2|E| = {entries} > {SPARSE_BUDGET}")


def _triplets(conn, transports=None):
    """(rows, cols, vals) of the Laplacian of ``conn`` with ``transports``
    (default: its own); entries at one place add up in the order given.

    Edge by edge: I at (u, u), I at (v, v), -t at (v, u) and -t* at (u, v),
    t mapping the fiber at u to the fiber at v.  vals are real when every
    transport is.
    """
    g = conn.graph
    r = conn.rank
    t = conn.transports if transports is None else transports
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
    """Sorted eigenvalues with kernel bookkeeping."""

    eigenvalues: np.ndarray
    kernel_dim: int
    rescale_flag: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.eigenvalues = np.sort(np.asarray(self.eigenvalues, dtype=float))

    @property
    def nonzero(self):
        return self.eigenvalues[self.kernel_dim:]

    def rescaled(self, n):
        """New spectrum carrying n^2 * lambda."""
        if self.rescale_flag:
            return self
        return HermitianSpectrum(self.eigenvalues * n * n, self.kernel_dim,
                                 rescale_flag=True, meta={**self.meta, "n": n})

    def validate(self, rank=1):
        lam = self.eigenvalues
        if lam.size and lam[0] < -PSD_TOL:
            raise KernelMismatch(f"negative eigenvalue {lam[0]:.3e}")
        if lam.size and not self.rescale_flag and lam[-1] > 8 * rank + 1e-9:
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


@dataclass
class SparseLogDet:
    """log det' from one sparse LU, with the numbers that show its health."""

    log_det_prime: float
    kernel_dim: int
    kernel_gap: float | None    # lambda_{k+1}; None when the kernel is everything
    nnz: int                    # stored entries of L_red
    factor_nnz: int             # entries SuperLU stores for its L + U factors
    lanczos_steps: int          # applications of L^+ that the gap took


def sparse_log_det(conn):
    """log det' of the twisted Laplacian of ``conn`` by one sparse LU of L_red
    (see the module docstring), its kernel the connection's ``flat_basis``.

    BudgetExceeded beyond SPARSE_BUDGET, checked before anything is
    assembled.  KernelMismatch when the kernel the factor finds disagrees
    with the flat basis: a basis vector that L does not annihilate, or a
    gap below ZERO_EIGENVALUE_TOL.  LanczosNoConvergence when the gap is not
    found within LANCZOS_MAX_STEPS applications of L^+.
    """
    # imported here only: at module level scipy would add about 0.1 s and
    # 30 MB to every process, the many that never take this route included
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    g = conn.graph
    r = conn.rank
    nv = g.n_vertices
    basis = conn.flat_basis
    k = basis.shape[1]
    size = r * nv
    check_sparse_budget(r, nv, len(g.edge_u))
    transports = conn.transports
    if 0 < k < r:
        # gauge vertex 0 by Q* with Q = [W, W-perp]: its first k coordinates are
        # W's (for k = r any basis of the fiber will do, the standard one included)
        q = np.linalg.svd(basis)[0]
        transports = transports.copy()
        into0, out0 = g.edge_v == 0, g.edge_u == 0
        transports[into0] = q.conj().T @ transports[into0]
        transports[out0] = transports[out0] @ q
    rows, cols, vals = _triplets(conn, transports)
    L = sp.csc_matrix((vals, (rows, cols)), shape=(size, size))
    L.eliminate_zeros()
    red = L[k:, k:]
    if red.shape[0] == 0:           # one vertex, all flat: det' is the empty product
        return SparseLogDet(k * math.log(nv), k, None, 0, 0, 0)
    try:
        lu = splu(red, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as exc:     # SuperLU: exactly singular
        raise KernelMismatch(f"reduced Laplacian is singular: more than {k} zero modes") from exc
    ld = k * math.log(nv) + math.fsum(np.log(np.abs(lu.U.diagonal())).tolist())

    # kernel: [I; -L_red^{-1} B*] with B = L[:k, k:], made orthonormal
    kernel = np.zeros((size, 0), dtype=red.dtype)
    if k:
        z = -lu.solve(L[:k, k:].conj().T.toarray())
        kernel = np.linalg.qr(np.vstack([np.eye(k, dtype=z.dtype), z]))[0]
        if np.linalg.eigvalsh(kernel.conj().T @ (L @ kernel))[-1] >= ZERO_EIGENVALUE_TOL:
            raise KernelMismatch(f"a flat section is not in the numerical kernel: "
                                 f"fewer than {k} zero modes")

    # L^+ b: solve on ker-perp, then project.  The projections, like the
    # Lanczos loop, use einsum, not numpy's BLAS: SuperLU's solves run on
    # scipy's OpenBLAS, and waking numpy's thread pool between them made the
    # loop up to 20 times slower on two cores
    def project(b):
        return b - np.einsum("ij,j...->i...", kernel,
                             np.einsum("ij,i...->j...", kernel.conj(), b))

    def pinv(b):
        x = np.zeros_like(b)
        x[k:] = lu.solve(project(b)[k:])
        return project(x)

    top, steps = _largest_eigenvalue(pinv, size, red.dtype)
    gap = 1.0 / top
    if gap < ZERO_EIGENVALUE_TOL:
        raise KernelMismatch(f"kernel gap {gap:.3e} below {ZERO_EIGENVALUE_TOL}: "
                             f"more than {k} zero modes")
    return SparseLogDet(ld, k, gap, red.nnz, lu.nnz, steps)


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


def discrete_zeta(spec, z):
    """Finite zeta sum over the rescaled spectrum: sum (n^2 lambda)^(-z)."""
    if not spec.rescale_flag:
        raise ValueError("discrete_zeta needs an n^2-rescaled spectrum")
    lam = spec.nonzero.astype(complex)
    return complex(np.sum(lam ** (-z)))
