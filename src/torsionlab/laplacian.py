"""Twisted combinatorial Laplacian: assembly, spectra, determinants, zeta sums.

The Laplacian acts blockwise: row v carries deg(v)*I minus the sum of
transports into v; a loop with transport w contributes 2I - w - w* at its
vertex, and each copy of a multi-edge is summed separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, EmptySpectrum, KernelMismatch

DENSE_BUDGET = 6000      # largest r|V| assembled as a dense matrix
ZERO_EIGENVALUE_TOL = 1e-8
PSD_TOL = 1e-10


def assemble(conn):
    """Dense Hermitian matrix of the twisted Laplacian, shape (r|V|, r|V|);
    BudgetExceeded beyond DENSE_BUDGET."""
    g = conn.graph
    r = conn.rank
    nv = g.n_vertices
    if r * nv > DENSE_BUDGET:
        raise BudgetExceeded(f"dense budget: r|V| = {r * nv} > {DENSE_BUDGET}")
    A = np.zeros((r * nv, r * nv), dtype=complex)
    eye = np.eye(r, dtype=complex)
    for (u, v), t in zip(g.ends, conn.transports):     # t: fiber at u -> fiber at v
        su, sv = u * r, v * r
        A[su:su + r, su:su + r] += eye
        A[sv:sv + r, sv:sv + r] += eye
        # row v couples to u through phi_{u v} = t, row u through t*
        A[sv:sv + r, su:su + r] -= t
        A[su:su + r, sv:sv + r] -= t.conj().T
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


def discrete_zeta(spec, z):
    """Finite zeta sum over the rescaled spectrum: sum (n^2 lambda)^(-z)."""
    if not spec.rescale_flag:
        raise ValueError("discrete_zeta needs an n^2-rescaled spectrum")
    lam = spec.nonzero.astype(complex)
    return complex(np.sum(lam ** (-z)))


def spectrum_csv(spec):
    lines = ["index,eigenvalue"]
    for k, lam in enumerate(spec.eigenvalues):
        lines.append(f"{k},{lam!r}")
    return "\n".join(lines) + "\n"
