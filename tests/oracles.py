"""Closed forms that only the tests use, kept as oracles: the rectangle mesh's
eigenvalues and eigenvectors mode by mode, and the rescaling law of log det'."""

import math

from torsionlab.errors import IndexOutOfRange


def mesh_eigenvalue(a, b, n, i, j):
    """Rescaled eigenvalue of the an x bn rectangle mesh; (0,0) maps to 1."""
    if not (0 <= i < a * n and 0 <= j < b * n):
        raise IndexOutOfRange(f"(i,j)=({i},{j}) outside [0,{a * n}) x [0,{b * n})")
    if i == 0 and j == 0:
        return 1.0
    return (4 * n * n * math.sin(math.pi * i / (2 * a * n)) ** 2
            + 4 * n * n * math.sin(math.pi * j / (2 * b * n)) ** 2)


def mesh_eigenvector(a, b, n, i, j, k, l):
    """Eigenvector value at mesh vertex (k, l)."""
    if not (0 <= i < a * n and 0 <= j < b * n):
        raise IndexOutOfRange(f"(i,j)=({i},{j})")
    if not (0 <= k < a * n and 0 <= l < b * n):
        raise IndexOutOfRange(f"(k,l)=({k},{l})")
    return (math.cos(2 * math.pi * i * (0.5 + k) / (2 * a * n))
            * math.cos(2 * math.pi * j * (0.5 + l) / (2 * b * n)))


def mesh_eigenvector_norm_sq(a, b, n, i, j):
    """Squared norm of the (i, j) eigenvector: a*b*n^2 * 2^(d_i0 + d_j0 - 2).

    Direct summation fixes the power: the constant vector has squared norm
    a*b*n^2 and doubly nonzero modes a*b*n^2/4.
    """
    if not (0 <= i < a * n and 0 <= j < b * n):
        raise IndexOutOfRange(f"(i,j)=({i},{j})")
    di = 1 if i == 0 else 0
    dj = 1 if j == 0 else 0
    return a * b * n * n * 2.0 ** (di + dj - 2)


def rescale_torsion(logdet, zeta0, c):
    """log det' of the c-rescaled surface: logdet - 2 log(c) zeta(0)."""
    return logdet - 2.0 * math.log(c) * float(zeta0)
