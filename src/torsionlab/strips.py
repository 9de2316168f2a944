"""The strip route: log det' of the trivial bundle, at any rank, from closed
forms inside horizontal strips, with numpy alone and no mesh built.

The tiles fall into horizontal strips (`complexes.horizontal_strips`).
Inside a strip the mesh Laplacian is a product of a horizontal path or
cycle and a vertical path, with closed-form eigenpairs; only the K vertices
of the rows where strips meet (and one row of a strip that meets none) are
kept, in a dense Schur complement S: the discrete Burghelea-Friedlander-
Kappeler gluing.  log det' = r (log|V| + the strips' closed forms + log det
S_red), with S_red factored in place by a Cholesky; the gap comes from the
Lanczos loop of ``laplacian`` on L^+, applied through the strips'
eigenbases and the factor.  ``laplacian.sparse_log_det`` is its oracle.

The callers import this module when they take the route: a process that
never does compiles none of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import laplacian
from .complexes import N, S, horizontal_strips, require_subdivision
from .errors import BudgetExceeded, KernelMismatch

# largest K^2 + sum m^2 + STRIP_VECTORS |V| doubles the strip route holds: S,
# the strips' horizontal eigenbases, and per mesh vertex the interiors'
# inverse eigenvalues, work vectors and Krylov basis, which takes what the
# budget leaves (at least 12 vectors).  The L-shape at n = 1024 (K = 6144,
# |V| = 12.6 million) runs, and n = 2048 is refused
STRIP_BUDGET = 2 ** 28
STRIP_VECTORS = 16
CHOLESKY_BLOCK = 256        # columns per block of the in-place Cholesky of S_red


@dataclass
class StripLogDet:
    """log det' of a trivial bundle from the horizontal strips, with the
    numbers that show its health."""

    log_det_prime: float
    kernel_dim: int
    kernel_gap: float | None    # lambda_2; None on a one-vertex mesh
    K: int                      # kept vertices: the side of S
    strips: int
    pivot_ratio: float | None   # smallest over largest pivot of S_red; None when empty
    lanczos_steps: int


def check_strip_budget(kept, bases, n_vertices):
    """BudgetExceeded when the strip route would hold more than STRIP_BUDGET
    doubles: K^2 for S, ``bases`` for the strips' horizontal eigenbases (m^2
    each), and STRIP_VECTORS per mesh vertex."""
    held = kept * kept + bases + STRIP_VECTORS * n_vertices
    if held > STRIP_BUDGET:
        raise BudgetExceeded(f"strip budget: K^2 + sum m^2 + {STRIP_VECTORS}|V| = {held} > "
                             f"{STRIP_BUDGET} (K = {kept}, |V| = {n_vertices})")


def strip_log_det(partner, n, rank=1):
    """log det' of the Laplacian of the trivial rank-``rank`` bundle on the mesh
    at n of the connected complex with partner array ``partner``, from its
    horizontal strips (`complexes.horizontal_strips`), with no mesh built.

    A strip's rows between its kept rows are its interior: a product of a
    horizontal path or cycle of m vertices and a vertical path T, free at an
    end without a kept row, so mode k of the horizontal Laplacian (eigenvalue
    mu_k) sees T + mu_k.  Eliminating the interiors leaves S on the K kept
    vertices: the Laplacian there less, per strip, the corner entries of
    (T + mu_k)^-1 in the horizontal eigenbasis, a circulant or a Toeplitz plus
    Hankel block.  So log det' L = r (log|V| + sum over strips and modes of
    log det(T + mu_k) + log det S_red), S_red being S less its first kept
    vertex (the matrix-tree theorem), factored in place by a Cholesky.  The
    kernel is the constants at every rank, and the gap comes from Lanczos on
    L^+ (`_strip_pinv`).

    BudgetExceeded beyond STRIP_BUDGET, checked before any array;
    HypothesisViolation for an E or W side glued by a half-turn;
    KernelMismatch when S_red is not positive definite (a surface in more
    than one piece) or the gap is below ZERO_EIGENVALUE_TOL;
    LanczosNoConvergence as in laplacian.sparse_log_det.
    """
    require_subdivision(n)
    strips = horizontal_strips(partner)
    n_vertices = len(partner) // 4 * n * n
    # the kept rows that each strip's bottom and top rows meet (None: a free
    # end): its own, or for a closed stack its bottom row, through the wrap;
    # ``own`` lists them once, and the other rows are the interior
    layout, kept = [], 0
    for strip in strips:
        rows, m = n * strip.tiles.shape[0], n * strip.tiles.shape[1]
        bottom = top = None
        if strip.keep_bottom:
            bottom, kept = kept, kept + m
        if strip.wrap is not None or (strip.keep_top and rows == 1 and bottom is not None):
            top = bottom
        elif strip.keep_top:
            top, kept = kept, kept + m
        own = sorted({bottom, top} - {None})
        layout.append((strip, rows, m, bottom, top, own, rows - len(own)))
    bases = sum(m * m for _, _, m, _, _, _, interior in layout if interior)
    check_strip_budget(kept, bases, n_vertices)

    schur = np.zeros((kept, kept))
    us, vs = [], []                     # kept-to-kept edges
    base = np.full(len(partner), -1)    # kept id of subside 0 of an N or S slot between strips
    logs = [np.array([math.log(n_vertices)])]
    blocks = []
    for strip, rows, m, bottom, top, own, interior in layout:
        col = np.arange(m)
        hops = col if strip.cyclic else col[:-1]
        for row in own:
            us.append(row + hops)
            vs.append(row + (hops + 1) % m)
        if strip.wrap is None:
            w = strip.tiles.shape[1]
            if bottom is not None:
                base[4 * strip.tiles[0] + S] = bottom + n * np.arange(w)
            if top is not None:
                base[4 * strip.tiles[-1] + N] = top + n * np.arange(w)
        shift = 0 if strip.wrap is None else strip.wrap * n
        if interior == 0:
            if rows == 2 or strip.wrap is not None:     # two kept rows, or one glued onto itself
                us.append(bottom + col)
                vs.append(top + (col + shift) % m)
            continue
        theta = (np.pi if strip.cyclic else 0.5 * np.pi) * col / m
        mu = 4.0 * np.sin(theta) ** 2
        logs.append(_vertical_log_det(2.0 * np.arcsinh(np.sin(theta)), interior,
                                      bottom is not None and top is not None))
        nu, sums, ends = _vertical_modes(interior, bottom is not None, top is not None)
        inverse = 1.0 / (nu[:, None] + mu)
        block = _circulant if strip.cyclic else _toeplitz_hankel
        grounded = [(row, end, sh) for row, end, sh in ((bottom, ends[0], 0),
                                                        (top, ends[1], shift)) if row is not None]
        for row, end, _ in grounded:
            schur[row + col, row + col] += 1.0
            # a shift moves only cyclic strips, whose blocks are circulant
            schur[row:row + m, row:row + m] -= block(end ** 2 @ inverse)
        if len(grounded) == 2:
            across = np.roll(block((ends[0] * ends[1]) @ inverse), shift, axis=1)
            schur[bottom:bottom + m, top:top + m] -= across
            schur[top:top + m, bottom:bottom + m] -= across.T
        blocks.append((interior, m, _horizontal_basis(m, strip.cyclic), inverse, sums,
                       [(row + (col + sh) % m, end) for row, end, sh in grounded]))

    # N and S pairings between strips, one edge per subside
    slot = np.flatnonzero((base >= 0) & (partner > np.arange(len(partner))))
    other = partner[slot]
    i = np.arange(n)
    turn = (other & 3 == slot & 3)[:, None]
    us.append((base[slot][:, None] + i).ravel())
    vs.append((base[other][:, None] + np.where(turn, n - 1 - i, i)).ravel())
    u, v = np.concatenate(us).astype(np.int64), np.concatenate(vs).astype(np.int64)
    np.add.at(schur, (u, u), 1.0)
    np.add.at(schur, (v, v), 1.0)
    np.add.at(schur, (u, v), -1.0)
    np.add.at(schur, (v, u), -1.0)

    red = schur[1:, 1:]
    try:
        inverses = _cholesky_in_place(red)
    except np.linalg.LinAlgError as exc:
        raise KernelMismatch("S_red is not positive definite: more than one zero mode") from exc
    pivots = np.diagonal(red)
    logs.append(2.0 * np.log(pivots))
    log_det = rank * math.fsum(np.concatenate(logs).tolist())
    ratio = float((pivots.min() / pivots.max()) ** 2) if kept > 1 else None
    gap, steps = None, 0
    if n_vertices > 1:
        top_value, steps = laplacian._largest_eigenvalue(
            _strip_pinv(blocks, red, inverses, n_vertices), n_vertices, float,
            min(laplacian.LANCZOS_MAX_STEPS,
                (STRIP_BUDGET - kept * kept - bases) // n_vertices - 4))
        gap = 1.0 / top_value
        if gap < laplacian.ZERO_EIGENVALUE_TOL:
            raise KernelMismatch(f"kernel gap {gap:.3e} below {laplacian.ZERO_EIGENVALUE_TOL}: "
                                 "more than one zero mode")
    return StripLogDet(log_det, rank, gap, kept, len(strips), ratio, steps)


def _vertical_log_det(phi, rows, both):
    """log det(T + mu) per mode, mu = 4 sinh^2(phi/2), for T the vertical path
    of ``rows`` interior rows grounded at both ends (``both``) or at one:
    sinh((R+1) phi) / sinh(phi), or cosh((R+1/2) phi) / cosh(phi/2), written
    in e^-phi so that they hold for R phi in the thousands."""
    R = rows
    if both:
        with np.errstate(divide="ignore", invalid="ignore"):     # 0/0 at mu = 0, replaced
            ratio = np.expm1(-2 * (R + 1) * phi) / np.expm1(-2 * phi)
        return np.where(phi == 0, math.log(R + 1), R * phi + np.log(ratio))
    return R * phi + np.log1p(np.exp(-(2 * R + 1) * phi)) - np.log1p(np.exp(-phi))


def _vertical_modes(rows, bottom, top):
    """(nu, sums, (at_bottom, at_top)) of T, the vertical path of ``rows``
    interior rows grounded at the ends ``bottom`` and ``top`` say (one at
    least): its eigenvalues, the sums over the rows of its orthonormal
    eigenvectors, and their values at each grounded end (None at a free one).

    Both grounded, eigenvector j is sin((r+1) theta_j) with theta_j =
    (j+1) pi / (R+1); grounded at the bottom only, sin((r+1) theta_j) with
    theta_j = (2j+1) pi / (2R+1), and at the top only the same read from the
    top down."""
    R = rows
    j = np.arange(R)
    if bottom and top:
        theta = np.pi * (j + 1) / (R + 1)
        scale = math.sqrt(2.0 / (R + 1))
        ends = (scale * np.sin(theta), scale * np.sin(R * theta))
    else:
        theta = np.pi * (2 * j + 1) / (2 * R + 1)
        scale = 2.0 / math.sqrt(2 * R + 1)
        ends = (scale * np.sin(theta), None) if bottom else (None, scale * np.sin(theta))
    sums = scale * np.sin(0.5 * R * theta) * np.sin(0.5 * (R + 1) * theta) / np.sin(0.5 * theta)
    return 4.0 * np.sin(0.5 * theta) ** 2, sums, ends


def _horizontal_basis(m, cyclic):
    """The orthonormal eigenbasis of the path (DCT-II) or cycle Laplacian on m
    vertices, mode k in row k with eigenvalue 4 sin^2(pi k / 2m), or 4 sin^2(pi
    k / m) on the cycle, whose row k > m/2 is the sine of frequency m - k."""
    k = np.arange(m)
    if not cyclic:
        u = np.cos(np.outer(k * (np.pi / m), k + 0.5))
        u *= math.sqrt(2.0 / m)
        u[0] = math.sqrt(1.0 / m)
        return u
    sine = 2 * k > m
    angle = np.outer(np.minimum(k, m - k) * (2 * np.pi / m), k.astype(float))
    sines = np.sin(angle[sine])
    u = np.cos(angle, out=angle)
    u[sine] = sines
    u *= math.sqrt(2.0 / m)
    u[0] /= math.sqrt(2.0)
    if m % 2 == 0:
        u[m // 2] /= math.sqrt(2.0)
    return u


def _toeplitz_hankel(g):
    """C^T diag(g) C for C the DCT-II basis of the path on len(g) vertices:
    b[|c - d|] + b[c + d + 1], b one inverse FFT of g."""
    m = len(g)
    weights = np.full(m, 2.0)
    weights[0] = 1.0
    b = np.fft.ifft(np.concatenate([weights * g, np.zeros(m)])).real
    toeplitz = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([b[m - 1:0:-1], b[:m]]), m)[::-1]
    return toeplitz + np.lib.stride_tricks.sliding_window_view(b[1:], m)


def _circulant(g):
    """F diag(g) F* for F the Fourier basis of the cycle on len(g) vertices:
    a[(c - d) % m], a one inverse FFT of g (real, as g_k = g_{m-k})."""
    m = len(g)
    a = np.fft.ifft(g).real
    return np.lib.stride_tricks.sliding_window_view(a[(m - 1 - np.arange(2 * m - 1)) % m],
                                                    m)[::-1].copy()


def _cholesky_in_place(a):
    """Overwrite the lower triangle of the positive definite ``a`` with its
    Cholesky factor, in blocks of CHOLESKY_BLOCK columns, with no copy of
    ``a``; returns the inverses of the diagonal blocks of the factor.
    LinAlgError when ``a`` is not positive definite."""
    k = len(a)
    inverses = []
    for j in range(0, k, CHOLESKY_BLOCK):
        e = min(j + CHOLESKY_BLOCK, k)
        d = np.linalg.cholesky(a[j:e, j:e])
        a[j:e, j:e] = d
        inverses.append(np.linalg.inv(d))
        if e < k:
            panel = a[e:, j:e] @ inverses[-1].T
            a[e:, j:e] = panel
            for i in range(e, k, CHOLESKY_BLOCK):
                f = min(i + CHOLESKY_BLOCK, k)
                a[i:, i:f] -= panel[i - e:] @ panel[i - e:f - e].T
    return inverses


def _cholesky_solve(a, inverses, b):
    """a^-1 b for ``a`` factored by _cholesky_in_place."""
    y = b.copy()
    starts = range(0, len(a), CHOLESKY_BLOCK)
    for j, inv in zip(starts, inverses):
        e = j + len(inv)
        y[j:e] = inv @ (y[j:e] - a[j:e, :j] @ y[:j])
    for j, inv in reversed(list(zip(starts, inverses))):
        e = j + len(inv)
        y[j:e] = inv.T @ (y[j:e] - a[e:, j:e].T @ y[e:])
    return y


def _strip_pinv(blocks, red, inverses, n_vertices):
    """L^+ of the trivial bundle in strip coordinates: each strip's interior
    in the product of its vertical and horizontal eigenbases, where L_II is
    the diagonal nu_j + mu_k, then the kept vertices.  The change of basis is
    orthogonal, so the spectrum is L's.  L_red (the first kept vertex held at
    0) is solved by the Schur complement: the interiors, S_red by its
    factor, the interiors again; the constants are projected out before and
    after."""
    starts = np.cumsum([0] + [rows * m for rows, m, *_ in blocks]).tolist()
    inner = starts[-1]
    # the unit constant: horizontal mode 0 of each interior, and 1 at each kept vertex
    at = np.concatenate([np.arange(start, start + rows * m, m)
                         for start, (rows, m, *_) in zip(starts, blocks)]
                        + [np.arange(inner, n_vertices)]).astype(np.int64)
    unit = np.concatenate([math.sqrt(m) * sums for _, m, _, _, sums, _ in blocks]
                          + [np.ones(n_vertices - inner)]) / math.sqrt(n_vertices)

    def project(x):
        x[at] -= (unit @ x[at]) * unit

    def pinv(b):
        b = b.copy()
        project(b)
        x = np.empty_like(b)
        kept = b[inner:].copy()
        for start, (rows, m, basis, inverse, _, ends) in zip(starts, blocks):
            z = np.multiply(b[start:start + rows * m].reshape(rows, m), inverse,
                            out=x[start:start + rows * m].reshape(rows, m))
            for idx, end in ends:
                kept[idx] += (end @ z) @ basis
        kept[0] = 0.0
        kept[1:] = _cholesky_solve(red, inverses, kept[1:])
        for start, (rows, m, basis, inverse, _, ends) in zip(starts, blocks):
            z = x[start:start + rows * m].reshape(rows, m)
            for idx, end in ends:
                source = np.outer(end, basis @ kept[idx])
                source *= inverse
                z += source
        x[inner:] = kept
        project(x)
        return x

    return pinv
