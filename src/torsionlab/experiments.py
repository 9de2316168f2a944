"""Renormalized determinant experiments, bump construction, and the
discrete-to-continuum embedding identities.

The renormalized log-determinant subtracts the area and perimeter growth and
adds back 2 zeta(0) log n; for tori, cylinders and rectangles it converges
and the limits are checked against the closed-form torsions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .bundles import trivial_connection, connection_from_holonomy
from .errors import BisectionFailure, HypothesisViolation, SupportViolation
from .laplacian import assemble, log_det_prime, spectrum
from .meshes import discretize
from .meshspectra import CATALAN, LOG_SQRT2M1, closed_form_log_det
from .surfaces import geometry_summary
from .torsion import SeparableSurface, zeta_zero


def renormalized_logdet(logdet, rank, area, perimeter, zeta0, n):
    """logdet - (4G/pi) r A n^2 - (log(sqrt2 - 1)/2) r |dA| n + 2 zeta0 log n."""
    return (logdet
            - (4.0 * CATALAN / math.pi) * rank * area * n * n
            - 0.5 * LOG_SQRT2M1 * rank * perimeter * n
            + 2.0 * float(zeta0) * math.log(n))


def richardson_extrapolate(ns, xs):
    """Limit estimate from the last three points assuming x_n ~ L + c n^-gamma.

    Aitken's delta-squared: the error shrinks by one factor per step only on
    a geometric ladder, so the last three ns must satisfy n2^2 = n1 n3;
    otherwise HypothesisViolation.  Returns (limit, error_bar); the error bar
    is |last - limit|.
    """
    if len(xs) < 3:
        return xs[-1], float("nan")
    n1, n2, n3 = ns[-3], ns[-2], ns[-1]
    if n2 * n2 != n1 * n3:
        raise HypothesisViolation(
            f"extrapolation needs a geometric ladder: n = {n1}, {n2}, {n3}")
    x1, x2, x3 = xs[-3], xs[-2], xs[-1]
    d1, d2 = x2 - x1, x3 - x2
    if d1 == 0 or d2 == 0 or d2 / d1 <= 0 or d2 / d1 >= 1:
        return x3, abs(d2)
    rho = d2 / d1
    limit = x3 + d2 * rho / (1.0 - rho)
    return limit, abs(x3 - limit)


@dataclass
class FlatSetup:
    """A closed-form-solvable surface with an optional U(1) twist."""

    kind: str                  # rectangle | torus | cylinder
    a: int
    b: int
    alpha: float = 0.0
    beta: float = 0.0
    rank: int = 1

    def __post_init__(self):
        self.separable    # raises for a kind outside the factor table or a twist on a free side
        if self.rank != 1:
            raise HypothesisViolation("closed forms implemented at rank 1")

    @property
    def separable(self):
        return SeparableSurface(self.kind, self.a, self.b, self.alpha, self.beta)

    @property
    def area(self):
        return self.a * self.b

    @property
    def perimeter(self):
        return self.separable.perimeter

    @property
    def dim_h0(self):
        return self.separable.dim_h0

    @property
    def zeta0(self):
        return float(self.separable.zeta0)

    def corner_count(self):
        return self.separable.corners

    def log_det(self, n):
        return closed_form_log_det(self.kind, self.a, self.b, n,
                                   alpha=self.alpha, beta=self.beta)

    def target(self):
        """Known limit of the renormalized series, or None for a twisted bundle.

        Each right corner contributes -log(2)/16.
        """
        s = self.separable
        if not s.dim_h0:
            return None
        return s.torsion() - s.corners * math.log(2) / 16

    def label(self):
        tw = ""
        if self.alpha or self.beta:
            tw = f",alpha={self.alpha:.6g}"
            if self.separable.factors[1].periodic:
                tw += f",beta={self.beta:.6g}"
        return f"{self.kind}({self.a},{self.b}{tw})"


@dataclass
class RenormSeries:
    label: str
    ns: list
    logdets: list
    renorms: list
    extrapolated: float
    err_estimate: float
    target: float = None

    def abs_errors(self):
        if self.target is None:
            return [float("nan")] * len(self.ns)
        return [abs(x - self.target) for x in self.renorms]


def convergence_study(setup, n_list):
    """Renormalized log-determinant series with Richardson extrapolation."""
    ns = sorted(n_list)
    if not ns:
        raise HypothesisViolation("empty n list")
    logdets = []
    renorms = []
    for n in ns:
        ld = setup.log_det(n)
        logdets.append(ld)
        renorms.append(renormalized_logdet(ld, setup.rank, setup.area,
                                           setup.perimeter, setup.zeta0, n))
    limit, err = richardson_extrapolate(ns, renorms)
    return RenormSeries(label=setup.label(), ns=ns, logdets=logdets, renorms=renorms,
                        extrapolated=limit, err_estimate=err, target=setup.target())


def dense_renorm_series(surface, n_list, rep=None):
    """Renormalized series for an arbitrary surface via dense eigensolves, of
    the trivial line bundle or the flat bundle of ``rep`` at its rank;
    ``laplacian.assemble`` refuses meshes beyond its dense budget."""
    summary = geometry_summary(surface)
    ns = sorted(n_list)
    logdets = []
    renorms = []
    for n in ns:
        mesh = discretize(surface, n)
        conn = (trivial_connection(mesh) if rep is None
                else connection_from_holonomy(mesh, rep))
        spec = spectrum(assemble(conn), expected_kernel_dim=conn.flat_sections)
        ld = log_det_prime(spec)
        z0 = zeta_zero(summary, rank=conn.rank, dim_h0=conn.flat_sections)
        logdets.append(ld)
        renorms.append(renormalized_logdet(ld, conn.rank, summary.area,
                                           summary.perimeter, z0, n))
    limit, err = richardson_extrapolate(ns, renorms)
    return RenormSeries(label=surface.name, ns=ns, logdets=logdets, renorms=renorms,
                        extrapolated=limit, err_estimate=err)


def model_correction_series(surface, n_list):
    """The additive model-surface correction sequence for a cone/corner surface.

    For each n, sums the renormalized log-determinants of the model cone for
    every cone angle and of the model angle piece for every non-right corner
    angle.  The sequence is defined only up to an additive constant depending
    on the angle data, so only its differences are meaningful.
    """
    from .surfaces import cone_model, angle_model, geometry_summary as summarize
    summary = summarize(surface)
    pieces = []
    for ang in summary.cone_angles:
        pieces.append(cone_model(round(ang / math.pi)))
    for ang in summary.nonright_angle_multiset:
        pieces.append(angle_model(round(ang / (math.pi / 2))))
    ns = sorted(n_list)
    totals = [0.0] * len(ns)
    for piece in pieces:
        series = dense_renorm_series(piece, ns)
        totals = [t + r for t, r in zip(totals, series.renorms)]
    return ns, totals


def ratio_study(setup_a, setup_b, n_list):
    """det' ratios along n for two setups sharing the comparison invariants.

    Returns (ratios, cauchy_diffs) where cauchy_diffs[k] = |r_{2 n_k} - r_{n_k}|
    whenever both levels are present.
    """
    inv_a = (setup_a.area, setup_a.perimeter, setup_a.rank, setup_a.dim_h0,
             setup_a.corner_count())
    inv_b = (setup_b.area, setup_b.perimeter, setup_b.rank, setup_b.dim_h0,
             setup_b.corner_count())
    if inv_a != inv_b:
        raise HypothesisViolation(
            f"setups do not share (area, perimeter, rank, dim H0, corners): {inv_a} vs {inv_b}")
    ns = sorted(n_list)
    ratios = {}
    for n in ns:
        ratios[n] = math.exp(setup_a.log_det(n) - setup_b.log_det(n))
    diffs = [abs(ratios[2 * n] - ratios[n]) for n in ns if 2 * n in ratios]
    return [ratios[n] for n in ns], diffs


def uniform_weyl_check(spectra):
    """(C_min, table): smallest lambda_i / i over all rescaled spectra and i >= 1.

    Table rows are (n, argmin_i, min ratio); spectra must carry their n in meta.
    """
    table = []
    cmin = float("inf")
    for spec in spectra:
        if not spec.rescale_flag:
            raise ValueError("uniform_weyl_check expects n^2-rescaled spectra")
        lam = spec.eigenvalues
        i = np.arange(1, lam.size)
        ratios = lam[1:] / i
        k = int(np.argmin(ratios))
        table.append((spec.meta.get("n"), k + 1, float(ratios[k])))
        cmin = min(cmin, float(ratios[k]))
    return cmin, table


def weyl_slope(spec, area, rank=1, i_min=50, i_max=200):
    """Least-squares slope of lambda_i over i on [i_min, i_max], normalized by 4 pi/(A r)."""
    lam = spec.eigenvalues
    if lam.size <= i_max:
        raise ValueError("spectrum too short for the slope window")
    i = np.arange(i_min, i_max + 1)
    slope = np.polyfit(i, lam[i_min:i_max + 1], 1)[0]
    return float(slope * area * rank / (4 * math.pi))


# -- piecewise polynomial bumps ------------------------------------------------


class PiecewisePoly:
    """Polynomial pieces on consecutive intervals of [breaks[0], breaks[-1]]."""

    def __init__(self, breaks, polys):
        self.breaks = np.asarray(breaks, dtype=float)
        self.polys = list(polys)
        if len(self.polys) != len(self.breaks) - 1:
            raise ValueError(f"{len(self.polys)} pieces for {len(self.breaks)} breaks")

    def __call__(self, x):
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.clip(np.searchsorted(self.breaks, arr, side="right") - 1,
                      0, len(self.polys) - 1)
        out = np.empty_like(arr)
        for k, p in enumerate(self.polys):
            m = idx == k
            if np.any(m):
                out[m] = p(arr[m])
        return out if np.ndim(x) else float(out[0])

    def derivative(self):
        return PiecewisePoly(self.breaks, [p.deriv() for p in self.polys])

    def integrate(self, lo=None, hi=None, nodes=8):
        """Gauss-Legendre panel integration, exact for the stored degrees."""
        lo = self.breaks[0] if lo is None else lo
        hi = self.breaks[-1] if hi is None else hi
        xg, wg = np.polynomial.legendre.leggauss(nodes)
        total = 0.0
        cuts = [lo] + [b for b in self.breaks if lo < b < hi] + [hi]
        for x0, x1 in zip(cuts[:-1], cuts[1:]):
            mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
            total += half * float(np.sum(wg * self(mid + half * xg)))
        return total

    @staticmethod
    def linear_combination(pieces, weights):
        breaks = sorted(set(b for p in pieces for b in p.breaks))
        polys = []
        for x0, x1 in zip(breaks[:-1], breaks[1:]):
            xm = 0.5 * (x0 + x1)
            q = Polynomial([0.0])
            for p, w in zip(pieces, weights):
                k = int(np.clip(np.searchsorted(p.breaks, xm) - 1, 0, len(p.polys) - 1))
                q = q + w * p.polys[k]
            polys.append(q)
        return PiecewisePoly(breaks, polys)


def product_integral(pp1, pp2, shift=0.0, nodes=8):
    """integral of pp1(u) * pp2(u - shift) over the overlap of the supports."""
    lo = max(pp1.breaks[0], pp2.breaks[0] + shift)
    hi = min(pp1.breaks[-1], pp2.breaks[-1] + shift)
    if lo >= hi:
        return 0.0
    cuts = sorted(set([lo, hi]
                      + [b for b in pp1.breaks if lo < b < hi]
                      + [b + shift for b in pp2.breaks if lo < b + shift < hi]))
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for x0, x1 in zip(cuts[:-1], cuts[1:]):
        mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
        pts = mid + half * xg
        total += half * float(np.sum(wg * pp1(pts) * pp2(pts - shift)))
    return total


def _smoothstep():
    return Polynomial([0.0, 0.0, 3.0, -2.0])


def _affine(lo, hi):
    # map [lo, hi] -> [0, 1]
    return Polynomial([-lo / (hi - lo), 1.0 / (hi - lo)])


def _rho1_half():
    """Plateau bump on [0, 1]: 1, smoothstep down, 0; range in [0, 1]."""
    s3 = _smoothstep()
    breaks = [0.0, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 7.0 / 8.0, 1.0]
    polys = []
    for x0, x1 in zip(breaks[:-1], breaks[1:]):
        if x1 <= 0.25:
            polys.append(Polynomial([1.0]))
        elif x0 >= 0.75:
            polys.append(Polynomial([0.0]))
        else:
            polys.append(Polynomial([1.0]) - s3(_affine(0.25, 0.75)))
    return PiecewisePoly(breaks, polys)


def _rho2_half():
    """Tall bump on [0, 1]: 1 near 0, peak 4 on [1/4, 1/3], antisymmetric tail.

    The part on [1/2, 1] is 1 - rho(1 - x) by construction, so the half-shift
    complement identity holds exactly (and the tail dips to -3).
    """
    s3 = _smoothstep()
    one = Polynomial([1.0])
    left_breaks = [0.0, 1.0 / 8.0, 0.25, 1.0 / 3.0, 0.5]
    left_polys = [
        one,
        one + 3.0 * s3(_affine(1.0 / 8.0, 0.25)),
        Polynomial([4.0]),
        Polynomial([4.0]) - 3.5 * s3(_affine(1.0 / 3.0, 0.5)),
    ]
    reflect = Polynomial([1.0, -1.0])   # x -> 1 - x
    breaks = left_breaks + [1.0 - b for b in reversed(left_breaks[:-1])]
    polys = left_polys + [one - p(reflect) for p in reversed(left_polys)]
    return PiecewisePoly(breaks, polys)


@dataclass
class BumpProfile:
    """A profile in the admissible family: half-profile on [0, 1], mixing weight,
    constraint residuals and the Dirichlet constant C = int rho'^2."""

    half: PiecewisePoly
    t_mix: float
    residuals: dict
    C: float

    def rho(self, x):
        return self.half(np.abs(np.asarray(x, dtype=float)))

    def rho_prime(self, x):
        x = np.asarray(x, dtype=float)
        return self.half.derivative()(np.abs(x)) * np.sign(x)


def build_bump(tol=1e-12, max_iter=200):
    """Mix the plateau and tall bumps so that int rho (1 - rho) = 0.

    Bisection on the mixing weight; raises BisectionFailure when the two
    seed profiles fail to bracket a root.
    """
    r1 = _rho1_half()
    r2 = _rho2_half()

    def defect(t):
        mix = PiecewisePoly.linear_combination([r1, r2], [t, 1.0 - t])
        prod = product_integral(mix, mix)
        lin = mix.integrate()
        return lin - prod

    lo, hi = 0.0, 1.0
    f_lo, f_hi = defect(0.0), defect(1.0)
    if not (f_lo < 0.0 < f_hi):
        raise BisectionFailure(f"seed defects do not bracket zero: {f_lo}, {f_hi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = defect(mid)
        if abs(fm) < tol or hi - lo < 1e-16:
            break
        if fm > 0:
            hi = mid
        else:
            lo = mid
    t0 = 0.5 * (lo + hi)
    half = PiecewisePoly.linear_combination([r1, r2], [t0, 1.0 - t0])
    dhalf = half.derivative()
    grid = np.linspace(0.0, 0.5, 2001)
    shift_resid = float(np.max(np.abs(half(0.5 + grid) + half(0.5 - grid) - 1.0)))
    res = {
        "plateau": max(abs(float(half(0.0)) - 1.0), abs(float(half(1.0)))),
        "evenness": 0.0,   # even by construction: evaluation uses |x|
        "half_shift": shift_resid,
        "orthogonality": abs(defect(t0)),
        "int_rho": abs(half.integrate() - 0.5),
        "int_rho_sq": abs(product_integral(half, half) - 0.5),
    }
    C = product_integral(dhalf, dhalf)
    return BumpProfile(half=half, t_mix=t0, residuals=res, C=C)


# -- embedding identities -------------------------------------------------------


class _AxisProfile:
    """Per-axis bump profile of a vertex: interior, boundary-left or boundary-right."""

    def __init__(self, bump, kind):
        h = bump.half
        flip = Polynomial([0.0, -1.0])   # u -> -u
        neg_polys = [p(flip) for p in reversed(h.polys)]
        neg_breaks = [-b for b in reversed(list(h.breaks))]
        if kind == "interior":
            self.pp = PiecewisePoly(neg_breaks + list(h.breaks)[1:], neg_polys + h.polys)
        elif kind == "bleft":     # wall at u = -1/2
            self.pp = PiecewisePoly([-0.5] + list(h.breaks), [Polynomial([1.0])] + h.polys)
        elif kind == "bright":    # wall at u = +1/2
            self.pp = PiecewisePoly(neg_breaks + [0.5], neg_polys + [Polynomial([1.0])])
        else:
            raise ValueError(kind)
        self.dpp = self.pp.derivative()


def _axis_kind(g, size, periodic):
    if periodic:
        return "interior"
    if g == 0:
        return "bleft"
    if g == size - 1:
        return "bright"
    return "interior"


def embedding_check(mesh, bump, f):
    """(norm_ratio, form_ratio) for an interior-supported section f.

    norm_ratio compares <f, f>/n^2 against the quadrature norm of the smeared
    section; form_ratio compares the graph Dirichlet form against 1/C times
    the quadrature Dirichlet energy.  Both are 1 when the admissibility
    constraints hold.
    """
    surf = mesh.surface
    if surf.kind not in ("rectangle", "torus"):
        raise SupportViolation("embedding check runs on rectangles and tori")
    a, b, n = surf.params["a"], surf.params["b"], mesh.n
    an, bn = a * n, b * n
    periodic = surf.kind == "torus"
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.n_vertices,):
        raise SupportViolation("section must give one value per vertex")
    excluded = mesh.excluded_vertex_ids()
    if any(f[v] for v in excluded):
        raise SupportViolation("section must vanish on the cone/corner neighbor sets")
    if not np.any(f):
        return 1.0, 1.0

    coords = []
    for tile, i, j in mesh.vertices:
        p, q = tile
        coords.append((p * n + i, q * n + j))
    profiles = {k: _AxisProfile(bump, k) for k in ("interior", "bleft", "bright")}

    cache = {}

    def pair_int(kind1, kind2, delta, deriv):
        key = (kind1, kind2, delta, deriv)
        if key not in cache:
            p1 = profiles[kind1]
            p2 = profiles[kind2]
            if deriv:
                cache[key] = product_integral(p1.dpp, p2.dpp, shift=float(delta))
            else:
                cache[key] = product_integral(p1.pp, p2.pp, shift=float(delta))
        return cache[key]

    def wrap(d, size):
        if not periodic:
            return d
        return (d + size // 2) % size - size // 2

    support = [v for v in range(mesh.n_vertices) if f[v]]
    norm_quad = 0.0
    energy_quad = 0.0
    for vi in support:
        gi, gj = coords[vi]
        ki = _axis_kind(gi, an, periodic)
        kj = _axis_kind(gj, bn, periodic)
        for vj in support:
            hi_, hj_ = coords[vj]
            dx = wrap(hi_ - gi, an)
            dy = wrap(hj_ - gj, bn)
            if abs(dx) > 1 or abs(dy) > 1:
                continue
            li = _axis_kind(hi_, an, periodic)
            lj = _axis_kind(hj_, bn, periodic)
            ix = pair_int(ki, li, dx, False)
            iy = pair_int(kj, lj, dy, False)
            dxx = pair_int(ki, li, dx, True)
            dyy = pair_int(kj, lj, dy, True)
            w = f[vi] * f[vj]
            norm_quad += w * ix * iy
            energy_quad += w * (dxx * iy + ix * dyy)
    norm_quad /= n * n

    norm_graph = float(np.sum(f * f)) / (n * n)
    energy_graph = 0.0
    for e in mesh.edges:
        energy_graph += (f[e.u] - f[e.v]) ** 2
    norm_ratio = norm_graph / norm_quad
    form_ratio = energy_graph / (energy_quad / bump.C)
    return norm_ratio, form_ratio
