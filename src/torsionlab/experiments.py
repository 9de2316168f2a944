"""Renormalized determinant experiments, bump construction, and the
discrete-to-continuum embedding identities.

The renormalized log-determinant subtracts the area and perimeter growth and
adds back 2 zeta(0) log n.  One loop builds every renormalized series, from
a *source*: an object with log_det(n), rank, area, perimeter, zeta0,
target() (None without a closed form) and label().

- torsion.SeparableSurface (tori, cylinders, rectangles, twisted or not)
  gives log_det(n) in closed form, and its limit is the continuum torsion.
- MeshSource is a surface with a flat bundle (the trivial one at any rank,
  or a holonomy).  Its log_det(n) is the one dispatch of a mesh log det',
  one route per structure and no mesh built: on a torus, cylinder or
  rectangle, whose flat bundles split into characters, their closed form
  (torsion.CharacterSum); on every other kind, where the only flat bundle
  the cuts carry is the trivial one, the strip route (strips.strip_log_det).
  It records each n's route and its numbers as the series' health.  It has
  no target.  Its connection(n, check_budget) is the one mesh setup of
  every CLI run that meshes a surface, each with its own budget.

convergence_study runs the loop on a source.  It checks the ladder and then
solves the largest n first, so that a ladder the extrapolation refuses, or
one beyond the budget, is refused before its first mesh.
dense_renorm_series runs it on the same meshes through dense eigensolves: it
is the oracle of the mesh routes, and no option selects it elsewhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial

from .bundles import connection_from_holonomy, trivial_connection
from .errors import BadCuts, BisectionFailure, HypothesisViolation, SupportViolation
from .forests import sum_in_order
from .laplacian import assemble, check_dense_budget, log_det_prime, spectrum
from .meshes import discretize, mesh_counts
from .meshspectra import CATALAN, LOG_SQRT2M1
from .surfaces import (SEPARABLE_KINDS, angle_model, cone_model, geometry_summary,
                       standard_cuts)
from .torsion import CharacterSum, zeta_zero


def renormalized_logdet(logdet, rank, area, perimeter, zeta0, n):
    """logdet - (4G/pi) r A n^2 - (log(sqrt2 - 1)/2) r |dA| n + 2 zeta0 log n."""
    return (logdet
            - (4.0 * CATALAN / math.pi) * rank * area * n * n
            - 0.5 * LOG_SQRT2M1 * rank * perimeter * n
            + 2.0 * float(zeta0) * math.log(n))


def richardson_extrapolate(ns, xs):
    """Limit estimate from the last three points assuming x_n ~ L + c n^-gamma.

    Aitken's delta-squared: the error shrinks by one factor per step only on
    a geometric ladder, so the last three ns must satisfy n1 < n2 < n3 and
    n2^2 = n1 n3; otherwise HypothesisViolation.  Returns (limit,
    error_bar); the error bar is |last - limit|.
    """
    if len(xs) < 3:
        return xs[-1], float("nan")
    _check_ladder(ns)
    x1, x2, x3 = xs[-3], xs[-2], xs[-1]
    d1, d2 = x2 - x1, x3 - x2
    if d1 == 0 or d2 == 0 or d2 / d1 <= 0 or d2 / d1 >= 1:
        return x3, abs(d2)
    rho = d2 / d1
    limit = x3 + d2 * rho / (1.0 - rho)
    return limit, abs(x3 - limit)


def _check_ladder(ns):
    """HypothesisViolation unless the last three ns (if there are three)
    satisfy n1 < n2 < n3 and n2^2 = n1 n3, the geometric ladder of
    richardson_extrapolate; a constant ladder would give a zero error bar."""
    if len(ns) < 3:
        return
    n1, n2, n3 = ns[-3:]
    if not n1 < n2 < n3 or n2 * n2 != n1 * n3:
        raise HypothesisViolation(
            f"extrapolation needs a geometric ladder n1 < n2 < n3, n2^2 = n1 n3: "
            f"n = {n1}, {n2}, {n3}")


@dataclass
class RenormSeries:
    label: str
    ns: list
    logdets: list
    renorms: list
    extrapolated: float
    err_estimate: float
    target: float = None
    # per n, a MeshSource's route ("closed-form" or "strip") and kernel_gap,
    # with lanczos_steps, K, strips and pivot_ratio of the strip route; None
    # for the other sources
    health: list = None

    def abs_errors(self):
        if self.target is None:
            return [float("nan")] * len(self.ns)
        return [abs(x - self.target) for x in self.renorms]


def _series(source, n_list):
    """The renormalized series of ``source`` at the sorted ns, renormalized at
    its rank, with Richardson extrapolation.  The one loop behind
    convergence_study and dense_renorm_series; private, so that a traced run
    sees no torsionlab function between those two and their solves.  The
    ladder is checked first and the largest n is solved first, so a ladder
    that the extrapolation refuses, or that ends beyond the source's budget,
    is refused before its first mesh."""
    ns = sorted(n_list)
    if not ns:
        raise HypothesisViolation("empty n list")
    _check_ladder(ns)
    logdets = [source.log_det(n) for n in reversed(ns)][::-1]
    renorms = [renormalized_logdet(ld, source.rank, source.area, source.perimeter,
                                   source.zeta0, n) for n, ld in zip(ns, logdets)]
    limit, err = richardson_extrapolate(ns, renorms)
    health = getattr(source, "health", None)
    return RenormSeries(label=source.label(), ns=ns, logdets=logdets, renorms=renorms,
                        extrapolated=limit, err_estimate=err, target=source.target(),
                        health=None if health is None else [health[n] for n in ns])


def convergence_study(source, n_list):
    """Renormalized log-determinant series of ``source`` (a SeparableSurface or
    a MeshSource), with Richardson extrapolation."""
    return _series(source, n_list)


class MeshSource:
    """A surface carrying the trivial bundle at ``rank`` or the flat bundle of
    ``rep`` at its own rank, solved at each n by the closed form of its
    characters on SEPARABLE_KINDS and by the strip route elsewhere
    (``log_det``).

    Area and perimeter come from the geometry summary, and zeta(0) from the
    count of flat sections, which does not depend on n: the characters'
    trivial ones on SEPARABLE_KINDS (torsion.CharacterSum, which refuses
    generators that do not commute with BadCuts), the rank elsewhere.  A
    surface whose tiles fall into more than one component has more flat
    sections than that count, so it raises HypothesisViolation, and a
    holonomy with other than one generator per standard cut raises BadCuts.
    ``dim_h0`` is that count.  Each log_det(n) checks its route's budget
    before any array is built (so an over-budget n raises BudgetExceeded and
    builds nothing) and finds the kernel gap; ``health[n]`` keeps the route
    and its numbers.
    """

    def __init__(self, surface, rep=None, rank=1):
        components = surface.complex.n_components()
        if components > 1:
            raise HypothesisViolation(
                f"{surface.name} falls into {components} components; dim H^0 is "
                "decided for a connected surface")
        if rep is not None:
            cuts = standard_cuts(surface)
            if len(cuts) != len(rep.generators):
                raise BadCuts(f"{len(cuts)} cuts for {len(rep.generators)} generators")
        summary = geometry_summary(surface)
        self.surface = surface
        self.rep = rep
        self.rank = rank if rep is None else rep.rank
        self.area = summary.area
        self.perimeter = summary.perimeter
        # the characters on a separable kind; elsewhere there are no cuts, so
        # a holonomy has no generator and the bundle is trivial at its rank
        self.split = None
        self.dim_h0 = self.rank
        if surface.kind in SEPARABLE_KINDS:
            self.split = CharacterSum.from_holonomy(surface.kind, surface.params["a"],
                                                    surface.params["b"], rep, self.rank)
            self.dim_h0 = self.split.dim_h0
        self.zeta0 = zeta_zero(summary, rank=self.rank, dim_h0=self.dim_h0)
        self.health = {}

    def connection(self, n, check_budget):
        """The bundle's connection on the mesh at n.  ``check_budget(rank,
        n_vertices, n_edges)`` sees the counts the geometry gives before the
        mesh is built, so a refused n builds none."""
        check_budget(self.rank, *mesh_counts(self.surface, n))
        mesh = discretize(self.surface, n)
        if self.rep is None:
            return trivial_connection(mesh, self.rank)
        return connection_from_holonomy(mesh, self.rep)

    def log_det(self, n):
        """log det' at n by the characters' closed form on a separable kind,
        else by the strip route; ``health[n]`` records the route and its
        numbers."""
        if self.split is not None:
            log_det = self.split.log_det(n)
            self.health[n] = {"route": "closed-form", "kernel_gap": self.split.kernel_gap(n)}
            return log_det
        from . import strips
        res = strips.strip_log_det(self.surface.complex.partner, n, self.rank)
        self.health[n] = {"route": "strip", "kernel_gap": res.kernel_gap,
                          "lanczos_steps": res.lanczos_steps, "K": res.K,
                          "strips": res.strips, "pivot_ratio": res.pivot_ratio}
        return res.log_det_prime

    def target(self):
        return None

    def label(self):
        return self.surface.name


class _DenseSource(MeshSource):
    """MeshSource solved by a dense eigensolve: the oracle's source."""

    def __init__(self, surface, rep=None):
        super().__init__(surface, rep)
        self.health = None

    def log_det(self, n):
        conn = self.connection(n, lambda rank, nv, ne: check_dense_budget(rank, nv))
        return log_det_prime(spectrum(assemble(conn), expected_kernel_dim=conn.flat_sections))


def dense_renorm_series(surface, n_list, rep=None):
    """Renormalized series for an arbitrary surface via dense eigensolves, of
    the trivial line bundle or the flat bundle of ``rep`` at its rank: the
    oracle of ``convergence_study(MeshSource(surface, rep), n_list)``.
    Meshes beyond the dense budget are refused before they are built."""
    return _series(_DenseSource(surface, rep), n_list)


def model_correction_series(surface, n_list):
    """The additive model-surface correction sequence for a cone/corner surface.

    For each n, sums the renormalized log-determinants of the model cone for
    every cone angle and of the model angle piece for every non-right corner
    angle.  The sequence is defined only up to an additive constant depending
    on the angle data, so only its differences are meaningful.
    """
    summary = geometry_summary(surface)
    pieces = ([cone_model(q // 2) for q in summary.cone_quadrants]
              + [angle_model(q) for q in summary.corner_quadrants if q != 1])
    ns = sorted(n_list)
    totals = [0.0] * len(ns)
    for piece in pieces:
        series = convergence_study(MeshSource(piece), ns)
        totals = [t + r for t, r in zip(totals, series.renorms)]
    return ns, totals


def ratio_study(setup_a, setup_b, n_list):
    """det' ratios along n for two SeparableSurface setups sharing the
    comparison invariants.

    Returns (ratios, cauchy_diffs) where cauchy_diffs[k] = |r_{2 n_k} - r_{n_k}|
    whenever both levels are present.
    """
    inv_a = (setup_a.area, setup_a.perimeter, setup_a.dim_h0, setup_a.corner_quadrants)
    inv_b = (setup_b.area, setup_b.perimeter, setup_b.dim_h0, setup_b.corner_quadrants)
    if inv_a != inv_b:
        raise HypothesisViolation(
            f"setups do not share (area, perimeter, dim H0, corners): {inv_a} vs {inv_b}")
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
        if lam.size < 2:
            raise HypothesisViolation(
                f"the spectrum at n = {spec.meta.get('n')} has no lambda_i with i >= 1")
        i = np.arange(1, lam.size)
        ratios = lam[1:] / i
        k = int(np.argmin(ratios))
        table.append((spec.meta.get("n"), k + 1, float(ratios[k])))
        cmin = min(cmin, float(ratios[k]))
    return cmin, table


def weyl_slope(spec, area):
    """Least-squares slope of lambda_i over i on [50, 200], normalized by 4 pi/A."""
    lam = spec.eigenvalues
    if lam.size <= 200:
        raise ValueError("spectrum too short for the slope window")
    i = np.arange(50, 201)
    slope = np.polyfit(i, lam[i], 1)[0]
    return float(slope * area / (4 * math.pi))


# -- piecewise polynomial bumps ------------------------------------------------

# 8-point Gauss-Legendre nodes and weights, exact to degree 15: above the
# bumps' cubic pieces and the products of two
_GAUSS = np.polynomial.legendre.leggauss(8)


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
        lo, hi = idx.min(initial=len(self.polys)), idx.max(initial=-1)
        if lo == hi:        # one piece: a panel, or a point
            out = self.polys[lo](arr)
        else:               # only the pieces between the lowest and the highest one hit
            out = np.empty_like(arr)
            for k in range(lo, hi + 1):
                m = idx == k
                if np.any(m):
                    out[m] = self.polys[k](arr[m])
        return out if np.ndim(x) else float(out[0])

    def derivative(self):
        return PiecewisePoly(self.breaks, [p.deriv() for p in self.polys])

    def integrate(self):
        """Integral over the support by Gauss-Legendre panels, exact for the
        stored degrees."""
        xg, wg = _GAUSS
        total = 0.0
        for x0, x1 in zip(self.breaks[:-1], self.breaks[1:]):
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


def product_integral(pp1, pp2, shift=0.0):
    """integral of pp1(u) * pp2(u - shift) over the overlap of the supports."""
    lo = max(pp1.breaks[0], pp2.breaks[0] + shift)
    hi = min(pp1.breaks[-1], pp2.breaks[-1] + shift)
    if lo >= hi:
        return 0.0
    cuts = sorted(set([lo, hi]
                      + [b for b in pp1.breaks if lo < b < hi]
                      + [b + shift for b in pp2.breaks if lo < b + shift < hi]))
    xg, wg = _GAUSS
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


@dataclass(frozen=True)
class BumpProfile:
    """A profile in the admissible family: half-profile on [0, 1], mixing weight,
    constraint residuals and the Dirichlet constant C = int rho'^2."""

    half: PiecewisePoly
    t_mix: float
    residuals: dict
    C: float

    def rho(self, x):
        return self.half(np.abs(np.asarray(x, dtype=float)))

    @functools.cached_property
    def _axis_profiles(self):
        return [_AxisProfile(self, kind) for kind in _AXIS_KINDS]

    @functools.cached_property
    def _pair_table(self):
        # (deriv, kind1, kind2, shift + 1); NaN until first used
        return np.full((2, len(_AXIS_KINDS), len(_AXIS_KINDS), 3), np.nan)

    def pair_integrals(self, kind1, kind2, shift):
        """(overlaps, derivative overlaps) of the axis profiles ``kind1`` and
        ``kind2`` (indices into _AXIS_KINDS) shifted ``shift`` in {-1, 0, 1}
        apart, for integer arrays of one shape.  They are read from one table
        indexed (deriv, kind1, kind2, shift + 1), whose entries are computed
        once per profile, on first use."""
        table = self._pair_table.reshape(2, -1)
        cell = (kind1 * len(_AXIS_KINDS) + kind2) * 3 + shift + 1
        used = np.zeros(table.shape[1], dtype=bool)
        used[cell] = True
        # (np.unique would import numpy.ma, about 1 MB, on its first call)
        for c in np.flatnonzero(used & np.isnan(table[0])).tolist():
            k12, s = divmod(c, 3)
            p1, p2 = (self._axis_profiles[k] for k in divmod(k12, len(_AXIS_KINDS)))
            table[0, c] = product_integral(p1.pp, p2.pp, shift=float(s - 1))
            table[1, c] = product_integral(p1.dpp, p2.dpp, shift=float(s - 1))
        return table[0, cell], table[1, cell]


@functools.cache
def build_bump():
    """Mix the plateau and tall bumps so that int rho (1 - rho) = 0.

    With m = r2 + t d, d = r1 - r2, the defect int m - int m^2 is the
    quadratic c0 + c1 t + c2 t^2, where c0 = int r2 - int r2^2,
    c1 = int d - 2 int r2 d and c2 = -int d^2.  The mixing weight is its root
    in [0, 1], by the cancellation-free quadratic formula; raises
    BisectionFailure when the seed defects c0 (t = 0) and c0 + c1 + c2
    (t = 1) do not bracket a root.  The profile is a constant, built once
    per process: every caller shares it and its pair-integral table.
    """
    r1 = _rho1_half()
    r2 = _rho2_half()
    d = PiecewisePoly.linear_combination([r1, r2], [1.0, -1.0])
    c0 = r2.integrate() - product_integral(r2, r2)
    c1 = d.integrate() - 2.0 * product_integral(r2, d)
    c2 = -product_integral(d, d)
    if not (c0 < 0.0 < c0 + c1 + c2):
        raise BisectionFailure(f"seed defects do not bracket zero: {c0}, {c0 + c1 + c2}")
    # q != 0: c1 = 0 with a zero discriminant would need c2 = 0, and then no bracket
    q = -0.5 * (c1 + math.copysign(math.sqrt(max(c1 * c1 - 4.0 * c2 * c0, 0.0)), c1))
    # one root lies in (0, 1), the other outside it (at infinity when c2 = 0)
    t0 = float(min((c0 / q, q / c2 if c2 else math.inf), key=lambda t: abs(t - 0.5)))
    half = PiecewisePoly.linear_combination([r1, r2], [t0, 1.0 - t0])
    dhalf = half.derivative()
    lin, sq = half.integrate(), product_integral(half, half)
    grid = np.linspace(0.0, 0.5, 2001)
    shift_resid = float(np.max(np.abs(half(0.5 + grid) + half(0.5 - grid) - 1.0)))
    res = {
        "plateau": max(abs(float(half(0.0)) - 1.0), abs(float(half(1.0)))),
        "evenness": 0.0,   # even by construction: evaluation uses |x|
        "half_shift": shift_resid,
        "orthogonality": abs(lin - sq),   # the defect, on the full mix
        "int_rho": abs(lin - 0.5),
        "int_rho_sq": abs(sq - 0.5),
    }
    C = product_integral(dhalf, dhalf)
    return BumpProfile(half=half, t_mix=t0, residuals=res, C=C)


# -- embedding identities -------------------------------------------------------


# the axis profile of a lattice coordinate, by index: a wall on its left adds
# 1, one on its right 2 (a rectangle axis of one cell has both)
_AXIS_KINDS = ("interior", "bleft", "bright", "walls")


class _AxisProfile:
    """Per-axis bump profile of a vertex, of a kind in _AXIS_KINDS."""

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
        elif kind == "walls":     # walls at u = -1/2 and u = +1/2
            self.pp = PiecewisePoly([-0.5, 0.5], [Polynomial([1.0])])
        else:
            raise ValueError(kind)
        self.dpp = self.pp.derivative()


def _axis_kinds(size, periodic):
    """The index into _AXIS_KINDS of each coordinate of an axis of ``size``
    cells."""
    kinds = np.zeros(size, dtype=np.int64)
    if not periodic:
        kinds[0] += 1
        kinds[-1] += 2
    return kinds


# the nine lattice translates (dx, dy), in lexicographic order
_OFFSETS = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])


def embedding_check(mesh, bump, f):
    """(norm_ratio, form_ratio) for an interior-supported section f.

    norm_ratio compares <f, f>/n^2 against the quadrature norm of the smeared
    section; form_ratio compares the graph Dirichlet form against 1/C times
    the quadrature Dirichlet energy.  Both are 1 when the admissibility
    constraints hold.

    The quadrature sums run over the pairs (v, w) of support vertices where w
    is one of v's nine lattice translates (wrapped on a torus, inside a
    rectangle), every translate counted, so a small torus whose translates
    meet sums each of them.  The pairs are taken by v, then w, then the
    offset, and the terms are added in that order.
    """
    surf = mesh.surface
    sides = SEPARABLE_KINDS.get(surf.kind)
    if sides not in ((False, False), (True, True)):
        raise SupportViolation("embedding check runs on rectangles and tori")
    periodic = sides[0]
    a, b, n = surf.params["a"], surf.params["b"], mesh.n
    an, bn = a * n, b * n
    f = np.asarray(f, dtype=float)
    if f.shape != (mesh.n_vertices,):
        raise SupportViolation("section must give one value per vertex")
    if np.any(f[sorted(mesh.excluded_vertex_ids())]):
        raise SupportViolation("section must vanish on the cone/corner neighbor sets")
    if not np.any(f):
        return 1.0, 1.0

    # lattice coordinates of each vertex, and the vertex at each coordinate
    t, ij = np.divmod(np.arange(mesh.n_vertices), n * n)
    tiles = np.array(surf.complex.cells).reshape(-1, 2)
    gx = tiles[t, 0] * n + ij // n
    gy = tiles[t, 1] * n + ij % n
    at = np.full((an, bn), -1)
    at[gx, gy] = np.arange(mesh.n_vertices)

    # each support vertex's translates, as target * 9 + offset, sorted per row
    # (invalid ones last), so the kept pairs run by source, target, offset
    src = np.flatnonzero(f)
    tx = gx[src, None] + _OFFSETS[:, 0]
    ty = gy[src, None] + _OFFSETS[:, 1]
    if periodic:
        tx %= an
        ty %= bn
    inside = (tx >= 0) & (tx < an) & (ty >= 0) & (ty < bn)
    past = 9 * mesh.n_vertices
    # (the wrap only keeps the index in range; the outside keys are masked)
    key = np.where(inside, 9 * at[tx % an, ty % bn] + np.arange(9), past)
    key.sort(axis=1)
    keep = key < past
    keep[keep] = f[key[keep] // 9] != 0
    src = np.broadcast_to(src[:, None], key.shape)[keep]
    tgt, off = np.divmod(key[keep], 9)

    kind_x, kind_y = _axis_kinds(an, periodic), _axis_kinds(bn, periodic)
    ix, dxx = bump.pair_integrals(kind_x[gx[src]], kind_x[gx[tgt]], _OFFSETS[off, 0])
    iy, dyy = bump.pair_integrals(kind_y[gy[src]], kind_y[gy[tgt]], _OFFSETS[off, 1])
    w = f[src] * f[tgt]
    norm_quad = sum_in_order(w * ix * iy) / (n * n)
    energy_quad = sum_in_order(w * (dxx * iy + ix * dyy))

    norm_graph = float(np.sum(f * f)) / (n * n)
    energy_graph = sum_in_order((f[mesh.edge_u] - f[mesh.edge_v]) ** 2)
    norm_ratio = norm_graph / norm_quad
    form_ratio = energy_graph / (energy_quad / bump.C)
    return norm_ratio, form_ratio
