"""Continuum reference quantities: explicit spectra, heat traces, zeta values,
Dedekind eta, and closed-form zeta-regularized determinants.

The explicitly solvable surfaces are products of two 1-D factors.  A factor
is periodic (a circle, with a U(1) twist phase) or free (a segment with free
ends).  surfaces.SEPARABLE_KINDS is the one table of them: the a x b
rectangle is free x free, the torus periodic x periodic, and the cylinder
periodic circumference a x free height b.  Mesh and continuum spectra, theta series
and log det', twisted or not, perimeter, corners, dim H^0 and zeta(0) (by
zeta_zero's angle rule) all follow from the factors.  SeparableSurface (kind, sides a, b and U(1)
phases alpha, beta) is the one setup of the closed-form experiments.  Its
kernel is decided once, by the rule a mesh connection uses
(bundles.flat_basis) applied to the generators exp(i phase) of its periodic
sides: with a flat section, dim H^0 = 1 and every such phase is replaced by 0.

A factor's mesh and continuum rows are shifted products over its spectrum:
2 cosh(m phi) - 2 cos theta for a cycle of m sites twisted by theta at shift
mu = 4 sinh^2(phi/2), 2 tanh(phi/2) sinh(m phi) for a path; det(Delta + s^2)
= 2 cosh(a s) - 2 cos theta for a circle of length a, 2 s sinh(a s) for a
segment; at zero shift an untwisted factor leaves its det' m^2, m, a^2, 2a.
The continuum torsion sums Kronecker's second limit formula row by row;
torus_torsion and rectangle_torsion (dedekind_eta) are its references.

A flat U(r) bundle on a torus or a cylinder is a direct sum of r characters,
since pi_1 is abelian there (bundles.HolonomyRepresentation.characters).
CharacterSum holds one SeparableSurface per character: its mesh log det' is
the sum of theirs, and dim H^0 the number of trivial characters.  Every array
a closed form builds is checked against CLOSED_FORM_BUDGET first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bundles import HolonomyRepresentation, flat_sections_dim
from .errors import BadCuts, BudgetExceeded, EtaDomainError, HypothesisViolation
from .laplacian import HermitianSpectrum
from .surfaces import SEPARABLE_KINDS

_SERIES_TERMS = 64

MELLIN_T = 1e-3    # heat-trace time at which zeta0_from_heat_trace reads zeta(0)
ROW_DECAY = 40.0   # a continuum row at length * s >= 40 is below e^-40 < 1e-17
# the most doubles one closed-form array may hold: a factor's length * n
# eigenvalues (log_det, kernel_gap, the Szego traces) or the (an, bn) grid of
# mesh_spectrum.  2^22 doubles are 34 MB, and a weyl-check holds about four
# arrays of its grid's size at once (the sums, the sorted spectrum, the
# indices and the ratios).  It admits a side of 32 at n = 2^17 and the grid of
# rectangle(1,1) at n = 2048, and refuses the 34 GB grid at n = 65536
CLOSED_FORM_BUDGET = 2 ** 22


@dataclass(frozen=True, order=True)
class Factor:
    """One 1-D factor: a circle twisted by ``phase`` or a free segment.

    Factors order by (periodic, length, phase), a canonical order that does
    not depend on which side of the surface a factor sits on.
    """

    periodic: bool
    length: float
    phase: float = 0.0

    def __post_init__(self):
        if not self.periodic and self.phase:
            raise HypothesisViolation(
                f"the free side of length {self.length} carries no twist (phase {self.phase!r})")
        if self.twist == 0.0:       # a whole number of turns, exactly: no twist
            object.__setattr__(self, "phase", 0.0)

    @property
    def flat_sections(self):
        """1 when the factor carries a flat section (free, or phase 0), else 0."""
        return int(self.phase == 0.0)

    def _sites(self, n):
        """The site count length * n; HypothesisViolation unless a positive
        integer, BudgetExceeded beyond CLOSED_FORM_BUDGET."""
        m = self.length * n
        if not (m > 0 and float(m).is_integer()):
            raise HypothesisViolation(
                f"a side of length {self.length} has {m} sites at n = {n}, not a positive count")
        if m > CLOSED_FORM_BUDGET:
            raise BudgetExceeded(f"closed-form budget: a side of length {self.length} has "
                                 f"{m:.6g} sites at n = {n} > {CLOSED_FORM_BUDGET}")
        return int(m)

    def mesh_eigenvalues(self, n):
        """Unsorted spectrum of the twisted cycle or the path on length * n vertices."""
        m = self._sites(n)
        j = np.arange(m)
        if self.periodic:
            return 4 * np.sin((2 * np.pi * j + self.twist) / (2 * m)) ** 2
        return 4 * np.sin(np.pi * j / (2 * m)) ** 2

    @property
    def twist(self):
        """The phase reduced exactly to [-pi, pi]: near 2 pi it keeps its small twist."""
        return math.remainder(self.phase, 2 * math.pi)

    def _tail(self, x):
        """log of a row product less its growth x = m phi or length * s: on a circle
        log((1 - e^-x)^2 + 4 sin^2(theta/2) e^-x), exact as x and theta go to 0."""
        if self.periodic:
            return np.log(np.expm1(-x) ** 2 + 4.0 * math.sin(0.5 * self.twist) ** 2 * np.exp(-x))
        return np.log(-np.expm1(-2.0 * x))

    def log_shifted_product(self, n, mu):
        """log prod_j (mu + nu_j) over the mesh eigenvalues nu_j, elementwise in mu >= 0.

        phi = 2 asinh(sqrt(mu)/2) keeps small shifts precise, and the factored
        logs stay finite for m phi in the thousands.  At mu = 0 the zero mode
        of an untwisted factor is dropped, so the value is log det'.
        """
        m = self._sites(n)
        mu = np.asarray(mu, dtype=float)
        phi = 2.0 * np.arcsinh(0.5 * np.sqrt(mu))
        x = m * phi
        with np.errstate(divide="ignore"):    # -inf at mu = 0 when untwisted, replaced below
            if self.periodic:
                out = x + self._tail(x)
            else:
                out = np.log(np.tanh(0.5 * phi)) + x + self._tail(x)
        if self.flat_sections:
            out = np.where(mu == 0.0, 2.0 * math.log(m) if self.periodic else math.log(m), out)
        return out

    def continuum_log_row(self, s):
        """log det(Delta + s^2) less length * s, and less log s on a segment,
        elementwise in s >= 0; at s = 0 an untwisted factor gives its log det'."""
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):    # -inf at s = 0 when untwisted, replaced below
            out = self._tail(self.length * s)
        if self.flat_sections:
            a = self.length
            out = np.where(s == 0.0, 2.0 * math.log(a) if self.periodic else math.log(2.0 * a), out)
        return out

    def continuum_eigenvalues(self, cutoff):
        """Laplace eigenvalues <= cutoff with multiplicity, unsorted: ((2 pi k +
        twist) / length)^2, k in Z, on a circle, (pi k / length)^2, k >= 0, on a segment."""
        step = (2 if self.periodic else 1) * math.pi / self.length
        c = self.twist / (2 * math.pi)
        kmax = math.isqrt(int(cutoff / step ** 2)) + 2
        ks = range(-kmax if self.periodic else 0, kmax + 1)
        return [lam for lam in ((step * (k + c)) ** 2 for k in ks) if lam <= cutoff]

    def theta(self, t):
        """Heat trace: sum_k exp(-x (k + twist / 2 pi)^2) on a circle, or its Poisson
        dual below x = 4 pi^2 t / length^2 = 0.7; (1 + circle of twice the length) / 2."""
        if not self.periodic:
            return 0.5 * (1.0 + Factor(True, 2 * self.length).theta(t))
        x = 4 * math.pi ** 2 * t / self.length ** 2
        c = self.twist / (2 * math.pi)
        m = np.arange(1, _SERIES_TERMS)
        if x > 0.7:
            return math.exp(-x * c * c) + (float(np.exp(-x * (m + c) * (m + c)).sum())
                                           + float(np.exp(-x * (m - c) * (m - c)).sum()))
        dual = float((np.exp(-math.pi ** 2 * m * m / x) * np.cos(2 * math.pi * c * m)).sum())
        return math.sqrt(math.pi / x) * (1.0 + 2.0 * dual)


@dataclass(frozen=True)
class SeparableSurface:
    """A surface in SEPARABLE_KINDS with its two factors, side a then side b.

    Raises HypothesisViolation for a kind outside the table and for a twist
    on a free side.  ``dim_h0`` is the flat sections' dimension that
    bundles.flat_sections_dim gives the periodic sides' generators; when it
    is 1 their factors carry phase 0.
    """

    kind: str
    a: float
    b: float
    alpha: float = 0.0
    beta: float = 0.0
    factors: tuple = field(init=False, repr=False, compare=False)
    dim_h0: int = field(init=False, repr=False, compare=False)
    rank = 1    # a U(1) twist: the series renormalizes at rank 1
    cone_quadrants = ()     # a product surface has no cones

    def __post_init__(self):
        periodic = SEPARABLE_KINDS.get(self.kind)
        if periodic is None:
            raise HypothesisViolation(f"no closed form for kind {self.kind!r}")
        phases = (self.alpha, self.beta)
        dim_h0 = flat_sections_dim(HolonomyRepresentation.from_phases(
            [p for p, per in zip(phases, periodic) if per]))
        if dim_h0:
            phases = [0.0 if per else p for p, per in zip(phases, periodic)]
        object.__setattr__(self, "dim_h0", dim_h0)
        object.__setattr__(self, "factors", tuple(
            Factor(per, side, p) for per, side, p in zip(periodic, (self.a, self.b), phases)))

    @property
    def area(self):
        return self.a * self.b

    @property
    def perimeter(self):
        """Each free factor has two ends, each a copy of the other side."""
        fa, fb = self.factors
        return sum(2 * other.length for f, other in ((fa, fb), (fb, fa)) if not f.periodic)

    @property
    def corner_quadrants(self):
        """Four right corners on two segments, none with a periodic side."""
        return () if any(f.periodic for f in self.factors) else (1, 1, 1, 1)

    @functools.cached_property
    def zeta0(self):
        """zeta_zero's angle rule, reading the setup as a geometry summary."""
        return zeta_zero(self, dim_h0=self.dim_h0)

    @property
    def heat_constant(self):
        """Constant term of the small-time heat trace: zeta(0) + dim H^0."""
        return self.zeta0 + self.dim_h0

    def mesh_spectrum(self, n):
        """Sorted unrescaled mesh spectrum, the phases on the seams; its kernel is
        dim_h0.  BudgetExceeded, before any array, beyond CLOSED_FORM_BUDGET."""
        fa, fb = self.factors
        size = fa._sites(n) * fb._sites(n)
        if size > CLOSED_FORM_BUDGET:
            raise BudgetExceeded(f"closed-form budget: the {self.label()} grid has {size:.6g} "
                                 f"entries at n = {n} > {CLOSED_FORM_BUDGET}")
        grid = fa.mesh_eigenvalues(n)[:, None] + fb.mesh_eigenvalues(n)[None, :]
        return HermitianSpectrum(grid.ravel(), kernel_dim=self.dim_h0)

    def continuum_eigenvalues(self, cutoff):
        """All continuum Laplace eigenvalues <= cutoff with multiplicity, sorted."""
        if cutoff <= 0:
            return []
        fa, fb = self.factors
        lb = fb.continuum_eigenvalues(cutoff)
        return sorted(x + y for x in fa.continuum_eigenvalues(cutoff) for y in lb
                      if x + y <= cutoff)

    def heat_trace(self, t):
        """Tr exp(-t Delta) by rapidly convergent theta series."""
        if t <= 0:
            raise ValueError("t must be positive")
        fa, fb = self.factors
        return fa.theta(t) * fb.theta(t)

    def heat_trace_expansion(self, t):
        """Small-time expansion A/(4 pi t) + |dA|/(8 sqrt(pi t)) + angle constants."""
        return (self.area / (4 * math.pi * t) + self.perimeter / (8 * math.sqrt(math.pi * t))
                + float(self.heat_constant))

    def zeta0_from_heat_trace(self):
        """Numeric cross-check of zeta(0): the constant term of the heat trace at
        t = MELLIN_T (the Mellin-split regular part at s=0) minus dim H^0."""
        t = MELLIN_T
        const = self.heat_trace(t) - self.heat_trace_expansion(t) + float(self.heat_constant)
        return const - self.dim_h0

    def torsion(self):
        """log det' of the continuum surface: the fsum of the later factor's rows
        over the roots s < ROW_DECAY / length of the other's spectrum, plus the
        zeta-regularized sums over all roots of what the rows leave out: length * s
        gives -2 pi (length / b) B2(c) over a circle of length b twisted by 2 pi c,
        B2(c) = c^2 - c + 1/6, and log s on segment rows log(2b) / 2."""
        cols, rows = sorted(self.factors)
        roots = np.sqrt(cols.continuum_eigenvalues((ROW_DECAY / rows.length) ** 2))
        c = abs(cols.twist) / (2 * math.pi)
        # a segment's roots are half of those of the circle of twice its length
        b2 = c * c - c + 1.0 / 6.0 if cols.periodic else 1.0 / 24.0
        regularized = [-2.0 * math.pi * rows.length / cols.length * b2]
        if not rows.periodic:
            regularized.append(0.5 * math.log(2.0 * cols.length))
        return math.fsum(rows.continuum_log_row(roots).tolist() + regularized)

    def log_det(self, n):
        """log det' of the unrescaled mesh Laplacian: the math.fsum over the rows of
        the (an, bn) grid of the row factor's shifted products.  The row factor is
        the first in the factors' canonical order, so the same factors on swapped
        sides (e.g. swapped torus phases) give bit-identical values.  Both sides
        are checked against CLOSED_FORM_BUDGET before either array is built."""
        rows, cols = sorted(self.factors)
        rows._sites(n)
        return math.fsum(rows.log_shifted_product(n, cols.mesh_eigenvalues(n)).tolist())

    def kernel_gap(self, n):
        """The smallest mesh eigenvalue past the dim_h0 zero mode, exactly: the
        grid's two smallest sums lie among those of each factor's two smallest
        eigenvalues.  None on one vertex with a flat section."""
        rows, cols = sorted(self.factors)
        rows._sites(n)
        low = [np.sort(f.mesh_eigenvalues(n))[:2] for f in (rows, cols)]
        sums = np.sort(np.add.outer(*low), axis=None)[self.dim_h0:]
        return float(sums[0]) if sums.size else None

    def target(self):
        """Known limit of the renormalized series: each right corner contributes -log(2)/16."""
        return self.torsion() - len(self.corner_quadrants) * math.log(2) / 16

    def label(self):
        """kind(a,b), with the factors' phases when either is a twist."""
        fa, fb = self.factors
        tw = ""
        if fa.phase or fb.phase:
            tw = f",alpha={fa.phase:.6g}"
            if fb.periodic:
                tw += f",beta={fb.phase:.6g}"
        return f"{self.kind}({self.a},{self.b}{tw})"


@dataclass(frozen=True)
class CharacterSum:
    """A flat U(r) bundle on a SEPARABLE_KINDS surface as the direct sum of its
    r characters, one rank-1 SeparableSurface each: pi_1 of a torus or a
    cylinder is abelian, so every flat bundle there splits.  Its mesh log det'
    is the fsum of theirs, its kernel gap their smallest, and dim H^0 the
    number of trivial characters, each decided by SeparableSurface's rule
    (bundles.flat_sections_dim of its phases)."""

    setups: tuple

    @classmethod
    def from_holonomy(cls, kind, a, b, rep=None, rank=1):
        """The characters of ``rep`` (HolonomyRepresentation.characters), or
        ``rank`` untwisted copies for the trivial bundle.  BadCuts unless
        ``rep`` has one generator per periodic side, side a's first."""
        trivial = SeparableSurface(kind, a, b)
        if rep is None:
            return cls((trivial,) * rank)
        periodic = SEPARABLE_KINDS[kind]
        if len(rep.generators) != sum(periodic):
            raise BadCuts(f"{sum(periodic)} cuts for {len(rep.generators)} generators")
        setups = []
        for row in rep.characters().tolist():
            phases = iter(row)
            setups.append(SeparableSurface(kind, a, b,
                                           *(next(phases) if per else 0.0 for per in periodic)))
        return cls(tuple(setups))

    @property
    def rank(self):
        return len(self.setups)

    @property
    def dim_h0(self):
        return sum(s.dim_h0 for s in self.setups)

    def log_det(self, n):
        """log det' of the unrescaled rank-r mesh Laplacian."""
        return math.fsum(s.log_det(n) for s in self.setups)

    def kernel_gap(self, n):
        """The smallest nonzero mesh eigenvalue over the characters; None when
        there is none."""
        gaps = [g for g in (s.kernel_gap(n) for s in self.setups) if g is not None]
        return min(gaps, default=None)


def corner_zeta_term(quadrants):
    """Exact (pi^2 - theta^2)/(2 pi theta) for theta = quadrants * pi/2."""
    k = quadrants
    return Fraction(4 - k * k, 4 * k)


def cone_zeta_term(quadrants):
    """Exact (4 pi^2 - theta^2)/(2 pi theta) for theta = quadrants * pi/2."""
    k = quadrants
    return Fraction(16 - k * k, 4 * k)


def zeta_zero(summary, rank=1, dim_h0=1):
    """zeta(0) of the Friedrichs Laplacian, exact in the angle data.

    -dim H^0 + (rank/12) [sum over cones (4 pi^2 - th^2)/(2 pi th)
                          + sum over corners (pi^2 - th^2)/(2 pi th)],
    th = q pi/2 for q in summary.cone_quadrants and summary.corner_quadrants.
    """
    tot = (sum(map(cone_zeta_term, summary.cone_quadrants))
           + sum(map(corner_zeta_term, summary.corner_quadrants)))
    return -Fraction(dim_h0) + Fraction(rank, 12) * tot


def dedekind_eta(q):
    """eta(q) = q^{1/24} prod (1 - q^n) for real nome q in (0, 1)."""
    if not (0.0 < q < 1.0):
        raise EtaDomainError(f"nome {q!r} outside (0, 1)")
    prod = 1.0
    qn = q
    while qn > 1e-17:
        prod *= 1.0 - qn
        qn *= q
    return q ** (1.0 / 24.0) * prod


def torus_torsion(a, b):
    """log det' of the a x b torus: log(ab) + log((a/b) eta(e^{-2 pi a/b})^4)."""
    if a <= 0 or b <= 0:
        raise ValueError("periods must be positive")
    nu = dedekind_eta(math.exp(-2 * math.pi * a / b))
    return math.log(a * b) + math.log((a / b) * nu ** 4)


def rectangle_torsion(a, b):
    """log det' of the [0,a] x [0,b] rectangle with free boundary conditions.

    (3/4) log(ab) + (1/4) log(y |eta|^4) + (3/2) log 2, with y = a/b and the
    eta factor evaluated at nome e^{-2 pi a/b}; this reading is pinned by the
    a <-> b symmetry of the modular factor.
    """
    if a <= 0 or b <= 0:
        raise ValueError("sides must be positive")
    y = a / b
    nu = dedekind_eta(math.exp(-2 * math.pi * a / b))
    return 0.75 * math.log(a * b) + 0.25 * math.log(y * nu ** 4) + 1.5 * math.log(2)
