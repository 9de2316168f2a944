"""Closed-form spectra of separable meshes, and Szego-type traces.

The rectangle, torus and cylinder meshes are products of a cycle or a path
on each side, so their spectra are the sums of the 1-D factor spectra of
surfaces.SEPARABLE_KINDS: 4 sin^2((2 pi j + theta) / 2m) for a cycle twisted
by theta, 4 sin^2(pi j / 2m) for a path.  The kernel dimension is the
factors' flat-section count, decided from the holonomy, not from the
eigenvalues.  The spectrum and the log det' of any separable setup are the
methods SeparableSurface.mesh_spectrum(n) and SeparableSurface.log_det(n);
rectangle_mesh_spectrum, torus_mesh_spectrum and closed_form_log_det are
one-line forms of them by kind and sides.  Each row of the (an, bn)
eigenvalue grid is a shifted product of one factor's spectrum, in closed
form (torsion.Factor.log_shifted_product): with mu = 4 sinh^2(phi/2),
prod_j (mu + nu_j) is 2 cosh(m phi) - 2 cos(theta) for a cycle of m sites
twisted by theta and 2 tanh(phi/2) sinh(m phi) for a path of m sites.
log det' is the fsum of one factor's row products over the other factor's
eigenvalues, so it costs O(n) and never builds the grid; the Szego
expansion's constant is the rectangle's SeparableSurface.target().
The an x bn rectangle mesh has product-cosine eigenvectors
indexed by (i, j); its rescaled eigenvalues are 4n^2 sin^2(pi i / 2an) +
4n^2 sin^2(pi j / 2bn), with the (0,0) entry replaced by 1 to stand for the
projector-shifted kernel.  Multiplication by low cosine modes is almost
diagonal in this basis, which reduces tr(phi log(n^2 Delta)) to short
alternating eigenvalue sums with explicit large-n expansions.
The constants of the area and perimeter terms, CATALAN (Catalan's G) and
LOG_SQRT2M1 (log(sqrt 2 - 1)), are correctly rounded literals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRange, SupportTooWide
from .torsion import SeparableSurface

# Catalan's constant G = 1 - 1/9 + 1/25 - ... and log(sqrt(2) - 1), each
# correctly rounded to double; math.log(math.sqrt(2) - 1) is 1.8 ulp off
CATALAN = 0.915965594177219
LOG_SQRT2M1 = -0.881373587019543


# -- closed-form spectra ------------------------------------------------------


def rectangle_mesh_spectrum(a, b, n):
    """Sorted unrescaled spectrum of the a x b rectangle mesh, as HermitianSpectrum."""
    return SeparableSurface("rectangle", a, b).mesh_spectrum(n)


def torus_mesh_spectrum(a, b, n, alpha=0.0, beta=0.0):
    """Twisted torus mesh spectrum (unrescaled), phases alpha, beta on the seams."""
    return SeparableSurface("torus", a, b, alpha, beta).mesh_spectrum(n)


def closed_form_log_det(kind, a, b, n, alpha=0.0, beta=0.0):
    """log det' of the unrescaled mesh Laplacian via the closed-form spectra
    (SeparableSurface.log_det)."""
    return SeparableSurface(kind, a, b, alpha, beta).log_det(n)


# -- corrected sine product ---------------------------------------------------


def sin_product(m, x):
    """prod_{j=0}^{m-1} (sin^2(pi j / 2m) + x^2), in closed form.

    Closed form |x| (1+x^2)^{-1/2} 2^{-2m} * [ (sqrt(1+x^2)+x)^{2m} - 1 ]
    * [ (sqrt(1+x^2)-x)^{2m} + 1 ]; the sign of the last bracket matters and
    is fixed against the direct product (see sin_product_direct).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if x == 0.0:
        return 0.0
    s = math.sqrt(1.0 + x * x)
    return (abs(x) / s / 4.0 ** m
            * abs((s + abs(x)) ** (2 * m) - 1.0)
            * ((s - abs(x)) ** (2 * m) + 1.0))


def sin_product_direct(m, x):
    """The same product evaluated term by term (the authoritative oracle)."""
    j = np.arange(m)
    return float(np.prod(np.sin(np.pi * j / (2 * m)) ** 2 + x * x))


def sin_product_uncorrected(m, x):
    """Closed form with a minus sign in the second bracket; fails, e.g. at (2, 1)."""
    if x == 0.0:
        return 0.0
    s = math.sqrt(1.0 + x * x)
    return (abs(x) / s / 4.0 ** m
            * abs((s + abs(x)) ** (2 * m) - 1.0)
            * abs((s - abs(x)) ** (2 * m) - 1.0))


# -- Fourier profiles and Szego traces ---------------------------------------


@dataclass
class FourierProfile:
    """Finitely supported symmetric cosine profile on the rectangle [0,a]x[0,b].

    Represents phi(x, y) = sum a_{ij} cos(2 pi i x / a) cos(2 pi j y / b).
    """

    a: int
    b: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j), c in self.coeffs.items():
            if i < 0 or j < 0:
                raise IndexOutOfRange("profile indices must be >= 0")
            if c:
                clean[(int(i), int(j))] = float(c)
        self.coeffs = clean

    def max_index(self):
        return max((max(i, j) for (i, j) in self.coeffs), default=0)

    def __call__(self, x, y):
        out = 0.0
        for (i, j), c in self.coeffs.items():
            out += c * math.cos(2 * math.pi * i * x / self.a) * math.cos(2 * math.pi * j * y / self.b)
        return out

    def check_support(self, n):
        if self.max_index() >= min(self.a * n, self.b * n):
            raise SupportTooWide(
                f"max index {self.max_index()} needs n with min(an,bn) > it")

    @classmethod
    def from_json(cls, spec):
        if isinstance(spec, str):
            spec = json.loads(spec)
        coeffs = {(int(i), int(j)): float(v) for i, j, v in spec["coeffs"]}
        return cls(a=spec["a"], b=spec["b"], coeffs=coeffs)

    def to_json(self):
        return {"a": self.a, "b": self.b,
                "coeffs": [[i, j, v] for (i, j), v in sorted(self.coeffs.items())]}


def szego_trace_direct(profile, n):
    """tr(phi log(n^2 Delta^perp)) on the an x bn mesh from eigenvalue sums.

    The (0,0) coefficient carries the full log-determinant, (abn^2 - 1) log n^2
    plus the rectangle's log det'; the pure modes reduce to the half-difference
    of a row product and its reflected row product, the mixed modes to a
    quarter alternating sum of four grid entries.
    """
    profile.check_support(n)
    surface = SeparableSurface("rectangle", profile.a, profile.b)
    fa, fb = surface.factors
    ea, eb = fa.mesh_eigenvalues(n), fb.mesh_eigenvalues(n)
    an, bn = ea.size, eb.size
    total = 0.0
    for (i, j), c in sorted(profile.coeffs.items()):
        if i == 0 and j == 0:
            total += c * ((an * bn - 1) * math.log(n * n) + surface.log_det(n))
        elif j == 0:
            row, reflected = fb.log_shifted_product(n, ea[[i, an - i]])
            total += c * 0.5 * float(row - reflected)
        elif i == 0:
            col, reflected = fa.log_shifted_product(n, eb[[j, bn - j]])
            total += c * 0.5 * float(col - reflected)
        else:
            # the four grid entries, each side rescaled before the sum
            L = np.log((n * n) * ea[[i, an - i]][:, None] + (n * n) * eb[[j, bn - j]][None, :])
            total += c * 0.25 * float(L[0, 0] - L[1, 0] - L[0, 1] + L[1, 1])
    return total


def szego_expansion_predicted(profile, n):
    """Large-n prediction for tr(phi log(n^2 Delta^perp)).

    Leading terms 2ab n^2 log(n) a00 + (4G/pi) ab n^2 a00, a boundary term
    log(sqrt(2)-1) n (b * sum_i a_{i0} + a * sum_j a_{0j}), the corner term
    -(log n / 2) sum a_{ij}, plus the constant block.  The constant for a
    pure horizontal mode i is
        (1/2)[log(e^{pi i b/a} - 1) + log(1 + e^{-pi i b/a})
              + log(pi i / 2a) + log(2)/2];
    the middle sign is "+" (with the printed "-" the prediction misses the
    computed trace by a nonvanishing constant).  Mixed modes contribute
    (1/4)[log(pi^2 i^2/a^2 + pi^2 j^2/b^2) - log 2].
    """
    profile.check_support(n)
    a, b = profile.a, profile.b
    a00 = profile.coeffs.get((0, 0), 0.0)
    sx = sum(c for (i, j), c in profile.coeffs.items() if j == 0)
    sy = sum(c for (i, j), c in profile.coeffs.items() if i == 0)
    sall = sum(profile.coeffs.values())
    logn = math.log(n)
    out = 2 * a * b * n * n * logn * a00 + (4 * CATALAN / math.pi) * a * b * n * n * a00
    out += LOG_SQRT2M1 * n * (b * sx + a * sy)
    out -= 0.5 * logn * sall
    for (i, j), c in sorted(profile.coeffs.items()):
        if i > 0 and j == 0:
            e = math.exp(math.pi * i * b / a)
            out += 0.5 * c * (math.log(e - 1) + math.log1p(1 / e)
                              + math.log(math.pi * i / (2 * a)) + math.log(2) / 2)
        elif i == 0 and j > 0:
            e = math.exp(math.pi * j * a / b)
            out += 0.5 * c * (math.log(e - 1) + math.log1p(1 / e)
                              + math.log(math.pi * j / (2 * b)) + math.log(2) / 2)
        elif i > 0 and j > 0:
            out += 0.25 * c * (math.log(math.pi ** 2 * i * i / (a * a)
                                        + math.pi ** 2 * j * j / (b * b)) - math.log(2))
    if a00:
        out += a00 * SeparableSurface("rectangle", a, b).target()
    return out
