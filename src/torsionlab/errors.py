"""Exception types raised across the library."""


class TorsionLabError(Exception):
    """Base class for all library errors."""


class InvalidGluing(TorsionLabError):
    """Side pairing is not a fixed-point-free involution or is geometrically inconsistent."""


class UnsupportedAngle(TorsionLabError):
    """Requested model surface angle is outside the supported family."""


class UnknownPoint(TorsionLabError):
    """Referenced cone/corner point does not exist on the surface."""


class BadCuts(TorsionLabError):
    """Dual cuts do not close up, cross a cone, or are inconsistent with the representation."""


class NonUnitaryGauge(TorsionLabError):
    """Gauge transformation matrix is not unitary."""


class NotAClosedWalk(TorsionLabError):
    """Edge sequence does not chain head-to-tail into a closed walk."""


class KernelMismatch(TorsionLabError):
    """Numerical kernel dimension disagrees with the expected flat-section dimension."""


class EmptySpectrum(TorsionLabError):
    """Spectrum contains no eigenvalues."""


class TooLarge(TorsionLabError):
    """Brute-force enumeration refused: graph exceeds the enumeration budget."""


class RankUnsupported(TorsionLabError):
    """Operation defined only for bundle ranks 1 and 2."""


class RankMismatch(TorsionLabError):
    """Generator matrices do not match the stated bundle rank."""


class NegativeUnderSqrt(TorsionLabError):
    """Rank-2 input is not special unitary, so the square-root identity does not apply."""


class NotClassifiable(TorsionLabError):
    """Cycle homotopy classes undefined: surface is not a torus or cylinder."""


class IndexOutOfRange(TorsionLabError):
    """Mode index outside the mesh index range."""


class SupportTooWide(TorsionLabError):
    """Fourier profile support too wide for the requested mesh size."""


class EtaDomainError(TorsionLabError):
    """Nome argument outside (0, 1)."""


class HypothesisViolation(TorsionLabError):
    """Comparison setups do not share the invariants needed for ratio limits."""


class BudgetExceeded(TorsionLabError):
    """Requested computation exceeds the dense-solve budget."""


class SupportViolation(TorsionLabError):
    """Section does not vanish on the excluded neighbor sets."""


class BisectionFailure(TorsionLabError):
    """Mixing-parameter bisection found no sign change."""


class IdentityMismatch(TorsionLabError):
    """A determinant identity the input should satisfy does not hold numerically."""
