"""Square-cell complexes: unit-square cells glued edge-to-edge.

Every cell carries a chart [0,1]^2 with axes parallel to the tiling.
Allowed chart transitions are z -> z + c (translation) and z -> -z + c
(half-turn), so a translation glues a side to the opposite side label with
the side parameter preserved, while a half-turn glues a side to the same
side label with the parameter reversed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidGluing

# side labels
E, N, W, S = 0, 1, 2, 3
SIDE_NAMES = ("E", "N", "W", "S")
SIDE_FROM_NAME = {"E": E, "N": N, "W": W, "S": S}
OPPOSITE = {E: W, W: E, N: S, S: N}

# corner labels, counterclockwise
SW, SE, NE, NW = 0, 1, 2, 3
CORNER_NAMES = ("SW", "SE", "NE", "NW")

TRANSLATION = "translation"
HALF_TURN = "half-turn"

# rotating counterclockwise around the vertex at a given corner exits the
# cell through EXIT_SIDE and enters it through ENTER_SIDE
EXIT_SIDE = {SW: W, SE: S, NE: E, NW: N}
ENTER_SIDE = {SW: S, SE: E, NE: N, NW: W}

# corners lying on a side, indexed by the side parameter t in {0, 1};
# E side is x=1 with t=y, W is x=0 with t=y, N is y=1 with t=x, S is y=0 with t=x
CORNER_ON_SIDE = {
    E: (SE, NE),
    W: (SW, NW),
    N: (NW, NE),
    S: (SW, SE),
}
CORNER_PARAM = {(d, CORNER_ON_SIDE[d][t]): t for d in (E, N, W, S) for t in (0, 1)}


@dataclass(frozen=True)
class VertexClass:
    """A lattice point of the complex: the fan of cell corners around it.

    ``corners`` lists (cell, corner) quadrants in counterclockwise order;
    the total angle is one quarter turn per quadrant.
    """

    corners: tuple
    boundary: bool

    @property
    def quadrants(self):
        return len(self.corners)

    @property
    def angle(self):
        import math

        return len(self.corners) * math.pi / 2.0


class SquareComplex:
    """Cells plus a fixed-point-free involution pairing some of their sides."""

    def __init__(self, cells, pairings, validate=True):
        """``cells``: iterable of hashable ids.

        ``pairings``: mapping (cell, side) -> (cell', side', kind), stored in
        both directions.
        """
        self.cells = list(cells)
        self.cell_index = {c: k for k, c in enumerate(self.cells)}
        if len(self.cell_index) != len(self.cells):
            raise InvalidGluing("duplicate cell ids")
        self.pairings = dict(pairings)
        if validate:
            self._validate()
        self._vertex_classes = None

    def _validate(self):
        for (c, d), (c2, d2, kind) in self.pairings.items():
            if c not in self.cell_index or c2 not in self.cell_index:
                raise InvalidGluing(f"pairing references unknown cell: {(c, d)} -> {(c2, d2)}")
            if d not in (E, N, W, S) or d2 not in (E, N, W, S):
                raise InvalidGluing("side label out of range")
            if (c, d) == (c2, d2):
                raise InvalidGluing(f"side {(c, SIDE_NAMES[d])} glued to itself")
            back = self.pairings.get((c2, d2))
            if back != (c, d, kind):
                raise InvalidGluing(f"pairing not an involution at {(c, SIDE_NAMES[d])}")
            if kind == TRANSLATION:
                if d2 != OPPOSITE[d]:
                    raise InvalidGluing("translation must glue opposite side labels")
            elif kind == HALF_TURN:
                if d2 != d:
                    raise InvalidGluing("half-turn must glue equal side labels")
            else:
                raise InvalidGluing(f"unknown pairing kind {kind!r}")

    # -- basic counts -------------------------------------------------------

    @property
    def n_cells(self):
        return len(self.cells)

    def boundary_slots(self):
        out = []
        for c in self.cells:
            for d in (E, N, W, S):
                if (c, d) not in self.pairings:
                    out.append((c, d))
        return out

    def is_paired(self, c, d):
        return (c, d) in self.pairings

    def cross(self, c, d, t):
        """Cross side (c, d) at parameter point/index t; returns (c', d', t')."""
        c2, d2, kind = self.pairings[(c, d)]
        return c2, d2, (t if kind == TRANSLATION else self._flip(t))

    @staticmethod
    def _flip(t):
        # t is either a float in [0,1] or an int subside index handled by caller
        return 1 - t

    # -- vertex classes -----------------------------------------------------

    def _step_ccw(self, c, k):
        """One counterclockwise step around the vertex at corner k of cell c.

        Returns (c', k') or None when the exit side is a boundary side.
        """
        d = EXIT_SIDE[k]
        if (c, d) not in self.pairings:
            return None
        c2, d2, kind = self.pairings[(c, d)]
        t = CORNER_PARAM[(d, k)]
        t2 = t if kind == TRANSLATION else 1 - t
        return c2, CORNER_ON_SIDE[d2][t2]

    def _step_cw(self, c, k):
        d = ENTER_SIDE[k]
        if (c, d) not in self.pairings:
            return None
        c2, d2, kind = self.pairings[(c, d)]
        t = CORNER_PARAM[(d, k)]
        t2 = t if kind == TRANSLATION else 1 - t
        return c2, CORNER_ON_SIDE[d2][t2]

    def vertex_classes(self):
        """All lattice points, each as a VertexClass with an ordered corner fan."""
        if self._vertex_classes is not None:
            return self._vertex_classes
        seen = set()
        classes = []
        for c in self.cells:
            for k in (SW, SE, NE, NW):
                if (c, k) in seen:
                    continue
                fan = [(c, k)]
                boundary = False
                cur = (c, k)
                while True:
                    nxt = self._step_ccw(*cur)
                    if nxt is None:
                        boundary = True
                        break
                    if nxt == (c, k):
                        break
                    fan.append(nxt)
                    cur = nxt
                    if len(fan) > 4 * len(self.cells):
                        raise InvalidGluing("vertex walk does not close")
                if boundary:
                    cur = (c, k)
                    while True:
                        prv = self._step_cw(*cur)
                        if prv is None:
                            break
                        fan.insert(0, prv)
                        cur = prv
                        if len(fan) > 4 * len(self.cells):
                            raise InvalidGluing("vertex walk does not close")
                for q in fan:
                    seen.add(q)
                classes.append(VertexClass(corners=tuple(fan), boundary=boundary))
        self._vertex_classes = classes
        return classes

    def vertex_class_of(self, c, k):
        for vc in self.vertex_classes():
            if (c, k) in vc.corners:
                return vc
        raise KeyError((c, k))

    def n_side_classes(self):
        paired = len(self.pairings) // 2
        return paired + len(self.boundary_slots())

    def euler_characteristic(self):
        return len(self.vertex_classes()) - self.n_side_classes() + self.n_cells

    def gauss_bonnet_defect(self):
        """Sum of angle defects minus 2*pi*chi, as an exact multiple of pi/2."""
        total = Fraction(0)
        for vc in self.vertex_classes():
            k = vc.quadrants
            if vc.boundary:
                total += Fraction(2, 1) - Fraction(k, 1)  # (pi - k*pi/2) / (pi/2)
            else:
                total += Fraction(4, 1) - Fraction(k, 1)  # (2pi - k*pi/2) / (pi/2)
        return total - 4 * self.euler_characteristic()

    # -- refinement ---------------------------------------------------------

    def refine(self, n):
        """Subdivide every cell into an n x n block of subcells.

        Subcell ids are (cell, i, j) with 0 <= i, j < n, i along x and j
        along y of the parent chart.
        """
        if n < 1:
            raise ValueError("subdivision must be >= 1")
        cells = [(c, i, j) for c in self.cells for i in range(n) for j in range(n)]
        pairings = {}

        def add(slot_a, slot_b, kind):
            pairings[slot_a] = (slot_b[0], slot_b[1], kind)
            pairings[slot_b] = (slot_a[0], slot_a[1], kind)

        for c in self.cells:
            for i in range(n):
                for j in range(n):
                    if i + 1 < n:
                        add(((c, i, j), E), ((c, i + 1, j), W), TRANSLATION)
                    if j + 1 < n:
                        add(((c, i, j), N), ((c, i, j + 1), S), TRANSLATION)
        done = set()
        for (c, d), (c2, d2, kind) in self.pairings.items():
            key = frozenset(((c, d), (c2, d2)))
            if key in done:
                continue
            done.add(key)
            for s in range(n):
                s2 = s if kind == TRANSLATION else n - 1 - s
                add(self.refined_side(c, d, s, n), self.refined_side(c2, d2, s2, n), kind)
        return SquareComplex(cells, pairings, validate=False)

    @staticmethod
    def refined_side(c, d, s, n):
        """Subcell side of refine(n) at the s-th subside along side d of cell c,
        counted in increasing side parameter."""
        if d == E:
            return (c, n - 1, s), E
        if d == W:
            return (c, 0, s), W
        if d == N:
            return (c, s, n - 1), N
        return (c, s, 0), S

    @staticmethod
    def refined_corner(c, k, n):
        """Subcell corner of refine(n) at the parent corner k of cell c."""
        if k == SW:
            return (c, 0, 0), SW
        if k == SE:
            return (c, n - 1, 0), SE
        if k == NE:
            return (c, n - 1, n - 1), NE
        return (c, 0, n - 1), NW
