"""Square-cell complexes: unit-square cells glued edge-to-edge.

Every cell carries a chart [0,1]^2 with axes parallel to the tiling.
Allowed chart transitions are z -> z + c (translation) and z -> -z + c
(half-turn), so a translation glues a side to the opposite side label with
the side parameter preserved, while a half-turn glues a side to the same
side label with the parameter reversed.

A complex is its cells and one slot-partner array.  Side d of the t-th cell
is slot ``4*t + d`` and corner k of it is corner ``4*t + k``;
``partner[slot]`` is the slot glued to it, or -1 on the boundary.  A pairing
is a half-turn exactly when it joins equal side labels, so the array holds
the kinds too.  The constructors build the gluing as a (cell, side) dict with
`SquareComplex.glue` and `SquareComplex.glue_block`; `SquareComplex`
validates it and reads it into ``partner`` once, and ``pairings`` is a
read-only view read back off the array.  The corner turn (`corner_turn`), the
fans of corners around the lattice points (`corner_fans`) and the n x n
refinement (`refined_partner`) work on any partner array.  A complex's vertex
classes and ``refine(n)`` read them, and so does the mesh, which is the
refinement's partner array (``meshes``): the tiles are the mesh at n = 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from numbers import Integral
from types import MappingProxyType

import numpy as np

from .errors import HypothesisViolation, InvalidGluing, UnknownPoint

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

_EXIT = np.array([EXIT_SIDE[k] for k in range(4)])
_ENTER = np.array([ENTER_SIDE[k] for k in range(4)])


def _next_corner_table():
    """Turning counterclockwise around corner k of a cell leaves it through
    side EXIT_SIDE[k]; entering the next cell through its side d2 lands on its
    corner table[k, d2] (the side parameter is kept by a translation, which
    glues opposite sides, and reversed by a half-turn, which glues equal ones)."""
    table = np.full((4, 4), -1)
    for k in range(4):
        d = EXIT_SIDE[k]
        t = CORNER_PARAM[(d, k)]
        table[k, OPPOSITE[d]] = CORNER_ON_SIDE[OPPOSITE[d]][t]
        table[k, d] = CORNER_ON_SIDE[d][1 - t]
    return table


_NEXT_CORNER = _next_corner_table()


def require_subdivision(n):
    """ValueError unless n is an integer >= 1 (a bool is refused, np.int64 is not)."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")


def exit_slots(corners):
    """The slot each corner id leaves its cell through, turning counterclockwise."""
    return (corners & ~3) + _EXIT[corners & 3]


def corner_turn(partner):
    """The counterclockwise corner turn, one entry per corner id and a last
    entry -1: step[c] is the next corner around c's lattice point, or -1
    where c's exit side is on the boundary (and step[-1] = -1, so a walk off
    the boundary stays off)."""
    corner = np.arange(len(partner))
    gate = partner[exit_slots(corner)]
    return np.append(np.where(gate < 0, -1, (gate & ~3) + _NEXT_CORNER[corner & 3, gate & 3]),
                     -1)


def corner_fans(partner):
    """The lattice points as corner walks, (closed, chains): each maps a fan
    length L to an (F, L) array of corner ids, one row per lattice point, in
    counterclockwise order.

    ``closed`` holds the interior points, each fan started at its smallest
    corner id; ``chains`` the boundary points, each from its clockwise end
    (the corner entered through a boundary side) to its counterclockwise end.
    The regular 4-cycles are found at once; the other fans are stepped
    together, each from every one of its corners.  A walk around an interior
    point is dropped as soon as it reaches a smaller corner, and one from
    inside a boundary fan when it leaves the boundary, so each closed fan is
    kept once, from its smallest corner.  A walk longer than there are
    corners does not close: InvalidGluing.
    """
    step = corner_turn(partner)
    corner = np.arange(len(partner))
    c1 = step[corner]
    c2 = step[c1]
    c3 = step[c2]
    regular = (step[c3] == corner) & (c2 != corner)
    first = regular & (corner < c1) & (corner < c2) & (corner < c3)
    closed, chains = {4: np.stack([corner, c1, c2, c3], axis=1)[first]}, {}
    fan = np.flatnonzero(~regular)[:, None]       # (walks, corners so far)
    chain = partner[(fan[:, 0] & ~3) + _ENTER[fan[:, 0] & 3]] < 0
    while len(fan):
        if fan.shape[1] > len(partner):
            raise InvalidGluing("vertex walk does not close")
        nxt = step[fan[:, -1]]
        for fans, done in ((closed, nxt == fan[:, 0]), (chains, chain & (nxt < 0))):
            if done.any():
                fans[fan.shape[1]] = fan[done]
        keep = np.where(chain, nxt >= 0, nxt > fan[:, 0])
        fan, chain = np.column_stack([fan, nxt])[keep], chain[keep]
    return closed, chains


@dataclass(frozen=True)
class Strip:
    """A horizontal strip: a stack of chains, each glued N to S straight onto
    the one below it, tile for tile.

    ``tiles`` is (h, w): row j is the j-th chain from the bottom, and column x
    runs west to east.  ``cyclic`` when the chains close up E to W.  ``wrap``
    is None for an open stack; a closed stack's top chain is glued straight
    onto its bottom one, column x under column (x + wrap) % w.  The strip
    keeps its bottom row (``keep_bottom``) when a tile of its bottom chain
    has an S pairing, its top row (``keep_top``) when one of its top chain
    has an N pairing, and its bottom row when it would keep no row otherwise
    (a closed stack, or a surface that is one strip).
    """

    tiles: np.ndarray
    cyclic: bool
    wrap: int | None
    keep_bottom: bool
    keep_top: bool


def east_west_half_turns(partner):
    """The E and W side slots glued by a half-turn (to a side of the same label)."""
    side = np.arange(len(partner)) & 3
    return np.flatnonzero((partner >= 0) & (partner & 3 == side) & ((side == E) | (side == W)))


def horizontal_strips(partner):
    """The horizontal strips of the complex whose partner array is
    ``partner``, as a list of `Strip`.

    A chain is a maximal run of tiles glued E to W by translations, a path or
    a cycle; a chain sits straight on another when every tile's N side is
    glued by a translation to the S side of the tile in the same column.
    HypothesisViolation when an E or W side is glued by a half-turn: the
    next tile is then upside down, which no strip here holds.
    """
    turned = east_west_half_turns(partner)
    if len(turned):
        raise HypothesisViolation(f"side slot {turned[0]} is glued E or W by a half-turn; "
                                  "horizontal strips need translations there")
    n_tiles = len(partner) // 4
    east = partner[4 * np.arange(n_tiles) + E]
    nxt = np.where(east >= 0, east >> 2, -1).tolist()
    has_prev = set(t for t in nxt if t >= 0)
    chain_of, pos, chains = [-1] * n_tiles, [0] * n_tiles, []
    for start in [t for t in range(n_tiles) if t not in has_prev] + list(range(n_tiles)):
        if chain_of[start] >= 0:
            continue
        tiles, t = [], start
        while t >= 0 and chain_of[t] < 0:
            chain_of[t], pos[t] = len(chains), len(tiles)
            tiles.append(t)
            t = nxt[t]
        chains.append((np.array(tiles), t == start))
    chain_of, pos = np.array(chain_of), np.array(pos)

    # above[c] = (chain straight on c, the column shift of its tiles)
    above = {}
    for c, (tiles, cyclic) in enumerate(chains):
        north = partner[4 * tiles + N]
        if np.any((north < 0) | (north & 3 != S)):
            continue
        up = north >> 2
        c2 = int(chain_of[up[0]])
        shift = int(pos[up[0]])
        w = len(tiles)
        if (np.all(chain_of[up] == c2) and len(chains[c2][0]) == w and chains[c2][1] == cyclic
                and (cyclic or shift == 0) and np.all(pos[up] == (shift + np.arange(w)) % w)):
            above[c] = (c2, shift)
    below = {c2: c for c, (c2, _) in above.items()}

    strips, seen = [], set()
    for start in [c for c in range(len(chains)) if c not in below] + list(range(len(chains))):
        if start in seen:
            continue
        layers, offset, c = [], 0, start
        while True:
            seen.add(c)
            tiles, cyclic = chains[c]
            layers.append(np.roll(tiles, -offset))
            if c not in above:
                wrap = None
                break
            c, shift = above[c]
            offset = (offset + shift) % len(tiles)
            if c == start:
                wrap = offset
                break
        grid = np.stack(layers)
        bottom = wrap is None and bool(np.any(partner[4 * grid[0] + S] >= 0))
        top = wrap is None and bool(np.any(partner[4 * grid[-1] + N] >= 0))
        strips.append(Strip(grid, cyclic, wrap, bottom or not top, top))
    return strips


def refined_partner(partner, n):
    """The partner array of the n x n refinement of the complex whose partner
    array is ``partner``: subcell (i, j) of the t-th cell is cell
    (t*n + i)*n + j.  The pairings inside a cell are shifted ranges, and each
    glued side is one length-n vector of subcell sides, by increasing side
    parameter, reversed for a half-turn."""
    n_cells = len(partner) // 4
    grid = np.arange(n_cells * n * n).reshape(n_cells, n, n)
    out = np.full(4 * grid.size, -1, dtype=np.int64)
    for a, da, b, db in ((grid[:, :-1, :], E, grid[:, 1:, :], W),
                         (grid[:, :, :-1], N, grid[:, :, 1:], S)):
        out[4 * a + da] = 4 * b + db
        out[4 * b + db] = 4 * a + da
    # the subcells along each cell side, by increasing side parameter
    along = np.stack([grid[:, n - 1, :], grid[:, :, n - 1], grid[:, 0, :], grid[:, :, 0]], axis=1)
    src = np.flatnonzero(partner >= 0)
    dst = partner[src]
    d1, d2 = src & 3, dst & 3
    a = 4 * along[src >> 2, d1] + d1[:, None]
    b = 4 * along[dst >> 2, d2] + d2[:, None]
    turn = d1 == d2
    b[turn] = b[turn, ::-1]
    out[a] = b
    return out


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


class SquareComplex:
    """Cells plus a fixed-point-free involution pairing some of their sides,
    held as the slot-partner array ``partner``."""

    def __init__(self, cells, pairings):
        """``cells``: iterable of hashable ids.

        ``pairings``: mapping (cell, side) -> (cell', side', kind), stored in
        both directions; validated and read into ``partner``, not kept.
        """
        self._set_cells(cells)
        index = self.cell_index
        partner = [-1] * (4 * len(index))
        for (c, d), (c2, d2, kind) in pairings.items():
            if c not in index or c2 not in index:
                raise InvalidGluing(f"pairing references unknown cell: {(c, d)} -> {(c2, d2)}")
            if d not in (E, N, W, S) or d2 not in (E, N, W, S):
                raise InvalidGluing("side label out of range")
            if (c, d) == (c2, d2):
                raise InvalidGluing(f"side {(c, SIDE_NAMES[d])} glued to itself")
            if pairings.get((c2, d2)) != (c, d, kind):
                raise InvalidGluing(f"pairing not an involution at {(c, SIDE_NAMES[d])}")
            if kind == TRANSLATION:
                if d2 != OPPOSITE[d]:
                    raise InvalidGluing("translation must glue opposite side labels")
            elif kind == HALF_TURN:
                if d2 != d:
                    raise InvalidGluing("half-turn must glue equal side labels")
            else:
                raise InvalidGluing(f"unknown pairing kind {kind!r}")
            partner[4 * index[c] + d] = 4 * index[c2] + d2
        self.partner = np.array(partner, dtype=np.int64)

    @classmethod
    def from_partner(cls, cells, partner):
        """The complex of ``cells`` glued by the slot-partner array ``partner``,
        taken as it is: no pairing is checked."""
        cpx = cls.__new__(cls)
        cpx._set_cells(cells)
        cpx.partner = np.asarray(partner, dtype=np.int64)
        return cpx

    def _set_cells(self, cells):
        self.cells = list(cells)
        self.cell_index = {c: k for k, c in enumerate(self.cells)}
        if len(self.cell_index) != len(self.cells):
            raise InvalidGluing("duplicate cell ids")
        self._vertex_classes = None

    @functools.cached_property
    def pairings(self):
        """The gluing as a read-only mapping (cell, side) -> (cell', side',
        kind), both directions, read off ``partner`` on first use."""
        cells = self.cells
        slots = np.flatnonzero(self.partner >= 0)
        return MappingProxyType({
            (cells[s >> 2], s & 3): (cells[p >> 2], p & 3,
                                     HALF_TURN if s & 3 == p & 3 else TRANSLATION)
            for s, p in zip(slots.tolist(), self.partner[slots].tolist())})

    # -- basic counts -------------------------------------------------------

    @property
    def n_cells(self):
        return len(self.cells)

    # -- vertex classes -----------------------------------------------------

    def vertex_classes(self):
        """All lattice points, each a VertexClass with its corner fan, in the
        order of their smallest corner id (`corner_fans`)."""
        if self._vertex_classes is None:
            closed, chains = corner_fans(self.partner)
            fans = [(fan, boundary) for groups, boundary in ((closed, False), (chains, True))
                    for rows in groups.values() for fan in rows.tolist()]
            fans.sort(key=lambda entry: min(entry[0]))
            cells = self.cells
            self._vertex_classes = [VertexClass(tuple((cells[c >> 2], c & 3) for c in fan),
                                                boundary) for fan, boundary in fans]
        return self._vertex_classes

    def vertex_class_of(self, c, k):
        for vc in self.vertex_classes():
            if (c, k) in vc.corners:
                return vc
        raise UnknownPoint((c, k))

    def n_components(self):
        """Number of connected components of the cells under the pairings."""
        partner = self.partner.tolist()
        seen = [False] * self.n_cells
        count = 0
        for t in range(self.n_cells):
            if seen[t]:
                continue
            count += 1
            seen[t] = True
            stack = [t]
            while stack:
                u = stack.pop()
                for slot in partner[4 * u:4 * u + 4]:
                    if slot >= 0 and not seen[slot >> 2]:
                        seen[slot >> 2] = True
                        stack.append(slot >> 2)
        return count

    def n_side_classes(self):
        """Paired side pairs plus boundary sides."""
        return (len(self.partner) + int(np.count_nonzero(self.partner < 0))) // 2

    def euler_characteristic(self):
        return len(self.vertex_classes()) - self.n_side_classes() + self.n_cells

    def gauss_bonnet_defect(self):
        """Sum of angle defects minus 2*pi*chi, as an integer multiple of pi/2:
        a boundary point of k quadrants has defect pi - k*pi/2, an interior
        one 2*pi - k*pi/2."""
        return (sum((2 if vc.boundary else 4) - vc.quadrants for vc in self.vertex_classes())
                - 4 * self.euler_characteristic())

    # -- refinement ---------------------------------------------------------

    def refine(self, n):
        """Subdivide every cell into an n x n block of subcells.

        Subcell ids are (cell, i, j) with 0 <= i, j < n, i along x and j
        along y of the parent chart, cell major; the gluing is
        `refined_partner`.
        """
        require_subdivision(n)
        cells = [(c, i, j) for c in self.cells for i in range(n) for j in range(n)]
        return SquareComplex.from_partner(cells, refined_partner(self.partner, n))

    @staticmethod
    def glue(pairings, slot_a, slot_b, kind=TRANSLATION):
        """Pair the (cell, side) slots ``slot_a`` and ``slot_b`` in ``pairings``,
        stored in both directions as SquareComplex takes them.

        A slot that is already paired loses its old partner: the constructors
        glue a whole block, then re-glue some of its sides elsewhere.  The
        displaced partner keeps a stale entry until it is glued again too;
        SquareComplex rejects a stale entry as InvalidGluing.
        """
        pairings[slot_a] = (slot_b[0], slot_b[1], kind)
        pairings[slot_b] = (slot_a[0], slot_a[1], kind)

    @staticmethod
    def glue_block(pairings, prefix, a, b, periodic=(False, False)):
        """Glue the a x b block of cells ``prefix + (i, j)``, i along x and j
        along y: E to W and N to S between neighbours, and also across side a
        (x) or side b (y) where ``periodic`` says that side is periodic.

        Returns the block's cell ids, i major.
        """
        periodic_a, periodic_b = periodic
        ids = [[prefix + (i, j) for j in range(b)] for i in range(a)]
        glue = SquareComplex.glue
        for i in range(a):
            for j in range(b):
                if i + 1 < a or periodic_a:
                    glue(pairings, (ids[i][j], E), (ids[(i + 1) % a][j], W))
                if j + 1 < b or periodic_b:
                    glue(pairings, (ids[i][j], N), (ids[i][(j + 1) % b], S))
        return [c for column in ids for c in column]

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
