"""Square-tiled flat surfaces with cone points and boundary corners.

A surface is stored combinatorially: unit-square tiles plus a side-pairing
involution tagged translation / half-turn.  Interior lattice points of angle
k*pi (k != 2) are cones; boundary lattice points of angle k*pi/2 (k != 2)
are corners.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import complexes as cx
from .complexes import E, N, W, S, TRANSLATION, HALF_TURN, SquareComplex
from .errors import InvalidGluing, UnknownPoint, UnsupportedAngle


@dataclass
class GeometrySummary:
    """Area, perimeter, angle data and Euler characteristic of a surface."""

    area: int
    perimeter: int
    cone_angles: list          # multiset of angles, multiples of pi
    corner_angles: list        # multiset of angles, multiples of pi/2
    euler_char: int
    right_angle_count: int
    nonright_angle_multiset: list

    def corner_angles_over_half_pi(self):
        return sorted(round(a / (math.pi / 2)) for a in self.corner_angles)


class SquareTiledSurface:
    """A flat surface tiled by unit squares, glued by translations and half-turns."""

    def __init__(self, complex_, name=None, kind=None, params=None):
        self.complex = complex_
        self.name = name
        self.kind = kind
        self.params = dict(params or {})
        self._check_angles()

    def _check_angles(self):
        # every lattice point must have a positive number of quadrants;
        # interior points of angle 2*pi and boundary points of angle pi are regular
        for vc in self.complex.vertex_classes():
            if vc.quadrants < 1:
                raise InvalidGluing("empty vertex link")

    # -- derived data -------------------------------------------------------

    @property
    def tiles(self):
        return self.complex.cells

    @property
    def boundary_sides(self):
        return self.complex.boundary_slots()

    def cone_classes(self):
        return [vc for vc in self.complex.vertex_classes()
                if not vc.boundary and vc.quadrants != 4]

    def corner_classes(self):
        return [vc for vc in self.complex.vertex_classes()
                if vc.boundary and vc.quadrants != 2]

    def singular_points(self):
        """Ordered mapping point-id -> VertexClass for cones and corners."""
        def key(vc):
            return [(tuple(map(str, c)) if isinstance(c, tuple) else (str(c),), k)
                    for c, k in vc.corners]

        out = {}
        for k, vc in enumerate(sorted(self.cone_classes(), key=key)):
            out[f"cone:{k}"] = vc
        for k, vc in enumerate(sorted(self.corner_classes(), key=key)):
            out[f"corner:{k}"] = vc
        return out

    def singular_point(self, point_id):
        try:
            return self.singular_points()[point_id]
        except KeyError:
            raise UnknownPoint(point_id) from None


def geometry_summary(surface):
    """Area, perimeter, angle multisets and Euler characteristic."""
    cpx = surface.complex
    cones = surface.cone_classes()
    corners = surface.corner_classes()
    corner_angles = sorted(vc.quadrants * math.pi / 2 for vc in corners)
    nonright = [a for a in corner_angles if abs(a - math.pi / 2) > 1e-12]
    return GeometrySummary(
        area=cpx.n_cells,
        perimeter=len(cpx.boundary_slots()),
        cone_angles=sorted(vc.quadrants * math.pi / 2 for vc in cones),
        corner_angles=corner_angles,
        euler_char=cpx.euler_characteristic(),
        right_angle_count=len(corner_angles) - len(nonright),
        nonright_angle_multiset=nonright,
    )


def gauss_bonnet_defect(surface):
    """Exact angle-defect excess over 2*pi*chi, in units of pi/2 (zero iff valid)."""
    return surface.complex.gauss_bonnet_defect()


# -- constructors -----------------------------------------------------------


def _grid_pairings(a, b, wrap_x=False, wrap_y=False):
    pairings = {}

    def add(sa, sb, kind=TRANSLATION):
        pairings[sa] = (sb[0], sb[1], kind)
        pairings[sb] = (sa[0], sa[1], kind)

    for i in range(a):
        for j in range(b):
            if i + 1 < a:
                add(((i, j), E), ((i + 1, j), W))
            elif wrap_x:
                add(((i, j), E), (((0, j)), W))
            if j + 1 < b:
                add(((i, j), N), ((i, j + 1), S))
            elif wrap_y:
                add(((i, j), N), ((i, 0), S))
    cells = [(i, j) for i in range(a) for j in range(b)]
    return cells, pairings


def rectangle(a, b):
    cells, pairings = _grid_pairings(a, b)
    return SquareTiledSurface(SquareComplex(cells, pairings), name=f"rectangle({a},{b})",
                              kind="rectangle", params={"a": a, "b": b})


def torus(a, b):
    cells, pairings = _grid_pairings(a, b, wrap_x=True, wrap_y=True)
    return SquareTiledSurface(SquareComplex(cells, pairings), name=f"torus({a},{b})",
                              kind="torus", params={"a": a, "b": b})


def cylinder(a, b):
    """Cylinder with circumference a (periodic) and height b (two boundary circles)."""
    cells, pairings = _grid_pairings(a, b, wrap_x=True)
    return SquareTiledSurface(SquareComplex(cells, pairings), name=f"cylinder({a},{b})",
                              kind="cylinder", params={"a": a, "b": b})


def angle_model(k):
    """Model angle surface of corner angle k*pi/2, k >= 3: a fan of k quadrants.

    Each quadrant is a 2x2 block of tiles; consecutive quadrants are glued
    along the ray between them.  4k tiles, one corner of angle k*pi/2 and
    k+2 right corners.
    """
    if k < 3:
        raise UnsupportedAngle(f"angle model needs k >= 3, got {k}")
    cells = [(q, u, v) for q in range(k) for u in range(2) for v in range(2)]
    pairings = {}

    def add(sa, sb, kind=TRANSLATION):
        pairings[sa] = (sb[0], sb[1], kind)
        pairings[sb] = (sa[0], sa[1], kind)

    for q in range(k):
        for v in range(2):
            add(((q, 0, v), E), ((q, 1, v), W))
        for u in range(2):
            add(((q, u, 0), N), ((q, u, 1), S))
    # glue quadrant q to q+1 along the shared ray; which sides depends on the
    # planar position q mod 4 (NE, NW, SW, SE)
    for q in range(k - 1):
        pos = q % 4
        if pos == 0:    # NE -> NW: NE's W column to NW's E column, heights match
            for v in range(2):
                add(((q, 0, v), W), ((q + 1, 1, v), E))
        elif pos == 1:  # NW -> SW: NW's S row to SW's N row
            for u in range(2):
                add(((q, u, 0), S), ((q + 1, u, 1), N))
        elif pos == 2:  # SW -> SE: SW's E column to SE's W column
            for v in range(2):
                add(((q, 1, v), E), ((q + 1, 0, v), W))
        else:           # SE -> NE: SE's N row to NE's S row
            for u in range(2):
                add(((q, u, 1), N), ((q + 1, u, 0), S))
    name = {3: "lshape", 4: "slit"}.get(k, f"angle({k}pi/2)")
    return SquareTiledSurface(SquareComplex(cells, pairings), name=name,
                              kind="angle", params={"k": k})


def lshape():
    return angle_model(3)


def slit():
    return angle_model(4)


def _cone_even(k):
    """Model cone of angle 2k*pi, k >= 2: k-sheeted cover of a 4x4 square
    branched over the center.  Sheet s is cut along the ray from the center
    to the right edge; crossing the cut ascends to sheet s+1."""
    cells = [(s, i, j) for s in range(k) for i in range(4) for j in range(4)]
    pairings = {}

    def add(sa, sb, kind=TRANSLATION):
        pairings[sa] = (sb[0], sb[1], kind)
        pairings[sb] = (sa[0], sa[1], kind)

    for s in range(k):
        for i in range(4):
            for j in range(4):
                if i + 1 < 4:
                    add(((s, i, j), E), ((s, i + 1, j), W))
                if j + 1 < 4:
                    if j == 1 and i >= 2:
                        continue  # seam between rows 1 and 2 for columns 2,3
                    add(((s, i, j), N), ((s, i, j + 1), S))
        for i in (2, 3):
            add(((s, i, 1), N), (((s + 1) % k, i, 2), S))
    return SquareComplex(cells, pairings)


def cone_model(k):
    """Model cone surface of angle k*pi, for k = 1 or k >= 3."""
    if k == 2:
        raise UnsupportedAngle("angle 2*pi is a regular point, not a cone")
    if k < 1:
        raise UnsupportedAngle(f"cone angle must be a positive multiple of pi, got {k}")
    if k == 1:
        # 4x2 rectangle with the bottom side folded onto itself by a half-turn
        cells = [(i, j) for i in range(4) for j in range(2)]
        pairings = {}

        def add(sa, sb, kind=TRANSLATION):
            pairings[sa] = (sb[0], sb[1], kind)
            pairings[sb] = (sa[0], sa[1], kind)

        for i in range(4):
            for j in range(2):
                if i + 1 < 4:
                    add(((i, j), E), ((i + 1, j), W))
                if j + 1 < 2:
                    add(((i, j), N), ((i, j + 1), S))
        add(((0, 0), S), ((3, 0), S), HALF_TURN)
        add(((1, 0), S), ((2, 0), S), HALF_TURN)
        cpx = SquareComplex(cells, pairings)
    elif k % 2 == 0:
        cpx = _cone_even(k // 2)
    else:
        # odd angle (2m+1)*pi: cut one seam of the 2m*pi cone open and glue a
        # folded 4x2 flap into it
        m = k // 2
        base = _cone_even(m)
        pairings = dict(base.pairings)

        def rm(sa):
            sb = pairings.pop(sa)
            del pairings[(sb[0], sb[1])]

        def add(sa, sb, kind=TRANSLATION):
            pairings[sa] = (sb[0], sb[1], kind)
            pairings[sb] = (sa[0], sa[1], kind)

        for i in (2, 3):
            rm(((m - 1, i, 1), N))
        cells = list(base.cells) + [("f", i, j) for i in range(4) for j in range(2)]
        for i in range(4):
            for j in range(2):
                if i + 1 < 4:
                    add((("f", i, j), E), (("f", i + 1, j), W))
                if j + 1 < 2:
                    add((("f", i, j), N), (("f", i, j + 1), S))
        # right half of the flap bottom runs along the lower lip (translation);
        # left half folds back onto the upper lip (half-turn, reversed)
        add((("f", 2, 0), S), ((m - 1, 2, 1), N))
        add((("f", 3, 0), S), ((m - 1, 3, 1), N))
        add((("f", 1, 0), S), ((0, 2, 2), S), HALF_TURN)
        add((("f", 0, 0), S), ((0, 3, 2), S), HALF_TURN)
        cpx = SquareComplex(cells, pairings)
    return SquareTiledSurface(cpx, name=f"cone({k}pi)", kind="cone", params={"k": k})


def from_raw(tiles, pairing_list):
    """Surface from explicit tile ids and pairing triples.

    ``pairing_list``: iterable of ((tile, side_name), (tile, side_name), kind).
    """
    tiles = list(tiles)
    if not tiles:
        raise InvalidGluing("a surface needs at least one tile")
    pairings = {}
    for (t1, s1), (t2, s2), kind in pairing_list:
        a = (t1, _side_from_name(s1))
        b = (t2, _side_from_name(s2))
        if a in pairings or b in pairings:
            raise InvalidGluing(f"side listed twice: {a} or {b}")
        pairings[a] = (b[0], b[1], kind)
        pairings[b] = (a[0], a[1], kind)
    surface = SquareTiledSurface(SquareComplex(tiles, pairings), name="raw",
                                 kind="raw", params={})
    if gauss_bonnet_defect(surface) != 0:
        raise InvalidGluing("Gauss-Bonnet defect nonzero: gluing inconsistent")
    return surface


def _side_from_name(s):
    if isinstance(s, int):
        if s in (E, N, W, S):
            return s
        raise InvalidGluing(f"bad side {s}")
    try:
        return cx.SIDE_FROM_NAME[s.upper()]
    except (KeyError, AttributeError):
        raise InvalidGluing(f"bad side name {s!r}") from None


def rescale(surface, c):
    """Replace every tile by a c x c block of unit tiles."""
    if c < 1:
        raise ValueError("scale factor must be >= 1")
    if c == 1:
        return surface
    refined = surface.complex.refine(c)
    name = f"rescale({surface.name},{c})"
    return SquareTiledSurface(refined, name=name, kind="rescaled",
                              params={"base": surface, "c": c,
                                      "base_kind": surface.kind,
                                      "base_params": surface.params})


def build_surface(spec):
    """Build a surface from a JSON-style dict spec.

    Kinds: rectangle, torus, cylinder (fields a, b), lshape, slit,
    cone / angle (field k), raw (fields tiles, pairings).
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    kind = spec.get("kind")
    if kind == "rectangle":
        return rectangle(_posint(spec, "a"), _posint(spec, "b"))
    if kind == "torus":
        return torus(_posint(spec, "a"), _posint(spec, "b"))
    if kind == "cylinder":
        return cylinder(_posint(spec, "a"), _posint(spec, "b"))
    if kind == "lshape":
        return lshape()
    if kind == "slit":
        return slit()
    if kind == "cone":
        return cone_model(_posint(spec, "k"))
    if kind == "angle":
        return angle_model(_posint(spec, "k"))
    if kind == "raw":
        tiles, pairings = spec.get("tiles"), spec.get("pairings")
        if not isinstance(tiles, list) or not isinstance(pairings, list):
            raise InvalidGluing("a raw surface needs a list of tiles and a list of pairings")
        plist = []
        for entry in pairings:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 3
                    and all(isinstance(side, (list, tuple)) and len(side) == 2
                            for side in entry[:2])):
                raise InvalidGluing(f"pairing {entry!r} is not [[tile, side], [tile, side], kind]")
            (t1, s1), (t2, s2), kind_ = entry
            plist.append(((_tile_id(t1), s1), (_tile_id(t2), s2), kind_))
        return from_raw([_tile_id(t) for t in tiles], plist)
    raise InvalidGluing(f"unknown surface kind {kind!r}")


def _tile_id(t):
    """A raw spec's tile id, a list read as a tuple; it must be hashable."""
    t = tuple(t) if isinstance(t, list) else t
    try:
        hash(t)
    except TypeError:
        raise InvalidGluing(f"tile id {t!r} is not a number, a string or a list of them") from None
    return t


def _posint(spec, key):
    v = spec.get(key)
    if not isinstance(v, int) or v < 1:
        raise InvalidGluing(f"field {key!r} must be a positive integer, got {v!r}")
    return v


def surface_to_spec(surface):
    """Inverse of build_surface for the named constructors."""
    if surface.kind in ("rectangle", "torus", "cylinder"):
        return {"kind": surface.kind, "a": surface.params["a"], "b": surface.params["b"]}
    if surface.kind == "angle":
        k = surface.params["k"]
        if k == 3:
            return {"kind": "lshape"}
        if k == 4:
            return {"kind": "slit"}
        return {"kind": "angle", "k": k}
    if surface.kind == "cone":
        return {"kind": "cone", "k": surface.params["k"]}
    pairs = []
    done = set()
    for (c, d), (c2, d2, kind) in surface.complex.pairings.items():
        key = frozenset(((c, d), (c2, d2)))
        if key in done:
            continue
        done.add(key)
        pairs.append([[list(c) if isinstance(c, tuple) else c, cx.SIDE_NAMES[d]],
                      [list(c2) if isinstance(c2, tuple) else c2, cx.SIDE_NAMES[d2]],
                      kind])
    tiles = [list(c) if isinstance(c, tuple) else c for c in surface.complex.cells]
    return {"kind": "raw", "tiles": tiles, "pairings": pairs}


# -- homotopy cuts for the flat constructors --------------------------------


def standard_cuts(surface):
    """Tile-level dual cuts for the fundamental-group generators.

    Torus: two cuts (the wrap seams); cylinder: one.  Each cut maps an
    oriented tile side slot to +1 (crossing out of that slot is the positive
    direction); crossing the partner slot counts -1.
    """
    a = surface.params.get("a")
    b = surface.params.get("b")
    if surface.kind == "torus":
        cut_x = {((a - 1, j), E): 1 for j in range(b)}
        cut_y = {((i, b - 1), N): 1 for i in range(a)}
        return [cut_x, cut_y]
    if surface.kind == "cylinder":
        return [{((a - 1, j), E): 1 for j in range(b)}]
    return []
