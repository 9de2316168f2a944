"""Square-tiled flat surfaces with cone points and boundary corners.

A surface is stored combinatorially: unit-square tiles plus a side-pairing
involution, held as its complex's slot-partner array (``complexes``).  Every
constructor builds a (cell, side) dict, which SquareComplex validates and
reads into the array: it glues a few rectangular blocks of tiles with
SquareComplex.glue_block, then pairs or re-pairs the sides between blocks
with SquareComplex.glue.  A product surface is one block, periodic where
SEPARABLE_KINDS says; an angle model is one 2x2 block per quadrant; a cone is
one 4x4 block per sheet, plus a 4x2 flap at odd angles, or a 4x2 block
folded at its bottom.  Interior lattice points of angle k*pi (k != 2) are
cones; boundary lattice points of angle k*pi/2 (k != 2) are corners.

This module is the one place that knows the surface kinds.  SEPARABLE_KINDS
maps each product surface (rectangle, torus, cylinder) to which of its sides
a and b are periodic; its gluing, its standard cuts, and elsewhere its
factors, generator loops and embedding check all read that table.
NAMED_KINDS maps each kind that build_surface makes by name to its
constructor and spec fields; surface_to_spec writes the same fields back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import complexes as cx
from .complexes import E, N, W, S, HALF_TURN, SquareComplex
from .errors import InvalidGluing, UnknownPoint, UnsupportedAngle


@dataclass
class GeometrySummary:
    """Area, perimeter, angles and Euler characteristic; an angle q*pi/2 is stored as q."""

    area: int
    perimeter: int
    cone_quadrants: list       # sorted; even, as every cone angle is a multiple of pi
    corner_quadrants: list     # sorted
    euler_char: int


class SquareTiledSurface:
    """A flat surface tiled by unit squares, glued by translations and half-turns."""

    def __init__(self, complex_, name=None, kind=None, params=None):
        self.complex = complex_
        self.name = name
        self.kind = kind
        self.params = dict(params or {})

    # -- derived data -------------------------------------------------------

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
    """Area, perimeter, cone and corner quadrant counts and Euler characteristic."""
    cpx = surface.complex
    return GeometrySummary(
        area=cpx.n_cells,
        perimeter=int((cpx.partner < 0).sum()),
        cone_quadrants=sorted(vc.quadrants for vc in surface.cone_classes()),
        corner_quadrants=sorted(vc.quadrants for vc in surface.corner_classes()),
        euler_char=cpx.euler_characteristic(),
    )


def gauss_bonnet_defect(surface):
    """Exact angle-defect excess over 2*pi*chi, in units of pi/2 (zero iff valid)."""
    return surface.complex.gauss_bonnet_defect()


# -- constructors -----------------------------------------------------------


# kind -> (side a periodic?, side b periodic?): the product surfaces, each a
# product of two 1-D factors, a circle (periodic) or a segment (free)
SEPARABLE_KINDS = {"rectangle": (False, False), "torus": (True, True),
                   "cylinder": (True, False)}


def _product(kind, a, b):
    """The a x b grid of SEPARABLE_KINDS[kind], glued across its periodic sides."""
    pairings = {}
    cells = SquareComplex.glue_block(pairings, (), a, b, SEPARABLE_KINDS[kind])
    return SquareTiledSurface(SquareComplex(cells, pairings), name=f"{kind}({a},{b})",
                              kind=kind, params={"a": a, "b": b})


def rectangle(a, b):
    return _product("rectangle", a, b)


def torus(a, b):
    return _product("torus", a, b)


def cylinder(a, b):
    """Cylinder with circumference a (periodic) and height b (two boundary circles)."""
    return _product("cylinder", a, b)


def angle_model(k):
    """Model angle surface of corner angle k*pi/2, k >= 3: a fan of k quadrants.

    Each quadrant q is a 2x2 block of tiles (q, u, v) at the planar position
    q mod 4 (NE, NW, SW, SE); it meets quadrant q+1 along the ray between
    them, through its side (W, S, E, N)[q % 4] and the opposite side of q+1.
    4k tiles, one corner of angle k*pi/2 and k+2 right corners.
    """
    if k < 3:
        raise UnsupportedAngle(f"angle model needs k >= 3, got {k}")
    pairings = {}
    cells = []
    for q in range(k):
        cells += SquareComplex.glue_block(pairings, (q,), 2, 2)
    for q in range(k - 1):
        d = (W, S, E, N)[q % 4]
        for s in range(2):
            SquareComplex.glue(pairings, SquareComplex.refined_side(q, d, s, 2),
                               SquareComplex.refined_side(q + 1, cx.OPPOSITE[d], s, 2))
    name = {3: "lshape", 4: "slit"}.get(k, f"angle({k}pi/2)")
    return SquareTiledSurface(SquareComplex(cells, pairings), name=name,
                              kind="angle", params={"k": k})


def lshape():
    return angle_model(3)


def slit():
    return angle_model(4)


def _cone_even(k):
    """Cells and pairings of the model cone of angle 2k*pi, k >= 2: k-sheeted
    cover of a 4x4 square branched over the center.  Sheet s is cut along the
    ray from the center to the right edge; crossing the cut ascends to sheet
    s+1.  Each sheet is glued whole first, then the seam between its rows 1
    and 2 in columns 2 and 3 is re-glued to the next sheet."""
    pairings = {}
    cells = []
    for s in range(k):
        cells += SquareComplex.glue_block(pairings, (s,), 4, 4)
    for s in range(k):
        for i in (2, 3):
            SquareComplex.glue(pairings, ((s, i, 1), N), (((s + 1) % k, i, 2), S))
    return cells, pairings


def cone_model(k):
    """Model cone surface of angle k*pi, for k = 1 or k >= 3."""
    if k == 2:
        raise UnsupportedAngle("angle 2*pi is a regular point, not a cone")
    if k < 1:
        raise UnsupportedAngle(f"cone angle must be a positive multiple of pi, got {k}")
    glue = SquareComplex.glue
    if k == 1:
        # 4x2 rectangle with the bottom side folded onto itself by a half-turn
        pairings = {}
        cells = SquareComplex.glue_block(pairings, (), 4, 2)
        glue(pairings, ((0, 0), S), ((3, 0), S), HALF_TURN)
        glue(pairings, ((1, 0), S), ((2, 0), S), HALF_TURN)
        cpx = SquareComplex(cells, pairings)
    elif k % 2 == 0:
        cpx = SquareComplex(*_cone_even(k // 2))
    else:
        # odd angle (2m+1)*pi: cut one seam of the 2m*pi cone open and glue a
        # folded 4x2 flap into it; the flap's four gluings re-glue all four
        # sides of the seam
        m = k // 2
        cells, pairings = _cone_even(m)
        cells += SquareComplex.glue_block(pairings, ("f",), 4, 2)
        # right half of the flap bottom runs along the lower lip (translation);
        # left half folds back onto the upper lip (half-turn, reversed)
        glue(pairings, (("f", 2, 0), S), ((m - 1, 2, 1), N))
        glue(pairings, (("f", 3, 0), S), ((m - 1, 3, 1), N))
        glue(pairings, (("f", 1, 0), S), ((0, 2, 2), S), HALF_TURN)
        glue(pairings, (("f", 0, 0), S), ((0, 3, 2), S), HALF_TURN)
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
        SquareComplex.glue(pairings, a, b, kind)
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
    cx.require_subdivision(c)
    if c == 1:
        return surface
    refined = surface.complex.refine(c)
    name = f"rescale({surface.name},{c})"
    return SquareTiledSurface(refined, name=name, kind="rescaled",
                              params={"base": surface, "c": c})


# kind -> (constructor, its spec fields, each a positive integer): the kinds
# build_surface makes by name, and surface_to_spec writes back
NAMED_KINDS = {"rectangle": (rectangle, ("a", "b")), "torus": (torus, ("a", "b")),
               "cylinder": (cylinder, ("a", "b")), "lshape": (lshape, ()),
               "slit": (slit, ()), "cone": (cone_model, ("k",)),
               "angle": (angle_model, ("k",))}


def build_surface(spec):
    """Build a surface from a JSON-style dict spec: a kind of NAMED_KINDS with
    its fields, or raw (fields tiles, pairings).
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    kind = spec.get("kind")
    if kind in NAMED_KINDS:
        make, fields = NAMED_KINDS[kind]
        return make(*(_posint(spec, key) for key in fields))
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
    """Inverse of build_surface: the named spec of a NAMED_KINDS surface, else raw."""
    if surface.kind in NAMED_KINDS:
        _, fields = NAMED_KINDS[surface.kind]
        return {"kind": surface.kind, **{key: surface.params[key] for key in fields}}
    tiles = [list(c) if isinstance(c, tuple) else c for c in surface.complex.cells]
    pairs = [[[tiles[s >> 2], cx.SIDE_NAMES[s & 3]], [tiles[p >> 2], cx.SIDE_NAMES[p & 3]],
              HALF_TURN if s & 3 == p & 3 else cx.TRANSLATION]
             for s, p in enumerate(surface.complex.partner.tolist()) if s < p]
    return {"kind": "raw", "tiles": tiles, "pairings": pairs}


# -- homotopy cuts for the flat constructors --------------------------------


def standard_cuts(surface):
    """Tile-level dual cuts for the fundamental-group generators.

    One cut per periodic side of a SEPARABLE_KINDS surface, side a's first
    (the seam x = a), then side b's (the seam y = b); none on other kinds.
    Each cut maps an oriented tile side slot to +1 (crossing out of that slot
    is the positive direction); crossing the partner slot counts -1.
    """
    periodic_a, periodic_b = SEPARABLE_KINDS.get(surface.kind, (False, False))
    a = surface.params.get("a")
    b = surface.params.get("b")
    cuts = []
    if periodic_a:
        cuts.append({((a - 1, j), E): 1 for j in range(b)})
    if periodic_b:
        cuts.append({((i, b - 1), N): 1 for i in range(a)})
    return cuts
