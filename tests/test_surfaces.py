"""Surface constructors, angle data, Gauss-Bonnet, rescaling, JSON specs."""

import ast
import hashlib
from pathlib import Path

import numpy as np
import pytest

from torsionlab import surfaces
from torsionlab.complexes import E, N, S, TRANSLATION, W, SquareComplex
from torsionlab.errors import InvalidGluing, UnknownPoint, UnsupportedAngle
from oracles import dict_vertex_classes

MODEL_DATA = [
    # surface, area, perimeter, cone angles (units pi/2), corner angles (units pi/2)
    (surfaces.rectangle(4, 4), 16, 16, [], [1] * 4),
    (surfaces.rectangle(1, 2), 2, 6, [], [1] * 4),
    (surfaces.torus(1, 1), 1, 0, [], []),
    (surfaces.torus(2, 3), 6, 0, [], []),
    (surfaces.cylinder(3, 1), 3, 6, [], []),
    (surfaces.cylinder(2, 4), 8, 4, [], []),
    (surfaces.cone_model(1), 8, 8, [2], [1] * 2),
    (surfaces.cone_model(3), 24, 24, [6], [1] * 6),
    (surfaces.cone_model(4), 32, 32, [8], [1] * 8),
    (surfaces.cone_model(5), 40, 40, [10], [1] * 10),
    (surfaces.cone_model(6), 48, 48, [12], [1] * 12),
    (surfaces.lshape(), 12, 16, [], [1] * 5 + [3]),
    (surfaces.slit(), 16, 20, [], [1] * 6 + [4]),
    (surfaces.angle_model(5), 20, 24, [], [1] * 7 + [5]),
    (surfaces.angle_model(6), 24, 28, [], [1] * 8 + [6]),
]


@pytest.mark.parametrize("surf,area,perim,cones,corners", MODEL_DATA,
                         ids=[m[0].name for m in MODEL_DATA])
def test_model_counts(surf, area, perim, cones, corners):
    s = surfaces.geometry_summary(surf)
    assert s.area == area
    assert s.perimeter == perim
    assert s.cone_quadrants == cones
    assert s.corner_quadrants == corners
    assert (s.perimeter == 0) == bool(np.all(surf.complex.partner >= 0))


@pytest.mark.parametrize("surf", [m[0] for m in MODEL_DATA],
                         ids=[m[0].name for m in MODEL_DATA])
def test_gauss_bonnet(surf):
    assert surfaces.gauss_bonnet_defect(surf) == 0


def test_euler_characteristics():
    assert surfaces.geometry_summary(surfaces.rectangle(3, 2)).euler_char == 1
    assert surfaces.geometry_summary(surfaces.torus(2, 2)).euler_char == 0
    assert surfaces.geometry_summary(surfaces.cylinder(3, 2)).euler_char == 0
    assert surfaces.geometry_summary(surfaces.lshape()).euler_char == 1
    assert surfaces.geometry_summary(surfaces.cone_model(4)).euler_char == 1


def test_lshape_gauss_bonnet_by_hand():
    # five right corners and one 3 pi/2 corner: 5 (pi/2) - pi/2 = 2 pi chi,
    # in quarter turns sum (2 - q) = 4 chi
    s = surfaces.geometry_summary(surfaces.lshape())
    assert sum(2 - q for q in s.corner_quadrants) == 4 * s.euler_char


def test_cone_model_rejects_2pi():
    with pytest.raises(UnsupportedAngle):
        surfaces.cone_model(2)
    with pytest.raises(UnsupportedAngle):
        surfaces.angle_model(2)


def test_rescale_counts_and_composition():
    base = surfaces.rectangle(1, 1)
    s2 = surfaces.geometry_summary(surfaces.rescale(base, 2))
    assert s2.area == 4 and s2.perimeter == 8
    assert s2.corner_quadrants == [1, 1, 1, 1]
    t3 = surfaces.geometry_summary(surfaces.rescale(surfaces.torus(1, 1), 3))
    assert t3.area == 9 and t3.perimeter == 0
    # composition: tile counts and angle data of rescale(rescale(s,2),3) match rescale(s,6)
    a = surfaces.rescale(surfaces.rescale(surfaces.lshape(), 2), 3)
    b = surfaces.rescale(surfaces.lshape(), 6)
    sa, sb = surfaces.geometry_summary(a), surfaces.geometry_summary(b)
    assert (sa.area, sa.perimeter) == (sb.area, sb.perimeter)
    assert sa.corner_quadrants == sb.corner_quadrants


def test_rescale_preserves_angles():
    for surf in (surfaces.cone_model(1), surfaces.slit()):
        s1 = surfaces.geometry_summary(surf)
        s2 = surfaces.geometry_summary(surfaces.rescale(surf, 2))
        assert s2.area == 4 * s1.area
        assert s2.perimeter == 2 * s1.perimeter
        assert s2.cone_quadrants == s1.cone_quadrants
        assert s2.corner_quadrants == s1.corner_quadrants


def test_raw_gluing_validation():
    # pairing must be an involution: one-sided entries are rejected at build
    with pytest.raises(InvalidGluing):
        surfaces.build_surface({"kind": "raw", "tiles": [0, 1],
                                "pairings": [[[0, "E"], [1, "W"], "translation"],
                                             [[0, "E"], [1, "E"], "translation"]]})
    # translation must join opposite side labels
    with pytest.raises(InvalidGluing):
        surfaces.from_raw([0, 1], [((0, "E"), (1, "E"), "translation")])
    # half-turn must join equal side labels
    with pytest.raises(InvalidGluing):
        surfaces.from_raw([0, 1], [((0, "E"), (1, "W"), "half-turn")])
    # a side glued to itself is a fixed point of the involution
    with pytest.raises(InvalidGluing):
        surfaces.from_raw([0], [((0, "E"), (0, "E"), "half-turn")])


def test_raw_cylinder_round_trip():
    spec = {"kind": "raw", "tiles": [0, 1, 2],
            "pairings": [[[0, "E"], [1, "W"], "translation"],
                         [[1, "E"], [2, "W"], "translation"],
                         [[2, "E"], [0, "W"], "translation"]]}
    surf = surfaces.build_surface(spec)
    s = surfaces.geometry_summary(surf)
    assert s.area == 3 and s.perimeter == 6 and not s.cone_quadrants


def test_raw_half_turn_fold():
    # a 2x1 strip folded onto itself along the bottom: one cone of angle pi
    spec = {"kind": "raw", "tiles": [0, 1],
            "pairings": [[[0, "E"], [1, "W"], "translation"],
                         [[0, "S"], [1, "S"], "half-turn"]]}
    surf = surfaces.build_surface(spec)
    s = surfaces.geometry_summary(surf)
    assert s.area == 2 and s.perimeter == 4
    assert s.cone_quadrants == [2]
    assert s.corner_quadrants == [1, 1]


def _random_valid_gluing(rng, n_tiles):
    """Random fixed-point-free partial matching of side slots with legal kinds."""
    tiles = list(range(n_tiles))
    horiz = [(t, s) for t in tiles for s in ("E", "W")]
    vert = [(t, s) for t in tiles for s in ("N", "S")]
    pairings = []
    for group in (horiz, vert):
        rng.shuffle(group)
        k = len(group) // 2
        n_pairs = rng.integers(0, k + 1)
        used = set()
        for a, b in zip(group[:n_pairs], group[n_pairs:2 * n_pairs]):
            if a[1] == b[1]:
                kind = "half-turn"
            else:
                kind = "translation"
            pairings.append(((a[0], a[1]), (b[0], b[1]), kind))
    return tiles, pairings


def test_random_gluings_gauss_bonnet():
    rng = np.random.default_rng(2718)
    accepted = 0
    for _ in range(60):
        tiles, pairings = _random_valid_gluing(rng, int(rng.integers(1, 7)))
        try:
            surf = surfaces.from_raw(tiles, pairings)
        except InvalidGluing:
            continue
        accepted += 1
        assert surfaces.gauss_bonnet_defect(surf) == 0
    assert accepted >= 20


def test_build_surface_json_kinds():
    assert surfaces.build_surface({"kind": "rectangle", "a": 2, "b": 3}).complex.cells
    assert surfaces.build_surface('{"kind": "torus", "a": 1, "b": 1}').kind == "torus"
    assert surfaces.build_surface({"kind": "lshape"}).name == "lshape"
    assert surfaces.build_surface({"kind": "slit"}).name == "slit"
    assert surfaces.build_surface({"kind": "cone", "k": 4}).params["k"] == 4
    assert surfaces.build_surface({"kind": "angle", "k": 5}).params["k"] == 5
    with pytest.raises(InvalidGluing):
        surfaces.build_surface({"kind": "rectangle", "a": 0, "b": 2})
    with pytest.raises(InvalidGluing):
        surfaces.build_surface({"kind": "nonsense"})


NAMED_SPECS = [
    {"kind": "rectangle", "a": 2, "b": 3}, {"kind": "torus", "a": 2, "b": 3},
    {"kind": "cylinder", "a": 3, "b": 2}, {"kind": "lshape"}, {"kind": "slit"},
    {"kind": "angle", "k": 5}, {"kind": "cone", "k": 1}, {"kind": "cone", "k": 3},
    {"kind": "cone", "k": 4}]


def test_spec_round_trip():
    assert {spec["kind"] for spec in NAMED_SPECS} == set(surfaces.NAMED_KINDS)
    for spec in NAMED_SPECS:
        surf = surfaces.build_surface(spec)
        again = surfaces.build_surface(surfaces.surface_to_spec(surf))
        assert again.name == surf.name
        assert again.complex.cells == surf.complex.cells
        assert again.complex.pairings == surf.complex.pairings
        s1, s2 = surfaces.geometry_summary(surf), surfaces.geometry_summary(again)
        assert (s1.area, s1.perimeter, s1.cone_quadrants, s1.corner_quadrants) == \
               (s2.area, s2.perimeter, s2.cone_quadrants, s2.corner_quadrants)


# every constructor's gluing, pinned: each NAMED_KINDS kind -> sha256 (first
# 16 hex digits) of the sorted reprs of the cells and of the pairing mapping
# of its specs below, and the same of their refine(3)
GLUING_SPECS = (
    [{"kind": kind, "a": a, "b": b} for kind in ("rectangle", "torus", "cylinder")
     for a in (1, 2, 3) for b in (1, 2)]
    + [{"kind": "lshape"}, {"kind": "slit"}]
    + [{"kind": "angle", "k": k} for k in range(3, 10)]
    + [{"kind": "cone", "k": k} for k in (1, *range(3, 10))])
GLUING_DIGESTS = {
    "rectangle": ("a620eb244eda2a1d", "58b31a514f64e692"),
    "torus": ("e9cd9f1cc73d3498", "42a26e929275759e"),
    "cylinder": ("a55fbbe8848df039", "136a3573b9e20c4a"),
    "lshape": ("b31a517c279311f8", "a4f5b6bcda2ee9c2"),
    "slit": ("d84aad41aafd7af8", "ebdc1abc608abdb8"),
    "cone": ("37e1028a15810f8a", "656a44037c91341c"),
    "angle": ("b3f29975e5b12f68", "400f090cb67ef205"),
}


def _gluing_digest(cpx):
    h = hashlib.sha256()
    for r in sorted(map(repr, cpx.cells)) + sorted(map(repr, cpx.pairings.items())):
        h.update(r.encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("kind", sorted(GLUING_DIGESTS))
def test_constructor_gluing_is_pinned(kind):
    assert set(GLUING_DIGESTS) == set(surfaces.NAMED_KINDS)
    built, refined = hashlib.sha256(), hashlib.sha256()
    for spec in GLUING_SPECS:
        if spec["kind"] == kind:
            cpx = surfaces.build_surface(spec).complex
            built.update(_gluing_digest(cpx).encode())
            refined.update(_gluing_digest(cpx.refine(3)).encode())
    assert (built.hexdigest()[:16], refined.hexdigest()[:16]) == GLUING_DIGESTS[kind]


def test_product_kinds_are_compared_only_in_surfaces():
    # SEPARABLE_KINDS is the one copy of which sides are periodic: no other
    # module compares a kind with a product kind's name
    names = set(surfaces.SEPARABLE_KINDS)
    src = Path(surfaces.__file__).parent

    def named(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(named(elt) for elt in node.elts)
        return isinstance(node, ast.Constant) and node.value in names

    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "surfaces.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                    named(side) for side in [node.left, *node.comparators]):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_decodes_an_angle_from_radians():
    # angles are stored as quadrant counts: no module rounds a multiple of
    # math.pi back to an integer
    def has_pi(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "pi"
                   and isinstance(n.value, ast.Name) and n.value.id == "math"
                   for n in ast.walk(node))

    found = []
    for path in sorted(Path(surfaces.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "round" and has_pi(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_glue_block():
    pairings = {}
    assert SquareComplex.glue_block(pairings, (), 1, 1, (True, True)) == [(0, 0)]
    assert pairings == {((0, 0), E): ((0, 0), W, TRANSLATION),
                        ((0, 0), W): ((0, 0), E, TRANSLATION),
                        ((0, 0), N): ((0, 0), S, TRANSLATION),
                        ((0, 0), S): ((0, 0), N, TRANSLATION)}
    for periodic, ew, ns in (((False, False), 3, 4), ((True, False), 6, 4),
                             ((False, True), 3, 6), ((True, True), 6, 6)):
        pairings = {}
        cells = SquareComplex.glue_block(pairings, ("x",), 2, 3, periodic)
        assert cells == [("x", i, j) for i in range(2) for j in range(3)]
        sides = [d for (_, d) in pairings]
        assert (sides.count(E), sides.count(W), sides.count(N), sides.count(S)) == (ew, ew, ns, ns)
        SquareComplex(cells, pairings)


def test_glue_overwrites_a_slot_and_leaves_its_old_partner_stale():
    pairings = {}
    cells = SquareComplex.glue_block(pairings, (), 2, 1) + ["z"]
    SquareComplex.glue(pairings, ((0, 0), E), ("z", W))
    assert pairings[((0, 0), E)] == ("z", W, TRANSLATION)
    with pytest.raises(InvalidGluing):
        SquareComplex(cells, pairings)
    SquareComplex.glue(pairings, ((1, 0), W), ("z", E))
    assert SquareComplex(cells, pairings).n_components() == 1


def test_singular_point_lookup():
    surf = surfaces.lshape()
    pts = surf.singular_points()
    assert len(pts) == 6
    with pytest.raises(UnknownPoint):
        surf.singular_point("cone:99")


def test_a_vertex_walk_that_does_not_close_is_refused():
    # unvalidated: x's W side is glued one way onto the one-tile torus, so
    # the walk around x's SW corner runs on around the torus's vertex forever
    cpx = SquareComplex.from_partner([("t", 0, 0), "x"], [2, 3, 0, 1, -1, -1, 0, -1])
    with pytest.raises(InvalidGluing, match="does not close"):
        cpx.vertex_classes()
    with pytest.raises(InvalidGluing, match="does not close"):
        dict_vertex_classes(cpx)


def test_vertex_class_of_an_unknown_corner_is_refused():
    cpx = surfaces.lshape().complex
    assert (cpx.cells[0], 2) in cpx.vertex_class_of(cpx.cells[0], 2).corners
    for corner in (("nowhere", 0), (cpx.cells[0], 4)):
        with pytest.raises(UnknownPoint):
            cpx.vertex_class_of(*corner)
