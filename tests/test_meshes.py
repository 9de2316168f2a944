"""Discretization: counts, multiplicities, neighbor sets, isomorphisms, and the
index-array mesh against the refined complex walked as dicts (`oracles.DictMesh`)."""

import hashlib
import json
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsionlab import bundles, experiments, laplacian, meshes, surfaces
from torsionlab.complexes import (E, EXIT_SIDE, HALF_TURN, N, S, SIDE_NAMES, TRANSLATION, W,
                                  SquareComplex, refined_partner)
from torsionlab.errors import NotAClosedWalk, UnknownPoint
from oracles import (DictMesh, dict_refine, dict_vertex_classes, edge_copies, edge_ends,
                     slot_cell, slot_edges, vertex_cells)
from test_forests import glued_surfaces

ALL_MODELS = [
    surfaces.rectangle(1, 1), surfaces.rectangle(2, 3), surfaces.torus(1, 1),
    surfaces.torus(2, 2), surfaces.cylinder(3, 1), surfaces.cone_model(1),
    surfaces.cone_model(3), surfaces.cone_model(4), surfaces.lshape(),
    surfaces.slit(),
]


def _degrees(mesh):
    nv = mesh.n_vertices
    return (np.bincount(mesh.edge_u, minlength=nv) + np.bincount(mesh.edge_v, minlength=nv)).tolist()


def _boundary_vertex_ids(mesh):
    return set((np.flatnonzero(mesh.partner < 0) >> 2).tolist())


def _has_short_systole(surf, n):
    # a periodic direction of combinatorial length 2 produces extra double edges
    if surf.kind not in ("torus", "cylinder"):
        return False
    a = surf.params["a"] * n
    b = surf.params["b"] * n if surf.kind == "torus" else None
    return a == 2 or b == 2


@pytest.mark.parametrize("surf", ALL_MODELS, ids=[s.name for s in ALL_MODELS])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mesh_invariants(surf, n):
    summary = surfaces.geometry_summary(surf)
    mesh = meshes.discretize(surf, n)
    assert mesh.n_vertices == summary.area * n * n
    n_double = sum(1 for m in mesh.edge_multiplicities().values() if m == 2)
    n_pi_cones = summary.cone_quadrants.count(2)
    if not _has_short_systole(surf, n):
        assert n_double == n_pi_cones
    if not summary.cone_quadrants and not _has_short_systole(surf, n):
        assert all(m == 1 for m in mesh.edge_multiplicities().values())
    # interior vertices have degree 4; boundary-adjacent ones degree 3
    boundary = _boundary_vertex_ids(mesh)
    for v, d in enumerate(_degrees(mesh)):
        if v not in boundary:
            assert d == 4
    # every singular point has 2 * angle / pi nearest vertices
    for pid, ids in mesh.cone_neighbor_sets().items():
        assert len(ids) == surf.singular_point(pid).quadrants


def test_small_examples():
    m = meshes.discretize(surfaces.rectangle(1, 1), 2)
    assert m.n_vertices == 4 and len(m.edges) == 4
    m = meshes.discretize(surfaces.torus(1, 1), 3)
    assert m.n_vertices == 9 and len(m.edges) == 18
    assert all(d == 4 for d in _degrees(m))
    # n = 1 on the unit torus: one vertex carrying two loops
    m = meshes.discretize(surfaces.torus(1, 1), 1)
    assert m.n_vertices == 1 and len(m.edges) == 2
    assert all(u == v for u, v in edge_ends(m))


def test_cone_pi_double_edge():
    mesh = meshes.discretize(surfaces.cone_model(1), 2)
    doubles = [(uv, m) for uv, m in mesh.edge_multiplicities().items() if m == 2]
    assert len(doubles) == 1
    # the doubled pair is exactly the neighbor set of the pi cone
    (u, v), _ = doubles[0]
    (pid, ids), = [(p, i) for p, i in mesh.cone_neighbor_sets().items()
                   if p.startswith("cone")]
    assert sorted((u, v)) == sorted(ids)


def test_cone_neighbors_counts():
    mesh = meshes.discretize(surfaces.rectangle(1, 1), 2)
    for pid in mesh.surface.singular_points():
        assert len(meshes.cone_neighbors(mesh, pid)) == 1
    mesh = meshes.discretize(surfaces.cone_model(4), 2)
    cone_ids = [p for p in mesh.surface.singular_points() if p.startswith("cone")]
    assert len(meshes.cone_neighbors(mesh, cone_ids[0])) == 8
    mesh = meshes.discretize(surfaces.lshape(), 2)
    sizes = sorted(len(meshes.cone_neighbors(mesh, p))
                   for p in mesh.surface.singular_points())
    assert sizes == [1, 1, 1, 1, 1, 3]
    with pytest.raises(UnknownPoint):
        meshes.cone_neighbors(mesh, "cone:7")


def _global_coords(mesh, nested, n_inner):
    """Vertex -> (base tile, global subtile coords), flattening one nesting level."""
    out = {}
    for vid, (tile, i, j) in enumerate(vertex_cells(mesh)):
        if nested:
            base, ci, cj = tile
            out[vid] = (base, ci * n_inner + i, cj * n_inner + j)
        else:
            out[vid] = (tile, i, j)
    return out


def _edge_multiset(mesh, coords):
    return sorted(tuple(sorted((coords[u], coords[v]))) for u, v in edge_ends(mesh))


@pytest.mark.parametrize("surf", [surfaces.lshape(), surfaces.cone_model(1),
                                  surfaces.torus(1, 1)],
                         ids=["lshape", "cone-pi", "torus"])
@pytest.mark.parametrize("c,n", [(2, 1), (2, 2), (3, 1)])
def test_rescale_discretize_isomorphism(surf, c, n):
    fine = meshes.discretize(surf, c * n)
    coarse = meshes.discretize(surfaces.rescale(surf, c), n)
    assert _edge_multiset(coarse, _global_coords(coarse, True, n)) == \
        _edge_multiset(fine, _global_coords(fine, False, None))


def test_faces():
    mesh = meshes.discretize(surfaces.torus(2, 2), 2)
    faces = mesh.faces()
    assert len(faces) == 16 and all(len(f) == 4 for f in faces)
    mesh = meshes.discretize(surfaces.cone_model(1), 2)
    lens = sorted(len(f) for f in mesh.faces())
    assert lens[0] == 2 and set(lens[1:]) == {4}
    # ring around a 6 pi cone has 12 edges
    mesh = meshes.discretize(surfaces.cone_model(6), 2)
    assert max(len(f) for f in mesh.faces()) == 12


@pytest.mark.parametrize("surf", [surfaces.torus(1, 1), surfaces.torus(2, 1),
                                  surfaces.cylinder(3, 1), surfaces.cone_model(1)],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("n", [1, 3])
def test_slot_map_and_refined_cuts(surf, n):
    mesh = meshes.discretize(surf, n)
    slot_edge, edges = slot_edges(mesh), edge_copies(mesh)
    assert set(slot_edge) == set(DictMesh(mesh).complex.pairings)
    for idx, e in enumerate(edges):
        assert slot_edge[e.slot_u] == (idx, +1) and slot_edge[e.slot_v] == (idx, -1)
    # an edge crosses a cut when one of its slots lies on a subside of a cut tile side
    on_side = {E: lambda i, j: i == n - 1, W: lambda i, j: i == 0,
               N: lambda i, j: j == n - 1, S: lambda i, j: j == 0}
    cuts = surfaces.standard_cuts(surf)
    for cut, ecut in zip(cuts, mesh.refine_cuts(cuts)):
        want = {}
        for idx, e in enumerate(edges):
            for ((tile, i, j), d), direction in ((e.slot_u, +1), (e.slot_v, -1)):
                if (tile, d) in cut and on_side[d](i, j):
                    want[idx] = direction * cut[(tile, d)]
        got = {idx: sign for idx, sign in enumerate(ecut.tolist()) if sign}
        assert got == want and len(want) == len(cut) * n


def test_edges_csv():
    mesh = meshes.discretize(surfaces.rectangle(1, 1), 2)
    csv = mesh.edges_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "u,v,multiplicity"
    assert len(lines) == 1 + 4
    assert all(line.endswith(",1") for line in lines[1:])


def test_boundary_vertices():
    mesh = meshes.discretize(surfaces.rectangle(2, 2), 2)
    assert len(_boundary_vertex_ids(mesh)) == 12   # 4n boundary ring of a 4x4 grid
    mesh = meshes.discretize(surfaces.torus(2, 2), 2)
    assert not _boundary_vertex_ids(mesh)


# -- the index-array mesh against the refined complex walked as dicts -----------

EVERY_KIND = [
    surfaces.torus(2, 1), surfaces.cylinder(2, 2), surfaces.rectangle(2, 1),
    surfaces.lshape(), surfaces.slit(),
    *[surfaces.cone_model(k) for k in (1, 3, 4, 5, 6)],
    *[surfaces.angle_model(k) for k in (3, 5, 6)],
]


def assert_matches_dict_walk(mesh):
    oracle = DictMesh(mesh)
    oracle.check(mesh)
    if oracle.edges:
        lap = laplacian.assemble(bundles.trivial_connection(mesh, 1))
        assert np.array_equal(lap, oracle.laplacian([np.eye(1, dtype=complex)] * len(oracle.edges)))
    return oracle


@pytest.mark.parametrize("surf", EVERY_KIND, ids=lambda s: s.name)
def test_array_mesh_matches_dict_walk(surf):
    for n in range(1, 7):
        assert_matches_dict_walk(meshes.discretize(surf, n))


@pytest.mark.parametrize("surf", [surfaces.torus(2, 1), surfaces.torus(1, 3),
                                  surfaces.cylinder(3, 1), surfaces.cylinder(2, 2)],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_random_flat_bundle_laplacian_matches_dict_walk(surf, rank):
    rng = np.random.default_rng(41 + rank)
    for n in range(1, 7):
        mesh = meshes.discretize(surf, n)
        oracle = DictMesh(mesh)
        rep = bundles.random_flat_representation(surf, rank, rng)
        conn = bundles.connection_from_holonomy(mesh, rep)
        want = oracle.transports(rep, surfaces.standard_cuts(surf))
        assert np.array_equal(conn.transports, np.array(want))
        assert np.array_equal(laplacian.assemble(conn), oracle.laplacian(want))
        ok, worst = bundles.flat_check(conn)
        assert ok and abs(worst - oracle.flat_defect(want)) <= 1e-15


@st.composite
def raw_surfaces(draw):
    """from_raw gluings of up to five unit tiles: loops, multi-edges, half-turns."""
    n_tiles = draw(st.integers(1, 5))
    pairs = []
    for sides in (("E", "W"), ("N", "S")):
        slots = draw(st.permutations([(t, d) for t in range(n_tiles) for d in sides]))
        n_pairs = draw(st.integers(0, n_tiles))
        for a, b in zip(slots[:n_pairs], slots[n_pairs:2 * n_pairs]):
            pairs.append((a, b, HALF_TURN if a[1] == b[1] else TRANSLATION))
    return surfaces.from_raw(range(n_tiles), pairs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(surf=raw_surfaces(), n=st.integers(1, 6))
def test_raw_gluings_match_dict_walk(surf, n):
    assert_matches_dict_walk(meshes.discretize(surf, n))


# -- the tile complex as the mesh at n = 1 ----------------------------------------

# every NAMED_KINDS constructor, cones and angles up to 7
NAMED_SPECS = (
    [{"kind": kind, "a": a, "b": b} for kind in ("rectangle", "torus", "cylinder")
     for a, b in ((1, 1), (2, 3), (3, 2))]
    + [{"kind": "lshape"}, {"kind": "slit"}]
    + [{"kind": "cone", "k": k} for k in (1, *range(3, 8))]
    + [{"kind": "angle", "k": k} for k in range(3, 8)])


def assert_classes_match_dict_walk(surf):
    cpx = surf.complex
    assert cpx.vertex_classes() == dict_vertex_classes(cpx)


def assert_refinement_matches_dict_refinement(surf):
    cpx = surf.complex
    for n in range(1, 5):
        got, want = cpx.refine(n), dict_refine(cpx, n)
        assert got.cells == want.cells
        assert got.pairings == want.pairings


def assert_faces_are_the_interior_classes(surf):
    mesh = meshes.MeshGraph(surf, 1)
    want = {}
    for vc in surf.complex.vertex_classes():
        if not vc.boundary:
            corners = [4 * mesh.tile_index[c] + k for c, k in vc.corners]
            want.setdefault(len(corners), []).append(corners)
    faces = mesh.face_cycles()
    assert sorted(faces) == sorted(want)
    for length, (first, idx, dirs) in faces.items():
        corners = np.array(want[length])
        slots = (corners & ~3) + np.array([EXIT_SIDE[k] for k in range(4)])[corners & 3]
        assert first.tolist() == corners[:, 0].tolist()
        assert np.array_equal(idx, mesh.slot_edge_index[slots])
        assert np.array_equal(dirs, mesh.slot_direction[slots])


def test_named_specs_cover_every_named_kind():
    assert {spec["kind"] for spec in NAMED_SPECS} == set(surfaces.NAMED_KINDS)


@pytest.mark.parametrize("spec", NAMED_SPECS, ids=lambda spec: "-".join(map(str, spec.values())))
def test_named_complexes_match_the_dict_walk(spec):
    surf = surfaces.build_surface(spec)
    assert_classes_match_dict_walk(surf)
    assert_refinement_matches_dict_refinement(surf)
    assert_faces_are_the_interior_classes(surf)


@pytest.mark.parametrize("spec", NAMED_SPECS, ids=lambda spec: "-".join(map(str, spec.values())))
def test_refine_hands_on_the_refined_partner_array(spec):
    cpx = surfaces.build_surface(spec).complex
    for n in range(1, 5):
        assert np.array_equal(cpx.refine(n).partner, refined_partner(cpx.partner, n))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_pairings_view_is_the_validated_input(data):
    # the strategies build their complexes from a pairings mapping: catch the
    # last one SquareComplex validated, and read it back off the array
    inputs = []
    init = SquareComplex.__init__

    def capture(self, cells, pairings):
        init(self, cells, pairings)
        inputs.append(dict(pairings))

    with patch.object(SquareComplex, "__init__", capture):
        surf = data.draw(raw_surfaces() | glued_surfaces())
    assert surf.complex.pairings == inputs[-1]


def test_pairings_view_is_read_once():
    cpx = surfaces.cone_model(3).complex
    assert cpx.pairings is cpx.pairings
    assert "pairings" not in vars(surfaces.cone_model(3).complex)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(surf=raw_surfaces() | glued_surfaces())
def test_vertex_classes_match_the_dict_walk(surf):
    assert_classes_match_dict_walk(surf)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(surf=raw_surfaces() | glued_surfaces())
def test_refinement_matches_the_dict_refinement(surf):
    assert_refinement_matches_dict_refinement(surf)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(surf=raw_surfaces() | glued_surfaces())
def test_faces_at_n1_are_the_interior_vertex_classes(surf):
    assert_faces_are_the_interior_classes(surf)


def test_closed_fan_starts_at_its_smallest_refined_corner():
    # the 3 pi cone's fan starts at tile 0's NE corner, but at n >= 2 the
    # subcell corner under tile 0's NW corner has the smaller id
    surf = surfaces.from_raw(range(4), [
        ((0, "W"), (0, "E"), TRANSLATION), ((3, "E"), (1, "E"), HALF_TURN),
        ((3, "W"), (2, "E"), TRANSLATION), ((2, "W"), (1, "W"), HALF_TURN),
        ((1, "S"), (2, "N"), TRANSLATION), ((0, "N"), (3, "N"), HALF_TURN),
        ((2, "S"), (1, "N"), TRANSLATION)])
    assert surf.singular_point("cone:0").corners[:2] == ((0, 2), (0, 3))
    for n in range(1, 5):
        assert_matches_dict_walk(meshes.discretize(surf, n))


@pytest.mark.parametrize("surf", [surfaces.torus(1, 1), surfaces.cone_model(1)],
                         ids=lambda s: s.name)
def test_edges_sort_by_printed_subcell_ids(surf):
    # from n = 11 on, "10" sorts before "2"
    for n in (11, 12):
        assert_matches_dict_walk(meshes.discretize(surf, n))


def test_broken_face_is_not_a_closed_walk():
    mesh = meshes.discretize(surfaces.torus(2, 2), 2)
    mesh.edge_v[0] = (mesh.edge_v[0] + 1) % mesh.n_vertices
    with pytest.raises(NotAClosedWalk):
        bundles.flat_check(bundles.trivial_connection(mesh, 1))


def test_dict_walk_reports_a_changed_edge():
    mesh = meshes.discretize(surfaces.lshape(), 2)
    DictMesh(mesh).check(mesh)
    mesh = meshes.discretize(surfaces.lshape(), 2)
    mesh.edge_u[3], mesh.edge_v[3] = mesh.edge_v[3], mesh.edge_u[3]
    with pytest.raises(AssertionError):
        DictMesh(mesh).check(mesh)


def test_ids_follow_the_tile_order():
    surf = surfaces.cone_model(3)
    mesh = meshes.discretize(surf, 3)
    cells = surf.complex.cells
    vertices = vertex_cells(mesh)
    for vid in (0, 7, 9 * 5 + 4, mesh.n_vertices - 1):
        tile, ij = divmod(vid, 9)
        assert vertices[vid] == (cells[tile], *divmod(ij, 3))
        assert mesh.vertex_id(*vertices[vid]) == vid
    refined = DictMesh(mesh).complex
    for slot in np.flatnonzero(mesh.partner >= 0)[:50].tolist():
        assert mesh.partner[mesh.partner[slot]] == slot
        (cell, d), (cell2, d2) = slot_cell(mesh, slot), slot_cell(mesh, int(mesh.partner[slot]))
        assert refined.pairings[(cell, d)][:2] == (cell2, d2), SIDE_NAMES[d]


@pytest.mark.parametrize("surf", EVERY_KIND, ids=lambda s: s.name)
def test_mesh_counts_equal_the_discretized_counts(surf):
    for n in (1, 2, 5):
        mesh = meshes.discretize(surf, n)
        assert meshes.mesh_counts(surf, n) == (mesh.n_vertices, len(mesh.edges))


# sha256 (first 16 hex digits) of each structure, as JSON, of four large meshes
MESH_DIGESTS = {
    "cone(3pi)": (14, {"partner": "2da6559fbf0dd61b", "edge_u": "dbb2841927d4791b",
                       "edge_v": "4ca5b468df371767", "slot_u": "cc0a6f7b6453e1d2",
                       "slot_v": "592596825c8c2f20", "faces": "5a73cb4fc04aa3b1",
                       "edges_csv": "7f08b54d4d326086", "cone_neighbor_sets": "b99d1f0fcc7a5c62"}),
    "slit": (18, {"partner": "cd1060005fab0daf", "edge_u": "e539f829f58840c8",
                  "edge_v": "ee23604a25f2bcbc", "slot_u": "203de2ea7da4e963",
                  "slot_v": "47eef0ee078dd02f", "faces": "db0587b596f68198",
                  "edges_csv": "50beb8c3f637953e", "cone_neighbor_sets": "5f365528b45fb3f2"}),
    "lshape": (20, {"partner": "3589bc2ee8b86c4c", "edge_u": "d686d643805cd87d",
                    "edge_v": "cf6d59a8e2d92c1e", "slot_u": "8775ab13ec26871b",
                    "slot_v": "18b6f2bdec6d0976", "faces": "d0f33cdd2451ab82",
                    "edges_csv": "7791a9c7a5690540", "cone_neighbor_sets": "b161c61215c54729"}),
    "torus(3,2)": (24, {"partner": "0222a6ac03a76220", "edge_u": "ad4d8340a73f28f0",
                        "edge_v": "5d632d13892e7aa9", "slot_u": "0ff928557c930614",
                        "slot_v": "9d69bca111fc9c8c", "faces": "ac7d6655991ed37c",
                        "edges_csv": "d561923cbd0edb77", "cone_neighbor_sets": "4f53cda18c2baa0c"}),
}


@pytest.mark.parametrize("surf", [surfaces.cone_model(3), surfaces.slit(), surfaces.lshape(),
                                  surfaces.torus(3, 2)], ids=lambda s: s.name)
def test_mesh_layer_is_pinned(surf):
    n, want = MESH_DIGESTS[surf.name]
    mesh = meshes.discretize(surf, n)
    parts = {name: getattr(mesh, name).tolist()
             for name in ("partner", "edge_u", "edge_v", "slot_u", "slot_v")}
    parts["faces"] = mesh.faces()
    parts["edges_csv"] = mesh.edges_csv()
    parts["cone_neighbor_sets"] = sorted(mesh.cone_neighbor_sets().items())
    got = {name: hashlib.sha256(json.dumps(part).encode()).hexdigest()[:16]
           for name, part in parts.items()}
    assert got == want


@pytest.mark.parametrize("n", [2.0, 2.5, True, "2", 0, -1], ids=repr)
def test_a_subdivision_that_is_not_an_integer_is_refused(n):
    torus = surfaces.torus(1, 1)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        meshes.discretize(torus, n)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        meshes.mesh_counts(torus, n)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        torus.complex.refine(n)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        surfaces.rescale(torus, n)

    def budget(rank, nv, ne):
        pytest.fail(f"the budget saw n = {n!r}")

    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        experiments.MeshSource(torus).connection(n, budget)


def test_a_numpy_integer_subdivision_is_accepted():
    torus = surfaces.torus(1, 1)
    mesh = meshes.discretize(torus, np.int64(3))
    assert meshes.mesh_counts(torus, np.int64(3)) == (mesh.n_vertices, len(mesh.edges)) == (9, 18)
