"""Discretization: counts, multiplicities, neighbor sets, isomorphisms, and the
index-array mesh against the refined complex walked as dicts."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsionlab import bundles, laplacian, meshes, surfaces
from torsionlab.complexes import (E, EXIT_SIDE, HALF_TURN, N, S, SIDE_NAMES, TRANSLATION, W,
                                  SquareComplex)
from torsionlab.errors import MeshMismatch, NotAClosedWalk, UnknownPoint

ALL_MODELS = [
    surfaces.rectangle(1, 1), surfaces.rectangle(2, 3), surfaces.torus(1, 1),
    surfaces.torus(2, 2), surfaces.cylinder(3, 1), surfaces.cone_model(1),
    surfaces.cone_model(3), surfaces.cone_model(4), surfaces.lshape(),
    surfaces.slit(),
]


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
    boundary = mesh.boundary_vertex_ids()
    for v, d in enumerate(mesh.degrees()):
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
    assert all(d == 4 for d in m.degrees())
    # n = 1 on the unit torus: one vertex carrying two loops
    m = meshes.discretize(surfaces.torus(1, 1), 1)
    assert m.n_vertices == 1 and len(m.edges) == 2
    assert all(e.u == e.v for e in m.edges)


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
    for vid, (tile, i, j) in enumerate(mesh.vertices):
        if nested:
            base, ci, cj = tile
            out[vid] = (base, ci * n_inner + i, cj * n_inner + j)
        else:
            out[vid] = (tile, i, j)
    return out


def _edge_multiset(mesh, coords):
    return sorted(tuple(sorted((coords[e.u], coords[e.v]))) for e in mesh.edges)


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
    assert set(mesh.slot_edge) == set(mesh.complex.pairings)
    for idx, e in enumerate(mesh.edges):
        assert mesh.slot_edge[e.slot_u] == (idx, +1) and mesh.slot_edge[e.slot_v] == (idx, -1)
    # an edge crosses a cut when one of its slots lies on a subside of a cut tile side
    on_side = {E: lambda i, j: i == n - 1, W: lambda i, j: i == 0,
               N: lambda i, j: j == n - 1, S: lambda i, j: j == 0}
    cuts = surfaces.standard_cuts(surf)
    for cut, ecut in zip(cuts, mesh.refine_cuts(cuts)):
        want = {}
        for idx, e in enumerate(mesh.edges):
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
    assert len(mesh.boundary_vertex_ids()) == 12   # 4n boundary ring of a 4x4 grid
    mesh = meshes.discretize(surfaces.torus(2, 2), 2)
    assert not mesh.boundary_vertex_ids()


# -- the index-array mesh against the refined complex walked as dicts -----------

EVERY_KIND = [
    surfaces.torus(2, 1), surfaces.cylinder(2, 2), surfaces.rectangle(2, 1),
    surfaces.lshape(), surfaces.slit(),
    *[surfaces.cone_model(k) for k in (1, 3, 4, 5, 6)],
    *[surfaces.angle_model(k) for k in (3, 5, 6)],
]


def _slot_key(slot):
    cell, d = slot
    return tuple(str(x) for x in cell), d


class DictMesh:
    """The mesh of ``mesh.complex`` built by walking its dicts: one edge per
    side pair, sorted by the printed ids of its slots; faces and neighbor sets
    from the complex's corner fans."""

    def __init__(self, mesh):
        cpx = mesh.complex
        self.n_vertices = len(cpx.cells)
        edges = {}
        for c in cpx.cells:
            for d in range(4):
                if (c, d) not in cpx.pairings:
                    continue
                c2, d2, _ = cpx.pairings[(c, d)]
                key = frozenset(((c, d), (c2, d2)))
                if key not in edges:
                    su, sv = sorted(((c, d), (c2, d2)), key=_slot_key)
                    edges[key] = (cpx.cell_index[su[0]], cpx.cell_index[sv[0]], su, sv)
        self.edges = [edges[k] for k in sorted(edges, key=lambda fs: sorted(map(_slot_key, fs)))]
        self.slot_edge = {}
        for idx, (_, _, su, sv) in enumerate(self.edges):
            self.slot_edge[su] = (idx, +1)
            self.slot_edge[sv] = (idx, -1)
        self.faces = [[self.slot_edge[(c, EXIT_SIDE[k])] for c, k in vc.corners]
                      for vc in cpx.vertex_classes() if not vc.boundary]
        self.cone_sets = {}
        for pid, vc in mesh.surface.singular_points().items():
            cell, corner = vc.corners[0]
            fan = cpx.vertex_class_of(*SquareComplex.refined_corner(cell, corner, mesh.n))
            self.cone_sets[pid] = tuple(dict.fromkeys(cpx.cell_index[c] for c, _ in fan.corners))
        mult = {}
        for u, v, _, _ in self.edges:
            mult[(min(u, v), max(u, v))] = mult.get((min(u, v), max(u, v)), 0) + 1

        def label(vid):
            tile, i, j = cpx.cells[vid]
            head = ",".join(map(str, tile)) if isinstance(tile, tuple) else str(tile)
            return f"{head}:{i}:{j}"

        self.csv = "u,v,multiplicity\n" + "".join(
            f"{label(u)},{label(v)},{m}\n" for (u, v), m in sorted(mult.items()))
        self.n = mesh.n

    def transports(self, rep, cuts):
        """Per edge, the product of the generators of the cuts it crosses."""
        edge_cuts = []
        for cut in cuts:
            ecut = {}
            for (tile, d), sign in cut.items():
                for s in range(self.n):
                    idx, direction = self.slot_edge[SquareComplex.refined_side(tile, d, s, self.n)]
                    ecut[idx] = sign * direction
            edge_cuts.append(ecut)
        out = []
        for idx in range(len(self.edges)):
            t = np.eye(rep.rank, dtype=complex)
            for gen, cut in zip(rep.generators, edge_cuts):
                if cut.get(idx, 0) == +1:
                    t = gen @ t
                elif cut.get(idx, 0) == -1:
                    t = gen.conj().T @ t
            out.append(t)
        return out

    def laplacian(self, transports):
        r = len(transports[0]) if transports else 1
        A = np.zeros((r * self.n_vertices, r * self.n_vertices), dtype=complex)
        eye = np.eye(r, dtype=complex)
        for (u, v, _, _), t in zip(self.edges, transports):
            su, sv = u * r, v * r
            A[su:su + r, su:su + r] += eye
            A[sv:sv + r, sv:sv + r] += eye
            A[sv:sv + r, su:su + r] -= t
            A[su:su + r, sv:sv + r] -= t.conj().T
        return A

    def flat_defect(self, transports):
        worst = 0.0
        for face in self.faces:
            word = np.eye(len(transports[0]), dtype=complex)
            for idx, d in face:
                word = (transports[idx] if d == +1 else transports[idx].conj().T) @ word
            worst = max(worst, float(np.max(np.abs(word - np.eye(len(word))))))
        return worst


def assert_matches_dict_walk(mesh):
    oracle = DictMesh(mesh)
    assert [(e.u, e.v, e.slot_u, e.slot_v) for e in mesh.edges] == oracle.edges
    assert len(mesh.edges) == len(oracle.edges)
    assert mesh.slot_edge == oracle.slot_edge
    assert mesh.faces() == oracle.faces
    assert mesh.cone_neighbor_sets() == oracle.cone_sets
    assert mesh.edges_csv() == oracle.csv
    meshes.check_against_complex(mesh)
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


def test_check_against_complex_reports_a_changed_edge():
    mesh = meshes.discretize(surfaces.lshape(), 2)
    meshes.check_against_complex(mesh)
    mesh = meshes.discretize(surfaces.lshape(), 2)
    mesh.edge_u[3], mesh.edge_v[3] = mesh.edge_v[3], mesh.edge_u[3]
    with pytest.raises(MeshMismatch):
        meshes.check_against_complex(mesh)


def test_ids_follow_the_tile_order():
    surf = surfaces.cone_model(3)
    mesh = meshes.discretize(surf, 3)
    cells = surf.complex.cells
    for vid in (0, 7, 9 * 5 + 4, mesh.n_vertices - 1):
        tile, ij = divmod(vid, 9)
        assert mesh.vertices[vid] == (cells[tile], *divmod(ij, 3))
        assert mesh.vertex_id(*mesh.vertices[vid]) == vid
    for slot in np.flatnonzero(mesh.partner >= 0)[:50].tolist():
        assert mesh.partner[mesh.partner[slot]] == slot
        (cell, d), (cell2, d2) = mesh.slot_tuple(slot), mesh.slot_tuple(int(mesh.partner[slot]))
        assert mesh.complex.pairings[(cell, d)][:2] == (cell2, d2), SIDE_NAMES[d]


@pytest.mark.parametrize("surf", EVERY_KIND, ids=lambda s: s.name)
def test_mesh_counts_equal_the_discretized_counts(surf):
    for n in (1, 2, 5):
        mesh = meshes.discretize(surf, n)
        assert meshes.mesh_counts(surf, n) == (mesh.n_vertices, len(mesh.edges))
