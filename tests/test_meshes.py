"""Discretization: counts, multiplicities, neighbor sets, isomorphisms."""

import math

import pytest

from torsionlab import meshes, surfaces
from torsionlab.complexes import E, N, S, W
from torsionlab.errors import UnknownPoint

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
    n_pi_cones = sum(1 for a in summary.cone_angles if abs(a - math.pi) < 1e-9)
    if not _has_short_systole(surf, n):
        assert n_double == n_pi_cones
    if not summary.cone_angles and not _has_short_systole(surf, n):
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
        assert ecut == want and len(want) == len(cut) * n


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
