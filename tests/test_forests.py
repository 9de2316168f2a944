"""Spanning trees, CRSFs, and the determinant identities they satisfy."""

import hashlib
import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsionlab import bundles, cli, forests, laplacian, meshes, surfaces
from torsionlab.complexes import E, HALF_TURN, N, S, SquareComplex, TRANSLATION, W
from torsionlab.errors import (IdentityMismatch, KernelMismatch, NegativeUnderSqrt,
                               NotClassifiable, RankUnsupported, TooLarge)


def _det(conn, expected_kernel_dim=0):
    spec = laplacian.spectrum(laplacian.assemble(conn),
                              expected_kernel_dim=expected_kernel_dim)
    return math.exp(laplacian.log_det_prime(spec))


@pytest.mark.parametrize("surf,expect", [
    (surfaces.rectangle(2, 2), 4),
    (surfaces.rectangle(2, 3), 15),
    (surfaces.rectangle(3, 3), 192),
    (surfaces.cylinder(3, 1), 3),
    (surfaces.cylinder(4, 1), 4),
    (surfaces.cylinder(5, 1), 5),
], ids=["2x2", "2x3", "3x3", "C3", "C4", "C5"])
def test_spanning_tree_counts(surf, expect):
    mesh = meshes.discretize(surf, 1)
    count = forests.count_spanning_trees(mesh)
    assert count == expect
    mt = _det(bundles.trivial_connection(mesh, 1), 1) / mesh.n_vertices
    assert round(mt) == count and abs(mt - count) < 1e-6 * count


def test_spanning_trees_multigraph():
    # doubled edges count separately: the n=2 unit torus has 32 trees
    mesh = meshes.discretize(surfaces.torus(1, 1), 2)
    count = forests.count_spanning_trees(mesh)
    mt = _det(bundles.trivial_connection(mesh, 1), 1) / mesh.n_vertices
    assert count == round(mt) == 32


def test_single_vertex_loop_tree():
    mesh = meshes.discretize(surfaces.torus(1, 1), 1)
    assert forests.count_spanning_trees(mesh) == 1


def test_too_large():
    mesh = meshes.discretize(surfaces.rectangle(4, 4), 1)
    with pytest.raises(TooLarge):
        forests.count_spanning_trees(mesh)
    with pytest.raises(TooLarge):
        forests.enumerate_crsfs(mesh)


def test_crsf_enumeration_small():
    mesh = meshes.discretize(surfaces.cylinder(3, 1), 1)
    crsfs = forests.enumerate_crsfs(mesh)
    assert len(crsfs) == 1
    assert len(crsfs[0].cycles) == 1 and len(crsfs[0].cycles[0]) == 3
    mesh = meshes.discretize(surfaces.rectangle(2, 2), 1)
    crsfs = forests.enumerate_crsfs(mesh)
    assert len(crsfs) == 1 and len(crsfs[0].cycles[0]) == 4
    mesh = meshes.discretize(surfaces.torus(1, 1), 1)
    crsfs = forests.enumerate_crsfs(mesh)
    assert len(crsfs) == 2
    assert all(len(f.cycles) == 1 and len(f.cycles[0]) == 1 for f in crsfs)


def test_crsf_components_balance():
    mesh = meshes.discretize(surfaces.torus(1, 1), 2)
    for f in forests.enumerate_crsfs(mesh):
        assert len(f.edge_indices) == mesh.n_vertices
        assert len(f.cycles) >= 1


def test_forman_rank1_c3():
    mesh = meshes.discretize(surfaces.cylinder(3, 1), 1)
    rep = bundles.HolonomyRepresentation(1, [np.array([[np.exp(1j * math.pi)]])])
    conn = bundles.connection_from_holonomy(mesh, rep)
    s = forests.crsf_weighted_sum(conn)
    assert abs(s - 4.0) < 1e-12
    assert abs(_det(conn) - 4.0) < 1e-12


def test_kenyon_rank2_c3_diag():
    mesh = meshes.discretize(surfaces.cylinder(3, 1), 1)
    rep = bundles.HolonomyRepresentation(2, [np.diag([1j, -1j])])
    conn = bundles.connection_from_holonomy(mesh, rep)
    s = forests.crsf_weighted_sum(conn)
    det = _det(conn)
    assert abs(s - 2.0) < 1e-12 and abs(det - 4.0) < 1e-12
    assert abs(s - math.sqrt(det)) < 1e-12


@pytest.mark.parametrize("surf,n", [(surfaces.cylinder(3, 1), 1),
                                    (surfaces.cylinder(4, 1), 1),
                                    (surfaces.torus(1, 1), 2)],
                         ids=["C3", "C4", "torus-n2"])
def test_kenyon_and_forman_seeded(surf, n):
    rng = np.random.default_rng(61)
    mesh = meshes.discretize(surf, n)
    crsfs = forests.enumerate_crsfs(mesh)
    for _ in range(8):
        rep1 = bundles.random_flat_representation(surf, 1, rng)
        conn1 = bundles.connection_from_holonomy(mesh, rep1)
        det1 = _det(conn1)
        s1 = forests.crsf_weighted_sum(conn1, crsfs=crsfs)
        assert abs(s1 - det1) < 1e-9 * max(1.0, det1)
        rep2 = bundles.random_flat_representation(surf, 2, rng)
        conn2 = bundles.connection_from_holonomy(mesh, rep2)
        det2 = _det(conn2)
        s2 = forests.crsf_weighted_sum(conn2, crsfs=crsfs)
        assert abs(s2 - math.sqrt(det2)) < 1e-9 * max(1.0, math.sqrt(det2))


def test_contractible_cycles_contribute_zero():
    # rank 2 flat: cycles with identity monodromy weigh 2 - tr I = 0, so
    # dropping every CRSF with a contractible cycle changes nothing
    rng = np.random.default_rng(67)
    surf = surfaces.torus(1, 1)
    mesh = meshes.discretize(surf, 2)
    rep = bundles.random_flat_representation(surf, 2, rng)
    conn = bundles.connection_from_holonomy(mesh, rep)
    cuts = mesh.refine_cuts(surfaces.standard_cuts(surf))
    crsfs = forests.enumerate_crsfs(mesh)
    full = forests.crsf_weighted_sum(conn, crsfs=crsfs)
    nonc = [f for f in crsfs
            if all(any(mesh.cycle_winding(c, cuts)) for c in f.cycles)]
    pruned = forests.crsf_weighted_sum(conn, crsfs=nonc)
    assert abs(full - pruned) < 1e-12 * max(1.0, abs(full))


def test_noncontractible_expectation_torus():
    rng = np.random.default_rng(71)
    surf = surfaces.torus(1, 1)
    mesh = meshes.discretize(surf, 2)
    rep = bundles.random_flat_representation(surf, 2, rng)
    conn = bundles.connection_from_holonomy(mesh, rep)
    e, cnt = forests.noncontractible_expectation(conn)
    det = _det(conn)
    assert cnt > 0
    assert abs(e * cnt - math.sqrt(det)) < 1e-9 * math.sqrt(det)


def test_noncontractible_expectation_c3():
    rng = np.random.default_rng(73)
    surf = surfaces.cylinder(3, 1)
    mesh = meshes.discretize(surf, 1)
    rep = bundles.random_flat_representation(surf, 2, rng)
    conn = bundles.connection_from_holonomy(mesh, rep)
    e, cnt = forests.noncontractible_expectation(conn)
    assert cnt == 1
    assert abs(e - (2 - np.trace(rep.generators[0])).real) < 1e-12


def test_expectation_refuses_a_flat_u2_bundle_that_is_not_su2():
    # the CRSF sum (13.567) misses sqrt(det') (13.302): the identity needs SU(2)
    mesh = meshes.discretize(surfaces.torus(1, 1), 2)
    rep = bundles.HolonomyRepresentation(2, [np.diag(np.exp([0.7j, 0.3j])),
                                             np.diag(np.exp([0.2j, 0.5j]))])
    with pytest.raises(IdentityMismatch):
        forests.noncontractible_expectation(bundles.connection_from_holonomy(mesh, rep))


def test_expectation_takes_the_kernel_from_the_holonomy():
    # a 1e-7 twist leaves two eigenvalues below the numerical kernel
    # tolerance, but the bundle has no flat section: refuse, do not skip
    twist = np.diag(np.exp([1e-7j, -1e-7j]))
    mesh = meshes.discretize(surfaces.torus(1, 1), 2)
    conn = bundles.connection_from_holonomy(
        mesh, bundles.HolonomyRepresentation(2, [twist, np.eye(2)]))
    assert conn.flat_sections == 0
    with pytest.raises(KernelMismatch):
        forests.noncontractible_expectation(conn)


def test_trivial_connection_expectation_zero():
    mesh = meshes.discretize(surfaces.torus(1, 1), 2)
    conn = bundles.trivial_connection(mesh, 2)
    e, cnt = forests.noncontractible_expectation(conn)
    assert cnt > 0 and e == 0.0


def test_not_classifiable_on_cones():
    mesh = meshes.discretize(surfaces.cone_model(1), 1)
    conn = bundles.trivial_connection(mesh, 2)
    with pytest.raises(NotClassifiable):
        forests.noncontractible_expectation(conn)


def test_rank_and_su2_guards():
    mesh = meshes.discretize(surfaces.cylinder(3, 1), 1)
    with pytest.raises(RankUnsupported):
        forests.crsf_weighted_sum(bundles.trivial_connection(mesh, 3))
    rep = bundles.HolonomyRepresentation(2, [np.diag([1j, 1j])])   # det = -1
    conn = bundles.connection_from_holonomy(mesh, rep)
    with pytest.raises(NegativeUnderSqrt):
        forests.crsf_weighted_sum(conn)


def test_census_csv():
    mesh = meshes.discretize(surfaces.torus(1, 1), 2)
    conn = bundles.trivial_connection(mesh, 2)
    csv = forests.crsf_census_csv(mesh, conn)
    lines = csv.strip().split("\n")
    assert lines[0] == "crsf_id,n_components,cycle_classes,weight"
    assert len(lines) > 1


def test_census_golden_columns():
    # crsf_id,n_components,cycle_classes of the torus(1,1) census: the classes
    # pin the CRSF order and each cycle's orientation (module docstring)
    n2 = ("1,(1,0) 1,(1,0) 1,(1,0) 1,(1,0) 1,(0,1) 1,(0,1) 1,(0,1) 1,(0,1) 1,(1,0) "
          "1,(0,0) 1,(0,-1) 1,(1,0) 1,(1,-1) 1,(0,1) 1,(1,0) 1,(1,0) 1,(1,0) 1,(1,0) "
          "2,(1,0)|(1,0) 1,(1,0) 1,(1,0) 1,(1,0) 1,(1,0) 1,(1,0) 1,(0,1) 1,(0,0) 1,(1,1) "
          "1,(1,0) 1,(0,1) 1,(1,0) 1,(1,0) 1,(0,1) 1,(0,1) 1,(0,1) 1,(0,1) 1,(0,1) "
          "1,(0,1) 1,(1,0) 1,(1,0) 1,(1,1) 1,(0,0) 1,(0,1) 1,(0,1) 1,(0,1) 1,(0,1) "
          "1,(0,1) 1,(0,1) 2,(0,1)|(0,1) 1,(1,0) 1,(1,0) 1,(0,1) 1,(0,1) 1,(1,0) "
          "1,(-1,1) 1,(-1,0) 1,(0,1) 1,(0,0) 1,(0,1) 1,(1,0) 1,(1,0) 1,(0,1) 1,(0,1) "
          "1,(1,0) 1,(1,0) 1,(0,1) 1,(0,1)").split()

    def columns(n):
        mesh = meshes.discretize(surfaces.torus(1, 1), n)
        csv = forests.crsf_census_csv(mesh, bundles.trivial_connection(mesh, 2))
        return [line.rsplit(",", 1)[0] for line in csv.splitlines()]

    rows = columns(2)
    assert rows == ["crsf_id,n_components,cycle_classes"] + [
        f"{k},{row}" for k, row in enumerate(n2)]
    digest = hashlib.sha256("".join(row + "\n" for row in columns(3)).encode()).hexdigest()
    assert digest == "54a5e29d1b11e0153d4b1ac9fde53fb4b6e7c9a4c6efe824960809351b3e4505"


def test_crsf_verify_enumerates_once(tmp_path, monkeypatch):
    calls = []
    enumerate_crsfs = forests.enumerate_crsfs

    def counted(mesh):
        calls.append(mesh)
        return enumerate_crsfs(mesh)

    monkeypatch.setattr(forests, "enumerate_crsfs", counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "crsf-verify", "n": 2,
                               "surface": {"kind": "torus", "a": 1, "b": 1},
                               "bundle": {"kind": "random", "rank": 2}}))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1
    assert len((tmp_path / "out" / "crsf.csv").read_text().splitlines()) == 67


def _components(mesh, subset):
    """Component label (its lowest vertex) per vertex, and whether every
    component has as many edges as vertices, by breadth-first search."""
    ends = [[] for _ in range(mesh.n_vertices)]
    for k in subset:
        e = mesh.edges[k]
        ends[e.u].append(e.v)
        ends[e.v].append(e.u)      # a loop lists its vertex twice
    label = [-1] * mesh.n_vertices
    balanced = True
    for v0 in range(mesh.n_vertices):
        if label[v0] >= 0:
            continue
        label[v0] = v0
        queue = [v0]
        for x in queue:
            for y in ends[x]:
                if label[y] < 0:
                    label[y] = v0
                    queue.append(y)
        balanced &= sum(len(ends[x]) for x in queue) == 2 * len(queue)
    return label, balanced


@st.composite
def glued_surfaces(draw):
    """Up to five unit tiles with random side pairings: loops and multi-edges included."""
    n_tiles = draw(st.integers(1, 5))
    pairings = {}
    for sides in ((E, W), (N, S)):
        slots = draw(st.permutations([(t, d) for t in range(n_tiles) for d in sides]))
        n_pairs = draw(st.integers(0, n_tiles))
        for a, b in zip(slots[:n_pairs], slots[n_pairs:2 * n_pairs]):
            kind = HALF_TURN if a[1] == b[1] else TRANSLATION
            pairings[a] = (*b, kind)
            pairings[b] = (*a, kind)
    return surfaces.SquareTiledSurface(SquareComplex(range(n_tiles), pairings),
                                       name="glued", kind="raw")


SMALL_MESHES = [(surfaces.torus(1, 1), 1), (surfaces.torus(1, 1), 2), (surfaces.torus(2, 1), 1),
                (surfaces.cylinder(3, 1), 1), (surfaces.cylinder(2, 2), 1),
                (surfaces.rectangle(2, 3), 1), (surfaces.cone_model(1), 1)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(surface_n=st.sampled_from(SMALL_MESHES) | st.tuples(glued_surfaces(), st.just(1)))
def test_enumeration_finds_every_unicyclic_subset_in_canonical_order(surface_n):
    mesh = meshes.discretize(*surface_n)
    nv = mesh.n_vertices
    found = forests.enumerate_crsfs(mesh)
    want = [s for s in combinations(range(len(mesh.edges)), nv) if _components(mesh, s)[1]]
    assert [f.edge_indices for f in found] == want
    conn = bundles.trivial_connection(mesh, 1)
    for f in found:
        label, _ = _components(mesh, f.edge_indices)
        tails = [mesh.edges[cyc[0][0]].u for cyc in f.cycles]
        assert [label[v] for v in tails] == sorted(set(label))   # by lowest vertex
        edges = [k for cyc in f.cycles for k, _ in cyc]
        assert len(edges) == len(set(edges)) and set(edges) <= set(f.edge_indices)
        for cyc in f.cycles:
            assert cyc[0] == (min(k for k, _ in cyc), +1)
            bundles.cycle_monodromy(conn, cyc)       # raises unless a closed walk
