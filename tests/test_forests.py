"""Spanning trees, CRSFs, and the determinant identities they satisfy."""

import copy
import hashlib
import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsionlab import bundles, cli, forests, laplacian, meshes, surfaces
from torsionlab.complexes import E, HALF_TURN, N, S, SquareComplex, TRANSLATION, W
from torsionlab.errors import (BadCuts, KernelMismatch, NegativeUnderSqrt, NotAClosedWalk,
                               NotClassifiable, RankUnsupported, TooLarge)
from oracles import (all_faces_flat_check, corner_walk_faces, crsf_table, crsf_views, cycle_walk,
                     edge_ends, per_length_cycle_weights, per_length_windings, step_monodromy,
                     table_cycles)

CENSUS_HEADER = ["crsf_id", "n_components", "cycle_classes", "weight"]


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
    crsfs = crsf_views(forests.enumerate_crsfs(mesh))
    assert len(crsfs) == 1
    assert len(crsfs[0].cycles) == 1 and len(crsfs[0].cycles[0]) == 3
    mesh = meshes.discretize(surfaces.rectangle(2, 2), 1)
    crsfs = crsf_views(forests.enumerate_crsfs(mesh))
    assert len(crsfs) == 1 and len(crsfs[0].cycles[0]) == 4
    mesh = meshes.discretize(surfaces.torus(1, 1), 1)
    crsfs = crsf_views(forests.enumerate_crsfs(mesh))
    assert len(crsfs) == 2
    assert all(len(f.cycles) == 1 and len(f.cycles[0]) == 1 for f in crsfs)


def test_crsf_components_balance():
    mesh = meshes.discretize(surfaces.torus(1, 1), 2)
    for f in crsf_views(forests.enumerate_crsfs(mesh)):
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
    nonc = [f for f in crsf_views(crsfs)
            if all(any(mesh.cycle_winding(c, cuts)) for c in f.cycles)]
    pruned = forests.crsf_weighted_sum(conn, crsfs=crsf_table(nonc))
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


def test_crsf_sums_are_bit_identical_to_a_loop_in_table_order():
    # the sums add the forests left to right from 0.0, as a Python loop does
    rng = np.random.default_rng(79)
    surf = surfaces.torus(1, 1)
    mesh = meshes.discretize(surf, 3)
    conn = bundles.connection_from_holonomy(mesh, bundles.random_flat_representation(surf, 2, rng))
    table = forests.enumerate_crsfs(mesh)
    terms = forests._terms(conn, table).tolist()
    winds = forests._windings(mesh, table.walks)
    assert np.array_equal(winds, per_length_windings(mesh, table))
    total = nonc_sum = 0.0
    nonc_count = 0
    for term, ids in zip(terms, table.cycle_ids.tolist()):
        total += term
        if all(winds[j].any() for j in ids if j >= 0):
            nonc_sum += term
            nonc_count += 1
    assert forests.crsf_weighted_sum(conn, crsfs=table).hex() == total.hex()
    e, cnt = forests.noncontractible_expectation(conn)
    assert cnt == nonc_count and e.hex() == (nonc_sum / nonc_count).hex()


def test_expectation_refuses_a_flat_u2_bundle_that_is_not_su2():
    # the CRSF sum (13.567) would miss sqrt(det') (13.302): the identity needs
    # SU(2), so the weighability guard refuses before the forests are enumerated
    mesh = meshes.discretize(surfaces.torus(1, 1), 2)
    rep = bundles.HolonomyRepresentation(2, [np.diag(np.exp([0.7j, 0.3j])),
                                             np.diag(np.exp([0.2j, 0.5j]))])
    with pytest.raises(NegativeUnderSqrt):
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


def test_census_and_expectation_refuse_what_the_sum_refuses(monkeypatch):
    # rank 3 and the non-SU(2) diag(i, i) have cycle weights (2 - tr w) that
    # stand for no determinant, so no census row or expectation may use them
    mesh = meshes.discretize(surfaces.cylinder(3, 1), 1)
    su2_only = bundles.connection_from_holonomy(
        mesh, bundles.HolonomyRepresentation(2, [np.diag([1j, 1j])]))
    monkeypatch.setattr(forests, "enumerate_crsfs", None)    # refused before enumerating
    with pytest.raises(RankUnsupported):
        forests.crsf_census(bundles.trivial_connection(mesh, 3))
    with pytest.raises(NegativeUnderSqrt):
        forests.crsf_census(su2_only)
    with pytest.raises(NegativeUnderSqrt):
        forests.noncontractible_expectation(su2_only)


def test_census_csv():
    mesh = meshes.discretize(surfaces.torus(1, 1), 2)
    conn = bundles.trivial_connection(mesh, 2)
    csv = cli._csv(forests.crsf_census(conn)[0], CENSUS_HEADER)
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
        csv = cli._csv(forests.crsf_census(bundles.trivial_connection(mesh, 2))[0],
                       CENSUS_HEADER)
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


def test_crsf_verify_weighs_once(tmp_path, monkeypatch):
    calls = []
    cycle_weights = forests._cycle_weights

    def counted(conn, cycles):
        calls.append(len(cycles))
        return cycle_weights(conn, cycles)

    monkeypatch.setattr(forests, "_cycle_weights", counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "crsf-verify", "n": 2,
                               "surface": {"kind": "torus", "a": 1, "b": 1},
                               "bundle": {"kind": "random", "rank": 2}}))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_crsf_verify_refuses_rank_3_before_enumerating(tmp_path, monkeypatch):
    def refused(mesh):
        pytest.fail("enumerated a bundle the census refuses")

    monkeypatch.setattr(forests, "enumerate_crsfs", refused)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "crsf-verify", "n": 1,
                               "surface": {"kind": "cylinder", "a": 3, "b": 1},
                               "bundle": {"kind": "trivial", "rank": 3}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert json.loads((out / "meta.json").read_text())["error"]["code"] == "RankUnsupported"


def _components(mesh, subset):
    """Component label (its lowest vertex) per vertex, and whether every
    component has as many edges as vertices, by breadth-first search."""
    ends = [[] for _ in range(mesh.n_vertices)]
    edges = edge_ends(mesh)
    for k in subset:
        u, v = edges[k]
        ends[u].append(v)
        ends[v].append(u)      # a loop lists its vertex twice
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
    found = crsf_views(forests.enumerate_crsfs(mesh))
    want = [s for s in combinations(range(len(mesh.edges)), nv) if _components(mesh, s)[1]]
    assert [f.edge_indices for f in found] == want
    conn = bundles.trivial_connection(mesh, 1)
    ends = edge_ends(mesh)
    for f in found:
        label, _ = _components(mesh, f.edge_indices)
        tails = [ends[cyc[0][0]][0] for cyc in f.cycles]
        assert [label[v] for v in tails] == sorted(set(label))   # by lowest vertex
        edges = [k for cyc in f.cycles for k, _ in cyc]
        assert len(edges) == len(set(edges)) and set(edges) <= set(f.edge_indices)
        for cyc in f.cycles:
            assert cyc[0] == (min(k for k, _ in cyc), +1)
            bundles.cycle_monodromy(conn, cyc)       # raises unless a closed walk


def _random_unitary_field(rank, size, rng):
    """``size`` random U(1) phases (rank 1) or SU(2) matrices (rank 2)."""
    if rank == 1:
        return np.exp(2j * math.pi * rng.random(size))[:, None, None]
    return np.array([bundles.random_su2(rng) for _ in range(size)]).reshape(size, 2, 2)


def _naive_weighted_sum(conn, crsfs):
    """The CRSF sum forest by forest: every cycle's monodromy, every time,
    walked one edge at a time by the oracle."""
    total = 0.0
    for f in crsf_views(crsfs):
        weight = 1.0
        for cyc in f.cycles:
            w = step_monodromy(conn, cyc)
            if conn.rank == 1:
                weight *= float((2 - w[0, 0] - 1 / w[0, 0]).real)
            else:
                weight *= float((2 - np.trace(w)).real)
        total += weight
    return total


def _walks(mesh, table):
    """Every face, every distinct CRSF cycle of ``table`` and each generator
    loop of ``mesh``."""
    walks = list(mesh.faces()) + table_cycles(table)
    for generator in (0, 1):
        try:
            walks.append(bundles.generator_loop(mesh, generator))
        except BadCuts:
            pass
    return walks


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(surface_n=st.sampled_from(SMALL_MESHES) | st.tuples(glued_surfaces(), st.just(1)),
       seed=st.integers(0, 2**32 - 1))
def test_walk_monodromies_match_the_step_oracle_bit_for_bit(surface_n, seed):
    rng = np.random.default_rng(seed)
    mesh = meshes.discretize(*surface_n)
    table = forests.enumerate_crsfs(mesh)
    walks = _walks(mesh, table)
    for rank in (1, 2):
        conn = bundles.UnitaryConnection(
            mesh, rank, _random_unitary_field(rank, len(mesh.edges), rng), np.zeros((rank, 0)))
        for walk in walks:     # one-row walk_monodromies calls
            assert (bundles.cycle_monodromy(conn, walk).tobytes()
                    == step_monodromy(conn, walk).tobytes())
        # the faces of one length walked together, as flat_check walks them
        for _, idx, dirs in mesh.face_cycles().values():
            got = bundles.walk_monodromies(conn, idx, dirs)
            for row, face in zip(got, zip(idx.tolist(), dirs.tolist())):
                assert row.tobytes() == step_monodromy(conn, list(zip(*face))).tobytes()
        # every CRSF cycle in one padded walk, as the CRSF sums walk them
        got = bundles.walk_monodromies(conn, *table.walks)
        for row, cycle in zip(got, table_cycles(table)):
            assert row.tobytes() == step_monodromy(conn, cycle).tobytes()


# one surface of each NAMED_KINDS kind and size class: cone(2pi) is a regular
# point, and angle(3) and angle(4) are the L-shape and the slit
NAMED_SURFACES = [surfaces.rectangle(1, 1), surfaces.rectangle(2, 1), surfaces.torus(1, 1),
                  surfaces.torus(2, 1), surfaces.cylinder(2, 1), surfaces.cylinder(1, 2),
                  surfaces.lshape(), surfaces.slit(),
                  *[surfaces.cone_model(k) for k in (1, 3, 4)]]
SMALL_OR_GLUED = st.sampled_from(SMALL_MESHES) | st.tuples(glued_surfaces(), st.just(1))


def _same_fans(mesh):
    """The array fans of ``mesh`` equal the corner-walk oracle's exactly."""
    got, want = mesh.face_cycles(), corner_walk_faces(mesh)
    assert list(got) == list(want)
    for length, arrays in want.items():
        for a, b in zip(got[length], arrays):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(surface_n=SMALL_OR_GLUED)
def test_face_fans_match_the_corner_walk_oracle(surface_n):
    _same_fans(meshes.discretize(*surface_n))


@pytest.mark.parametrize("surf", NAMED_SURFACES, ids=lambda s: s.name)
def test_named_face_fans_match_the_corner_walk_oracle(surf):
    for n in range(1, 5):
        _same_fans(meshes.discretize(surf, n))


def _same_cycle_walks(mesh):
    """The CRSF table's walk equals the one-edge-at-a-time oracle's walks
    exactly, ids in ascending mask order, each row padded with edge 0 and
    direction 0 past its cycle's end to the longest cycle's length."""
    table = forests.enumerate_crsfs(mesh)
    cycles, ends = table_cycles(table), edge_ends(mesh)
    idx, dirs = table.walks
    assert idx.shape == dirs.shape == (len(cycles), max(map(len, cycles), default=1))
    keys = []
    for row, signs, cycle in zip(idx.tolist(), dirs.tolist(), cycles):
        keys.append(sum(1 << k for k, _ in cycle))
        assert cycle == cycle_walk(ends, keys[-1])
        assert row[len(cycle):] == signs[len(cycle):] == [0] * (len(row) - len(cycle))
    assert keys == sorted(set(keys))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(surface_n=SMALL_OR_GLUED)
def test_cycle_walks_match_the_walk_oracle(surface_n):
    _same_cycle_walks(meshes.discretize(*surface_n))


@pytest.mark.parametrize("surf", [s for s in NAMED_SURFACES
                                  if meshes.mesh_counts(s, 1)[0] <= forests.MAX_VERTICES],
                         ids=lambda s: s.name)
def test_named_cycle_walks_match_the_walk_oracle(surf):
    _same_cycle_walks(meshes.discretize(surf, 1))


def _flat_check_equals_the_all_faces_walk(mesh, rng):
    """`flat_check` gives the bits of walking every face on the trivial, a
    cut-built, a gauge-transformed and a per-edge random connection."""
    for rank in (1, 2):
        rep = (bundles.random_flat_representation(mesh.surface, rank, rng)
               if surfaces.standard_cuts(mesh.surface)
               else bundles.HolonomyRepresentation(rank, []))
        built = bundles.connection_from_holonomy(mesh, rep)
        gauged = bundles.gauge_transform(built, _random_unitary_field(rank, mesh.n_vertices, rng))
        rough = bundles.UnitaryConnection(
            mesh, rank, _random_unitary_field(rank, len(mesh.edges), rng), np.zeros((rank, 0)))
        for conn in (bundles.trivial_connection(mesh, rank), built, gauged, rough):
            ok, worst = bundles.flat_check(conn)
            want_ok, want_worst = all_faces_flat_check(conn)
            assert ok == want_ok and worst.hex() == want_worst.hex()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(surface_n=SMALL_OR_GLUED, seed=st.integers(0, 2**32 - 1))
def test_flat_check_equals_the_all_faces_walk_bit_for_bit(surface_n, seed):
    _flat_check_equals_the_all_faces_walk(meshes.discretize(*surface_n),
                                          np.random.default_rng(seed))


@pytest.mark.parametrize("surf", NAMED_SURFACES, ids=lambda s: s.name)
def test_named_flat_check_equals_the_all_faces_walk_bit_for_bit(surf):
    rng = np.random.default_rng(89)
    for n in range(1, 5):
        _flat_check_equals_the_all_faces_walk(meshes.discretize(surf, n), rng)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(surface_n=st.sampled_from(SMALL_MESHES) | st.tuples(glued_surfaces(), st.just(1)),
       seed=st.integers(0, 2**32 - 1))
def test_weighted_sum_is_bit_identical_to_the_per_forest_product(surface_n, seed):
    rng = np.random.default_rng(seed)
    mesh = meshes.discretize(*surface_n)
    crsfs = forests.enumerate_crsfs(mesh)
    # one copy per forest, so no cycle object is shared between forests
    unshared = [copy.deepcopy(f) for f in crsf_views(crsfs)]
    cycles = [c for f in unshared for c in f.cycles]
    assert len({id(c) for c in cycles}) == len(cycles)
    for rank in (1, 2):
        # a gauged flat bundle (trivial where the surface has no cuts), and
        # transports drawn edge by edge, so that each cycle weighs its own
        rep = (bundles.random_flat_representation(mesh.surface, rank, rng)
               if surfaces.standard_cuts(mesh.surface)
               else bundles.HolonomyRepresentation(rank, []))
        flat = bundles.gauge_transform(bundles.connection_from_holonomy(mesh, rep),
                                       _random_unitary_field(rank, mesh.n_vertices, rng))
        rough = bundles.UnitaryConnection(
            mesh, rank, _random_unitary_field(rank, len(mesh.edges), rng), np.zeros((rank, 0)))
        for conn in (flat, rough):
            want = _naive_weighted_sum(conn, crsfs).hex()
            assert forests.crsf_weighted_sum(conn, crsfs=crsfs).hex() == want
            assert forests.crsf_weighted_sum(conn, crsfs=crsf_table(unshared)).hex() == want
            assert forests.crsf_census(conn, crsfs)[1].hex() == want


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(surface_n=st.sampled_from(SMALL_MESHES) | st.tuples(glued_surfaces(), st.just(1)))
def test_spanning_tree_count_matches_subset_oracle(surface_n):
    mesh = meshes.discretize(*surface_n)
    nv = mesh.n_vertices
    links = [k for k, (u, v) in enumerate(edge_ends(mesh)) if u != v]
    want = sum(set(_components(mesh, s)[0]) == {0} for s in combinations(links, nv - 1))
    assert forests.count_spanning_trees(mesh) == want


def test_each_distinct_cycle_is_one_object():
    # each distinct cycle has one id, shared by every forest that contains it
    mesh = meshes.discretize(surfaces.torus(1, 1), 3)
    table = forests.enumerate_crsfs(mesh)
    cycles = table_cycles(table)
    assert len(cycles) == len({tuple(c) for c in cycles}) == 312
    assert set(table.cycle_ids.ravel().tolist()) - {-1} == set(range(312))


# sha256 of the table's edges, cycle ids and cycles and of the tree count,
# computed with a block filter that tested every edge subset on its own
TABLE_DIGESTS = {"torus(1,1)": (3, "c8c1d3eb793741aa"), "cylinder(3,1)": (2, "264cd30f224e542a"),
                 "torus(2,1)": (2, "6468428c0c55ceb5")}


@pytest.mark.parametrize("surf", [surfaces.torus(1, 1), surfaces.cylinder(3, 1),
                                  surfaces.torus(2, 1)], ids=lambda s: s.name)
def test_crsf_table_is_pinned(surf):
    n, digest = TABLE_DIGESTS[surf.name]
    mesh = meshes.discretize(surf, n)
    table = forests.enumerate_crsfs(mesh)
    h = hashlib.sha256()
    for part in (table.edges.tolist(), table.cycle_ids.tolist(), table_cycles(table),
                 forests.count_spanning_trees(mesh)):
        h.update(json.dumps(part).encode())
    assert h.hexdigest()[:16] == digest


def _same_table(mesh, chunk):
    """The CRSF table and tree count of ``mesh`` with blocks of ``chunk``
    rows equal those with the default blocks, walk arrays included."""
    want = forests.enumerate_crsfs(mesh)
    trees = forests.count_spanning_trees(mesh)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forests, "_CHUNK", chunk)
        got = forests.enumerate_crsfs(mesh)
        assert forests.count_spanning_trees(mesh) == trees
    assert np.array_equal(got.edges, want.edges)
    assert np.array_equal(got.cycle_ids, want.cycle_ids)
    cycles = table_cycles(got)
    assert cycles == table_cycles(want)
    assert len(cycles) == len({tuple(c) for c in cycles})
    assert len(got.walks) == len(want.walks) == 2
    for a, b in zip(got.walks, want.walks):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("surf,n", [(surfaces.torus(1, 1), 2), (surfaces.cylinder(3, 1), 2)],
                         ids=["torus-n2", "C3-n2"])
def test_block_seams_change_nothing(surf, n, chunk):
    _same_table(meshes.discretize(surf, n), chunk)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(surface=glued_surfaces(), chunk=st.sampled_from([1, 7]))
def test_block_seams_change_nothing_on_glued_surfaces(surface, chunk):
    _same_table(meshes.discretize(surface, 1), chunk)


def test_a_padded_walk_that_does_not_close_is_refused():
    # torus(1,1) n=2 has cycles of 2 to 4 edges: a short row closes at its
    # last real step, and is refused once that step goes, or when a real
    # step follows a pad, even where the steps after the pad close again
    mesh = meshes.discretize(surfaces.torus(1, 1), 2)
    idx, dirs = forests.enumerate_crsfs(mesh).walks
    lengths = np.count_nonzero(dirs, axis=1)
    j = int(np.argmin(lengths))
    m = int(lengths[j])
    assert 1 < m < dirs.shape[1]
    mesh.check_closed(idx, dirs)
    short = dirs[j:j + 1].copy()
    short[0, m - 1] = 0                 # ends a step early, one step from its start
    with pytest.raises(NotAClosedWalk):
        mesh.check_closed(idx[j:j + 1], short)
    cycle, signs = idx[j, :m], dirs[j, :m]
    mesh.check_closed(np.tile(cycle, 2)[None], np.tile(signs, 2)[None])   # walked twice
    with pytest.raises(NotAClosedWalk):
        mesh.check_closed(np.concatenate([cycle, [0], cycle])[None],
                          np.concatenate([signs, [0], signs])[None])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(surface_n=SMALL_OR_GLUED, seed=st.integers(0, 2**32 - 1))
def test_one_walk_weighs_and_winds_as_the_per_length_walks(surface_n, seed):
    # the one padded walk gives the bits of walking each cycle length on its
    # own: weights, windings, census rows and the non-contractible expectation
    rng = np.random.default_rng(seed)
    mesh = meshes.discretize(*surface_n)
    table = forests.enumerate_crsfs(mesh)
    assert np.array_equal(forests._windings(mesh, table.walks), per_length_windings(mesh, table))
    for rank in (1, 2):
        rep = (bundles.random_flat_representation(mesh.surface, rank, rng)
               if surfaces.standard_cuts(mesh.surface)
               else bundles.HolonomyRepresentation(rank, []))
        flat = bundles.gauge_transform(bundles.connection_from_holonomy(mesh, rep),
                                       _random_unitary_field(rank, mesh.n_vertices, rng))
        rough = bundles.UnitaryConnection(
            mesh, rank, _random_unitary_field(rank, len(mesh.edges), rng), np.zeros((rank, 0)))
        for conn in (flat, rough):
            got = forests._cycle_weights(conn, table.walks)
            assert got.tobytes() == per_length_cycle_weights(conn, table).tobytes()
        want = {}
        for route in ("one walk", "per length"):
            with pytest.MonkeyPatch.context() as patch:
                if route == "per length":
                    patch.setattr(forests, "_cycle_weights",
                                  lambda conn, walks: per_length_cycle_weights(conn, table))
                    patch.setattr(forests, "_windings",
                                  lambda mesh, walks: per_length_windings(mesh, table))
                    patch.setattr(forests, "enumerate_crsfs", lambda mesh: table)
                rows, total = forests.crsf_census(flat, table)
                out = [rows, total.hex()]
                if rank == 2 and surfaces.standard_cuts(mesh.surface):
                    try:
                        e, count = forests.noncontractible_expectation(flat)
                        out.append((e.hex(), count))
                    except NotClassifiable:
                        out.append("no non-contractible CRSF")
            want[route] = out
        assert repr(want["one walk"]) == repr(want["per length"])
