"""Connections: construction, flatness, gauge moves, monodromy, flat sections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torsionlab import bundles, forests, laplacian, meshes, surfaces
from torsionlab.errors import BadCuts, NonUnitaryGauge, NotAClosedWalk, RankMismatch
import oracles
from oracles import slot_edges


def test_trivial_connection():
    mesh = meshes.discretize(surfaces.rectangle(1, 1), 2)
    conn = bundles.trivial_connection(mesh, 2)
    assert all(np.allclose(t, np.eye(2)) for t in conn.transports)
    ok, worst = bundles.flat_check(conn)
    assert ok and worst < 1e-15


def test_trivial_rank2_spectrum_doubles():
    mesh = meshes.discretize(surfaces.cylinder(3, 1), 2)
    s1 = np.linalg.eigvalsh(laplacian.assemble(bundles.trivial_connection(mesh, 1)))
    s2 = np.linalg.eigvalsh(laplacian.assemble(bundles.trivial_connection(mesh, 2)))
    assert np.allclose(np.sort(np.concatenate([s1, s1])), np.sort(s2), atol=1e-10)


def test_torus_u1_monodromy():
    mesh = meshes.discretize(surfaces.torus(1, 1), 3)
    alpha, beta = 0.9, -2.2
    rep = bundles.HolonomyRepresentation(
        1, [np.array([[np.exp(1j * alpha)]]), np.array([[np.exp(1j * beta)]])])
    conn = bundles.connection_from_holonomy(mesh, rep)
    loop_h = bundles.generator_loop(mesh, 0)
    loop_v = bundles.generator_loop(mesh, 1)
    assert abs(bundles.cycle_monodromy(conn, loop_h)[0, 0] - np.exp(1j * alpha)) < 1e-12
    assert abs(bundles.cycle_monodromy(conn, loop_v)[0, 0] - np.exp(1j * beta)) < 1e-12


def test_cylinder_rank2_monodromy_trace():
    mesh = meshes.discretize(surfaces.cylinder(3, 1), 1)
    rng = np.random.default_rng(5)
    w = bundles.random_su2(rng)
    rep = bundles.HolonomyRepresentation(2, [w])
    conn = bundles.connection_from_holonomy(mesh, rep)
    loop = bundles.generator_loop(mesh, 0)
    m = bundles.cycle_monodromy(conn, loop)
    assert abs(np.trace(m) - np.trace(w)) < 1e-12


def test_flat_check_random_su2_torus():
    rng = np.random.default_rng(17)
    surf = surfaces.torus(2, 2)
    mesh = meshes.discretize(surf, 2)
    rep = bundles.random_flat_representation(surf, 2, rng)
    conn = bundles.connection_from_holonomy(mesh, rep)
    ok, worst = bundles.flat_check(conn)
    assert ok and worst < 1e-10
    assert len(mesh.faces()) == 16


def _walked_faces(monkeypatch, conn):
    """flat_check(conn), and the (edge indices, directions) rows it passed
    to walk_monodromies."""
    rows = []
    walk = bundles.walk_monodromies

    def counting(conn, idx, dirs):
        rows.extend(zip(map(tuple, idx.tolist()), map(tuple, dirs.tolist())))
        return walk(conn, idx, dirs)

    with monkeypatch.context() as patch:
        patch.setattr(bundles, "walk_monodromies", counting)
        return bundles.flat_check(conn), rows


def test_flat_check_walks_only_the_faces_the_holonomy_touches(monkeypatch):
    surf = surfaces.torus(3, 2)
    mesh = meshes.discretize(surf, 24)
    assert _walked_faces(monkeypatch, bundles.trivial_connection(mesh, 2)) == ((True, 0.0), [])
    rep = bundles.random_flat_representation(surf, 2, np.random.default_rng(41))
    (ok, worst), rows = _walked_faces(monkeypatch, bundles.connection_from_holonomy(mesh, rep))
    assert ok and 0.0 < worst < bundles.FLATNESS_TOL
    cut = np.any(mesh.refine_cuts(surfaces.standard_cuts(surf)), axis=0)
    want = {(tuple(i), tuple(d)) for _, idx, dirs in mesh.face_cycles().values()
            for i, d in zip(idx.tolist(), dirs.tolist()) if cut[i].any()}
    assert len(rows) == len(set(rows)) and set(rows) == want
    # one face per step along the two cut circles, 3 * 24 and 2 * 24 steps
    # long, less the face where they cross: O(n) of the 3456 faces
    assert len(rows) == (3 + 2) * 24 - 1 and len(mesh.faces()) == 3456


def test_connection_shapes_must_match_the_rank():
    mesh = meshes.discretize(surfaces.torus(1, 1), 2)
    eye = np.eye(2, dtype=complex)
    with pytest.raises(RankMismatch):
        bundles.UnitaryConnection(mesh, 2, np.tile(eye, (len(mesh.edges) - 1, 1, 1)), eye)
    with pytest.raises(RankMismatch):
        bundles.UnitaryConnection(mesh, 2, np.ones((len(mesh.edges), 1, 1)), eye)
    with pytest.raises(RankMismatch):
        bundles.UnitaryConnection(mesh, 2, np.tile(eye, (len(mesh.edges), 1, 1)), np.eye(3))
    with pytest.raises(RankMismatch):
        bundles.UnitaryConnection(mesh, 2, np.tile(eye, (len(mesh.edges), 1, 1)), np.ones(2))


def test_noncommuting_torus_rejected():
    rng = np.random.default_rng(3)
    surf = surfaces.torus(1, 1)
    mesh = meshes.discretize(surf, 2)
    w1, w2 = bundles.random_su2(rng), bundles.random_su2(rng)
    assert np.max(np.abs(w1 @ w2 - w2 @ w1)) > 1e-3   # generic pair
    rep = bundles.HolonomyRepresentation(2, [w1, w2])
    with pytest.raises(BadCuts):
        bundles.connection_from_holonomy(mesh, rep)


def test_gauge_invariance():
    rng = np.random.default_rng(23)
    surf = surfaces.torus(2, 2)
    mesh = meshes.discretize(surf, 2)
    rep = bundles.random_flat_representation(surf, 2, rng)
    conn = bundles.connection_from_holonomy(mesh, rep)
    base = np.linalg.eigvalsh(laplacian.assemble(conn))
    loop = bundles.generator_loop(mesh, 0)
    base_tr = np.trace(bundles.cycle_monodromy(conn, loop))
    worst = 0.0
    for _ in range(20):
        u = [bundles.random_unitary(rng, 2) for _ in range(mesh.n_vertices)]
        conn2 = bundles.gauge_transform(conn, u)
        worst = max(worst, float(np.max(np.abs(
            np.linalg.eigvalsh(laplacian.assemble(conn2)) - base))))
        assert abs(np.trace(bundles.cycle_monodromy(conn2, loop)) - base_tr) < 1e-10
    assert worst < 1e-10


def test_gauge_of_trivial_matches_untwisted():
    rng = np.random.default_rng(29)
    mesh = meshes.discretize(surfaces.rectangle(2, 1), 2)
    conn = bundles.trivial_connection(mesh, 1)
    base = np.linalg.eigvalsh(laplacian.assemble(conn))
    u = [bundles.random_unitary(rng, 1) for _ in range(mesh.n_vertices)]
    twisted = np.linalg.eigvalsh(laplacian.assemble(bundles.gauge_transform(conn, u)))
    assert np.max(np.abs(base - twisted)) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(surf=st.sampled_from([surfaces.torus(1, 1), surfaces.cylinder(2, 1)]),
       rank=st.integers(1, 2), n=st.integers(1, 2), trivial=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_gauge_keeps_flat_sections_spectrum_and_crsf_sum(surf, rank, n, trivial, seed):
    rng = np.random.default_rng(seed)
    mesh = meshes.discretize(surf, n)
    if trivial:
        conn = bundles.trivial_connection(mesh, rank)
    else:
        rep = bundles.random_flat_representation(surf, rank, rng)
        conn = bundles.connection_from_holonomy(mesh, rep)
    # SU(2) gauges keep rank-2 transports special unitary, as the CRSF sum needs
    u = [bundles.random_unitary(rng, 1) if rank == 1 else bundles.random_su2(rng)
         for _ in range(mesh.n_vertices)]
    moved = bundles.gauge_transform(conn, u)
    assert moved.flat_sections == conn.flat_sections == (rank if trivial else 0)
    lam, moved_lam = (laplacian.spectrum(laplacian.assemble(c),
                                         expected_kernel_dim=c.flat_sections).eigenvalues
                      for c in (conn, moved))
    assert np.max(np.abs(lam - moved_lam)) <= 1e-12
    crsfs = forests.enumerate_crsfs(mesh)
    total = forests.crsf_weighted_sum(conn, crsfs)
    assert abs(forests.crsf_weighted_sum(moved, crsfs) - total) <= 1e-12 * max(1.0, abs(total))


def test_identity_gauge_is_identity():
    mesh = meshes.discretize(surfaces.cylinder(3, 1), 1)
    rep = bundles.HolonomyRepresentation(1, [np.array([[np.exp(0.7j)]])])
    conn = bundles.connection_from_holonomy(mesh, rep)
    same = bundles.gauge_transform(conn, [np.eye(1)] * mesh.n_vertices)
    for t1, t2 in zip(conn.transports, same.transports):
        assert np.allclose(t1, t2, atol=1e-15)


def test_gauge_rejects_nonunitary():
    mesh = meshes.discretize(surfaces.rectangle(1, 1), 2)
    conn = bundles.trivial_connection(mesh, 1)
    bad = [np.array([[2.0]])] * mesh.n_vertices
    with pytest.raises(NonUnitaryGauge):
        bundles.gauge_transform(conn, bad)


def test_homotopic_loops_equal_traces():
    # two horizontal torus loops on different rows are freely homotopic
    rng = np.random.default_rng(31)
    surf = surfaces.torus(2, 2)
    mesh = meshes.discretize(surf, 2)
    rep = bundles.random_flat_representation(surf, 2, rng)
    conn = bundles.connection_from_holonomy(mesh, rep)
    by_slot = slot_edges(mesh)
    from torsionlab.complexes import E as SIDE_E
    rows = []
    for gj in (0, 1, 3):
        tile_j, j = divmod(gj, 2)
        cyc = []
        for gi in range(4):
            tile_i, i = divmod(gi, 2)
            cyc.append(by_slot[(((tile_i, tile_j), i, j), SIDE_E)])
        rows.append(bundles.cycle_monodromy(conn, cyc))
    assert abs(np.trace(rows[0]) - np.trace(rows[1])) < 1e-12
    assert abs(np.trace(rows[0]) - np.trace(rows[2])) < 1e-12


def test_face_cycles_flat_and_reversal():
    rng = np.random.default_rng(37)
    surf = surfaces.cylinder(3, 2)
    mesh = meshes.discretize(surf, 2)
    rep = bundles.random_flat_representation(surf, 2, rng)
    conn = bundles.connection_from_holonomy(mesh, rep)
    face = mesh.faces()[0]
    assert np.allclose(bundles.cycle_monodromy(conn, face), np.eye(2), atol=1e-12)
    loop = bundles.generator_loop(mesh, 0)
    w = bundles.cycle_monodromy(conn, loop)
    rev = [(i, -d) for i, d in reversed(loop)]
    assert np.allclose(bundles.cycle_monodromy(conn, rev), w.conj().T, atol=1e-12)


@pytest.mark.parametrize("surf,generator", [
    (surfaces.rectangle(2, 1), 0), (surfaces.cylinder(3, 1), 1), (surfaces.lshape(), 0)],
    ids=["rectangle-0", "cylinder-1", "lshape-0"])
def test_generator_loop_needs_a_periodic_side(surf, generator):
    with pytest.raises(BadCuts):
        bundles.generator_loop(meshes.discretize(surf, 2), generator)


@pytest.mark.parametrize("surf", [
    surfaces.from_raw([0, 1], [((0, "E"), (1, "W"), "translation"),
                               ((1, "E"), (0, "W"), "translation"),
                               ((0, "N"), (0, "S"), "translation"),
                               ((1, "N"), (1, "S"), "translation")]),
    surfaces.rescale(surfaces.torus(1, 1), 2), surfaces.rescale(surfaces.cylinder(2, 1), 2)],
    ids=["raw-torus", "rescaled-torus", "rescaled-cylinder"])
def test_random_bundle_needs_cuts_where_there_are_loops(surf):
    assert surfaces.standard_cuts(surf) == []
    with pytest.raises(BadCuts):
        bundles.random_flat_representation(surf, 1, np.random.default_rng(3))


@pytest.mark.parametrize("surf", [surfaces.lshape(), surfaces.slit(), surfaces.cone_model(3)],
                         ids=["lshape", "slit", "cone3"])
def test_random_bundle_on_a_disk_is_trivial(surf):
    # chi = 1: a disk, with trivial fundamental group
    rep = bundles.random_flat_representation(surf, 2, np.random.default_rng(3))
    assert rep.rank == 2 and rep.generators == []


def test_not_a_closed_walk():
    mesh = meshes.discretize(surfaces.rectangle(2, 1), 1)
    conn = bundles.trivial_connection(mesh, 1)
    with pytest.raises(NotAClosedWalk):
        bundles.cycle_monodromy(conn, [(0, +1)])
    with pytest.raises(NotAClosedWalk):
        bundles.cycle_monodromy(conn, [])


def test_flat_sections_dim():
    eye_rep = bundles.HolonomyRepresentation(2, [np.eye(2), np.eye(2)])
    assert bundles.flat_sections_dim(eye_rep) == 2
    rep = bundles.HolonomyRepresentation(2, [np.diag([1j, -1j])])
    assert bundles.flat_sections_dim(rep) == 0
    rep = bundles.HolonomyRepresentation(2, [np.diag([1.0, np.exp(1j)])])
    assert bundles.flat_sections_dim(rep) == 1
    for alpha, expect in ((0.0, 1), (1.3, 0)):
        rep = bundles.HolonomyRepresentation(1, [np.array([[np.exp(1j * alpha)]])])
        assert bundles.flat_sections_dim(rep) == expect
    # no generators: every section is flat
    assert bundles.flat_sections_dim(bundles.HolonomyRepresentation(3, [])) == 3


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(phases=st.lists(st.one_of(st.just(0.0), st.floats(-12, 0).map(lambda e: 10.0 ** e),
                                 st.floats(-math.pi, math.pi)), max_size=3))
def test_rank_1_flat_basis_is_the_svd_rule(phases):
    # one column's singular value is its norm: the rank-1 path keeps the
    # SVD's count, and its basis up to a unit factor
    rep = bundles.HolonomyRepresentation.from_phases(phases)
    got, want = bundles.flat_basis(rep), oracles.svd_flat_basis(rep)
    assert got.shape == want.shape
    assert np.allclose(np.abs(got), np.abs(want), rtol=0, atol=1e-15)


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("surfname,n", [("torus", 2), ("torus", 3), ("torus", 4),
                                        ("cylinder", 2), ("cylinder", 3),
                                        ("cylinder", 4)])
def test_kernel_dim_equals_flat_sections(surfname, n, rank):
    rng = np.random.default_rng(41 + n + rank)
    surf = surfaces.torus(1, 1) if surfname == "torus" else surfaces.cylinder(2, 1)
    mesh = meshes.discretize(surf, n)
    rep = bundles.random_flat_representation(surf, rank, rng)
    conn = bundles.connection_from_holonomy(mesh, rep)
    expected = bundles.flat_sections_dim(rep)
    spec = laplacian.spectrum(laplacian.assemble(conn), expected_kernel_dim=expected)
    assert spec.kernel_dim == expected


def test_representation_json_round_trip():
    rng = np.random.default_rng(43)
    rep = bundles.HolonomyRepresentation(2, [bundles.random_su2(rng)])
    again = bundles.HolonomyRepresentation.from_json(rep.to_json())
    assert np.allclose(rep.generators[0], again.generators[0])


def test_random_su2_is_special_unitary():
    rng = np.random.default_rng(47)
    for _ in range(10):
        w = bundles.random_su2(rng)
        assert abs(np.linalg.det(w) - 1) < 1e-12
        assert np.allclose(w.conj().T @ w, np.eye(2), atol=1e-12)


def test_bad_cuts_on_boundary():
    mesh = meshes.discretize(surfaces.rectangle(2, 1), 1)
    with pytest.raises(BadCuts, match="boundary side"):
        mesh.refine_cuts([{((0, 0), 2): 1}])


@pytest.mark.parametrize("cut,match", [
    ({((2, 0), "E"): 1}, "side label"), ({((2, 0), 4): 1}, "side label"),
    ({((2, 0), 0): 2}, "sign"), ({((2, 0), 0): 0}, "sign")],
    ids=["side-name", "side-4", "sign-2", "sign-0"])
def test_malformed_cuts_are_refused(cut, match):
    # (2, 0)'s E side is the periodic seam of cylinder(3, 1)
    mesh = meshes.discretize(surfaces.cylinder(3, 1), 2)
    with pytest.raises(BadCuts, match=match):
        mesh.refine_cuts([cut])


def _rows(phases):
    """The rows of a phase array in lexicographic order: characters come in
    the eigenbasis' order."""
    return np.array(sorted(map(tuple, np.asarray(phases).tolist())))


def test_characters_read_the_phases_through_a_gauge():
    phases = np.array([[0.3, -1.2], [2.0, 0.0], [0.3, -1.2]])
    g = bundles.random_unitary(np.random.default_rng(4), 3)
    gens = [g @ np.diag(np.exp(1j * phases[:, k])) @ g.conj().T for k in range(2)]
    got = bundles.HolonomyRepresentation(3, gens).characters()
    assert got.shape == (3, 2)
    assert np.allclose(_rows(got), _rows(phases), rtol=0, atol=1e-12)
    assert bundles.HolonomyRepresentation(2, []).characters().shape == (2, 0)
    assert bundles.HolonomyRepresentation.from_phases([0.7]).characters().tolist() == [[0.7]]


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rank=st.integers(2, 3))
def test_non_commuting_generators_have_no_characters(seed, rank):
    rng = np.random.default_rng(seed)
    rep = bundles.HolonomyRepresentation(rank, [bundles.random_unitary(rng, rank)
                                                for _ in range(2)])
    with pytest.raises(BadCuts, match="do not commute"):
        rep.characters()
