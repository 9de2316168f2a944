"""The strip route (strips.strip_log_det) against its oracle, the sparse LU
of the tests' oracles.

The trivial bundle at ranks 1 to 3: log det' to 1e-12 relative and the kernel
gap to 1e-8 relative, on every NAMED_KINDS kind and on cone(pi) and cone(3 pi)
turned a quarter turn (E/W half-turns, turned upright by complexes.upright)
on the ladder n = 1, 2, 3, 5, 8, 16, on the L-shape and cone(3 pi) at n = 64,
and on raw gluings with E/W and N/S pairings of both kinds at n <= 4.  A
quarter turn changes the strips but not the mesh, so it moves log det' only
by rounding, at n = 256; turning tiles upright changes neither the mesh's
counts nor its degrees nor its dense log det'.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import sparse_log_det
from torsionlab import bundles, complexes, laplacian, meshes, strips, surfaces
from torsionlab.complexes import E, N, S, W
from torsionlab.errors import BudgetExceeded, InvalidGluing, KernelMismatch

RANKS = (1, 2, 3)
LADDER = (1, 2, 3, 5, 8, 16)

# every kind of NAMED_KINDS, the cones at both parities and a side of one tile
NAMED = [{"kind": "rectangle", "a": 2, "b": 3}, {"kind": "rectangle", "a": 1, "b": 1},
         {"kind": "torus", "a": 2, "b": 1}, {"kind": "torus", "a": 1, "b": 3},
         {"kind": "cylinder", "a": 3, "b": 2}, {"kind": "cylinder", "a": 1, "b": 1},
         {"kind": "lshape"}, {"kind": "slit"}, {"kind": "cone", "k": 1},
         {"kind": "cone", "k": 3}, {"kind": "cone", "k": 4}, {"kind": "angle", "k": 5}]

# a 5-tile origami in H(1,1): one 5-tile strip, and a 4-tile and a 1-tile
# strip once turned
H11 = surfaces.from_raw(range(5), [((t, "E"), ((t + 1) % 5, "W"), "translation")
                                   for t in range(5)]
                        + [((t, "N"), (u, "S"), "translation")
                           for t, u in enumerate((0, 3, 4, 2, 1))])


def _agree(surface, n, ranks=RANKS):
    mesh = meshes.discretize(surface, n)
    for rank in ranks:
        want = sparse_log_det(bundles.trivial_connection(mesh, rank))
        got = strips.strip_log_det(surface.complex.partner, n, rank)
        assert got.kernel_dim == want.kernel_dim == rank
        assert abs(got.log_det_prime - want.log_det_prime) <= 1e-12 * abs(want.log_det_prime)
        if want.kernel_gap is None:
            assert got.kernel_gap is None and got.lanczos_steps == 0
        else:
            assert abs(got.kernel_gap - want.kernel_gap) <= 1e-8 * want.kernel_gap


def test_the_named_surfaces_cover_every_named_kind():
    assert {spec["kind"] for spec in NAMED} == set(surfaces.NAMED_KINDS)


@pytest.mark.parametrize("n", LADDER)
@pytest.mark.parametrize("spec", NAMED, ids=lambda spec: "-".join(map(str, spec.values())))
def test_strip_route_matches_the_sparse_route(spec, n):
    _agree(surfaces.build_surface(spec), n)


@pytest.mark.parametrize("surface,ranks", [(surfaces.lshape(), RANKS),
                                           (surfaces.cone_model(3), (1, 2))],
                         ids=["lshape", "cone3"])
def test_strip_route_matches_the_sparse_route_at_n_64(surface, ranks):
    # cone(3 pi) at rank 3 is beyond the sparse budget at n = 64
    _agree(surface, 64, ranks)


@st.composite
def _gluings(draw):
    """Raw tiles and pairings: some E and W sides paired, and some N and S
    sides, each by a translation across opposite labels or a half-turn across
    equal ones (so E/W half-turns too)."""
    tiles = draw(st.integers(1, 4))
    pairs = []
    for labels in (("E", "W"), ("N", "S")):
        sides = draw(st.permutations([(t, d) for t in range(tiles) for d in labels]))
        glued = 2 * draw(st.integers(0, tiles))
        for a, b in zip(sides[:glued:2], sides[1:glued:2]):
            pairs.append((a, b, "half-turn" if a[1] == b[1] else "translation"))
    return tiles, pairs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gluing=_gluings(), n=st.integers(1, 4), rank=st.sampled_from(RANKS))
def test_strip_route_matches_the_sparse_route_on_raw_gluings(gluing, n, rank):
    tiles, pairs = gluing
    try:
        surface = surfaces.from_raw(range(tiles), pairs)
    except InvalidGluing:
        assume(False)
    assume(surface.complex.n_components() == 1)
    _agree(surface, n, (rank,))


def _quarter_turn(partner):
    """The partner array of the complex turned a quarter turn counterclockwise:
    side E of every tile becomes N, N becomes W, W becomes S and S becomes E.
    Each glued pair keeps its kind and its side parameters' relation, so the
    mesh is the same graph."""
    label = np.array([N, W, S, E])
    slot = np.arange(len(partner))
    moved = (slot & ~3) + label[slot & 3]
    out = np.full_like(partner, -1)
    glued = partner >= 0
    out[moved[glued]] = moved[partner[glued]]
    return out


@pytest.mark.parametrize("surface", [surfaces.slit(), H11], ids=["slit", "h11"])
def test_a_quarter_turn_changes_the_strips_not_the_log_det(surface):
    partner = surface.complex.partner
    turned = _quarter_turn(partner)

    def shapes(p):
        return sorted(strip.tiles.shape for strip in complexes.horizontal_strips(p))

    assert shapes(turned) != shapes(partner)
    got = strips.strip_log_det(turned, 256)
    want = strips.strip_log_det(partner, 256)
    assert got.K != want.K or got.strips != want.strips
    assert abs(got.log_det_prime - want.log_det_prime) <= 1e-12 * want.log_det_prime
    # the turned complex is a surface of its own, on which the oracle agrees
    _agree(_turned(surface), 3)


def _turned(surface):
    """``surface`` turned a quarter turn: a surface of its own, on the same mesh."""
    turned = _quarter_turn(surface.complex.partner)
    return surfaces.SquareTiledSurface(
        complexes.SquareComplex.from_partner(surface.complex.cells, turned))


@pytest.mark.parametrize("n", LADDER)
@pytest.mark.parametrize("k", [1, 3], ids=["cone1", "cone3"])
def test_strip_route_matches_the_sparse_route_across_ew_half_turns(k, n):
    # rank 3 fits the oracle's budget on the whole ladder: 3|V| + 18|E| is
    # 236 160 on cone(3 pi) at n = 16
    surface = _turned(surfaces.cone_model(k))
    assert len(complexes.east_west_half_turns(surface.complex.partner))
    _agree(surface, n)


def _degrees(mesh):
    return np.sort(np.bincount(np.concatenate([mesh.edge_u, mesh.edge_v]),
                               minlength=mesh.n_vertices))


def _dense_log_det(mesh):
    conn = bundles.trivial_connection(mesh, 1)
    return laplacian.log_det_prime(laplacian.spectrum(laplacian.assemble(conn),
                                                      expected_kernel_dim=1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(gluing=_gluings())
def test_upright_turns_tiles_without_changing_the_mesh(gluing):
    tiles, pairs = gluing
    try:
        surface = surfaces.from_raw(range(tiles), pairs)
    except InvalidGluing:
        assume(False)
    assume(surface.complex.n_components() == 1)
    partner = surface.complex.partner
    turned = complexes.upright(partner)
    if not len(complexes.east_west_half_turns(partner)):
        assert turned is partner
        return
    assert not len(complexes.east_west_half_turns(turned))
    upright = surfaces.SquareTiledSurface(
        complexes.SquareComplex.from_partner(surface.complex.cells, turned))
    for n in (1, 2, 3):
        want, got = meshes.discretize(surface, n), meshes.discretize(upright, n)
        assert (got.n_vertices, len(got.edge_u)) == (want.n_vertices, len(want.edge_u))
        assert np.array_equal(_degrees(got), _degrees(want))
        ld = _dense_log_det(want)
        assert abs(_dense_log_det(got) - ld) <= 1e-12 * max(1.0, abs(ld))


def test_strips_read_off_the_tiles():
    # the interface sizes K / n of the measured surfaces (at n = 1 the one row
    # of H11's strip is its bottom and its top row)
    for surface, kept in ((surfaces.cone_model(1), 4), (surfaces.lshape(), 6),
                          (surfaces.slit(), 8), (H11, 10), (surfaces.cone_model(3), 12),
                          (surfaces.cone_model(4), 16)):
        for n in (2, 3):
            assert strips.strip_log_det(surface.complex.partner, n).K == kept * n
    torus = complexes.horizontal_strips(surfaces.torus(3, 2).complex.partner)
    assert len(torus) == 1 and torus[0].tiles.shape == (2, 3)
    assert torus[0].cyclic and torus[0].wrap == 0
    assert torus[0].keep_bottom and not torus[0].keep_top


def test_strip_route_refuses_what_it_does_not_cover():
    cone = surfaces.cone_model(1).complex.partner
    two = surfaces.from_raw(range(2), [])        # two tiles in two pieces
    with pytest.raises(KernelMismatch):
        strips.strip_log_det(two.complex.partner, 2)
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        strips.strip_log_det(cone, 0)


def test_strip_budget_is_checked_before_any_array():
    # the L-shape holds K = 6n, strips of m = 4n and 2n and |V| = 12 n^2: n = 1024
    # runs, n = 2048 is refused
    assert 56 * 1024 ** 2 + strips.STRIP_VECTORS * 12 * 1024 ** 2 <= strips.STRIP_BUDGET
    with pytest.raises(BudgetExceeded, match="strip budget"):
        strips.strip_log_det(surfaces.lshape().complex.partner, 2048)


def test_rank_r_is_r_times_rank_1():
    one = strips.strip_log_det(surfaces.slit().complex.partner, 5)
    three = strips.strip_log_det(surfaces.slit().complex.partner, 5, 3)
    assert three.log_det_prime == pytest.approx(3 * one.log_det_prime, rel=1e-15)
    assert three.kernel_gap == one.kernel_gap and three.kernel_dim == 3
    assert one.log_det_prime > math.log(16 * 25)
