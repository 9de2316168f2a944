"""Continuum spectra, heat traces, zeta(0), Dedekind eta, closed-form torsions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from torsionlab import bundles, laplacian, meshes, surfaces, torsion as ts
from torsionlab.experiments import convergence_study
from torsionlab.errors import BadCuts, BudgetExceeded, EtaDomainError


def test_continuum_spectrum_examples():
    sp = ts.SeparableSurface("rectangle", 1, 1).continuum_eigenvalues(20)
    assert np.allclose(sp[:4], [0.0, math.pi ** 2, math.pi ** 2, 2 * math.pi ** 2])
    sp = ts.SeparableSurface("torus", 1, 1).continuum_eigenvalues(40)
    assert sp[0] == 0.0
    assert np.allclose(sp[1:5], [4 * math.pi ** 2] * 4)
    assert len(sp) >= 5
    sp = ts.SeparableSurface("cylinder", 1, 1).continuum_eigenvalues(42)
    # 0, pi^2 (k=1), 4 pi^2 (m = +-1 and k=2)
    assert sp[0] == 0.0 and abs(sp[1] - math.pi ** 2) < 1e-12
    assert np.allclose(sp[2:5], [4 * math.pi ** 2] * 3)


def test_continuum_spectrum_type():
    sp = ts.SeparableSurface("rectangle", 1, 1)
    assert len(sp.continuum_eigenvalues(20.0)) == 4
    total, tail = sp.zeta_partial(2.0, 1e5)
    assert tail < 1e-6
    lams = sp.continuum_eigenvalues(1e5)
    direct = sum(x ** -2.0 for x in lams[1:])
    assert abs(total - direct) < 1e-15
    # the tail bound really does bound the dropped modes
    more = sum(x ** -2.0 for x in sp.continuum_eigenvalues(4e5) if x > 1e5)
    assert more <= tail


def test_weyl_counting():
    cutoff = 1e4
    for kind, a, b in (("rectangle", 1, 2), ("torus", 1, 1)):
        n_modes = len(ts.SeparableSurface(kind, a, b).continuum_eigenvalues(cutoff))
        expect = a * b * cutoff / (4 * math.pi)
        assert abs(n_modes / expect - 1) < 0.05


def test_heat_trace_values():
    square = ts.SeparableSurface("rectangle", 1, 1)
    tr = square.heat_trace(0.1)
    series = sum(math.exp(-0.1 * lam) for lam in square.continuum_eigenvalues(400.0))
    assert abs(tr - series) < 1e-12
    expansion = square.heat_trace_expansion(0.1)
    assert abs(expansion - (1 / (0.4 * math.pi) + 2 / (4 * math.sqrt(0.1 * math.pi)) + 0.25)) < 1e-12
    # at t = 0.1 on the unit square the remainder is a few 1e-4, not smaller
    assert 1e-5 < abs(tr - expansion) < 1e-3


def test_heat_trace_torus_no_boundary_terms():
    for t in (0.02, 0.05):
        tr = ts.SeparableSurface("torus", 2, 2).heat_trace(t)
        assert abs(tr - 4 / (4 * math.pi * t)) < 2e-3
    # exponential decay of the remainder as t -> 0
    unit = ts.SeparableSurface("torus", 1, 1)
    r1 = abs(unit.heat_trace(0.02) - 1 / (4 * math.pi * 0.02))
    r2 = abs(unit.heat_trace(0.01) - 1 / (4 * math.pi * 0.01))
    assert r2 < 1e-3 * r1


def test_heat_trace_cylinder_boundary_term():
    t = 0.05
    setup = ts.SeparableSurface("cylinder", 4, 2)
    tr = setup.heat_trace(t)
    exp_full = setup.heat_trace_expansion(t)
    assert abs(tr - exp_full) < 1e-6
    # the boundary contribution 2a/(8 sqrt(pi t)) is genuinely present
    assert abs(tr - 8 / (4 * math.pi * t)) > 1.0


@pytest.mark.parametrize("kind,a,b", [("rectangle", 2, 2), ("rectangle", 3, 2),
                                      ("torus", 4, 4), ("cylinder", 4, 2)])
def test_heat_trace_expansion_window(kind, a, b):
    setup = ts.SeparableSurface(kind, a, b)
    worst = max(abs(setup.heat_trace(t) - setup.heat_trace_expansion(t))
                for t in np.linspace(0.02, 0.2, 19))
    assert worst < 1e-5


def test_heat_trace_small_surfaces_large_t_residuals():
    # the expansion is asymptotic in t: on unit-size surfaces the window
    # [0.02, 0.2] is not yet asymptotic and the residuals are macroscopic
    torus, square = ts.SeparableSurface("torus", 1, 1), ts.SeparableSurface("rectangle", 1, 1)
    resid = abs(torus.heat_trace(0.2) - torus.heat_trace_expansion(0.2))
    assert resid > 0.5
    resid = abs(square.heat_trace(0.2) - square.heat_trace_expansion(0.2))
    assert 0.01 < resid < 0.03


def test_zeta_zero_exact_values():
    assert ts.zeta_zero(surfaces.geometry_summary(surfaces.rectangle(1, 1))) == Fraction(-3, 4)
    assert ts.zeta_zero(surfaces.geometry_summary(surfaces.rectangle(3, 2))) == Fraction(-3, 4)
    assert ts.zeta_zero(surfaces.geometry_summary(surfaces.lshape())) == Fraction(-13, 18)
    assert ts.zeta_zero(surfaces.geometry_summary(surfaces.torus(1, 1))) == Fraction(-1)
    assert ts.zeta_zero(surfaces.geometry_summary(surfaces.cylinder(3, 2))) == Fraction(-1)
    # rank doubling doubles the angle part; trivial rank-2 bundle has dim H0 = 2
    assert ts.zeta_zero(surfaces.geometry_summary(surfaces.rectangle(1, 1)),
                        rank=2, dim_h0=2) == Fraction(-3, 2)
    # slit: one 2 pi corner and six right corners
    assert ts.zeta_zero(surfaces.geometry_summary(surfaces.slit())) == Fraction(-11, 16)
    # cone pi: (16 - 4)/8 = 3/2 plus two right corners
    assert ts.zeta_zero(surfaces.geometry_summary(surfaces.cone_model(1))) == Fraction(-3, 4)


def test_zeta_zero_simply_connected_shortcut():
    # for planar domains whose non-right corners are all 3 pi/2 the value is
    # -1 + 1/4 + #nonright/36
    for surf, nonright in ((surfaces.rectangle(2, 2), 0), (surfaces.lshape(), 1)):
        z = ts.zeta_zero(surfaces.geometry_summary(surf))
        assert z == Fraction(-1) + Fraction(1, 4) + Fraction(nonright, 36)


def test_zeta_zero_mellin_cross_check():
    z = ts.SeparableSurface("rectangle", 1, 1).zeta0_from_heat_trace()
    assert abs(z - (-0.75)) < 1e-6
    z = ts.SeparableSurface("torus", 1, 1).zeta0_from_heat_trace()
    assert abs(z - (-1.0)) < 1e-6
    z = ts.SeparableSurface("cylinder", 2, 1).zeta0_from_heat_trace()
    assert abs(z - (-1.0)) < 1e-6


@pytest.mark.parametrize("kind", sorted(surfaces.SEPARABLE_KINDS))
def test_separable_zeta0_is_the_angle_rule(kind):
    # a product setup's zeta(0) is zeta_zero of its surface's angle data, flat
    # or twisted; its heat constant is 1/16 per right corner
    twists = (0.0, 1.3) if any(surfaces.SEPARABLE_KINDS[kind]) else (0.0,)
    for a, b in ((1, 1), (2, 3), (3, 1)):
        summary = surfaces.geometry_summary(surfaces.build_surface({"kind": kind, "a": a, "b": b}))
        for alpha in twists:
            setup = ts.SeparableSurface(kind, a, b, alpha)
            assert setup.zeta0 == ts.zeta_zero(summary, dim_h0=setup.dim_h0)
            assert setup.heat_constant == Fraction(4 if kind == "rectangle" else 0, 16)


def test_dedekind_eta():
    v = ts.dedekind_eta(math.exp(-2 * math.pi))
    assert abs(v - math.gamma(0.25) / (2 * math.pi ** 0.75)) < 1e-12
    # q -> 0: eta(q)/q^{1/24} -> 1
    q = 1e-12
    assert abs(ts.dedekind_eta(q) / q ** (1 / 24) - 1.0) < 1e-11
    # sampled shape: the q^{1/24} factor wins below the interior maximum near
    # q ~ 0.0372, after which the product factor makes eta strictly decreasing
    rising = np.linspace(0.001, 0.035, 12)
    vals = [ts.dedekind_eta(q) for q in rising]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    falling = np.linspace(0.05, 0.9, 25)
    vals = [ts.dedekind_eta(q) for q in falling]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(EtaDomainError):
            ts.dedekind_eta(bad)


def test_eta_modular_symmetry():
    for r in (2.0, 3.0, 2.5):
        lhs = r * ts.dedekind_eta(math.exp(-2 * math.pi * r)) ** 4
        rhs = (1 / r) * ts.dedekind_eta(math.exp(-2 * math.pi / r)) ** 4
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_torus_torsion():
    log_eta_i = math.log(ts.dedekind_eta(math.exp(-2 * math.pi)))
    assert abs(ts.torus_torsion(1, 1) - 4 * log_eta_i) < 1e-14
    assert abs(ts.torus_torsion(2, 2) - (ts.torus_torsion(1, 1) + 2 * math.log(2))) < 1e-12
    assert abs(ts.torus_torsion(1, 2) - ts.torus_torsion(2, 1)) < 1e-12
    assert abs(ts.torus_torsion(1, 1) - (-1.0546883)) < 1e-6


def test_rectangle_torsion():
    log_eta_i = math.log(ts.dedekind_eta(math.exp(-2 * math.pi)))
    assert abs(ts.rectangle_torsion(1, 1) - (log_eta_i + 1.5 * math.log(2))) < 1e-14
    assert abs(ts.rectangle_torsion(1, 3) - ts.rectangle_torsion(3, 1)) < 1e-12
    expect = oracles.rescale_torsion(ts.rectangle_torsion(1, 1), Fraction(-3, 4), 2)
    assert abs(ts.rectangle_torsion(2, 2) - expect) < 1e-12


def test_rescale_torsion():
    assert oracles.rescale_torsion(1.23, -1.0, 1) == 1.23
    got = oracles.rescale_torsion(ts.torus_torsion(1, 1), Fraction(-1), 3)
    assert abs(got - ts.torus_torsion(3, 3)) < 1e-12
    got = oracles.rescale_torsion(ts.rectangle_torsion(1, 2), Fraction(-3, 4), 2)
    assert abs(got - ts.rectangle_torsion(2, 4)) < 1e-12
    cylinder = ts.SeparableSurface("cylinder", 2, 1).torsion()
    got = oracles.rescale_torsion(cylinder, Fraction(-1), 2)
    assert abs(got - ts.SeparableSurface("cylinder", 4, 2).torsion()) < 1e-12


def test_zeta_consistency_of_cylinder_formula():
    # the half-torus-plus-circle split of the cylinder spectrum also fixes
    # zeta(0) = (1/2)(-1) + (-1/2) = -1, matching the direct angle formula
    assert ts.zeta_zero(surfaces.geometry_summary(surfaces.cylinder(3, 1))) == Fraction(-1)


def test_label_reads_the_factors_reset_phases():
    # a full turn is no twist: the label agrees with dim_h0 and target()
    assert ts.SeparableSurface("torus", 1, 1, 2 * math.pi).label() == "torus(1,1)"
    assert ts.SeparableSurface("torus", 1, 1, 2 * math.pi, 1.5).label() == \
        "torus(1,1,alpha=0,beta=1.5)"
    assert ts.SeparableSurface("cylinder", 2, 1, 1.25).label() == "cylinder(2,1,alpha=1.25)"


@pytest.mark.parametrize("kind", ["torus", "rectangle", "cylinder"])
def test_row_torsion_matches_the_eta_references(kind):
    # the free cylinder spectrum is the even half of the a x 2b torus spectrum
    # plus the circle modes, whence half the torus value at (a, 2b) plus log a
    reference = {"torus": ts.torus_torsion, "rectangle": ts.rectangle_torsion,
                 "cylinder": lambda a, b: 0.5 * ts.torus_torsion(a, 2 * b) + math.log(a)}[kind]
    for a in (0.5, 1, 1.5, 2, 3):
        for b in (0.25, 1, 2, 3):
            setup = ts.SeparableSurface(kind, a, b)
            assert abs(setup.torsion() - reference(a, b)) < 1e-14
            corners = len(setup.corner_quadrants) * math.log(2) / 16
            assert abs(setup.target() - (reference(a, b) - corners)) < 1e-14


# The twisted targets are checked against Aitken's limit of the renormalized
# series on the ladder n = 64 ... 1024.  On n = 256 ... 4096 over larger
# surfaces, the rounding that the renormalization leaves when it subtracts its
# n^2 and n terms is amplified by Aitken past 1e-7 (1.4e-7 on cylinder(3,3) at
# alpha = 0.3), so this ladder is a hypothesis of the test, not a tolerance.
_TWISTED_LADDER = [64, 128, 256, 512, 1024]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["torus", "cylinder"]), a=st.sampled_from([1, 2, 3]),
       b=st.sampled_from([1, 2, 3]), alpha=st.floats(1e-8, 2 * math.pi, exclude_max=True),
       beta=st.floats(1e-8, 2 * math.pi, exclude_max=True))
def test_twisted_target_is_the_limit_of_the_series(kind, a, b, alpha, beta):
    setup = ts.SeparableSurface(kind, a, b, alpha, beta if kind == "torus" else 0.0)
    series = convergence_study(setup, _TWISTED_LADDER)
    assert abs(series.extrapolated - series.target) < 1e-7


@pytest.mark.parametrize("kind,a,b,alpha,beta", [("torus", 1, 1, 1.3, -0.7),
                                                 ("torus", 2, 1, 0.5, 2.0),
                                                 ("cylinder", 1, 2, 1e-6, 0.0),
                                                 ("cylinder", 2, 1, math.pi, 0.0)])
def test_twisted_heat_trace_is_the_sum_over_the_twisted_spectrum(kind, a, b, alpha, beta):
    setup = ts.SeparableSurface(kind, a, b, alpha, beta)
    # x = 4 pi^2 t / a^2 of the twisted circles: t = 0.01 lies below the
    # switch at x = 0.7 (the dual series), t = 0.2 above it
    for t in (0.01, 0.2):
        direct = math.fsum(math.exp(-t * lam) for lam in setup.continuum_eigenvalues(40 / t))
        assert abs(setup.heat_trace(t) - direct) < 1e-13 * direct


# -- flat bundles on tori and cylinders as sums of characters --------------------

# A phase this far from 0 keeps the smallest mesh eigenvalue at n <= 4 above
# 4 sin^2(0.25 / 16) = 1e-3, where dense eigvalsh, whose error is about
# 1e-15 absolute, still resolves log det' to 1e-12; nearer phases are checked
# against the direct sum below, and at the CLI against 1e-7 and 1e-9 twists
_AWAY_FROM_ZERO = st.floats(0.25, 0.5)
_PHASE = st.one_of(
    st.just(0.0), st.just(math.pi), _AWAY_FROM_ZERO, _AWAY_FROM_ZERO.map(lambda p: -p),
    st.floats(0.0, 0.25).map(lambda d: math.pi - d),             # near pi
    st.floats(0.25, 2 * math.pi - 0.25))


@st.composite
def _split_bundles(draw, phase=_PHASE):
    """(kind, a, b, n, rep): commuting generators g D_k g* at rank 1 to 3 on a
    torus or a cylinder at n <= 4, the rows of the diagonal D_k its
    characters, a repeated character and a Haar gauge g included."""
    kind = draw(st.sampled_from(["torus", "cylinder"]))
    a, b, n = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 4))
    rank = draw(st.integers(1, 3))
    n_gens = 2 if kind == "torus" else 1
    rows = draw(st.lists(st.tuples(*[phase] * n_gens), min_size=rank, max_size=rank))
    if rank > 1 and draw(st.booleans()):
        rows[1] = rows[0]
    g = bundles.random_unitary(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), rank)
    phases = np.array(rows)
    gens = [g @ np.diag(np.exp(1j * phases[:, k])) @ g.conj().T for k in range(n_gens)]
    return kind, a, b, n, bundles.HolonomyRepresentation(rank, gens)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(drawn=_split_bundles())
def test_character_sum_equals_the_sparse_and_dense_mesh_routes(drawn):
    kind, a, b, n, rep = drawn
    split = ts.CharacterSum.from_holonomy(kind, a, b, rep)
    assert split.rank == rep.rank and split.dim_h0 == bundles.flat_sections_dim(rep)
    mesh = meshes.discretize(getattr(surfaces, kind)(a, b), n)
    conn = bundles.connection_from_holonomy(mesh, rep)
    sparse = oracles.sparse_log_det(conn)
    dense = laplacian.log_det_prime(laplacian.spectrum(laplacian.assemble(conn),
                                                       expected_kernel_dim=conn.flat_sections))
    got = split.log_det(n)
    # relative, or absolute where log det' is near 0 (one vertex, few eigenvalues)
    for want in (sparse.log_det_prime, dense):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    assert sparse.kernel_dim == split.dim_h0
    gap = split.kernel_gap(n)
    assert (gap is None) == (sparse.kernel_gap is None)
    if gap is not None:
        assert abs(gap - sparse.kernel_gap) <= 1e-8 * gap


def _direct_log_det(setup, n):
    """fsum of log over the character's full (an, bn) grid of eigenvalue sums,
    4 sin^2((2 pi j + phase) / 2m) on a circle and 4 sin^2(pi j / 2m) on a
    segment of m sites, less its dim_h0 zero mode."""
    sides = []
    for f in setup.factors:
        m = int(f.length * n)
        j = np.arange(m)
        sides.append(4 * np.sin((2 * np.pi * j + f.phase) / (2 * m)) ** 2 if f.periodic
                     else 4 * np.sin(np.pi * j / (2 * m)) ** 2)
    grid = np.sort(np.add.outer(*sides), axis=None)[setup.dim_h0:]
    return math.fsum(np.log(grid).tolist()), (float(grid[0]) if grid.size else None)


_NEAR_ZERO = st.floats(-12, -0.6).map(lambda e: 10.0 ** e)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(drawn=_split_bundles(st.one_of(_PHASE, _NEAR_ZERO, _NEAR_ZERO.map(lambda p: -p))))
def test_character_sum_equals_the_direct_sum_at_any_twist(drawn):
    # twists down to 1e-12, which no mesh route resolves: each character's
    # log det' and gap against its eigenvalue grid summed term by term
    kind, a, b, n, rep = drawn
    split = ts.CharacterSum.from_holonomy(kind, a, b, rep)
    want = [_direct_log_det(s, n) for s in split.setups]
    total = math.fsum(w for w, _ in want)
    assert abs(split.log_det(n) - total) <= 1e-12 * max(1.0, abs(total))
    gaps = [g for _, g in want if g is not None]
    assert split.kernel_gap(n) == (min(gaps) if gaps else None)
    assert split.dim_h0 == bundles.flat_sections_dim(rep)


def test_characters_of_the_trivial_bundle_and_the_rectangle():
    split = ts.CharacterSum.from_holonomy("rectangle", 2, 1, None, rank=3)
    one = ts.SeparableSurface("rectangle", 2, 1)
    assert split.setups == (one,) * 3 and split.dim_h0 == 3
    assert split.log_det(4) == math.fsum([one.log_det(4)] * 3)
    rep = bundles.HolonomyRepresentation(2, [])
    assert ts.CharacterSum.from_holonomy("rectangle", 2, 1, rep).setups == (one, one)
    # one vertex with its flat section: no nonzero eigenvalue
    assert ts.CharacterSum.from_holonomy("torus", 1, 1).kernel_gap(1) is None


def test_character_sum_needs_one_generator_per_periodic_side():
    rep = bundles.HolonomyRepresentation.from_phases([0.3])
    with pytest.raises(BadCuts, match="2 cuts for 1 generators"):
        ts.CharacterSum.from_holonomy("torus", 1, 1, rep)


def test_closed_form_budget_is_checked_before_any_array(monkeypatch):
    sizes = []
    real = ts.Factor.mesh_eigenvalues
    monkeypatch.setattr(ts.Factor, "mesh_eigenvalues",
                        lambda self, n: sizes.append(self.length * n) or real(self, n))
    side = ts.CLOSED_FORM_BUDGET // 4
    setup = ts.SeparableSurface("cylinder", 1, 8)       # side b has 8n sites
    with pytest.raises(BudgetExceeded):
        setup.log_det(side)
    with pytest.raises(BudgetExceeded):
        setup.kernel_gap(side)
    with pytest.raises(BudgetExceeded):
        ts.SeparableSurface("rectangle", 1, 1).mesh_spectrum(2049)
    assert sizes == []
    # the sizes the studies use stay within it
    assert ts.SeparableSurface("rectangle", 1, 1).mesh_spectrum(256).eigenvalues.size == 65536
    ts.SeparableSurface("cylinder", 2, 1).log_det(2 ** 17)
