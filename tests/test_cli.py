"""End-to-end CLI runs: artifacts, exit codes, determinism."""

import argparse
import cmath
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import torsionlab

from torsionlab import cli, meshes
from torsionlab.errors import ConfigError, KernelMismatch


def _run(tmp_path, cfg, name="cfg.json", extra=()):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / ("out_" + name.replace(".json", ""))
    return cli.main(["run", "--config", str(cfg_path), "--out", str(out), *extra]), out


_TORUS11 = {"kind": "torus", "a": 1, "b": 1}
_TWIST = {"alpha": 1.3, "beta": -0.7}
# cone(pi) turned a quarter turn: a 2 x 4 block whose W sides fold onto each
# other by half-turns, which no horizontal strip holds
_TURNED_CONE1 = {
    "kind": "raw", "tiles": [[i, j] for i in range(2) for j in range(4)],
    "pairings": ([[[[0, j], "E"], [[1, j], "W"], "translation"] for j in range(4)]
                 + [[[[i, j], "N"], [[i, j + 1], "S"], "translation"]
                    for i in range(2) for j in range(3)]
                 + [[[[0, 0], "W"], [[0, 3], "W"], "half-turn"],
                    [[[0, 1], "W"], [[0, 2], "W"], "half-turn"]])}


def test_renorm_series_run(tmp_path):
    cfg = {"experiment": "renorm-series",
           "surface": {"kind": "torus", "a": 1, "b": 1}, "n_list": [32, 64, 128]}
    code, out = _run(tmp_path, cfg, extra=("--plot",))
    assert code == 0
    lines = (out / "series.csv").read_text().strip().split("\n")
    assert lines[0] == "n,logdet,renormalized,extrapolated_limit,target,abs_error"
    assert len(lines) == 4
    meta = json.loads((out / "meta.json").read_text())
    assert abs(meta["extrapolated"] - meta["target"]) < 5e-3
    assert (out / "plot.svg").read_text().startswith("<svg")


def test_crsf_verify_run(tmp_path):
    gen = [[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]   # diag(i, -i)
    cfg = {"experiment": "crsf-verify", "surface": {"kind": "cylinder", "a": 3, "b": 1},
           "n": 1, "bundle": {"kind": "raw", "rank": 2, "generators": [gen]}}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "sqrt_ok=true" in report and "sum=2.0" in report
    meta = json.loads((out / "meta.json").read_text())
    assert abs(meta["det"] - 4.0) < 1e-9


@pytest.mark.parametrize("surface,n,rank,flag", [
    ({"kind": "cylinder", "a": 3, "b": 1}, 1, 1, "det_ok"),
    ({"kind": "torus", "a": 1, "b": 1}, 2, 2, "sqrt_ok")])
def test_crsf_verify_trivial_bundle_compares_with_det_zero(tmp_path, surface, n, rank, flag):
    # every cycle weight of the trivial bundle is 0, and so is det: it has flat sections
    cfg = {"experiment": "crsf-verify", "surface": surface, "n": n,
           "bundle": {"kind": "trivial", "rank": rank}}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    assert (out / "report.txt").read_text() == f"sum=0.0 det=0.0 {flag}=true\n"
    meta = json.loads((out / "meta.json").read_text())
    assert meta["det"] == 0.0 and meta["identity_ok"] is True


def test_malformed_json_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"experiment": "szego", ')
    out = tmp_path / "out_bad"
    assert cli.main(["run", "--config", str(p), "--out", str(out)]) == 2
    assert not out.exists()


def test_unknown_kind_exits_2(tmp_path):
    code, out = _run(tmp_path, {"experiment": "nope"})
    assert code == 2 and not out.exists()


def test_unknown_bundle_kind_exits_2(tmp_path):
    cfg = {"experiment": "logdet", "surface": {"kind": "torus", "a": 1, "b": 1}, "n": 2,
           "bundle": {"kind": "foo"}}
    code, out = _run(tmp_path, cfg)
    assert code == 2 and not out.exists()


_MINUS_ONE = [[[-1.0, 0.0]]]
_ONE = [[[1.0, 0.0]]]


def test_generators_without_kind_are_a_raw_bundle(tmp_path):
    from torsionlab.meshspectra import closed_form_log_det
    cfg = {"experiment": "logdet", "surface": {"kind": "torus", "a": 1, "b": 1}, "n": 4,
           "bundle": {"rank": 1, "generators": [_MINUS_ONE, _ONE]}}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    closed = closed_form_log_det("torus", 1, 1, 4, math.pi, 0.0)
    assert meta["kernel_dim"] == 0
    assert abs(meta["logdet_prime"] - closed) <= 1e-12 * abs(closed)


def _phase(t):
    return [[[math.cos(t), math.sin(t)], [0.0, 0.0]], [[0.0, 0.0], [math.cos(t), -math.sin(t)]]]


def test_raw_bundle_takes_its_rank_from_the_generators(tmp_path):
    from torsionlab.meshspectra import closed_form_log_det
    cfg = {"experiment": "logdet", "surface": {"kind": "torus", "a": 1, "b": 1}, "n": 2,
           "bundle": {"generators": [_phase(0.7), _phase(0.3)]}}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    closed = sum(closed_form_log_det("torus", 1, 1, 2, s * 0.7, s * 0.3) for s in (1, -1))
    assert abs(json.loads((out / "meta.json").read_text())["logdet_prime"] - closed) \
        <= 1e-12 * abs(closed)


def test_raw_bundle_with_a_wrong_rank_exits_2(tmp_path):
    cfg = {"experiment": "logdet", "surface": {"kind": "torus", "a": 1, "b": 1}, "n": 2,
           "bundle": {"rank": 1, "generators": [_phase(0.7), _phase(0.3)]}}
    code, out = _run(tmp_path, cfg)
    assert code == 2
    assert json.loads((out / "meta.json").read_text())["error"]["code"] == "RankMismatch"


@pytest.mark.parametrize("bundle,expect", [
    (None, "-1"),
    ({"kind": "raw", "rank": 1, "generators": [_MINUS_ONE, _ONE]}, "0")])
def test_zeta0_takes_dim_h0_from_the_bundle(tmp_path, bundle, expect):
    cfg = {"experiment": "zeta0", "surface": {"kind": "torus", "a": 1, "b": 1}}
    if bundle:
        cfg["bundle"] = bundle
    code, out = _run(tmp_path, cfg)
    assert code == 0
    assert json.loads((out / "meta.json").read_text())["zeta0"] == expect


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    cfg = {"experiment": "zeta0", "surface": {"kind": "torus", "a": 1, "b": 1}}
    assert _run(tmp_path, cfg, name="warm.json")[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for name in ("first.json", "second.json"):
        assert _run(tmp_path, cfg, name=name)[0] == 0
    assert built == []


def test_bad_n_list_exits_2(tmp_path):
    cfg = {"experiment": "renorm-series", "surface": {"kind": "torus", "a": 1, "b": 1},
           "n_list": [64, 32]}
    code, out = _run(tmp_path, cfg)
    assert code == 2


def test_budget_refusal_exits_3(tmp_path):
    cfg = {"experiment": "spectrum", "surface": {"kind": "rectangle", "a": 4, "b": 4},
           "n": 30}
    code, out = _run(tmp_path, cfg)
    assert code == 3
    meta = json.loads((out / "meta.json").read_text())
    assert meta["error"]["code"] == "BudgetExceeded"


def test_logdet_runs_beyond_the_dense_budget(tmp_path):
    # the sparse route beyond the dense budget, with its health fields, against
    # the closed form; the CLI takes that closed form itself on a rectangle
    from torsionlab import experiments, laplacian, surfaces
    from torsionlab.meshspectra import closed_form_log_det
    want = closed_form_log_det("rectangle", 4, 4, 30)
    conn = experiments.MeshSource(surfaces.rectangle(4, 4)).connection(
        30, laplacian.check_sparse_budget)
    res = laplacian.sparse_log_det(conn)
    assert abs(res.log_det_prime - want) <= 1e-10 * abs(want)
    assert res.kernel_dim == 1 and conn.graph.n_vertices == 14400
    assert 0 < res.kernel_gap < 8 and res.factor_nnz >= res.nnz > 14400
    cfg = {"experiment": "logdet", "surface": {"kind": "rectangle", "a": 4, "b": 4}, "n": 30}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["route"] == "closed-form" and meta["logdet_prime"] == want
    assert meta["kernel_dim"] == 1 and meta["n_vertices"] == 14400
    assert abs(meta["kernel_gap"] - res.kernel_gap) <= 1e-8 * res.kernel_gap


def test_sparse_budget_refusal_exits_3(tmp_path):
    # a gluing with E/W half-turns takes the sparse route
    from torsionlab import surfaces
    from torsionlab.laplacian import SPARSE_BUDGET

    def entries(n):     # r|V| + 2 r^2 |E| at rank 1
        nv, ne = meshes.mesh_counts(surfaces.build_surface(_TURNED_CONE1), n)
        return nv + 2 * ne

    n = next(n for n in itertools.count(1) if entries(n) > SPARSE_BUDGET)
    cfg = {"experiment": "logdet", "surface": _TURNED_CONE1, "n": n}
    code, out, peak = _traced_run(tmp_path, cfg)
    assert code == 3 and peak < 1e6
    meta = json.loads((out / "meta.json").read_text())
    assert meta["error"]["code"] == "BudgetExceeded"
    assert "sparse budget" in meta["error"]["message"]


def test_strip_budget_refusal_exits_3_without_allocating(tmp_path):
    from torsionlab import strips, surfaces

    def held(n):        # K^2 + sum m^2 + 16 |V| on the L-shape: K = 6n, m = 4n and 2n
        return 56 * n * n + strips.STRIP_VECTORS * meshes.mesh_counts(surfaces.lshape(), n)[0]

    n = next(n for n in itertools.count(1) if held(n) > strips.STRIP_BUDGET)
    assert 1024 < n <= 2048
    cfg = {"experiment": "logdet", "surface": {"kind": "lshape"}, "n": n}
    code, out, peak = _traced_run(tmp_path, cfg)
    assert code == 3 and peak < 1e6
    meta = json.loads((out / "meta.json").read_text())
    assert meta["error"]["code"] == "BudgetExceeded"
    assert "strip budget" in meta["error"]["message"]


@pytest.mark.parametrize("experiment,size,error", [
    ("logdet", {"n": 2048}, "BudgetExceeded"),
    ("spectrum", {"n": 64}, "BudgetExceeded"),
    ("crsf-verify", {"n": 256}, "TooLarge"),
    ("renorm-series", {"n_list": [512, 1024, 2048]}, "BudgetExceeded")],
    ids=["logdet-2048", "spectrum-64", "crsf-verify-256", "renorm-series-512-1024-2048"])
def test_over_budget_run_builds_no_mesh(tmp_path, monkeypatch, experiment, size, error):
    # the runners mesh through experiments' own binding of discretize
    from torsionlab import experiments, meshes

    def refuse(*args, **kwargs):
        raise AssertionError("discretize was called")

    monkeypatch.setattr(meshes, "discretize", refuse)
    monkeypatch.setattr(experiments, "discretize", refuse)
    cfg = {"experiment": experiment, "surface": {"kind": "lshape"}, **size}
    code, out = _run(tmp_path, cfg)
    assert code == 3
    meta = json.loads((out / "meta.json").read_text())
    assert meta["error"]["code"] == error


def _torus11_log_det(n, alpha, beta):
    """log det' of the twisted torus(1,1) mesh with no flat section: the fsum
    of log(lambda + mu) over its two twisted n-cycles' eigenvalues."""
    j = np.arange(n)
    lam = 4 * np.sin((2 * np.pi * j + alpha) / (2 * n)) ** 2
    mu = 4 * np.sin((2 * np.pi * j + beta) / (2 * n)) ** 2
    return math.fsum(np.log(lam[:, None] + mu[None, :]).ravel().tolist())


def _torus11_connection(n, *phases):
    from torsionlab import bundles, surfaces
    rep = bundles.HolonomyRepresentation.from_phases(phases)
    return bundles.connection_from_holonomy(meshes.discretize(surfaces.torus(1, 1), n), rep)


def test_logdet_of_a_holonomy_within_rounding_of_trivial(tmp_path):
    # an e^{1e-9 i} twist has no flat section, but a mode of eigenvalue
    # ~1e-18, which L_red's LU meets as a pivot of 1e-15: the sparse route
    # refuses it, and the closed form of its characters gives it exactly
    from torsionlab import laplacian
    with pytest.raises(KernelMismatch):
        laplacian.sparse_log_det(_torus11_connection(4, 1e-9, 1e-9))
    twist = [[[math.cos(1e-9), math.sin(1e-9)]]]
    cfg = {"experiment": "logdet", "surface": _TORUS11, "n": 4,
           "bundle": {"generators": [twist, twist]}}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    want = _torus11_log_det(4, 1e-9, 1e-9)
    assert meta["route"] == "closed-form" and meta["kernel_dim"] == 0
    assert abs(meta["logdet_prime"] - want) <= 1e-12 * abs(want)
    assert 0 < meta["kernel_gap"] < 1e-17


def test_runners_call_the_library_through_its_module(tmp_path, monkeypatch):
    # the tracer and the selftest's test rebind module attributes: a runner
    # must look its library functions up there at call time
    from torsionlab import strips
    monkeypatch.setattr(strips, "strip_log_det",
                        lambda partner, n, rank: strips.StripLogDet(1.5, 1, 0.25, 1, 1, 1.0, 1))
    cfg = {"experiment": "logdet", "surface": {"kind": "lshape"}, "n": 2}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    assert json.loads((out / "meta.json").read_text())["logdet_prime"] == 1.5
    assert (out / "logdet.csv").read_text() == "n,logdet_prime,kernel_dim\n2,1.5,1\n"


def _json_matrix(m):
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex).tolist()]


def _su2_split(phases):
    """Raw generators g diag(e^{ip}, e^{-ip}) g* with one fixed SU(2) g."""
    g = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    return [_json_matrix(g @ np.diag([cmath.exp(1j * p), cmath.exp(-1j * p)]) @ g.conj().T)
            for p in phases]


@pytest.mark.parametrize("surface,gens", [
    (_TORUS11, 2), ({"kind": "cylinder", "a": 3, "b": 2}, 1),
    ({"kind": "rectangle", "a": 2, "b": 1}, 0)], ids=["torus", "cylinder", "rectangle"])
@pytest.mark.parametrize("bundle", [
    None, {"kind": "trivial", "rank": 2}, {"kind": "random", "rank": 2},
    {"kind": "random", "rank": 3, "seed": 5}, "raw"],
    ids=["default", "trivial-2", "random-2", "random-3", "raw-2"])
def test_logdet_on_a_separable_kind_takes_the_closed_form(tmp_path, monkeypatch, surface,
                                                          gens, bundle):
    from torsionlab import experiments, laplacian

    def refuse(*args, **kwargs):
        raise AssertionError("the mesh route was taken")

    for module, name in ((laplacian, "sparse_log_det"), (meshes, "discretize"),
                         (experiments, "discretize")):
        monkeypatch.setattr(module, name, refuse)
    cfg = {"experiment": "logdet", "surface": surface, "n": 3}
    if bundle == "raw":
        bundle = {"kind": "raw", "rank": 2, "generators": _su2_split([0.4, 2.9][:gens])}
    if bundle:
        cfg["bundle"] = bundle
    code, out = _run(tmp_path, cfg)
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["route"] == "closed-form" and meta["kernel_gap"] > 0
    assert "nnz" not in meta and "lanczos_steps" not in meta


def test_logdet_on_the_lshape_takes_the_strip_route(tmp_path, monkeypatch):
    from torsionlab import experiments, strips, surfaces
    calls = []
    solve = strips.strip_log_det

    def refuse(*args, **kwargs):
        raise AssertionError("the mesh route was taken")

    monkeypatch.setattr(strips, "strip_log_det",
                        lambda *args: calls.append(args) or solve(*args))
    for module, name in ((experiments, "sparse_log_det"), (meshes, "discretize"),
                         (experiments, "discretize")):
        monkeypatch.setattr(module, name, refuse)
    cfg = {"experiment": "logdet", "surface": {"kind": "lshape"}, "n": 2,
           "bundle": {"kind": "trivial", "rank": 2}}
    code, out = _run(tmp_path, cfg)
    assert code == 0 and len(calls) == 1
    meta = json.loads((out / "meta.json").read_text())
    assert meta["route"] == "strip" and meta["kernel_dim"] == 2 and meta["n_vertices"] == 48
    assert meta["K"] == 12 and meta["strips"] == 2 and 0 < meta["pivot_ratio"] <= 1
    assert meta["kernel_gap"] > 0 and meta["lanczos_steps"] > 0
    assert "nnz" not in meta and "factor_nnz" not in meta
    one = strips.strip_log_det(surfaces.lshape().complex.partner, 2)
    assert meta["logdet_prime"] == 2 * one.log_det_prime


@pytest.mark.parametrize("surface,bundle", [
    ({"kind": "lshape"}, {"kind": "raw", "rank": 2, "generators": []}),
    (_TURNED_CONE1, {"kind": "trivial", "rank": 2})], ids=["holonomy", "ew-half-turns"])
def test_logdet_takes_the_sparse_route_where_strips_do_not_reach(tmp_path, monkeypatch,
                                                                surface, bundle):
    # a bundle given by a holonomy, and a gluing with E/W half-turns
    from torsionlab import bundles, experiments, laplacian, surfaces
    calls = []
    solve = laplacian.sparse_log_det
    monkeypatch.setattr(experiments, "sparse_log_det",
                        lambda conn: calls.append(conn) or solve(conn))
    cfg = {"experiment": "logdet", "surface": surface, "n": 3, "bundle": bundle}
    code, out = _run(tmp_path, cfg)
    assert code == 0 and len(calls) == 1
    meta = json.loads((out / "meta.json").read_text())
    mesh = meshes.discretize(surfaces.build_surface(surface), 3)
    want = solve(bundles.trivial_connection(mesh, 2))
    assert meta["route"] == "sparse" and meta["kernel_dim"] == 2
    assert meta["logdet_prime"] == want.log_det_prime and meta["kernel_gap"] == want.kernel_gap
    assert meta["factor_nnz"] == want.factor_nnz >= meta["nnz"] == want.nnz > 0
    assert meta["lanczos_steps"] > 0


def test_weyl_check_beyond_the_closed_form_budget_exits_3_without_allocating(tmp_path):
    # the grid at n = 65536 would be 4.3e9 doubles, 34 GB
    cfg = {"experiment": "weyl-check", "surface": {"kind": "rectangle", "a": 1, "b": 1},
           "n_list": [256, 65536]}
    code, out, peak = _traced_run(tmp_path, cfg)
    assert code == 3 and peak < 1e6
    assert json.loads((out / "meta.json").read_text())["error"]["code"] == "BudgetExceeded"
    assert not (out / "weyl.csv").exists()


def test_logdet_beyond_the_closed_form_budget_exits_3_without_allocating(tmp_path):
    cfg = {"experiment": "logdet", "surface": _TORUS11, "n": 10 ** 9,
           "bundle": {"kind": "random", "rank": 2}}
    code, out, peak = _traced_run(tmp_path, cfg)
    assert code == 3 and peak < 1e6
    assert json.loads((out / "meta.json").read_text())["error"]["code"] == "BudgetExceeded"


def _traced_run(tmp_path, cfg):
    """(exit code, out dir, tracemalloc peak in bytes) of one run."""
    tracemalloc.start()
    try:
        code, out = _run(tmp_path, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, out, peak


def test_spectrum_csv_cells_are_numbers(tmp_path):
    cfg = {"experiment": "spectrum", "surface": {"kind": "rectangle", "a": 1, "b": 1}, "n": 2}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    lines = (out / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == "index,eigenvalue" and len(lines) == 5
    cells = [line.split(",") for line in lines[1:]]
    assert [int(i) for i, _ in cells] == [0, 1, 2, 3]
    assert np.allclose([float(lam) for _, lam in cells], [0, 2, 2, 4], atol=1e-12)


def test_logdet_meta_reports_lanczos_steps_and_scipy(tmp_path):
    import scipy
    from torsionlab.laplacian import LANCZOS_MAX_STEPS
    cfg = {"experiment": "logdet", "surface": {"kind": "lshape"}, "n": 4}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert 1 <= meta["lanczos_steps"] <= LANCZOS_MAX_STEPS
    assert meta["versions"]["scipy"] == scipy.__version__


def test_lanczos_cap_exits_2_with_its_error(tmp_path, monkeypatch):
    from torsionlab import laplacian
    monkeypatch.setattr(laplacian, "LANCZOS_MAX_STEPS", 1)
    cfg = {"experiment": "logdet", "surface": {"kind": "lshape"}, "n": 4}
    code, out = _run(tmp_path, cfg)
    assert code == 2
    meta = json.loads((out / "meta.json").read_text())
    assert meta["error"]["code"] == "LanczosNoConvergence"


def test_import_leaves_scipy_unloaded():
    code = ("import sys, torsionlab, torsionlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(pathlib.Path(torsionlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_logdet_and_renorm_series_on_the_lshape_leave_scipy_unloaded(tmp_path):
    # the strip route is numpy only; scipy's sparse LU is loaded by a holonomy
    # or a gluing with E/W half-turns alone
    paths = []
    for cfg in ({"experiment": "logdet", "surface": {"kind": "lshape"}, "n": 8},
                {"experiment": "renorm-series", "surface": {"kind": "lshape"},
                 "n_list": [2, 4, 8]}):
        paths.append(tmp_path / f"{cfg['experiment']}.json")
        paths[-1].write_text(json.dumps(cfg))
    code = ("import sys; from torsionlab import cli; "
            "codes = [cli.main(['run', '--config', p, '--out', p + '.out']) "
            "for p in sys.argv[1:]]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(pathlib.Path(torsionlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, paths)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"
    for path in paths:
        meta = json.loads((pathlib.Path(str(path) + ".out") / "meta.json").read_text())
        routes = [meta.get("route")] if "route" in meta else [h["route"] for h in meta["health"]]
        assert routes and set(routes) == {"strip"}


def test_szego_and_determinism(tmp_path):
    # the mixed mode (1, 1) makes the trace a numpy scalar
    cfg = {"experiment": "szego",
           "profile": {"a": 2, "b": 2, "coeffs": [[1, 0, 1.0], [1, 1, 0.5]]},
           "n_list": [16, 32]}
    code1, out1 = _run(tmp_path, cfg, name="s1.json")
    code2, out2 = _run(tmp_path, cfg, name="s2.json")
    assert code1 == code2 == 0
    text = (out1 / "szego.csv").read_text()
    assert text == (out2 / "szego.csv").read_text()
    # plain CSV: numpy scalars are written as Python floats
    for row in text.strip().split("\n")[1:]:
        assert all(math.isfinite(float(field)) for field in row.split(","))


@pytest.mark.parametrize("experiment", ["heat-trace", "torsion", "weyl-check"])
def test_non_separable_kind_exits_2(tmp_path, experiment):
    cfg = {"experiment": experiment, "surface": {"kind": "lshape"}, "n_list": [4]}
    code, out = _run(tmp_path, cfg)
    assert code == 2
    meta = json.loads((out / "meta.json").read_text())
    assert meta["error"]["code"] == "HypothesisViolation"


def test_renorm_series_runs_on_a_kind_without_closed_form(tmp_path):
    # the L-shape runs through the strip route: no target, and the health of
    # each n's solve in meta.json
    cfg = {"experiment": "renorm-series", "surface": {"kind": "lshape"}, "n_list": [8, 16, 32]}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == "n,logdet,renormalized,extrapolated_limit,target,abs_error"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[4:] for r in rows] == [["", ""]] * 3
    renorms = [float(r[2]) for r in rows]
    d = [abs(b - a) for a, b in zip(renorms, renorms[1:])]
    assert d[1] < d[0]
    meta = json.loads((out / "meta.json").read_text())
    assert meta["target"] is None and math.isfinite(meta["extrapolated"])
    assert [h["n"] for h in meta["health"]] == [8, 16, 32]
    for n, h in zip([8, 16, 32], meta["health"]):
        assert h["route"] == "strip" and h["K"] == 6 * n and h["strips"] == 2
        assert h["kernel_gap"] > 0 and h["lanczos_steps"] > 0 and 0 < h["pivot_ratio"] <= 1


def test_twisted_renorm_series_without_closed_form_exits_2(tmp_path):
    cfg = {"experiment": "renorm-series", "surface": {"kind": "lshape"}, "bundle": _TWIST,
           "n_list": [8]}
    code, out = _run(tmp_path, cfg)
    assert code == 2
    assert json.loads((out / "meta.json").read_text())["error"]["code"] == "HypothesisViolation"
    assert not (out / "series.csv").exists()
    # a full turn is trivial holonomy, so no twist
    code, _ = _run(tmp_path, {**cfg, "bundle": {"alpha": 2 * math.pi}}, name="turn.json")
    assert code == 0


_SEPARABLE_EXPERIMENTS = ["heat-trace", "torsion", "weyl-check", "renorm-series", "ratio"]


@pytest.mark.parametrize("experiment", _SEPARABLE_EXPERIMENTS)
@pytest.mark.parametrize("side", [{"a": 1.5}, {"a": 0}, {"a": "2"}, {}],
                         ids=["a-1.5", "a-0", "a-string", "no-a"])
def test_separable_spec_is_validated_by_build_surface(tmp_path, experiment, side):
    # a and b are positive tile counts with no default, as in every other experiment
    torus = {"kind": "torus", "a": 1, "b": 1}
    cfg = {"experiment": experiment, "surface": {"kind": "torus", "b": 1, **side},
           "surface_b": torus, "n_list": [2, 4, 8]}
    code, out = _run(tmp_path, cfg)
    assert code == 2
    assert json.loads((out / "meta.json").read_text())["error"]["code"] == "InvalidGluing"


def test_twisted_torsion_and_heat_trace_write_the_methods_values(tmp_path):
    from torsionlab.torsion import SeparableSurface
    setup = SeparableSurface("torus", 1, 1, 1.3, -0.7)
    cfg = {"experiment": "torsion", "surface": _TORUS11, "bundle": _TWIST}
    code, out = _run(tmp_path, cfg, name="torsion.json")
    assert code == 0
    assert json.loads((out / "meta.json").read_text())["log_det_prime"] == setup.torsion()
    row = (out / "torsion.csv").read_text().splitlines()[1].split(",")
    assert float(row[-1]) == setup.torsion() != SeparableSurface("torus", 1, 1).torsion()
    cfg = {"experiment": "heat-trace", "surface": _TORUS11, "bundle": _TWIST,
           "t_list": [0.01, 0.05]}
    code, out = _run(tmp_path, cfg, name="heat.json")
    assert code == 0
    rows = [r.split(",") for r in (out / "heat.csv").read_text().splitlines()[1:]]
    assert [float(r[1]) for r in rows] == [setup.heat_trace(0.01), setup.heat_trace(0.05)]


@pytest.mark.parametrize("experiment", ["torsion", "heat-trace"])
def test_twisted_closed_form_without_a_formula_exits_2(tmp_path, experiment):
    # the L-shape has no separable closed form, twisted or not: refuse, write no table
    cfg = {"experiment": experiment, "surface": {"kind": "lshape"}, "bundle": _TWIST,
           "t_list": [0.01]}
    code, out = _run(tmp_path, cfg)
    assert code == 2
    assert json.loads((out / "meta.json").read_text())["error"]["code"] == "HypothesisViolation"
    assert not (out / "torsion.csv").exists() and not (out / "heat.csv").exists()


def test_twisted_renorm_series_writes_its_target(tmp_path):
    cfg = {"experiment": "renorm-series", "surface": _TORUS11, "bundle": _TWIST,
           "n_list": [64, 128, 256]}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert isinstance(meta["target"], float)
    for row in (out / "series.csv").read_text().splitlines()[1:]:
        _, _, renorm, _, target, err = map(float, row.split(","))
        assert target == meta["target"] and err == abs(renorm - target) < 1e-3


@pytest.mark.parametrize("experiment,table", [("torsion", "torsion.csv"),
                                              ("heat-trace", "heat.csv")])
def test_a_full_turn_runs_as_the_untwisted_setup(tmp_path, experiment, table):
    # a phase of 2 pi is trivial holonomy: the same bytes as no bundle at all
    plain = {"experiment": experiment, "surface": _TORUS11}
    code, out = _run(tmp_path, plain, name="plain.json")
    assert code == 0
    code, turned = _run(tmp_path, {**plain, "bundle": {"alpha": 2 * math.pi}}, name="turn.json")
    assert code == 0
    assert (turned / table).read_text() == (out / table).read_text()
    if experiment == "torsion":
        from torsionlab.torsion import SeparableSurface
        meta = json.loads((turned / "meta.json").read_text())
        assert meta["log_det_prime"] == SeparableSurface("torus", 1, 1).torsion()


def test_weyl_check_honours_the_twist(tmp_path):
    from torsionlab.experiments import uniform_weyl_check
    from torsionlab.torsion import SeparableSurface
    ns = [2, 4, 8, 16]
    cfg = {"experiment": "weyl-check", "surface": _TORUS11, "bundle": _TWIST, "n_list": ns}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    setup = SeparableSurface("torus", 1, 1, 1.3, -0.7)
    cmin, _ = uniform_weyl_check([setup.mesh_spectrum(n).rescaled(n) for n in ns])
    untwisted, _ = uniform_weyl_check(
        [SeparableSurface("torus", 1, 1).mesh_spectrum(n).rescaled(n) for n in ns])
    assert json.loads((out / "meta.json").read_text())["C_min"] == cmin != untwisted


@pytest.mark.parametrize("cfg", [
    {"experiment": "logdet", "surface": _TORUS11, "n": 0},
    {"experiment": "logdet", "surface": _TORUS11, "n": "3"},
    {"experiment": "logdet", "surface": _TORUS11, "n": 2,
     "bundle": {"kind": "random", "rank": -1}},
    {"experiment": "renorm-series", "surface": _TORUS11, "n_list": [2, 4, 8],
     "bundle": {"alpha": "x"}},
    {"experiment": "heat-trace", "surface": _TORUS11, "t_list": [0.1, 0.0]},
    {"experiment": "logdet", "surface": _TORUS11, "n": 2,
     "bundle": {"kind": "raw", "generators": [[[[1, 0]], [[0, 0], [1, 0]]]]}},
    {"experiment": "logdet", "surface": _TORUS11, "n": 2,
     "bundle": {"kind": "raw", "generators": [[[["x", 0]]], [[[1, 0]]]]}},
    # bundle fields the experiment does not read
    {"experiment": "logdet", "surface": _TORUS11, "n": 4,
     "bundle": {"alpha": 1.3, "beta": -0.7}},
    {"experiment": "renorm-series", "surface": _TORUS11, "n_list": [2, 4, 8],
     "bundle": {"generators": [[[[math.cos(1.3), math.sin(1.3)]]],
                               [[[math.cos(-0.7), math.sin(-0.7)]]]]}},
    {"experiment": "renorm-series", "surface": _TORUS11, "n_list": [2, 4, 8],
     "bundle": {"alpah": 1.3}},
    {"experiment": "renorm-series", "surface": _TORUS11, "n_list": [2, 4, 8],
     "bundle_b": {"alpha": 1.3}},
    {"experiment": "szego", "profile": {"a": 2, "b": 2}, "n_list": [4]},
    {"experiment": "szego", "profile": {"a": 2, "b": 2, "coeffs": [[0, 0, "x"]]},
     "n_list": [4]},
    {"experiment": "szego", "profile": {"a": 2, "b": "2", "coeffs": [[1, 0, 1.0]]},
     "n_list": [4]},
    {"experiment": "szego", "profile": {"a": 2, "b": 2, "coeffs": {"x": 1}}, "n_list": [4]},
    # a run on one mesh reads n, not the first of an n_list
    {"experiment": "logdet", "surface": _TORUS11, "n_list": [4, 8]},
    {"experiment": "logdet", "surface": _TORUS11, "n": 2, "bundle": {"kind": "raw", "rank": 1}}],
    ids=["n-zero", "n-string", "negative-rank", "alpha-string", "t-zero",
         "ragged-generator", "non-numeric-generator", "logdet-phases",
         "renorm-series-generators", "misspelt-phase", "bundle_b-outside-ratio",
         "profile-no-coeffs", "profile-string-value", "profile-string-b",
         "profile-coeffs-object", "logdet-n_list-without-n", "raw-without-generators"])
def test_malformed_input_exits_2(tmp_path, cfg, capsys):
    code, out = _run(tmp_path, cfg)
    assert code == 2 and not out.exists()
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["zeta0", "logdet"])
@pytest.mark.parametrize("spec", [
    {"kind": "raw", "tiles": [0]},
    {"kind": "raw", "tiles": 5, "pairings": []},
    {"kind": "raw", "tiles": [0, 1], "pairings": [[[0, "E"], [1, "W"]]]},
    {"kind": "raw", "tiles": [{"x": 0}], "pairings": []},
    {"kind": "raw", "tiles": [], "pairings": []}],
    ids=["no-pairings", "tiles-number", "two-part-pairing", "object-tile", "no-tiles"])
def test_malformed_raw_surface_exits_2(tmp_path, experiment, spec):
    code, out = _run(tmp_path, {"experiment": experiment, "surface": spec, "n": 1})
    assert code == 2
    assert json.loads((out / "meta.json").read_text())["error"]["code"] == "InvalidGluing"


@pytest.mark.parametrize("experiment", ["zeta0", "logdet"])
def test_disconnected_surface_exits_2(tmp_path, experiment):
    # two unglued squares: each carries its own flat section, so dim H^0 = 2
    spec = {"kind": "raw", "tiles": [0, 1], "pairings": []}
    code, out = _run(tmp_path, {"experiment": experiment, "surface": spec, "n": 1})
    assert code == 2
    error = json.loads((out / "meta.json").read_text())["error"]
    assert error["code"] == "HypothesisViolation" and "2 components" in error["message"]


def test_random_bundle_on_a_raw_torus_exits_2(tmp_path):
    # the 2 x 1 torus as a raw spec has no standard cuts to draw holonomy on
    spec = {"kind": "raw", "tiles": [0, 1], "pairings": [
        [[0, "E"], [1, "W"], "translation"], [[1, "E"], [0, "W"], "translation"],
        [[0, "N"], [0, "S"], "translation"], [[1, "N"], [1, "S"], "translation"]]}
    cfg = {"experiment": "logdet", "surface": spec, "n": 2,
           "bundle": {"kind": "random", "rank": 1}}
    code, out = _run(tmp_path, cfg, extra=("--seed", "3"))
    assert code == 2
    assert json.loads((out / "meta.json").read_text())["error"]["code"] == "BadCuts"


_PHASE_I = [[[0, 1]]]       # the 1 x 1 generator i


@pytest.mark.parametrize("surface,generators,code", [
    ({"kind": "lshape"}, [_PHASE_I], 2), (_TORUS11, [_PHASE_I], 2),
    (_TORUS11, [_PHASE_I] * 3, 2), (_TORUS11, [_PHASE_I] * 2, 0)],
    ids=["lshape-1", "torus-1", "torus-3", "torus-2"])
def test_zeta0_needs_one_generator_per_standard_cut(tmp_path, surface, generators, code):
    # the L-shape is a disk and carries only the trivial bundle; the torus
    # takes one generator per periodic side
    cfg = {"experiment": "zeta0", "surface": surface,
           "bundle": {"kind": "raw", "generators": generators}}
    got, out = _run(tmp_path, cfg)
    assert got == code
    meta = json.loads((out / "meta.json").read_text())
    if code:
        assert meta["error"]["code"] == "BadCuts"
        assert f"for {len(generators)} generators" in meta["error"]["message"]


def test_constant_ladder_exits_2(tmp_path, capsys):
    cfg = {"experiment": "renorm-series", "surface": _TORUS11, "n_list": [16, 16, 16]}
    code, out = _run(tmp_path, cfg)
    assert code == 2 and not out.exists()
    assert "ConfigError: n_list must be a non-empty strictly ascending" in capsys.readouterr().err


def test_repeated_n_exits_2_with_no_output(tmp_path):
    # a repeated n would write its row twice
    cfg = {"experiment": "weyl-check", "surface": _TORUS11, "n_list": [8, 8]}
    code, out = _run(tmp_path, cfg)
    assert code == 2 and not out.exists()


@pytest.mark.parametrize("surface", [{"kind": "rectangle", "a": 1, "b": 1}, _TORUS11],
                         ids=["rectangle", "torus"])
def test_weyl_check_on_a_one_vertex_mesh_exits_2(tmp_path, surface):
    # at n = 1 the mesh has one vertex, so no lambda_i with i >= 1
    cfg = {"experiment": "weyl-check", "surface": surface, "n_list": [1, 2]}
    code, out = _run(tmp_path, cfg)
    assert code == 2
    error = json.loads((out / "meta.json").read_text())["error"]
    assert error["code"] == "HypothesisViolation" and "n = 1" in error["message"]


@pytest.mark.parametrize("cfg,key", [
    ({"experiment": "renorm-series", "surface": _TORUS11}, "n_list"),
    ({"experiment": "torsion"}, "surface"),
    ({"experiment": "embedding-check", "surface": {"kind": "torus", "a": 2, "b": 2},
      "n_list": [2], "trials": "x"}, "trials")],
    ids=["renorm-series-no-n_list", "torsion-no-surface", "embedding-trials-string"])
def test_missing_or_mistyped_key_is_a_config_error(tmp_path, cfg, key):
    with pytest.raises(ConfigError, match=key):
        cli.validate_config(cfg)
    code, out = _run(tmp_path, cfg)
    assert code == 2 and not out.exists()


def test_dense_kernel_comes_from_the_holonomy(tmp_path):
    # a 1e-7 twist leaves an eigenvalue below the numerical kernel tolerance,
    # but the bundle has no flat section: the dense mesh route refuses, not
    # misreports, and the closed form of its characters gives it exactly
    from torsionlab import laplacian
    conn = _torus11_connection(4, 1e-7, 0.0)
    with pytest.raises(KernelMismatch):
        laplacian.spectrum(laplacian.assemble(conn), expected_kernel_dim=conn.flat_sections)
    twist = [[[math.cos(1e-7), math.sin(1e-7)]]]
    cfg = {"experiment": "logdet", "surface": {"kind": "torus", "a": 1, "b": 1}, "n": 4,
           "bundle": {"kind": "raw", "rank": 1, "generators": [twist, [[[1.0, 0.0]]]]}}
    code, out = _run(tmp_path, cfg)
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    want = _torus11_log_det(4, 1e-7, 0.0)
    assert meta["kernel_dim"] == 0
    assert abs(meta["logdet_prime"] - want) <= 1e-12 * abs(want)


def test_renorm_series_refuses_a_non_geometric_ladder(tmp_path):
    cfg = {"experiment": "renorm-series", "surface": {"kind": "torus", "a": 1, "b": 1},
           "n_list": [10, 11, 1000]}
    code, out = _run(tmp_path, cfg)
    assert code == 2
    meta = json.loads((out / "meta.json").read_text())
    assert meta["error"]["code"] == "HypothesisViolation"


def test_seeded_embedding_determinism(tmp_path):
    cfg = {"experiment": "embedding-check",
           "surface": {"kind": "rectangle", "a": 2, "b": 2}, "n_list": [2], "trials": 2}
    cfg_path = tmp_path / "e.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for k in range(2):
        out = tmp_path / f"out_e{k}"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--seed", "42"]) == 0
        outs.append((out / "embedding.csv").read_text())
    assert outs[0] == outs[1]
    meta = json.loads((tmp_path / "out_e0" / "meta.json").read_text())
    assert meta["worst_deviation"] < 1e-7


def test_zeta0_and_heat_runs(tmp_path):
    code, out = _run(tmp_path, {"experiment": "zeta0", "surface": {"kind": "lshape"}},
                     name="z.json")
    assert code == 0
    assert "-13/18" in (out / "zeta0.csv").read_text()
    cfg = {"experiment": "heat-trace", "surface": {"kind": "torus", "a": 4, "b": 4},
           "t_list": [0.02, 0.1, 0.2]}
    code, out = _run(tmp_path, cfg, name="h.json")
    assert code == 0
    rows = (out / "heat.csv").read_text().strip().split("\n")[1:]
    assert all(float(r.split(",")[3]) < 1e-5 for r in rows)


def test_ratio_run(tmp_path):
    pi = math.pi
    cfg = {"experiment": "ratio", "surface": {"kind": "torus", "a": 1, "b": 1},
           "bundle": {"alpha": pi, "beta": pi},
           "surface_b": {"kind": "torus", "a": 1, "b": 1}, "bundle_b": {"alpha": pi},
           "n_list": [16, 32, 64]}
    code, out = _run(tmp_path, cfg, name="r.json")
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert len(meta["cauchy_diffs"]) == 2


def test_logdet_and_torsion_runs(tmp_path):
    cfg = {"experiment": "logdet", "surface": {"kind": "cone", "k": 1}, "n": 2,
           "bundle": {"kind": "trivial", "rank": 1}}
    code, out = _run(tmp_path, cfg, name="ld.json")
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["kernel_dim"] == 1 and meta["logdet_prime"] > 0
    cfg = {"experiment": "torsion", "surface": {"kind": "torus", "a": 1, "b": 1}}
    code, out = _run(tmp_path, cfg, name="t.json")
    assert code == 0
    meta = json.loads((out / "meta.json").read_text())
    assert abs(meta["log_det_prime"] + 1.0546883) < 1e-6


def test_random_bundle_seeded(tmp_path):
    cfg = {"experiment": "logdet", "surface": {"kind": "cylinder", "a": 3, "b": 1},
           "n": 1, "bundle": {"kind": "random", "rank": 2, "seed": 99}}
    code1, out1 = _run(tmp_path, cfg, name="r1.json")
    code2, out2 = _run(tmp_path, cfg, name="r2.json")
    assert code1 == code2 == 0
    v1 = json.loads((out1 / "meta.json").read_text())["logdet_prime"]
    v2 = json.loads((out2 / "meta.json").read_text())["logdet_prime"]
    assert v1 == v2


def test_selftest_passes():
    assert cli.selftest(seed=0) == 0
    assert cli.selftest(seed=12345) == 0


def test_selftest_lets_a_programming_error_propagate(monkeypatch, capsys):
    # a failed check is reported and the battery goes on; a bug is not a FAIL
    def broken(surface):
        raise KeyError("tile")

    monkeypatch.setattr(cli.surfaces, "geometry_summary", broken)
    with pytest.raises(KeyError):
        cli.selftest()
    assert "[FAIL]" not in capsys.readouterr().out


def test_selftest_fails_under_python_O():
    # -O strips assert statements; a failing check must still report FAIL
    code = ("import sys; from torsionlab import cli, forests; "
            "forests.count_spanning_trees = lambda mesh: 0; "
            "sys.exit(cli.selftest())")
    src = str(pathlib.Path(torsionlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert ("[FAIL] matrix-tree and CRSF counts :: SelftestFailure: 2x2 trees"
            in proc.stdout.splitlines())
    assert "11/12 checks passed" in proc.stdout


def _drop_one_face(face_cycles):
    def dropped(mesh):
        out = dict(face_cycles(mesh))
        if out:
            length = next(iter(out))
            out[length] = tuple(a[1:] for a in out[length])
        return out
    return dropped


def _drop_one_neighbor(cone_neighbor_sets):
    def dropped(mesh):
        out = dict(cone_neighbor_sets(mesh))
        pid = next(iter(out))
        out[pid] = out[pid][1:]
        return out
    return dropped


@pytest.mark.parametrize("method,defect", [("face_cycles", _drop_one_face),
                                           ("cone_neighbor_sets", _drop_one_neighbor)])
def test_selftest_mesh_check_catches_a_dropped_face_or_neighbor(monkeypatch, capsys, method,
                                                                defect):
    monkeypatch.setattr(meshes.MeshGraph, method, defect(getattr(meshes.MeshGraph, method)))
    assert cli.selftest(seed=0) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("[FAIL]")]
    assert len(failed) == 1
    assert failed[0].startswith("[FAIL] mesh arrays: counts, gluing, faces and cone fans :: ")
    assert lines[-1] == "11/12 checks passed"


@pytest.mark.parametrize("seed,rank", [(0, 2), (1, 3)])
def test_logdet_of_non_commuting_generators_on_a_torus_exits_2(tmp_path, seed, rank):
    from torsionlab import bundles
    rng = np.random.default_rng(seed)
    gens = [_json_matrix(bundles.random_unitary(rng, rank)) for _ in range(2)]
    cfg = {"experiment": "logdet", "surface": _TORUS11, "n": 2,
           "bundle": {"kind": "raw", "generators": gens}}
    code, out = _run(tmp_path, cfg)
    assert code == 2
    error = json.loads((out / "meta.json").read_text())["error"]
    assert error["code"] == "BadCuts" and "do not commute" in error["message"]
