"""End-to-end CLI runs: artifacts, exit codes, determinism."""

import json
import math

import pytest

from torsionlab import cli


def _run(tmp_path, cfg, name="cfg.json", extra=()):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / ("out_" + name.replace(".json", ""))
    return cli.main(["run", "--config", str(cfg_path), "--out", str(out), *extra]), out


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


@pytest.mark.parametrize("experiment", ["heat-trace", "torsion", "weyl-check",
                                        "renorm-series"])
def test_non_separable_kind_exits_2(tmp_path, experiment):
    cfg = {"experiment": experiment, "surface": {"kind": "lshape"}, "n_list": [4]}
    code, out = _run(tmp_path, cfg)
    assert code == 2
    meta = json.loads((out / "meta.json").read_text())
    assert meta["error"]["code"] == "HypothesisViolation"


def test_dense_kernel_comes_from_the_holonomy(tmp_path):
    # a 1e-7 twist leaves an eigenvalue below the numerical kernel tolerance,
    # but the bundle has no flat section: the dense run refuses, not misreports
    twist = [[[math.cos(1e-7), math.sin(1e-7)]]]
    cfg = {"experiment": "logdet", "surface": {"kind": "torus", "a": 1, "b": 1}, "n": 4,
           "bundle": {"kind": "raw", "rank": 1, "generators": [twist, [[[1.0, 0.0]]]]}}
    code, out = _run(tmp_path, cfg)
    assert code == 2
    meta = json.loads((out / "meta.json").read_text())
    assert meta["error"]["code"] == "KernelMismatch"


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
