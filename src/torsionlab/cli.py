"""Command-line driver: build surfaces and bundles from JSON configs, run the
experiments, and write CSV tables, a meta.json sidecar and optional SVG plots.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical-budget
refusal.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time


def main(argv=None):
    parser = argparse.ArgumentParser(prog="torsionlab",
                                     description="twisted determinants on square-tiled surfaces")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the experiment JSON")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=0, help="seed for random bundles")
    run_p.add_argument("--plot", action="store_true", help="also write plot.svg")
    self_p = sub.add_parser("selftest", help="run the fast invariant battery")
    self_p.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.command == "selftest":
        return selftest(seed=args.seed)
    return run(args)


# -- atomic writers -----------------------------------------------------------


def _write_atomic(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(rows, header):
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(out) + "\n"


def _svg_error_plot(ns, errors, title):
    """Log-scale absolute-error polyline, hand-rolled SVG."""
    width, height, m = 640, 400, 50
    pts = [(n, e) for n, e in zip(ns, errors) if e and e > 0 and not math.isnan(e)]
    if len(pts) < 2:
        return "<svg xmlns='http://www.w3.org/2000/svg' width='640' height='400'></svg>"
    xs = [math.log10(p[0]) for p in pts]
    ys = [math.log10(p[1]) for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(x):
        return m + (x - x0) / (x1 - x0) * (width - 2 * m)

    def sy(y):
        return height - m - (y - y0) / (y1 - y0) * (height - 2 * m)

    poly = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        f"<text x='{width // 2}' y='20' text-anchor='middle' font-size='14'>{title}</text>",
        f"<rect x='{m}' y='{m}' width='{width - 2 * m}' height='{height - 2 * m}' "
        "fill='none' stroke='#999'/>",
        f"<polyline points='{poly}' fill='none' stroke='#0060c0' stroke-width='2'/>",
    ]
    for x, y in zip(xs, ys):
        parts.append(f"<circle cx='{sx(x):.1f}' cy='{sy(y):.1f}' r='3' fill='#0060c0'/>")
    parts.append(f"<text x='{m}' y='{height - 8}' font-size='11'>log10 n: "
                 f"{x0:.2f} .. {x1:.2f}; log10 |err|: {y0:.2f} .. {y1:.2f}</text>")
    parts.append("</svg>")
    return "\n".join(parts)


# -- experiment runners ---------------------------------------------------------


def _flat_setup_from(cfg, which="surface"):
    from .experiments import FlatSetup
    spec = cfg[which]
    bundle = cfg.get("bundle" if which == "surface" else "bundle_b", {}) or {}
    return FlatSetup(kind=spec["kind"], a=spec.get("a", 1), b=spec.get("b", 1),
                     alpha=float(bundle.get("alpha", 0.0)),
                     beta=float(bundle.get("beta", 0.0)))


def _run_renorm_series(cfg, rng):
    from .experiments import convergence_study
    setup = _flat_setup_from(cfg)
    series = convergence_study(setup, cfg["n_list"])
    rows = []
    for n, ld, rn, err in zip(series.ns, series.logdets, series.renorms, series.abs_errors()):
        rows.append((n, ld, rn, series.extrapolated,
                     series.target if series.target is not None else float("nan"), err))
    return {
        "files": {"series.csv": _csv(rows, ["n", "logdet", "renormalized",
                                            "extrapolated_limit", "target", "abs_error"])},
        "meta": {"label": series.label, "extrapolated": series.extrapolated,
                 "err_estimate": series.err_estimate, "target": series.target},
        "plot": (series.ns, series.abs_errors(), f"renorm error: {series.label}"),
    }


def _run_ratio(cfg, rng):
    from .experiments import ratio_study
    sa = _flat_setup_from(cfg, "surface")
    sb = _flat_setup_from(cfg, "surface_b")
    ns = sorted(cfg["n_list"])
    ratios, diffs = ratio_study(sa, sb, ns)
    rows = [(n, r) for n, r in zip(ns, ratios)]
    return {
        "files": {"ratios.csv": _csv(rows, ["n", "ratio"])},
        "meta": {"cauchy_diffs": diffs, "label_a": sa.label(), "label_b": sb.label()},
        "plot": (ns[:len(diffs)], diffs, "ratio Cauchy differences"),
    }


_BUNDLE_KINDS = ("trivial", "random", "raw")


def _bundle_kind(bundle):
    """A bundle with generators but no kind is raw; with neither, trivial."""
    return bundle.get("kind", "raw" if "generators" in bundle else "trivial")


def _bundle_from(cfg, surface, rng):
    """(rank, holonomy representation) of cfg["bundle"]; None for the trivial bundle."""
    from .bundles import HolonomyRepresentation, random_flat_representation
    bundle = cfg.get("bundle") or {}
    rank = int(bundle.get("rank", 1))
    kind = _bundle_kind(bundle)
    if kind == "trivial":
        return rank, None
    if kind == "random":
        import numpy as np
        if "seed" in bundle:
            rng = np.random.default_rng(int(bundle["seed"]))
        return rank, random_flat_representation(surface, rank, rng)
    rep = HolonomyRepresentation.from_json(bundle)
    return rep.rank, rep


def _build_mesh_and_connection(cfg, rng):
    """(mesh, connection); the connection carries its flat-section count."""
    from .surfaces import build_surface
    from .meshes import discretize
    from .bundles import trivial_connection, connection_from_holonomy
    surface = build_surface(cfg["surface"])
    n = cfg.get("n") or (cfg.get("n_list") or [1])[0]
    mesh = discretize(surface, n)
    rank, rep = _bundle_from(cfg, surface, rng)
    if rep is None:
        return mesh, trivial_connection(mesh, rank)
    return mesh, connection_from_holonomy(mesh, rep)


def _run_spectrum(cfg, rng):
    from .laplacian import assemble, spectrum, spectrum_csv
    mesh, conn = _build_mesh_and_connection(cfg, rng)
    spec = spectrum(assemble(conn), expected_kernel_dim=conn.flat_sections)
    return {
        "files": {"spectrum.csv": spectrum_csv(spec)},
        "meta": {"n_vertices": mesh.n_vertices, "rank": conn.rank,
                 "kernel_dim": spec.kernel_dim},
    }


def _run_logdet(cfg, rng):
    from .laplacian import assemble, spectrum, log_det_prime
    mesh, conn = _build_mesh_and_connection(cfg, rng)
    spec = spectrum(assemble(conn), expected_kernel_dim=conn.flat_sections)
    ld = log_det_prime(spec)
    return {
        "files": {"logdet.csv": _csv([(mesh.n, ld, spec.kernel_dim)],
                                     ["n", "logdet_prime", "kernel_dim"])},
        "meta": {"logdet_prime": ld, "kernel_dim": spec.kernel_dim},
    }


def _run_crsf_verify(cfg, rng):
    from .forests import crsf_weighted_sum, crsf_census_csv, crsf_identity, enumerate_crsfs
    mesh, conn = _build_mesh_and_connection(cfg, rng)
    crsfs = enumerate_crsfs(mesh)
    total = crsf_weighted_sum(conn, crsfs)
    det, ok = crsf_identity(conn, total)
    flag = "sqrt_ok" if conn.rank == 2 else "det_ok"
    line = f"sum={total!r} det={det!r} {flag}={str(ok).lower()}"
    census = crsf_census_csv(mesh, conn, crsfs)
    return {
        "files": {"crsf.csv": census, "report.txt": line + "\n"},
        "meta": {"sum": total, "det": det, "identity_ok": bool(ok)},
    }


def _run_szego(cfg, rng):
    from .meshspectra import (FourierProfile, szego_trace_direct,
                              szego_expansion_predicted)
    profile = FourierProfile.from_json(cfg["profile"])
    rows = []
    ns = sorted(cfg["n_list"])
    errs = []
    for n in ns:
        d = szego_trace_direct(profile, n)
        p = szego_expansion_predicted(profile, n)
        rows.append((n, d, p, abs(d - p)))
        errs.append(abs(d - p))
    return {
        "files": {"szego.csv": _csv(rows, ["n", "direct", "predicted", "abs_diff"])},
        "meta": {"profile": profile.to_json()},
        "plot": (ns, errs, "szego: |direct - predicted|"),
    }


def _separable_from(cfg):
    """The untwisted separable surface of cfg["surface"]; other kinds raise HypothesisViolation."""
    from .torsion import SeparableSurface
    spec = cfg["surface"]
    return SeparableSurface(spec["kind"], spec.get("a", 1), spec.get("b", 1))


def _run_heat_trace(cfg, rng):
    from .torsion import heat_trace, heat_trace_expansion
    s = _separable_from(cfg)
    rows = []
    for t in cfg.get("t_list", [0.02, 0.05, 0.1, 0.2]):
        tr = heat_trace(s.kind, s.a, s.b, t)
        ex = heat_trace_expansion(s.kind, s.a, s.b, t)
        rows.append((t, tr, ex, abs(tr - ex)))
    return {
        "files": {"heat.csv": _csv(rows, ["t", "theta_series", "expansion", "abs_resid"])},
        "meta": {"surface": cfg["surface"]},
    }


def _run_zeta0(cfg, rng):
    from .surfaces import build_surface, geometry_summary
    from .bundles import flat_sections_dim
    from .torsion import zeta_zero
    surface = build_surface(cfg["surface"])
    rank, rep = _bundle_from(cfg, surface, rng)
    dim_h0 = rank if rep is None else flat_sections_dim(rep)
    z = zeta_zero(geometry_summary(surface), rank=rank, dim_h0=dim_h0)
    return {
        "files": {"zeta0.csv": _csv([(surface.name, str(z), float(z))],
                                    ["surface", "zeta0_exact", "zeta0_float"])},
        "meta": {"zeta0": str(z)},
    }


def _run_torsion(cfg, rng):
    s = _separable_from(cfg)
    v = s.torsion()
    return {
        "files": {"torsion.csv": _csv([(s.kind, s.a, s.b, v)],
                                      ["kind", "a", "b", "log_det_prime"])},
        "meta": {"log_det_prime": v},
    }


def _run_weyl_check(cfg, rng):
    from .experiments import uniform_weyl_check
    from .meshspectra import separable_mesh_spectrum
    s = _separable_from(cfg)
    spectra = [separable_mesh_spectrum(s.kind, s.a, s.b, n).rescaled(n)
               for n in sorted(cfg["n_list"])]
    cmin, table = uniform_weyl_check(spectra)
    return {
        "files": {"weyl.csv": _csv(table, ["n", "argmin_i", "min_ratio"])},
        "meta": {"C_min": cmin},
    }


def _run_embedding_check(cfg, rng):
    import numpy as np
    from .surfaces import build_surface
    from .meshes import discretize
    from .experiments import build_bump, embedding_check
    surface = build_surface(cfg["surface"])
    bump = build_bump()
    rows = []
    worst = 0.0
    for n in sorted(cfg["n_list"]):
        mesh = discretize(surface, n)
        excluded = mesh.excluded_vertex_ids()
        for trial in range(int(cfg.get("trials", 5))):
            f = rng.standard_normal(mesh.n_vertices)
            for v in excluded:
                f[v] = 0.0
            nr, fr = embedding_check(mesh, bump, f)
            rows.append((n, trial, nr, fr))
            worst = max(worst, abs(nr - 1), abs(fr - 1))
    return {
        "files": {"embedding.csv": _csv(rows, ["n", "trial", "norm_ratio", "form_ratio"])},
        "meta": {"worst_deviation": worst, "C": bump.C},
    }


_RUNNERS = {
    "spectrum": _run_spectrum,
    "logdet": _run_logdet,
    "renorm-series": _run_renorm_series,
    "ratio": _run_ratio,
    "crsf-verify": _run_crsf_verify,
    "szego": _run_szego,
    "heat-trace": _run_heat_trace,
    "zeta0": _run_zeta0,
    "torsion": _run_torsion,
    "weyl-check": _run_weyl_check,
    "embedding-check": _run_embedding_check,
}


def validate_config(cfg):
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    kind = cfg.get("experiment")
    if kind not in _RUNNERS:
        raise ValueError(f"unknown experiment kind {kind!r}; one of {sorted(_RUNNERS)}")
    if "n_list" in cfg:
        ns = cfg["n_list"]
        if (not isinstance(ns, list) or not ns
                or any(not isinstance(n, int) or n < 1 for n in ns)
                or sorted(ns) != ns):
            raise ValueError("n_list must be a non-empty ascending list of positive integers")
    bundle = cfg.get("bundle") or {}
    if not isinstance(bundle, dict) or _bundle_kind(bundle) not in _BUNDLE_KINDS:
        raise ValueError(f"bundle must be an object of kind one of {list(_BUNDLE_KINDS)}")
    return cfg


def run(args):
    import numpy as np
    from . import errors as errs
    t0 = time.time()
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        cfg = validate_config(cfg)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    meta = {
        "config": cfg,
        "seed": args.seed,
        "versions": {"torsionlab": _version(), "numpy": np.__version__,
                     "python": sys.version.split()[0]},
    }
    try:
        result = _RUNNERS[cfg["experiment"]](cfg, rng)
    except (errs.TooLarge, errs.BudgetExceeded) as exc:
        meta["error"] = {"code": type(exc).__name__, "message": str(exc)}
        meta["wall_time_s"] = time.time() - t0
        _write_atomic(os.path.join(args.out, "meta.json"), json.dumps(meta, indent=2, default=str) + "\n")
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except errs.TorsionLabError as exc:
        meta["error"] = {"code": type(exc).__name__, "message": str(exc)}
        meta["wall_time_s"] = time.time() - t0
        _write_atomic(os.path.join(args.out, "meta.json"), json.dumps(meta, indent=2, default=str) + "\n")
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, text in result.get("files", {}).items():
        _write_atomic(os.path.join(args.out, name), text)
    if args.plot and "plot" in result:
        ns, errsq, title = result["plot"]
        _write_atomic(os.path.join(args.out, "plot.svg"), _svg_error_plot(ns, errsq, title))
    meta.update(result.get("meta", {}))
    meta["wall_time_s"] = time.time() - t0
    _write_atomic(os.path.join(args.out, "meta.json"),
                  json.dumps(meta, indent=2, default=str) + "\n")
    return 0


def _version():
    from . import __version__
    return __version__


# -- selftest -------------------------------------------------------------------


def selftest(seed=0):
    """Fast invariant battery; prints one line per check, exit 1 on any failure."""
    import numpy as np
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:    # report, do not abort the battery
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    rng = np.random.default_rng(seed)

    def surfaces_check():
        from .surfaces import (rectangle, torus, cylinder, lshape, slit,
                               cone_model, angle_model, geometry_summary,
                               gauss_bonnet_defect)
        cases = [
            (rectangle(4, 4), 16, [], [1] * 4, 16),
            (cone_model(4), 32, [4 * 2], [1] * 8, 32),
            (slit(), 16, [], [1] * 6 + [4], 20),
            (lshape(), 12, [], [1] * 5 + [3], 16),
            (cone_model(1), 8, [2], [1, 1], 8),
            (cone_model(3), 24, [6], [1] * 6, 24),
            (angle_model(5), 20, [], [1] * 7 + [5], 24),
            (torus(2, 3), 6, [], [], 0),
            (cylinder(3, 2), 6, [], [], 6),
        ]
        for surf, area, cones, corners, perim in cases:
            s = geometry_summary(surf)
            assert s.area == area, (surf.name, s.area)
            assert s.perimeter == perim, (surf.name, s.perimeter)
            assert sorted(round(2 * a / 3.141592653589793) for a in s.cone_angles) == sorted(cones), surf.name
            assert s.corner_angles_over_half_pi() == sorted(corners), surf.name
            assert gauss_bonnet_defect(surf) == 0, surf.name

    check("surface models and Gauss-Bonnet", surfaces_check)

    def mesh_check():
        from .surfaces import rectangle, torus, cone_model
        from .meshes import discretize
        m = discretize(rectangle(1, 1), 2)
        assert m.n_vertices == 4 and len(m.edges) == 4
        m = discretize(torus(1, 1), 3)
        assert m.n_vertices == 9 and len(m.edges) == 18
        m = discretize(cone_model(1), 2)
        mult = [v for v in m.edge_multiplicities().values() if v == 2]
        assert len(mult) == 1

    check("mesh counts and double edges", mesh_check)

    def laplacian_check():
        from .surfaces import rectangle
        from .meshes import discretize
        from .bundles import trivial_connection
        from .laplacian import assemble, spectrum, log_det_prime
        m = discretize(rectangle(1, 1), 2)
        conn = trivial_connection(m, 1)
        spec = spectrum(assemble(conn), expected_kernel_dim=conn.flat_sections)
        assert np.allclose(spec.eigenvalues, [0, 2, 2, 4], atol=1e-12)
        assert abs(log_det_prime(spec) - math.log(16)) < 1e-12

    check("2x2 grid spectrum and logdet", laplacian_check)

    def forest_check():
        from .surfaces import rectangle, cylinder
        from .meshes import discretize
        from .forests import count_spanning_trees, enumerate_crsfs
        assert count_spanning_trees(discretize(rectangle(2, 2), 1)) == 4
        assert count_spanning_trees(discretize(rectangle(3, 3), 1)) == 192
        assert len(enumerate_crsfs(discretize(cylinder(3, 1), 1))) == 1

    check("matrix-tree and CRSF counts", forest_check)

    def kenyon_check():
        from .surfaces import cylinder
        from .meshes import discretize
        from .bundles import random_flat_representation, connection_from_holonomy
        from .forests import crsf_weighted_sum, crsf_identity
        mesh = discretize(cylinder(3, 1), 1)
        for _ in range(5):
            rep = random_flat_representation(mesh.surface, 2, rng)
            conn = connection_from_holonomy(mesh, rep)
            det, ok = crsf_identity(conn, crsf_weighted_sum(conn))
            assert ok, det

    check("Kenyon square identity (seeded)", kenyon_check)

    def sinprod_check():
        from .meshspectra import sin_product, sin_product_direct, sin_product_uncorrected
        for m in (1, 2, 7, 32):
            for x in (0.1, 1.0, 3.0):
                b = sin_product_direct(m, x)
                assert abs(sin_product(m, x) - b) <= 1e-12 * b
        assert abs(sin_product_uncorrected(2, 1.0) - math.sqrt(2)) < 1e-12

    check("sine product closed form", sinprod_check)

    def eta_check():
        from .torsion import dedekind_eta, torus_torsion
        v = dedekind_eta(math.exp(-2 * math.pi))
        assert abs(v - math.gamma(0.25) / (2 * math.pi ** 0.75)) < 1e-12
        assert abs(torus_torsion(1, 2) - torus_torsion(2, 1)) < 1e-12

    check("Dedekind eta and torsion symmetry", eta_check)

    def zeta_check():
        from fractions import Fraction
        from .surfaces import rectangle, lshape, torus, geometry_summary
        from .torsion import zeta_zero
        assert zeta_zero(geometry_summary(rectangle(1, 1))) == Fraction(-3, 4)
        assert zeta_zero(geometry_summary(lshape())) == Fraction(-13, 18)
        assert zeta_zero(geometry_summary(torus(1, 1))) == Fraction(-1)

    check("zeta(0) exact values", zeta_check)

    def renorm_check():
        from .experiments import FlatSetup, convergence_study
        series = convergence_study(FlatSetup("torus", 1, 1), [32, 64, 128])
        assert abs(series.renorms[-1] - series.target) < 5e-4

    check("renormalized determinant trend", renorm_check)

    def bump_check():
        from .experiments import build_bump
        bump = build_bump()
        assert max(bump.residuals.values()) < 1e-10
        assert 0.0 < bump.t_mix < 1.0 and bump.C > 0

    check("bump profile constraints", bump_check)

    def embed_check():
        from .surfaces import rectangle
        from .meshes import discretize
        from .experiments import build_bump, embedding_check
        mesh = discretize(rectangle(2, 2), 2)
        bump = build_bump()
        f = np.zeros(mesh.n_vertices)
        inner = [v for v in range(mesh.n_vertices) if v not in mesh.excluded_vertex_ids()]
        f[inner[0]] = 1.0
        nr, fr = embedding_check(mesh, bump, f)
        assert abs(nr - 1) < 1e-7 and abs(fr - 1) < 1e-7

    check("embedding identities (single vertex)", embed_check)

    failed = 0
    for name, ok, msg in checks:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if msg:
            line += f" :: {msg}"
        print(line)
        if not ok:
            failed += 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
