"""Command-line driver: build surfaces and bundles from JSON configs, run the
experiments, and write CSV tables, a meta.json sidecar and optional SVG plots.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical-budget
refusal.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

from . import (__version__, bundles, errors, experiments, forests, laplacian, meshes,
               meshspectra, surfaces, torsion)


@functools.cache
def _parser():
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
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

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


def _svg_error_plot(ns, errs, title):
    """Log-scale absolute-error polyline, hand-rolled SVG."""
    width, height, m = 640, 400, 50
    pts = [(n, e) for n, e in zip(ns, errs) if e and e > 0 and not math.isnan(e)]
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


def _separable_from(cfg, which="surface"):
    """The SeparableSurface of cfg[which], validated by build_surface, with the
    phases of its bundle; other kinds raise HypothesisViolation.  The five
    closed-form runners call its methods, which honour the twist."""
    surface = surfaces.build_surface(cfg[which])
    bundle = cfg.get("bundle" if which == "surface" else "bundle_b") or {}
    return torsion.SeparableSurface(
        surface.kind, surface.params.get("a"), surface.params.get("b"),
        float(bundle.get("alpha", 0.0)), float(bundle.get("beta", 0.0)))


def _run_renorm_series(cfg, rng):
    series = experiments.convergence_study(_series_source(cfg, rng), cfg["n_list"])
    no_target = series.target is None
    rows = []
    for n, ld, rn, err in zip(series.ns, series.logdets, series.renorms, series.abs_errors()):
        rows.append((n, ld, rn, series.extrapolated,
                     "" if no_target else series.target, "" if no_target else err))
    meta = {"label": series.label, "extrapolated": series.extrapolated,
            "err_estimate": series.err_estimate, "target": series.target}
    if series.health is not None:
        meta["health"] = [{"n": n, **h} for n, h in zip(series.ns, series.health)]
    return {
        "files": {"series.csv": _csv(rows, ["n", "logdet", "renormalized",
                                            "extrapolated_limit", "target", "abs_error"])},
        "meta": meta,
        "plot": (series.ns, series.abs_errors(), f"renorm error: {series.label}"),
    }


def _series_source(cfg, rng):
    """The closed-form SeparableSurface of a separable kind, else the
    MeshSource of _mesh_source, whose bundle holds only phases and so must
    have a flat section (bundles.flat_sections_dim, as SeparableSurface
    decides it): a twist on a kind without factors to carry it raises
    HypothesisViolation."""
    if cfg["surface"].get("kind") in surfaces.SEPARABLE_KINDS:
        return _separable_from(cfg)
    source = _mesh_source(cfg, rng)
    bundle = cfg.get("bundle") or {}
    phases = [float(bundle.get(phase, 0.0)) for phase in _PHASES]
    if not bundles.flat_sections_dim(bundles.HolonomyRepresentation.from_phases(phases)):
        raise errors.HypothesisViolation(
            f"{source.label()} has no closed form to carry a twist (alpha, beta = "
            f"{phases[0]!r}, {phases[1]!r}); its series takes the trivial bundle")
    return source


def _run_ratio(cfg, rng):
    sa = _separable_from(cfg, "surface")
    sb = _separable_from(cfg, "surface_b")
    ns = cfg["n_list"]
    ratios, diffs = experiments.ratio_study(sa, sb, ns)
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


def _holonomy(cfg, surface, rng):
    """(rep, rank) of cfg["bundle"] on ``surface``: rep None for the trivial
    bundle at its rank, a random flat bundle drawn from ``rng`` (or from its
    own seed), or the raw generators."""
    bundle = cfg.get("bundle") or {}
    rank = int(bundle.get("rank", 1))
    kind = _bundle_kind(bundle)
    if kind == "trivial":
        return None, rank
    if kind == "random":
        if "seed" in bundle:
            rng = np.random.default_rng(int(bundle["seed"]))
        rep = bundles.random_flat_representation(surface, rank, rng)
    else:
        rep = bundles.HolonomyRepresentation.from_json(bundle)
    return rep, rep.rank


def _mesh_source(cfg, rng):
    """The experiments.MeshSource of cfg["surface"] and cfg["bundle"] (_holonomy)."""
    surface = surfaces.build_surface(cfg["surface"])
    rep, rank = _holonomy(cfg, surface, rng)
    return experiments.MeshSource(surface, rep, rank)


def _run_spectrum(cfg, rng):
    conn = _mesh_source(cfg, rng).connection(
        cfg["n"], lambda rank, nv, ne: laplacian.check_dense_budget(rank, nv))
    spec = laplacian.spectrum(laplacian.assemble(conn), expected_kernel_dim=conn.flat_sections)
    return {
        "files": {"spectrum.csv": _csv(enumerate(spec.eigenvalues), ["index", "eigenvalue"])},
        "meta": {"n_vertices": conn.graph.n_vertices, "rank": conn.rank,
                 "kernel_dim": spec.kernel_dim},
    }


def _run_logdet(cfg, rng):
    """log det' of one mesh.  A separable kind takes the closed form of the
    bundle's characters (torsion.CharacterSum), any bundle at any rank; every
    other kind takes experiments.MeshSource.log_det, whose route (strips for
    the trivial bundle, the sparse LU otherwise) and health go into meta."""
    n = cfg["n"]
    if cfg["surface"].get("kind") in surfaces.SEPARABLE_KINDS:
        surface = surfaces.build_surface(cfg["surface"])
        split = torsion.CharacterSum.from_holonomy(
            surface.kind, surface.params["a"], surface.params["b"],
            *_holonomy(cfg, surface, rng))
        log_det, kernel_dim = split.log_det(n), split.dim_h0
        meta = {"route": "closed-form", "kernel_gap": split.kernel_gap(n),
                "n_vertices": meshes.mesh_counts(surface, n)[0]}
    else:
        source = _mesh_source(cfg, rng)
        log_det, kernel_dim = source.log_det(n), source.dim_h0
        meta = {**source.health[n], "n_vertices": meshes.mesh_counts(source.surface, n)[0]}
    return {
        "files": {"logdet.csv": _csv([(n, log_det, kernel_dim)],
                                     ["n", "logdet_prime", "kernel_dim"])},
        "meta": {"logdet_prime": log_det, "kernel_dim": kernel_dim, **meta},
    }


def _run_crsf_verify(cfg, rng):
    conn = _mesh_source(cfg, rng).connection(
        cfg["n"], lambda rank, nv, ne: forests.check_enumeration_caps(nv, ne, nv))
    rows, total = forests.crsf_census(conn)
    det, ok = forests.crsf_identity(conn, total)
    flag = "sqrt_ok" if conn.rank == 2 else "det_ok"
    line = f"sum={total!r} det={det!r} {flag}={str(ok).lower()}"
    census = _csv(rows, ["crsf_id", "n_components", "cycle_classes", "weight"])
    return {
        "files": {"crsf.csv": census, "report.txt": line + "\n"},
        "meta": {"sum": total, "det": det, "identity_ok": bool(ok)},
    }


def _run_szego(cfg, rng):
    profile = meshspectra.FourierProfile.from_json(cfg["profile"])
    rows = []
    for n in cfg["n_list"]:
        d = meshspectra.szego_trace_direct(profile, n)
        p = meshspectra.szego_expansion_predicted(profile, n)
        rows.append((n, d, p, abs(d - p)))
    return {
        "files": {"szego.csv": _csv(rows, ["n", "direct", "predicted", "abs_diff"])},
        "meta": {"profile": profile.to_json()},
        "plot": (cfg["n_list"], [row[3] for row in rows], "szego: |direct - predicted|"),
    }


def _run_heat_trace(cfg, rng):
    s = _separable_from(cfg)
    rows = []
    for t in cfg.get("t_list", [0.02, 0.05, 0.1, 0.2]):
        tr = s.heat_trace(t)
        ex = s.heat_trace_expansion(t)
        rows.append((t, tr, ex, abs(tr - ex)))
    return {
        "files": {"heat.csv": _csv(rows, ["t", "theta_series", "expansion", "abs_resid"])},
        "meta": {"surface": cfg["surface"]},
    }


def _run_zeta0(cfg, rng):
    source = _mesh_source(cfg, rng)
    z = source.zeta0
    return {
        "files": {"zeta0.csv": _csv([(source.label(), str(z), float(z))],
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
    s = _separable_from(cfg)
    # the largest n first: a list that ends beyond the budget builds no grid
    spectra = [s.mesh_spectrum(n).rescaled(n) for n in reversed(cfg["n_list"])][::-1]
    cmin, table = experiments.uniform_weyl_check(spectra)
    return {
        "files": {"weyl.csv": _csv(table, ["n", "argmin_i", "min_ratio"])},
        "meta": {"C_min": cmin},
    }


def _run_embedding_check(cfg, rng):
    surface = surfaces.build_surface(cfg["surface"])
    bump = experiments.build_bump()
    rows = []
    worst = 0.0
    for n in cfg["n_list"]:
        mesh = meshes.discretize(surface, n)
        excluded = sorted(mesh.excluded_vertex_ids())
        for trial in range(cfg.get("trials", 5)):
            f = rng.standard_normal(mesh.n_vertices)
            f[excluded] = 0.0
            nr, fr = experiments.embedding_check(mesh, bump, f)
            rows.append((n, trial, nr, fr))
            worst = max(worst, abs(nr - 1), abs(fr - 1))
    return {
        "files": {"embedding.csv": _csv(rows, ["n", "trial", "norm_ratio", "form_ratio"])},
        "meta": {"worst_deviation": worst, "C": bump.C},
    }


_PHASES = ("alpha", "beta")     # read by _separable_from and _series_source
_HOLONOMY = ("kind", "rank", "seed", "generators")   # read by _mesh_source

# experiment kind -> (runner, the keys its config must hold, the bundle fields
# it reads); only ratio reads bundle_b, with the same fields as its bundle
_EXPERIMENTS = {
    "spectrum": (_run_spectrum, ("surface", "n"), _HOLONOMY),
    "logdet": (_run_logdet, ("surface", "n"), _HOLONOMY),
    "renorm-series": (_run_renorm_series, ("surface", "n_list"), _PHASES),
    "ratio": (_run_ratio, ("surface", "surface_b", "n_list"), _PHASES),
    "crsf-verify": (_run_crsf_verify, ("surface", "n"), _HOLONOMY),
    "szego": (_run_szego, ("profile", "n_list"), ()),
    "heat-trace": (_run_heat_trace, ("surface",), _PHASES),
    "zeta0": (_run_zeta0, ("surface",), _HOLONOMY),
    "torsion": (_run_torsion, ("surface",), _PHASES),
    "weyl-check": (_run_weyl_check, ("surface", "n_list"), _PHASES),
    "embedding-check": (_run_embedding_check, ("surface", "n_list"), ()),
}


def validate_config(cfg):
    """``cfg`` itself, or ConfigError naming the first missing or mistyped key,
    or the first bundle field the experiment does not read."""
    if not isinstance(cfg, dict):
        raise errors.ConfigError("config must be a JSON object")
    kind = cfg.get("experiment")
    if kind not in _EXPERIMENTS:
        raise errors.ConfigError(
            f"unknown experiment kind {kind!r}; one of {sorted(_EXPERIMENTS)}")
    for key in _EXPERIMENTS[kind][1]:
        if key not in cfg:
            raise errors.ConfigError(f"{kind} config needs {key!r}")
    for key in ("surface", "surface_b", "profile"):
        if key in cfg and not isinstance(cfg[key], dict):
            raise errors.ConfigError(f"{key} must be a JSON object")
    if "n_list" in cfg:
        ns = cfg["n_list"]
        if (not isinstance(ns, list) or not ns or any(not _is_count(n, 1) for n in ns)
                or any(m >= n for m, n in zip(ns, ns[1:]))):
            raise errors.ConfigError(
                "n_list must be a non-empty strictly ascending list of positive integers")
    if "n" in cfg and not _is_count(cfg["n"], 1):
        raise errors.ConfigError("n must be a positive integer")
    if "trials" in cfg and not _is_count(cfg["trials"], 1):
        raise errors.ConfigError("trials must be a positive integer")
    if "profile" in cfg and not _is_profile(cfg["profile"]):
        raise errors.ConfigError(
            "profile needs positive numbers a and b, and coeffs as a list of "
            "[i, j, value] with non-negative integers i, j and a finite value")
    ts = cfg.get("t_list", [1.0])
    if not isinstance(ts, list) or not ts or any(not _is_real(t) or t <= 0 for t in ts):
        raise errors.ConfigError("t_list must be a non-empty list of positive times")
    for key in ("bundle", "bundle_b"):
        bundle = cfg.get(key) or {}
        if not isinstance(bundle, dict) or _bundle_kind(bundle) not in _BUNDLE_KINDS:
            raise errors.ConfigError(
                f"{key} must be an object of kind one of {list(_BUNDLE_KINDS)}")
        if _bundle_kind(bundle) == "raw" and "generators" not in bundle:
            raise errors.ConfigError(f"a raw {key} needs its generators")
        reads = _EXPERIMENTS[kind][2] if key == "bundle" or kind == "ratio" else ()
        unread = [field for field in bundle if field not in reads]
        if unread:
            raise errors.ConfigError(f"{kind} reads no {key} field {unread[0]!r}; "
                                     f"it reads {list(reads)}")
        for field, ok, what in (
                ("alpha", _is_real, "a finite number"), ("beta", _is_real, "a finite number"),
                ("rank", lambda x: _is_count(x, 1), "a positive integer"),
                ("seed", lambda x: _is_count(x, 0), "a non-negative integer"),
                ("generators", _is_matrix_list, "a list of square matrices of [re, im] pairs")):
            if field in bundle and not ok(bundle[field]):
                raise errors.ConfigError(f"{key} {field} must be {what}")
    return cfg


def _is_real(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_count(x, lo):
    return isinstance(x, int) and not isinstance(x, bool) and x >= lo


def _is_matrix_list(gens):
    return isinstance(gens, list) and all(
        isinstance(g, list) and g and all(
            isinstance(row, list) and len(row) == len(g)
            and all(isinstance(z, list) and len(z) == 2 and all(map(_is_real, z)) for z in row)
            for row in g)
        for g in gens)


def _is_profile(profile):
    coeffs = profile.get("coeffs")
    return (all(_is_real(profile.get(side)) and profile[side] > 0 for side in ("a", "b"))
            and isinstance(coeffs, list)
            and all(isinstance(c, list) and len(c) == 3 and _is_count(c[0], 0)
                    and _is_count(c[1], 0) and _is_real(c[2]) for c in coeffs))


def run(args):
    t0 = time.time()
    try:
        with open(args.config) as fh:
            cfg = validate_config(json.load(fh))
    except (OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    meta = {
        "config": cfg,
        "seed": args.seed,
        "versions": {"torsionlab": __version__, "numpy": np.__version__,
                     "scipy": _scipy_version(),
                     "python": sys.version.split()[0]},
    }
    code = 0
    try:
        result = _EXPERIMENTS[cfg["experiment"]][0](cfg, rng)
    except errors.TorsionLabError as exc:
        refused = isinstance(exc, (errors.TooLarge, errors.BudgetExceeded))
        meta["error"] = {"code": type(exc).__name__, "message": str(exc)}
        print(f"{'refused' if refused else 'error'}: {exc}", file=sys.stderr)
        code = 3 if refused else 2
    else:
        for name, text in result.get("files", {}).items():
            _write_atomic(os.path.join(args.out, name), text)
        if args.plot and "plot" in result:
            _write_atomic(os.path.join(args.out, "plot.svg"), _svg_error_plot(*result["plot"]))
        meta.update(result.get("meta", {}))
    meta["wall_time_s"] = time.time() - t0
    _write_atomic(os.path.join(args.out, "meta.json"),
                  json.dumps(meta, indent=2, default=str) + "\n")
    return code


@functools.cache
def _scipy_version():
    # read from the installed metadata: importing scipy costs 0.1 s, and a
    # metadata lookup 1-2 ms, too much to repeat on every run of a process
    import importlib.metadata
    return importlib.metadata.version("scipy")


# -- selftest -------------------------------------------------------------------


def _require(ok, what):
    """A selftest check that holds under ``python -O``, unlike ``assert``."""
    if not ok:
        raise errors.SelftestFailure(what)


def selftest(seed=0):
    """Fast invariant battery; prints one line per check, exit 1 on any failure."""
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        # report a failed check and go on; a programming error propagates
        except (errors.TorsionLabError, np.linalg.LinAlgError, ArithmeticError,
                ValueError) as exc:
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    rng = np.random.default_rng(seed)

    def surfaces_check():
        cases = [
            (surfaces.rectangle(4, 4), 16, [], [1] * 4, 16),
            (surfaces.cone_model(4), 32, [4 * 2], [1] * 8, 32),
            (surfaces.slit(), 16, [], [1] * 6 + [4], 20),
            (surfaces.lshape(), 12, [], [1] * 5 + [3], 16),
            (surfaces.cone_model(1), 8, [2], [1, 1], 8),
            (surfaces.cone_model(3), 24, [6], [1] * 6, 24),
            (surfaces.angle_model(5), 20, [], [1] * 7 + [5], 24),
            (surfaces.torus(2, 3), 6, [], [], 0),
            (surfaces.cylinder(3, 2), 6, [], [], 6),
        ]
        for surf, area, cones, corners, perim in cases:
            s = surfaces.geometry_summary(surf)
            _require(s.area == area, f"{surf.name} area {s.area}")
            _require(s.perimeter == perim, f"{surf.name} perimeter {s.perimeter}")
            _require(s.cone_quadrants == cones, f"{surf.name} cone angles")
            _require(s.corner_quadrants == corners, f"{surf.name} corner angles")
            _require(surfaces.gauss_bonnet_defect(surf) == 0, f"{surf.name} Gauss-Bonnet defect")

    check("surface models and Gauss-Bonnet", surfaces_check)

    def mesh_check():
        m = meshes.discretize(surfaces.rectangle(1, 1), 2)
        _require(m.n_vertices == 4 and len(m.edges) == 4, "rectangle(1,1) n=2 counts")
        m = meshes.discretize(surfaces.torus(1, 1), 3)
        _require(m.n_vertices == 9 and len(m.edges) == 18, "torus(1,1) n=3 counts")
        m = meshes.discretize(surfaces.cone_model(1), 2)
        mult = [v for v in m.edge_multiplicities().values() if v == 2]
        _require(len(mult) == 1, f"cone(2pi) n=2 has {len(mult)} double edges")

    check("mesh counts and double edges", mesh_check)

    def mesh_arrays_check():
        for surf in (surfaces.cone_model(1), surfaces.lshape()):
            summary = surfaces.geometry_summary(surf)
            for n in (1, 2):
                m = meshes.discretize(surf, n)
                at = f"{surf.name} n={n}"
                _require((m.n_vertices, len(m.edges)) == meshes.mesh_counts(surf, n),
                         f"{at} counts")
                glued = np.flatnonzero(m.partner >= 0)
                _require(np.all(m.partner[m.partner[glued]] == glued)
                         and np.all(m.partner[glued] != glued),
                         f"{at} partner is not an involution without fixed points")
                lengths = [L for L, (first, _, _) in m.face_cycles().items() for _ in first]
                _require(len(lengths) == summary.euler_char + len(m.edges) - m.n_vertices,
                         f"{at} has {len(lengths)} faces")
                _require(sorted(L for L in lengths if L != 4) == summary.cone_quadrants,
                         f"{at} non-square faces differ from the cone angles")
                for pid, ids in m.cone_neighbor_sets().items():
                    _require(len(set(ids)) == surf.singular_point(pid).quadrants,
                             f"{at} neighbors of {pid}")

    check("mesh arrays: counts, gluing, faces and cone fans", mesh_arrays_check)

    def laplacian_check():
        from . import strips
        m = meshes.discretize(surfaces.rectangle(1, 1), 2)
        conn = bundles.trivial_connection(m, 1)
        spec = laplacian.spectrum(laplacian.assemble(conn), expected_kernel_dim=conn.flat_sections)
        _require(np.allclose(spec.eigenvalues, [0, 2, 2, 4], atol=1e-12),
                 f"eigenvalues {spec.eigenvalues}")
        _require(abs(laplacian.log_det_prime(spec) - math.log(16)) < 1e-12,
                 "log det' is not log 16")
        got = laplacian.sparse_log_det(conn).log_det_prime
        _require(abs(got - math.log(16)) < 1e-12, f"sparse log det' {got} is not log 16")
        for surf in (surfaces.cone_model(1), surfaces.lshape()):
            for n in (1, 2, 3):
                want = laplacian.sparse_log_det(
                    bundles.trivial_connection(meshes.discretize(surf, n), 1)).log_det_prime
                got = strips.strip_log_det(surf.complex.partner, n).log_det_prime
                _require(abs(got - want) <= 1e-12 * abs(want),
                         f"{surf.name} n={n} strip log det' {got} vs sparse {want}")
        alpha, beta = 1.3, -0.7
        rep = bundles.HolonomyRepresentation.from_phases([alpha, beta])
        mesh = meshes.discretize(surfaces.torus(1, 1), 4)
        got = laplacian.sparse_log_det(bundles.connection_from_holonomy(mesh, rep))
        want = meshspectra.closed_form_log_det("torus", 1, 1, 4, alpha, beta)
        _require(abs(got.log_det_prime - want) < 1e-12,
                 f"sparse twisted torus log det' {got.log_det_prime} vs closed form {want}")
        rep = bundles.random_flat_representation(mesh.surface, 2, rng)
        got = laplacian.sparse_log_det(bundles.connection_from_holonomy(mesh, rep))
        want = torsion.CharacterSum.from_holonomy("torus", 1, 1, rep).log_det(4)
        _require(abs(got.log_det_prime - want) < 1e-12 * abs(want),
                 f"sparse SU(2) torus log det' {got.log_det_prime} vs its characters {want}")

    check("log det': 2x2 grid dense and sparse, strips and sparse, twisted tori sparse and "
          "closed form",
          laplacian_check)

    def forest_check():
        for side, trees in ((2, 4), (3, 192)):
            mesh = meshes.discretize(surfaces.rectangle(side, side), 1)
            _require(forests.count_spanning_trees(mesh) == trees, f"{side}x{side} trees")
        mesh = meshes.discretize(surfaces.cylinder(3, 1), 1)
        _require(len(forests.enumerate_crsfs(mesh)) == 1, "C3 CRSFs")

    check("matrix-tree and CRSF counts", forest_check)

    def kenyon_check():
        mesh = meshes.discretize(surfaces.cylinder(3, 1), 1)
        for _ in range(5):
            rep = bundles.random_flat_representation(mesh.surface, 2, rng)
            conn = bundles.connection_from_holonomy(mesh, rep)
            det, ok = forests.crsf_identity(conn, forests.crsf_weighted_sum(conn))
            _require(ok, f"CRSF sum does not match sqrt(det) {math.sqrt(det)}")

    check("Kenyon square identity (seeded)", kenyon_check)

    def sinprod_check():
        for m in (1, 2, 7, 32):
            for x in (0.1, 1.0, 3.0):
                b = meshspectra.sin_product_direct(m, x)
                _require(abs(meshspectra.sin_product(m, x) - b) <= 1e-12 * b,
                         f"sin_product({m}, {x})")
        _require(abs(meshspectra.sin_product_uncorrected(2, 1.0) - math.sqrt(2)) < 1e-12,
                 "sin_product_uncorrected(2, 1)")

    check("sine product closed form", sinprod_check)

    def eta_check():
        eta_i = math.gamma(0.25) / (2 * math.pi ** 0.75)
        v = torsion.dedekind_eta(math.exp(-2 * math.pi))
        _require(abs(v - eta_i) < 1e-12, f"eta(e^-2pi) = {v}")
        _require(abs(torsion.torus_torsion(1, 2) - torsion.torus_torsion(2, 1)) < 1e-12,
                 "torus torsion is not symmetric")
        rows = torsion.SeparableSurface("torus", 1, 1).torsion()
        _require(abs(rows - 4 * math.log(eta_i)) < 1e-14, f"torus(1,1) row torsion {rows}")

    check("Dedekind eta, torsion symmetry and row torsion", eta_check)

    def zeta_check():
        for surf, want in ((surfaces.rectangle(1, 1), Fraction(-3, 4)),
                           (surfaces.lshape(), Fraction(-13, 18)),
                           (surfaces.torus(1, 1), Fraction(-1))):
            got = torsion.zeta_zero(surfaces.geometry_summary(surf))
            _require(got == want, f"{surf.name} zeta(0) = {got}")

    check("zeta(0) exact values", zeta_check)

    def renorm_check():
        series = experiments.convergence_study(torsion.SeparableSurface("torus", 1, 1),
                                               [32, 64, 128])
        _require(abs(series.renorms[-1] - series.target) < 5e-4,
                 f"renormalized {series.renorms[-1]} vs {series.target}")
        twisted = torsion.SeparableSurface("torus", 1, 1, 1.3, -0.7)
        series = experiments.convergence_study(twisted, [64, 128, 256, 512, 1024])
        _require(abs(series.extrapolated - series.target) < 1e-7, f"twisted {series.extrapolated}")

    check("renormalized determinant trend, untwisted and twisted", renorm_check)

    def bump_check():
        bump = experiments.build_bump()
        _require(max(bump.residuals.values()) < 1e-10, f"residuals {bump.residuals}")
        _require(0.0 < bump.t_mix < 1.0 and bump.C > 0, f"t_mix {bump.t_mix}, C {bump.C}")

    check("bump profile constraints", bump_check)

    def embed_check():
        mesh = meshes.discretize(surfaces.rectangle(2, 2), 2)
        bump = experiments.build_bump()
        f = np.zeros(mesh.n_vertices)
        excluded = mesh.excluded_vertex_ids()
        inner = [v for v in range(mesh.n_vertices) if v not in excluded]
        f[inner[0]] = 1.0
        nr, fr = experiments.embedding_check(mesh, bump, f)
        _require(abs(nr - 1) < 1e-7 and abs(fr - 1) < 1e-7, f"ratios {nr}, {fr}")

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
