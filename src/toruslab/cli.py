"""Command-line front end: run experiments, emit JSON/CSV reports.

Exit codes: 0 pass, 1 tolerance failure, 2 config error, 3 numerical failure.
One function, _report, writes the report of every config command (and of its
admissibility exit) and derives the pass/fail exit code; scan-rank writes a
CSV instead.  Reports are deterministic for a fixed config, seed and BLAS
thread count, except for the "timestamp" field: a grid report differs in the
last bits between one and two BLAS threads.
"""

from __future__ import annotations

import datetime
import json
from math import comb

import click
import numpy as np

from . import bls as blsmod
from .bls import random_demailly_instance  # noqa: F401  (re-exported)
from .config import ExperimentConfig, _as_int, config_from_dict, load_config
from .curvature import (
    curvature_H,
    curvature_commutator,
    direct_image_fibre,
    hodge_riemann_check,
    lefschetz_decompose,
    lefschetz_reconstruct,
    wedge_pair,
    xu_wang_bound,
)
from .errors import (
    ConfigInvalid,
    ExtensionNotAdmissible,
    NotClosed,
    NotCoexact,
    TorusLabError,
)
from .family import kappa, primitive_lift, primitivity_residual
from .forms import (
    Grid,
    Spectral,
    assemble_dbar,
    assemble_nabla10,
    band_limited,
    curvature_action,
    lefschetz_L,
    lefschetz_Lambda,
    make_space,
    pair_l2,
    pair_matrix,
)
from .geometry import elliptic_family, jumping_family, siegel_diagonal_family
from .hodge import build_hodge, laplacian, minimal_solution
from .oracle import exact_landau_spectrum, fd_chern_curvature_H, rank_scan, write_rank_scan_csv


# ---------------------------------------------------------------------------
# plumbing


def _c(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _cmat(m) -> list:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return [[_c(z) for z in row] for row in m]


def _family(cfg: ExperimentConfig):
    if cfg.family == "jumping":
        return jumping_family(cfg.t, tau=cfg.tau)
    chi = {"chi": cfg.chi} if cfg.chi else {}   # else the constructor's default
    if cfg.family == "elliptic":
        return elliptic_family(cfg.t, d=cfg.d, tau=cfg.tau, **chi)
    return siegel_diagonal_family(cfg.t, tau=cfg.tau, **chi)


def _disc(cfg: ExperimentConfig):
    if cfg.backend == "spectral":
        return Spectral(M=cfg.M)
    return Grid(N=cfg.N, order=cfg.order)


def _emit(report: dict, out):
    report = dict(report)
    report["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _failed(checks) -> list:
    """Sorted names of the (name, value, bound) checks that miss value <= bound;
    a NaN value never meets it."""
    return sorted(name for name, value, bound in checks if not value <= bound)


def _kernel_check(pkg) -> tuple:
    """The kernel_dim check: the package's harmonic basis has the expected size."""
    return ("kernel_dim", abs(pkg.harmonic_dim - pkg.expected_kernel), 0)


def _report(name: str, cfg: ExperimentConfig, out, dump_spectrum: bool,
            fields: dict, failures: list, package) -> int:
    """Write the report of a config command, its own fields beside command,
    config, failures and status, and return the exit code: 0 pass, 1 fail.
    With a Hodge package, the report's diagnostics holds its one entry, with
    lambda1_rel_err on a grid package; with --dump-spectrum and --out, the
    CSV next to it has one row per eigenvalue: bidegree, index, eigenvalue."""
    if package is not None:
        entry = package.diagnostics()
        if isinstance(package.space.disc, Grid):
            entry["lambda1_rel_err"] = _landau_rel_err(entry, cfg.d)
        fields = {**fields, "diagnostics": [entry]}
    _emit({"command": name, "config": cfg.as_dict(), **fields, "failures": failures,
           "status": "pass" if not failures else "fail"}, out)
    if dump_spectrum and out and package is not None:
        p, q = package.space.bidegree
        with open(out + ".spectrum.csv", "w") as fh:
            fh.write("bidegree,index,eigenvalue\n")
            for idx, lam in enumerate(package.eigenvalues()):
                fh.write(f"({p} {q}),{idx},{lam:.16e}\n")
    return 0 if not failures else 1


def _landau_rel_err(entry: dict, d: int):
    """|lambda1 - 2 pi d| / (2 pi d) of a grid diagnostics entry: the lowest
    positive Landau level of a degree-d fibre on either bidegree, or None
    when the package found no lambda1."""
    if entry["lambda1"] is None:
        return None
    levels = exact_landau_spectrum(d, tuple(entry["bidegree"]), d + 1)
    exact = float(levels[levels > 0][0])
    return abs(entry["lambda1"] - exact) / exact


def _common(func):
    func = click.option("--config", "config_path", type=click.Path(), default=None,
                        help="JSON experiment config.")(func)
    func = click.option("--out", type=click.Path(), default=None,
                        help="Report output path (stdout if omitted).")(func)
    func = click.option("--seed", type=int, default=None,
                        help="Override config seed (checked as the config's).")(func)
    func = click.option("--dump-spectrum", is_flag=True, default=False,
                        help="Also write Laplacian spectra as CSV next to --out.")(func)
    return func


def _load(config_path, seed, defaults: dict) -> ExperimentConfig:
    if config_path is None:
        cfg = config_from_dict(defaults)
    else:
        cfg = load_config(config_path)
    if seed is not None:
        cfg.seed = _as_int(seed, "--seed", minimum=0)
    return cfg


@click.group()
def main():
    """Numerical laboratory for direct-image Hilbert fields over torus families."""


def _command(name: str, defaults: dict):
    """Register body(cfg, out) as a config command.  The body returns the
    (fields, failures, package) that _report writes, package being the one
    Hodge package whose diagnostics the report carries or None, or returns
    None when it wrote its own output (scan-rank), which exits 0.

    The config is loaded with the given defaults (when --config is omitted);
    ConfigInvalid exits 2 with "config error:", ExtensionNotAdmissible (a miss
    of the admissibility tolerance, as on an under-resolved grid) exits 1 with
    "tolerance failure: admissibility:" and a report that fails
    `admissibility` with the reason, and any other exception exits 3 with one
    line "numerical failure:" (the type first unless it is a TorusLabError).
    The body runs with floating-point division by zero, overflow and invalid
    values raising, so they exit 3 with that line instead of printing a
    RuntimeWarning; underflow stays silent.
    """
    def register(body):
        @main.command(name, help=body.__doc__)
        @_common
        @click.pass_context
        def command(ctx, config_path, out, seed, dump_spectrum):
            try:
                cfg = _load(config_path, seed, defaults)
                with np.errstate(divide="raise", over="raise", invalid="raise"):
                    result = body(cfg, out)
                    code = 0 if result is None else _report(name, cfg, out, dump_spectrum,
                                                            *result)
            except ConfigInvalid as exc:
                click.echo(f"config error: {exc}", err=True)
                code = 2
            except ExtensionNotAdmissible as exc:
                click.echo(f"tolerance failure: admissibility: {exc}", err=True)
                _report(name, cfg, out, dump_spectrum, {"reason": str(exc)},
                        ["admissibility"], None)
                code = 1
            except Exception as exc:
                kind = "" if isinstance(exc, TorusLabError) else f"{type(exc).__name__}: "
                click.echo(f"numerical failure: {kind}{exc}", err=True)
                code = 3
            ctx.exit(code)
        return command
    return register


# ---------------------------------------------------------------------------
# hodge-check


def _identity_suite(cfg: ExperimentConfig) -> dict:
    rng = np.random.default_rng(cfg.seed)
    fam = _family(cfg)
    torus, bundle = fam.torus_at(), fam.bundle_at()
    n = torus.n
    fibre = make_space(torus, bundle, (0, 0), _disc(cfg))
    res = {}

    # square of the (0,1)-differential across all composable bidegrees
    vals = [0.0]
    for p in range(n + 1):
        for q in range(n - 1):
            sp = fibre.sibling((p, q))
            u = band_limited(sp, rng)
            vals.append(assemble_dbar(fibre.sibling((p, q + 1))).apply(
                assemble_dbar(sp).apply(u)).norm())
    res["dbar_squared"] = float(np.max(vals))

    # anticommutator of the two differentials equals wedging with the curvature
    u = band_limited(fibre, rng)
    anti = (assemble_nabla10(fibre.sibling((0, 1))).apply(assemble_dbar(fibre).apply(u))
            + assemble_dbar(fibre.sibling((1, 0))).apply(assemble_nabla10(fibre).apply(u)))
    res["chern_anticommutator"] = float((anti - curvature_action(fibre).apply(u)).norm())

    # Lefschetz commutator [L, Lambda] = (p+q-n) Id on every bidegree
    vals = [0.0]
    for p in range(n + 1):
        for q in range(n + 1):
            sp = fibre.sibling((p, q))
            u = band_limited(sp, rng)
            acc = ((p + q - n) * -1.0) * u
            if p + 1 <= n and q + 1 <= n:
                up = fibre.sibling((p + 1, q + 1))
                acc = acc - lefschetz_Lambda(up).apply(lefschetz_L(sp).apply(u))
            if p >= 1 and q >= 1:
                down = fibre.sibling((p - 1, q - 1))
                acc = acc + lefschetz_L(down).apply(lefschetz_Lambda(sp).apply(u))
            vals.append(acc.norm())
    res["l_lambda_commutator"] = float(np.max(vals))

    # curvature-commutator form of the Laplacian comparison on (n,1)
    sp_n1 = fibre.sibling((n, 1))
    pkg_n1 = build_hodge(sp_n1, rank_tol=cfg.tol("rank_tol"),
                         expected_kernel=_expected_kernel(cfg, fam, (n, 1)))
    u = band_limited(sp_n1, rng)
    bk = (pkg_n1.laplacian.apply(u) - laplacian(sp_n1, "nabla").apply(u)
          - curvature_commutator(sp_n1).apply(u))
    res["bochner_kodaira"] = float(bk.norm())

    # Hodge decomposition Id = harmonic projection + box Green
    u = band_limited(sp_n1, rng)
    hd = u - pkg_n1.harmonic_project(u) - pkg_n1.laplacian.apply(pkg_n1.green(u))
    res["hodge_decomposition"] = float(hd.norm())

    # minimal solution: ||u0||^2 = <G alpha, alpha>
    sp_n0 = fibre.sibling((n, 0))
    alpha = assemble_dbar(sp_n0).apply(band_limited(sp_n0, rng))
    if alpha.norm() > 0:
        try:
            u0 = minimal_solution(pkg_n1, alpha)
            lhs = u0.norm() ** 2
            rhs = pair_l2(pkg_n1.green(alpha), alpha).real
            res["minimal_solution_norm"] = float(abs(lhs - rhs) / max(abs(rhs), 1e-300))
        except (NotCoexact, NotClosed):
            # under-resolved differential: report the spurious harmonic fraction
            res["minimal_solution_norm"] = float(
                pkg_n1.harmonic_project(alpha).norm() / alpha.norm() + 1.0)
    else:
        res["minimal_solution_norm"] = 0.0

    # Lefschetz decomposition alpha = sum_j omega^j ∧ alpha_j of a unit form of
    # each bidegree with p + q <= n, and the Hodge-Riemann relation on its
    # primitive part alpha_0 (relative to |epsilon| ||alpha_0||^2)
    dec, hr = [0.0], [0.0]
    for p in range(n + 1):
        for q in range(n + 1 - p):
            sp = fibre.sibling((p, q))
            u = band_limited(sp, rng)
            parts = lefschetz_decompose(u)
            dec.append((lefschetz_reconstruct(sp, parts) - u).norm())
            _, rhs, err = hodge_riemann_check(dict(parts)[0])
            hr.append(err / max(abs(rhs), 1e-300))
    res["lefschetz_decomposition"] = float(np.max(dec))
    res["hodge_riemann"] = float(np.max(hr))

    return res, pkg_n1


def _expected_kernel(cfg, fam, bidegree) -> int:
    """The harmonic dimension on the fibre: d^n on (p,0) of a degree-d bundle,
    and C(n,p)·C(n,q) on a trivial flat bundle (else 0)."""
    torus, bundle = fam.torus_at(), fam.bundle_at()
    p, q = bidegree
    if not bundle.is_flat:
        return cfg.d ** torus.n if q == 0 else 0
    return comb(torus.n, p) * comb(torus.n, q) if bundle.is_trivial else 0


@_command("hodge-check", {"backend": "spectral", "d": 0})
def cmd_hodge_check(cfg, out):
    """Run the operator-identity and Hodge-decomposition suite."""
    residuals, package = _identity_suite(cfg)
    identity = cfg.tol("identity")
    bounds = {
        "dbar_squared": identity,
        "chern_anticommutator": identity,
        "l_lambda_commutator": identity,
        "bochner_kodaira": identity,
        "lefschetz_decomposition": identity,
        "hodge_riemann": identity,
        "hodge_decomposition": cfg.tol("hodge_decomposition"),
        "minimal_solution_norm": cfg.tol("minimal_solution"),
    }
    failures = _failed([(k, v, bounds[k]) for k, v in residuals.items()]
                       + [_kernel_check(package)])
    return {"residuals": residuals}, failures, package


# ---------------------------------------------------------------------------
# curvature


@_command("curvature", {})
def cmd_curvature(cfg, out):
    """Curvature of the direct-image field: both routes, the FD Gram oracle on
    the grid, and the positivity verdict."""
    fam = _family(cfg)
    disc = _disc(cfg)
    n = fam.torus_at().n
    sp, pkg0, basis, lift = direct_image_fibre(
        fam, disc, _expected_kernel(cfg, fam, (n, 0)), rank_tol=cfg.tol("rank_tol"))
    rep = curvature_H(fam, lift, basis, pkg0, admissibility_tol=cfg.tol("admissibility"))

    checks = [_kernel_check(pkg0)]
    positive_bundle = not sp.bundle.is_flat
    xu_wang_gap = None
    if rep.rank > 0:
        scale = max(float(np.linalg.norm(rep.theta_H)), 1e-300)
        checks.append(("routes_rel", rep.residual_routes / scale, cfg.tol("routes_rel")))
        if positive_bundle:
            checks.append(("nakano", -rep.nakano_min_eig, cfg.tol("nakano")))
            # theta_H is bounded below by the Xu-Wang curvature-commutator term
            rhs = xu_wang_bound(lift, basis, rep)
            xu_wang_gap = float(np.linalg.eigvalsh(rep.theta_H - rhs).min())
            checks.append(("xu_wang", -xu_wang_gap, cfg.tol("nakano")))
        checks.append(("sff_psd", -float(np.linalg.eigvalsh(rep.term_sff).min()),
                       cfg.tol("sff_psd")))
    extra = {}
    if isinstance(disc, Grid):
        fd = fd_chern_curvature_H(fam, cfg.d, disc, step=cfg.step, harmonic_basis=basis)
        extra["fd_rel"] = float(np.linalg.norm(rep.theta_H - fd)
                                / max(float(np.linalg.norm(fd)), 1e-300))
        checks.append(("fd_rel", extra["fd_rel"], cfg.tol("fd_rel")))
    failures = _failed(checks)

    fields = {
        "rank": rep.rank,
        "at_jump_locus": cfg.family == "jumping" and sp.bundle.is_trivial,
        "gram": _cmat(rep.gram),
        "term_theta_h": _cmat(rep.term_theta_h),
        "term_kappa": _cmat(rep.term_kappa),
        "term_sff": _cmat(rep.term_sff),
        "theta_H": _cmat(rep.theta_H),
        "theta_H_pushforward": _cmat(rep.theta_H_bly),
        "residual_routes": float(rep.residual_routes),
        **extra,
        "hermiticity_defect": rep.hermiticity_defect,
        # null, not a bare NaN (strict JSON has none), when the basis is empty
        "nakano_min_eig": float(rep.nakano_min_eig) if rep.rank else None,
        "xu_wang_gap": xu_wang_gap,
        # null with no sections to be positive on
        "positivity_verdict": (not positive_bundle or not {"kernel_dim", "nakano"} & set(failures)
                               if rep.rank else None),
    }
    return fields, failures, pkg0


# ---------------------------------------------------------------------------
# scan-rank


@_command("scan-rank", {"family": "jumping", "t": [0.0, 1.0]})
def cmd_scan_rank(cfg, out):
    """Scan fiberwise holomorphic-section counts along a base segment (CSV)."""
    rows = rank_scan(_family(cfg), cfg.scan_samples(), M=cfg.M)
    path = out if out else "rank_scan.csv"
    write_rank_scan_csv(rows, path)
    click.echo(f"wrote {len(rows)} rows to {path}")


# ---------------------------------------------------------------------------
# primitive-lift


@_command("primitive-lift", {"family": "siegel-diagonal", "t": [0.2, 0.9],
                              "backend": "spectral", "d": 0})
def cmd_primitive_lift(cfg, out):
    """Construct the primitive horizontal lift and verify its two properties."""
    fam = _family(cfg)
    n = fam.torus_at().n
    _, pkg0, basis, base = direct_image_fibre(
        fam, _disc(cfg), _expected_kernel(cfg, fam, (n, 0)), rank_tol=cfg.tol("rank_tol"))
    lifted = primitive_lift(base)

    # np.max, unlike max, keeps a NaN, so the check below fails on it
    prim_res = float(np.max([0.0] + [primitivity_residual(lifted, f) for f in basis]))
    # |wedge_pair(kf, kf) + ||kf||^2| relative to ||kf||^2, free of the scale of f
    kf = [kappa(lifted, f) for f in basis]
    wedge, sq = np.diag(wedge_pair(kf, kf)), np.diag(pair_matrix(kf, kf))
    hr_res = float(np.max(np.append(0.0, np.abs(wedge + sq) / np.maximum(sq.real, 1e-300))))

    failures = _failed([_kernel_check(pkg0),
                        ("primitivity", prim_res, cfg.tol("primitivity")),
                        ("hr_equality", hr_res, cfg.tol("hr_equality"))])

    fields = {
        "rank": len(basis),
        "unchanged": lifted is base,
        "primitivity_residual": prim_res,
        "hr_equality_residual": hr_res,
    }
    return fields, failures, None


# ---------------------------------------------------------------------------
# bls battery


def bls_battery(cfg: ExperimentConfig) -> dict:
    step = float(cfg.bls.get("step", cfg.step))
    t0 = cfg.bls.get("t", 0.3 + 0.2j)
    instances = int(cfg.bls.get("instances", 100))
    out = {"step": step, "t": _c(t0), "instances": instances, "seed": cfg.seed}

    # curvature closed forms
    f_flat = blsmod.FiniteBLSField(2, lambda t: np.eye(2, dtype=complex))
    out["curvature_identity_residual"] = float(
        np.linalg.norm(blsmod.chern_curvature_fd(f_flat, t0, step)))
    f_exp = blsmod.FiniteBLSField(
        2, lambda t: np.exp(abs(t) ** 2) * np.eye(2, dtype=complex))
    out["curvature_exp_residual"] = float(
        np.linalg.norm(blsmod.chern_curvature_fd(f_exp, t0, step) + np.eye(2)))

    # Gauss-Griffiths on a rotating holomorphically-spanned subfield
    def rotating(t):
        v = np.array([np.cos(0.8 * t), np.sin(0.8 * t)], dtype=complex)
        return np.outer(v, v.conj()) / np.vdot(v, v)

    f_rot = blsmod.FiniteBLSField(
        2, lambda t: np.exp(abs(t) ** 2) * np.eye(2, dtype=complex), rotating)
    out["gauss_griffiths_residual"] = float(
        blsmod.gauss_griffiths_check(f_rot, t0, step))
    out["gauss_griffiths_bound"] = 10.0 * step ** 2

    # catalog Griffiths-positive, Nakano-indefinite form
    v0 = np.zeros(4, dtype=complex)
    v0[1] = 1.0 / np.sqrt(2.0)
    v0[2] = -1.0 / np.sqrt(2.0)
    phi_gn = np.eye(4, dtype=complex) - 1.5 * np.outer(v0, v0.conj())
    form_gn = blsmod.HermitianFormOnTensor(m=2, r=2, phi=phi_gn, split=(2, 0))
    gn1, _, _ = blsmod.schur_complement_demailly(form_gn, 1, seed=cfg.seed)
    gn2, _, _ = blsmod.schur_complement_demailly(form_gn, 2, seed=cfg.seed)
    out["griffiths_not_nakano"] = {"one_positive": bool(gn1), "two_positive": bool(gn2)}

    # seeded random battery against the brute-force oracle
    out.update(blsmod.demailly_battery(cfg.seed, instances))
    return out


@_command("bls", {})
def cmd_bls(cfg, out):
    """Finite-dimensional matrix-field battery with a brute-force oracle."""
    battery = bls_battery(cfg)
    step, gn = battery["step"], battery["griffiths_not_nakano"]
    failures = _failed([
        ("curvature_identity", battery["curvature_identity_residual"], 10.0 * step ** 2),
        ("curvature_exp", battery["curvature_exp_residual"], 2.0 * step ** 2),
        ("gauss_griffiths", battery["gauss_griffiths_residual"],
         battery["gauss_griffiths_bound"]),
        ("griffiths_not_nakano", int(not gn["one_positive"] or gn["two_positive"]), 0),
        ("oracle_disagreement", len(battery["disagreements"]), 0),
        ("monotonicity", len(battery["monotonicity_violations"]), 0),
    ])

    return {"battery": battery}, failures, None


# ---------------------------------------------------------------------------
# report aggregation


@main.command("report")
@click.argument("paths", nargs=-1, type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def cmd_report(ctx, paths, out):
    """Aggregate previously written JSON reports into one summary."""
    entries = []
    worst = "pass"
    for path in paths:
        try:
            with open(path) as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("the root is not a JSON object")
        except (OSError, ValueError) as exc:
            click.echo(f"config error: cannot read {path}: {exc}", err=True)
            ctx.exit(2)
        status = data.get("status", "unknown")
        if status != "pass":
            worst = "fail"
        entries.append({
            "path": str(path),
            "command": data.get("command", "unknown"),
            "status": status,
            "failures": data.get("failures", []),
        })
    summary = {
        "command": "report",
        "reports": entries,
        "status": worst if entries else "pass",
    }
    _emit(summary, out)
    ctx.exit(0 if worst == "pass" else 1)


if __name__ == "__main__":
    main()
