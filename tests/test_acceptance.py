"""End-to-end acceptance battery at production resolution.

Each test pins one headline guarantee of the package at the stated tolerance;
the expensive degree-d pipelines at N = 64 are built once per degree and
shared across the curvature, representative, and lift-independence checks.
"""

import time

import numpy as np
import pytest

from toruslab import bls as blsmod
from toruslab.cli import _identity_suite, random_demailly_instance
from toruslab.config import config_from_dict
from toruslab.curvature import (
    curvature_H,
    direct_image_fibre,
    second_fundamental_form,
    wedge_pair,
)
from toruslab.family import (
    berndtsson_representative,
    class_match_residual,
    kappa,
    perturb_lift,
    primitive_lift,
    primitivity_residual,
)
from toruslab.forms import Grid, Spectral, assemble_dbar, make_space, pair_l2
from toruslab.geometry import (
    elliptic_family,
    jumping_family,
    make_flat_bundle,
    make_torus,
    siegel_diagonal_family,
)
from toruslab.hodge import build_hodge, minimal_solution
from toruslab.oracle import (
    exact_flat_spectrum,
    exact_landau_spectrum,
    fd_chern_curvature_H,
    is_jump_point,
    rank_scan,
)

from conftest import T0, band_limited, band_limited_field, representative_residuals

N_PROD, ORDER_PROD = 64, 10
STEP = 1e-3

_CACHE = {}


def pipeline_for(d):
    """Degree-d production pipeline at N = 64, built once per test session."""
    if d in _CACHE:
        return _CACHE[d]
    t_start = time.perf_counter()
    fam = elliptic_family(T0, d=d)
    disc = Grid(N=N_PROD, order=ORDER_PROD)
    sp, pkg0, basis, lift = direct_image_fibre(fam, disc, expected_kernel=d)
    report = curvature_H(fam, lift, basis, pkg0)
    fd = fd_chern_curvature_H(fam, d, disc, step=STEP, harmonic_basis=basis)
    elapsed = time.perf_counter() - t_start
    pkg01 = build_hodge(sp.sibling((0, 1)), expected_kernel=0)
    pkg11 = build_hodge(sp.sibling((1, 1)), expected_kernel=0)
    reps = [berndtsson_representative(lift, f, pkg0, tol=1e-5)
            for f in basis]
    _CACHE[d] = dict(d=d, fam=fam, disc=disc, sp=sp, pkg0=pkg0, pkg01=pkg01,
                     pkg11=pkg11, basis=basis, lift=lift, report=report,
                     fd=fd, reps=reps, elapsed=elapsed)
    return _CACHE[d]


@pytest.fixture(scope="module", params=[1, 2, 3], ids=["d1", "d2", "d3"])
def pipeline(request):
    return pipeline_for(request.param)


# ---------------------------------------------------------------------------
# 1. operator identities on the exactly-resolved backend


def test_operator_identity_suite_flat_spectral():
    t_start = time.perf_counter()
    cfg = config_from_dict({"backend": "spectral", "d": 0, "M": 6})
    residuals, _ = _identity_suite(cfg)
    elapsed = time.perf_counter() - t_start
    for key in ("dbar_squared", "chern_anticommutator",
                "l_lambda_commutator", "bochner_kodaira"):
        assert residuals[key] <= 1e-10, (key, residuals[key])
    assert residuals["hodge_decomposition"] <= 1e-9
    assert residuals["minimal_solution_norm"] <= 1e-8
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 2. Hodge engine: decomposition, minimal solutions, exact spectra


def test_hodge_engine_against_exact_spectra():
    torus = make_torus(1, [[T0]])
    for chi, dim in [((0.0, 0.0), 1), ((0.5, 0.0), 0), ((0.25, 0.5), 0)]:
        bundle = make_flat_bundle(torus, chi)
        sp = make_space(torus, bundle, (0, 1), Spectral(M=6))
        pkg = build_hodge(sp, expected_kernel=dim)
        assert pkg.harmonic_dim == dim
        lam_exact = exact_flat_spectrum(torus, chi, (0, 1), M=6)
        lam = np.sort(pkg.eigenvalues())
        m = min(len(lam), len(lam_exact))
        assert np.allclose(lam[:m], lam_exact[:m], atol=1e-10)


@pytest.mark.parametrize("t", [0.3 + 1.1j, -0.2 + 0.8j])
@pytest.mark.parametrize("d", [1, 2])
def test_grid_hodge_engine_against_exact_landau_spectra(t, d):
    # Kept (non-aliased) eigenvalues against the Landau levels 2 pi d m, each d
    # times, m >= 0 on (1,0) and m >= 1 on (1,1).  lambda1 = 2 pi d meets 3e-8;
    # the order-10 stencil's truncation error at N = 48 grows with the level,
    # to 1.2e-7 at m = 6 for d = 2, so the whole ladder is held to 2e-7.
    fam = elliptic_family(t, d=d)
    sp10 = make_space(fam.torus_at(), fam.bundle_at(), (1, 0), Grid(N=48, order=10))
    for bidegree, expected in (((1, 0), d), ((1, 1), 0)):
        pkg = build_hodge(sp10.sibling(bidegree), expected_kernel=expected)
        lam = pkg.eigenvalues()
        exact = exact_landau_spectrum(d, bidegree, lam.size)
        assert lam.size >= 10
        assert np.all(np.abs(lam - exact) <= 2e-7 * np.maximum(exact, 2 * np.pi * d))
        assert pkg.diagnostics()["lambda1"] == pytest.approx(2 * np.pi * d, rel=3e-8)


def test_hodge_engine_decomposition_and_minimal_solution():
    rng = np.random.default_rng(5)
    pipe = pipeline_for(1)
    pkg11 = pipe["pkg11"]
    u = band_limited(pkg11.space, rng)
    resid = u - pkg11.harmonic_project(u) - pkg11.laplacian.apply(pkg11.green(u))
    assert resid.norm() <= 1e-9

    sp10 = pipe["sp"]
    v = band_limited(sp10, rng)
    alpha = assemble_dbar(sp10).apply(v)
    u0 = minimal_solution(pkg11, alpha)
    lhs = u0.norm() ** 2
    rhs = pair_l2(pkg11.green(alpha), alpha).real
    assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-300)


# ---------------------------------------------------------------------------
# 3. jumping family: the fiberwise section count spikes only on the locus


def test_jumping_family_rank_scan():
    t_start = time.perf_counter()
    fam = jumping_family(1j)
    ts = [1j + x for x in np.linspace(-0.05, 0.05, 101)]
    rows = rank_scan(fam, ts, M=8)
    elapsed = time.perf_counter() - t_start
    assert len(rows) == 101
    for t, rank, lam1 in rows:
        assert rank == (1 if is_jump_point(t) else 0)
    assert sum(r for _, r, _ in rows) == 1
    assert rows[50][1] == 1
    assert elapsed < 30.0


def test_hodge_kernel_agrees_with_rank_scan_on_default_scan():
    # the Hodge package, rank_scan and the independent lattice test give one
    # rank on every sample of the default scan-rank segment, including the
    # samples next to the jump at t = i
    cfg = config_from_dict({"family": "jumping", "t": [0.0, 1.0]})
    ts = cfg.scan_samples()
    rows = rank_scan(jumping_family(cfg.t), ts, M=cfg.M)
    assert len(rows) == 101
    for t, (_, rank, _) in zip(ts, rows):
        _, pkg, _, _ = direct_image_fibre(jumping_family(t), Spectral(M=cfg.M),
                                          expected_kernel=rank)
        assert pkg.harmonic_dim == rank == int(is_jump_point(t)), t


# ---------------------------------------------------------------------------
# 4. primitive horizontal lift on an abelian surface


def test_primitive_lift_on_abelian_surface():
    rng = np.random.default_rng(2)
    fam = siegel_diagonal_family(0.2 + 0.9j)
    sp, _, (f,), base = direct_image_fibre(fam, Spectral(M=5), expected_kernel=1)

    W = np.zeros((2,) + sp.field_shape, dtype=complex)
    W[0] = 0.05 * rng.standard_normal(sp.field_shape)
    W[1] = 0.05 * rng.standard_normal(sp.field_shape)
    pert = perturb_lift(base, W)
    lifted = primitive_lift(pert)

    assert primitivity_residual(lifted, f) <= 1e-8
    kf = kappa(lifted, f)
    assert abs(wedge_pair([kf], [kf])[0, 0] + pair_l2(kf, kf)) <= 1e-7


def test_primitive_lift_is_identity_on_elliptic_fibers():
    pipe = pipeline_for(1)
    out = primitive_lift(pipe["lift"])
    assert np.allclose(out.K, pipe["lift"].K)


# ---------------------------------------------------------------------------
# 5. corrected representatives: primitivity, orthogonality, class match


def test_representatives_properties(pipeline):
    pkg0, pkg01 = pipeline["pkg0"], pipeline["pkg01"]
    for rep in pipeline["reps"]:
        res_prim, res_orth = representative_residuals(rep, pkg0)
        assert res_prim <= 1e-5  # the representatives' tol
        assert res_orth <= 1e-6
        assert class_match_residual(rep, pkg01) <= 1e-6


# ---------------------------------------------------------------------------
# 6. curvature: both internal routes and the finite-difference Gram oracle


def test_curvature_routes_and_fd_oracle(pipeline):
    report, fd = pipeline["report"], pipeline["fd"]
    scale = max(float(np.linalg.norm(report.theta_H)), 1e-300)
    assert report.residual_routes / scale <= 1e-5
    fd_scale = max(float(np.linalg.norm(fd)), 1e-300)
    assert np.linalg.norm(report.theta_H - fd) / fd_scale <= 1e-3
    assert np.linalg.norm(report.theta_H_bly - fd) / fd_scale <= 1e-3
    assert pipeline["elapsed"] < 300.0


# ---------------------------------------------------------------------------
# 7. positivity of the direct image


def test_curvature_positivity(pipeline):
    report = pipeline["report"]
    assert report.nakano_min_eig >= -1e-6
    assert np.linalg.eigvalsh(report.term_sff).min() >= -1e-10


# ---------------------------------------------------------------------------
# 8. gauge invariance: the curvature does not see the choice of lift


def test_lift_independence_under_vertical_perturbation(pipeline):
    rng = np.random.default_rng(7)
    sp = pipeline["sp"]
    W = band_limited_field(sp.calculus, rng, (1,) + sp.field_shape,
                           magnitude=0.1)
    lift2 = perturb_lift(pipeline["lift"], W)
    r1 = curvature_H(pipeline["fam"], pipeline["lift"], pipeline["basis"], pipeline["pkg0"])
    r2 = curvature_H(pipeline["fam"], lift2, pipeline["basis"], pipeline["pkg0"])
    rel = np.linalg.norm(r1.theta_H - r2.theta_H) / np.linalg.norm(r1.theta_H)
    assert rel <= 1e-5


# ---------------------------------------------------------------------------
# 9. second fundamental form: projection route equals Green route


def test_second_fundamental_form_routes(pipeline):
    pkg0, pkg11 = pipeline["pkg0"], pipeline["pkg11"]
    for rep in pipeline["reps"]:
        ii_proj = second_fundamental_form(rep, pkg0)
        ii_green = second_fundamental_form(rep, pkg11)
        rel = (ii_proj - ii_green).norm() / max(ii_proj.norm(), 1e-300)
        assert rel <= 1e-6


# ---------------------------------------------------------------------------
# 10. finite-dimensional matrix fields against the brute-force oracle


def test_finite_field_curvature_identity():
    def rotating(t):
        v = np.array([np.cos(0.8 * t), np.sin(0.8 * t)], dtype=complex)
        return np.outer(v, v.conj()) / np.vdot(v, v)

    bf = blsmod.FiniteBLSField(
        2, lambda t: np.exp(abs(t) ** 2) * np.eye(2, dtype=complex), rotating)
    res = blsmod.gauss_griffiths_check(bf, 0.3 + 0.2j, STEP)
    assert res <= 10.0 * STEP**2


def test_rank_positivity_against_brute_force_oracle():
    disagreements = []
    for i in range(100):
        seed = 100003 + i
        form, k, S = random_demailly_instance(seed)
        assert form.m * form.r <= 9
        m1 = form.split[0]
        for kk in range(1, k + 1):
            pos, _, _ = blsmod.schur_complement_demailly(form, kk, seed=seed)
            oracle = blsmod.rank_k_min_oracle(S, m1, form.r, kk)
            if pos != (oracle > -1e-9):
                disagreements.append((seed, kk, oracle))
    assert disagreements == []
