from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab import family
from toruslab.errors import ExtensionNotAdmissible
from toruslab.family import (
    berndtsson_representative,
    class_match_residual,
    curvature_contraction_form,
    kappa,
    perturb_lift,
    primitive_lift,
    primitivity_residual,
    trivialization_lift,
)
from toruslab.curvature import curvature_H, direct_image_fibre, second_fundamental_form
from toruslab.forms import Grid, Spectral, contract_ks, lefschetz_L, make_space
from toruslab.geometry import (
    FamilySpec,
    elliptic_family,
    make_flat_bundle,
    siegel_diagonal_family,
)
from toruslab.hodge import build_hodge

from conftest import T0, band_limited, band_limited_field, representative_residuals


@pytest.fixture(scope="module")
def grid_setup():
    fam = elliptic_family(T0, d=1)
    sp, pkg0, (f,), lift = direct_image_fibre(fam, Grid(N=32, order=6), expected_kernel=1)
    return fam, sp, pkg0, f, lift


def test_trivialization_ks_field_is_constant(grid_setup):
    fam, sp, pkg0, f, lift = grid_setup
    ks = lift.tau * lift.K
    # Omega(t) = t: the lift has dbar-xi = -tau/(t - tbar) dzbar (x) d/dz
    expect = -1.0 / (T0 - np.conj(T0))
    assert np.allclose(ks[0, 0], expect)


def test_kappa_is_linear(grid_setup, rng):
    fam, sp, pkg0, f, lift = grid_setup
    g = band_limited(sp, rng)
    lhs = kappa(lift, f * 2.0 + g)
    rhs = kappa(lift, f) * 2.0 + kappa(lift, g)
    assert (lhs - rhs).norm() <= 1e-12


def test_spectral_dbar_of_field_matches_untwisted_calculus(rng):
    # the multiplier of an untwisted field is the chi = 0 calculus' mu_zbar,
    # for a twisted bundle and for an untwisted one alike
    for chi in ((0.1, 0.2, 0.3, 0.4), (0.0, 0.0, 0.0, 0.0)):
        fam = siegel_diagonal_family(0.2 + 0.9j, chi=chi)
        torus, bundle = fam.torus_at(), fam.bundle_at()
        sp = make_space(torus, bundle, (2, 0), Spectral(M=4))
        W = rng.standard_normal((2,) + sp.field_shape) + 1j * rng.standard_normal(
            (2,) + sp.field_shape)
        flat0 = make_flat_bundle(torus, np.zeros(4))
        mu = make_space(torus, flat0, (0, 0), sp.disc).calculus.mu_zbar
        expect = np.stack([np.stack([mu[c] * W[a] for c in range(2)]) for a in range(2)])
        assert np.array_equal(sp.calculus.dbar_of_field(sp, W), expect)


def test_grid_dbar_of_field_matches_mode_multiplier(grid_setup):
    # on the mode e^{2 pi i (kx x + ky y)}, d/dz̄ multiplies by
    # 2 pi i (t kx - ky) / (t - t̄); the order-6 central stencil misses each
    # derivative's symbol by about theta^6 / 140, theta = 2 pi k / N
    fam, sp, pkg0, f, lift = grid_setup
    calc = sp.calculus
    t, N = calc.t, calc.N
    for kx, ky in ((0, 0), (1, 0), (0, 1), (-1, 2), (2, -1)):
        mode = np.exp(2j * np.pi * (kx * calc.x + ky * calc.y))
        mu = 2j * np.pi * (t * kx - ky) / (t - np.conj(t))
        theta = 2.0 * np.pi * max(abs(kx), abs(ky)) / N
        bound = theta**6 / 100 * 2.0 * np.pi * (abs(t * kx) + abs(ky)) / abs(t - np.conj(t))
        err = np.abs(sp.calculus.dbar_of_field(sp, mode[None])[0, 0] - mu * mode).max()
        assert err <= bound + 1e-12, (kx, ky, err, bound)


def test_perturbation_roundtrip(grid_setup, rng):
    fam, sp, pkg0, f, lift = grid_setup
    W = band_limited_field(sp.calculus, rng, (1,) + sp.field_shape)
    up = perturb_lift(lift, W)
    back = perturb_lift(up, -W)
    assert np.allclose(back.K, lift.K, atol=1e-12)


@pytest.mark.parametrize("fam, M", [
    (siegel_diagonal_family(0.2 + 0.9j), 4),
    (elliptic_family(0.3 + 1.1j, d=0), 6),
], ids=["siegel-diagonal", "elliptic-d0"])
def test_zero_perturbation_keeps_kappa_on_spectral_lifts(fam, M):
    # the constant K_triv of a perturbed spectral lift sits on the zero mode
    sp, _, (f,), base = direct_image_fibre(fam, Spectral(M=M), expected_kernel=1)
    pert = perturb_lift(base, np.zeros((sp.n,) + sp.field_shape, dtype=complex))
    assert (kappa(pert, f) - kappa(base, f)).norm() <= 1e-12 * kappa(base, f).norm()


def test_primitive_lift_is_identity_in_dimension_one(grid_setup):
    fam, sp, pkg0, f, lift = grid_setup
    out = primitive_lift(lift)
    assert np.allclose(out.K, lift.K)
    assert primitivity_residual(out, f) == 0.0


def test_primitive_lift_corrects_perturbed_surface_lift(rng):
    fam = siegel_diagonal_family(0.2 + 0.9j)
    sp, _, (f,), base = direct_image_fibre(fam, Spectral(M=5), expected_kernel=1)

    # a vertical perturbation with off-diagonal shear makes kappa non-primitive
    W = np.zeros((2,) + sp.field_shape, dtype=complex)
    W[0] = 0.05 * rng.standard_normal(sp.field_shape)
    W[1] = 0.05 * rng.standard_normal(sp.field_shape)
    pert = perturb_lift(base, W)
    res_pert = primitivity_residual(pert, f)
    assert res_pert > 1e-6

    fixed = primitive_lift(pert)
    assert primitivity_residual(fixed, f) <= 1e-8


@pytest.mark.parametrize("chi", [(0.25, 0.5, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0)],
                         ids=["twisted", "untwisted"])
def test_primitive_lift_corrects_with_the_untwisted_green_operator(chi, rng):
    # the defect (dbar xi)⌟omega is an untwisted (0,2)-form on every fibre, so
    # the lift is corrected on a twisted fibre too (with the fibre's twisted
    # (0,2) Green operator the residual stayed at 8.5); the trivialization
    # lift has a zero defect and is kept as it is
    fam = siegel_diagonal_family(0.2 + 0.9j, chi=chi)
    sp = make_space(fam.torus_at(), fam.bundle_at(), (2, 0), Spectral(M=5))
    base = trivialization_lift(fam, sp)
    assert primitive_lift(base) is base
    pert = perturb_lift(base, 0.05 * rng.standard_normal((2,) + sp.field_shape))
    f = band_limited(sp, rng)
    assert primitivity_residual(pert, f) > 1.0
    assert primitivity_residual(primitive_lift(pert), f) <= 1e-8


@pytest.mark.parametrize("tau", [1.0, 2.0, 0.5j], ids=["1", "2", "0.5i"])
def test_primitivity_residual_reads_kappa_with_tau(tau):
    # the residual is ||omega ∧ kappa f|| / ||f||, kappa f = contract_ks(tau K, f),
    # so it scales with |tau|; at tau = 1 it is the tau-free contraction bitwise
    fam = siegel_diagonal_family(0.2 + 0.9j, tau=tau)
    sp, _, (f,), base = direct_image_fibre(fam, Spectral(M=4), expected_kernel=1)
    pert = perturb_lift(base, 0.05 * np.random.default_rng(0).standard_normal(
        (2,) + sp.field_shape))
    res = primitivity_residual(pert, f)
    kf = kappa(pert, f)
    assert res == lefschetz_L(kf.space).apply(kf).norm() / f.norm()
    k1 = contract_ks(pert.K, f)
    res1 = lefschetz_L(k1.space).apply(k1).norm() / f.norm()
    assert res1 > 1.0
    assert res == pytest.approx(abs(tau) * res1, rel=1e-12)
    if tau == 1.0:
        assert res == res1


def test_extension_admissibility_gate(grid_setup, rng):
    fam, sp, pkg0, f, lift = grid_setup
    assert berndtsson_representative(lift, f, pkg0, tol=1e-2) is not None
    # the gate exists to reject corrupted data: a harmonic section polluted
    # with white noise has unresolved stencil derivatives
    rough = f + band_limited(sp, rng) * 0.0
    noise = sp.section(0.05 * (rng.standard_normal((1,) + sp.field_shape)
                               + 1j * rng.standard_normal((1,) + sp.field_shape)))
    with pytest.raises(ExtensionNotAdmissible, match="theta-flow extension"):
        berndtsson_representative(lift, f + noise, pkg0, tol=1e-4)


def test_representative_properties_coarse(grid_setup):
    fam, sp, pkg0, f, lift = grid_setup
    rep = berndtsson_representative(lift, f, pkg0, tol=1e-2)
    res_prim, res_orth = representative_residuals(rep, pkg0)
    assert res_prim <= 1e-2
    assert res_orth <= 1e-2
    sp01 = sp.sibling((0, 1))
    pkg01 = build_hodge(sp01, expected_kernel=0)
    assert class_match_residual(rep, pkg01) <= 1e-3


def test_representative_stores_kappa_and_curvature_contraction(grid_setup, rng):
    fam, sp, pkg0, f, lift = grid_setup
    W = band_limited_field(sp.calculus, rng, (1,) + sp.field_shape, magnitude=0.1)
    for xi in (lift, perturb_lift(lift, W)):
        rep = berndtsson_representative(xi, f, pkg0, tol=1e-2)
        assert np.array_equal(rep.kf.coeffs, kappa(xi, f).coeffs)
        assert np.array_equal(rep.theta_f.coeffs, curvature_contraction_form(xi, f).coeffs)
        assert rep.theta_f.norm() > 0.0  # a positive bundle: the curvature term is live


def test_curvature_H_builds_each_section_form_once(monkeypatch):
    # one representative per section builds kappa f and iota*((xi ⌟ Theta) f)
    # once each and reads K_triv without rebuilding the trivialization lift
    fam = elliptic_family(T0, d=2)
    _, pkg0, basis, lift = direct_image_fibre(fam, Grid(N=64, order=10), expected_kernel=2)
    calls = Counter()
    for name in ("kappa", "curvature_contraction_form", "trivialization_lift"):
        def counted(*args, _real=getattr(family, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(family, name, counted)
    curvature_H(fam, lift, basis, pkg0)
    assert calls["kappa"] == 2
    assert calls["curvature_contraction_form"] == 2
    assert calls["trivialization_lift"] == 0


def test_curvature_H_rejects_a_family_that_is_not_the_lifts(grid_setup):
    # the representatives read the family off the lift, so curvature_H takes
    # its family argument only as the lift's own: an equal copy is another family
    fam, sp, pkg0, f, lift = grid_setup
    for other in (elliptic_family(T0 + 0.01, d=1), elliptic_family(T0, d=1)):
        with pytest.raises(ValueError, match="lift's family"):
            curvature_H(other, lift, [f * (1.0 / f.norm())], pkg0)
    assert curvature_H(fam, lift, [f * (1.0 / f.norm())], pkg0, admissibility_tol=1e-2).rank == 1


@pytest.fixture(scope="module")
def siegel_setup():
    fam = siegel_diagonal_family(0.2 + 0.9j)
    sp, pkg0, (f,), base = direct_image_fibre(fam, Spectral(M=4), expected_kernel=1)
    return fam, sp, pkg0, f, base


@pytest.mark.parametrize("perturbed", [False, True], ids=["trivialization", "perturbed"])
def test_representative_properties_on_abelian_surface(siegel_setup, perturbed):
    # n = 2: (a) xi ⌟ dbar u is primitive (the gate checks it, no shift is
    # needed) and (b) iota*(xi ⌟ nabla u) is harmonic; the perturbed lift's
    # kappa f is far from primitive, the representative is not
    fam, sp, pkg0, f, lift = siegel_setup
    if perturbed:
        rng = np.random.default_rng(0)
        lift = perturb_lift(lift, 0.05 * rng.standard_normal((2,) + sp.field_shape))
        assert primitivity_residual(lift, f) > 1.0
    rep = berndtsson_representative(lift, f, pkg0)
    res_prim, res_orth = representative_residuals(rep, pkg0)
    assert res_prim <= 1e-10
    assert res_orth <= 1e-10


def test_second_fundamental_form_rejects_other_bidegrees(siegel_setup):
    # the route follows the package: (n,0) projection, (n,1) Green, nothing else
    fam, sp, pkg0, f, lift = siegel_setup
    rep = berndtsson_representative(lift, f, pkg0)
    assert second_fundamental_form(rep, pkg0).norm() <= 1e-12
    pkg22 = build_hodge(sp.sibling((2, 2)), expected_kernel=1)
    with pytest.raises(ValueError, match="not \\(2, 2\\)"):
        second_fundamental_form(rep, pkg22)


def test_representative_rejects_a_non_primitive_xi_dbar_u():
    # property (a) holds on every family here because Omega' is symmetric; with
    # Omega = diag(t, 2t) and a non-symmetric Omega', omega ∧ (K_triv ⌟ f) is
    # not zero, and the gate reports it instead of correcting it
    fam = FamilySpec(name="siegel-diagonal", t=0.2 + 0.9j,
                     period_map=lambda t: np.array([[t, 0.0], [0.0, 2.0 * t]]),
                     dperiod_map=lambda t: np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex),
                     bundle_map=lambda torus, t: make_flat_bundle(torus, np.zeros(4)))
    _, pkg0, (f,), lift = direct_image_fibre(fam, Spectral(M=4), expected_kernel=1)
    with pytest.raises(ExtensionNotAdmissible,
                       match=r"omega ∧ iota\*\(xi ⌟ dbar u\) residual 1\.96"):
        berndtsson_representative(lift, f, pkg0)


def test_representative_scales_with_section(grid_setup):
    fam, sp, pkg0, f, lift = grid_setup
    rep1 = berndtsson_representative(lift, f, pkg0, tol=1e-2)
    rep2 = berndtsson_representative(lift, f * 2.0, pkg0, tol=1e-2)
    assert (rep2.xi_dbar_u - rep1.xi_dbar_u * 2.0).norm() <= 1e-8


@settings(max_examples=10, deadline=None)
@given(scale=st.floats(0.2, 2.0))
def test_ks_class_independent_of_vertical_perturbation(scale, grid_setup):
    # the Kodaira-Spencer class only changes by a dbar-exact term
    fam, sp, pkg0, f, lift = grid_setup
    rng = np.random.default_rng(int(scale * 1000))
    W = band_limited_field(sp.calculus, rng, (1,) + sp.field_shape,
                           magnitude=0.1 * scale)
    up = perturb_lift(lift, W)
    sp01 = sp.sibling((0, 1))
    pkg01 = build_hodge(sp01, expected_kernel=0)
    diff = kappa(up, f) - kappa(lift, f)
    assert pkg01.harmonic_project(diff).norm() <= 1e-6 * max(f.norm(), 1.0)
