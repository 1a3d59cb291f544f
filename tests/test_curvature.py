from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab.curvature import (
    curvature_H,
    direct_image_fibre,
    hodge_riemann_check,
    lefschetz_decompose,
    lefschetz_reconstruct,
    second_fundamental_form,
    wedge_pair,
    xu_wang_bound,
)
from toruslab.errors import CurvatureNotInvertible, NotPrimitive
from toruslab.family import (
    berndtsson_representative,
    kappa,
    perturb_lift,
    primitive_lift,
)
from toruslab.forms import (
    Grid,
    GramMatrix,
    Spectral,
    _wedge_sign,
    gram,
    lefschetz_L,
    make_space,
    pair_l2,
    pair_matrix,
)
from toruslab.geometry import elliptic_family, jumping_family, siegel_diagonal_family
from toruslab.hodge import build_hodge
from toruslab.oracle import fd_chern_curvature_H

from conftest import T0, band_limited, band_limited_field

ADM = 1e-2  # admissibility gate for the coarse N=32 grids used here


@pytest.fixture(scope="module")
def grid_curv():
    """Full curvature pipeline on the degree-1 family at N=32 (seconds)."""
    fam = elliptic_family(T0, d=1)
    disc = Grid(N=32, order=6)
    sp, pkg0, basis, lift = direct_image_fibre(fam, disc, expected_kernel=1)
    report = curvature_H(fam, lift, basis, pkg0, admissibility_tol=ADM)
    return fam, disc, sp, pkg0, basis, lift, report


def test_wedge_pair_sign_pins(flat_torus, positive_bundle, grid_disc, rng):
    sp10 = make_space(flat_torus, positive_bundle, (1, 0), grid_disc)
    sp01 = make_space(flat_torus, positive_bundle, (0, 1), grid_disc)
    u, v = band_limited(sp10, rng), band_limited(sp10, rng)
    assert abs(wedge_pair([u], [v])[0, 0] - pair_l2(u, v)) <= 1e-10
    a = sp01.section(u.coeffs.copy())
    b = sp01.section(v.coeffs.copy())
    assert abs(wedge_pair([a], [b])[0, 0] + pair_l2(a, b)) <= 1e-10


def _l2_entry(u, v):
    """(u, v) as one sum over the samples or modes: the per-entry reference."""
    g = gram(u.space)
    if isinstance(g, GramMatrix):
        nc = len(g.P)
        return np.einsum("ck,cd,dk->", v.coeffs.reshape(nc, -1).conj(), g.P,
                         u.coeffs.reshape(nc, -1))
    return np.sum(v.coeffs.conj() * g.w * u.coeffs)


def _wedge_entry(u, v, r):
    """wedge_pair of one pair, one component pair and one Kaehler minor at a
    time: the per-entry reference."""
    n = u.space.n
    (p, q), (pp, qq) = u.space.bidegree, v.space.bidegree
    g = u.space.torus.kaehler
    pref = ((1j ** (n * n)) * ((-1) ** (n * (n - 1) // 2)) * (2.0 / 1j) ** n / np.linalg.det(g)
            * (0.5j) ** r * ((-1) ** (r * (r - 1) // 2)))
    scalar = u.space.sibling((0, 0))
    total = 0.0
    for di, (J, K) in enumerate(u.space.comps):
        for dj, (Jp, Kp) in enumerate(v.space.comps):
            for A in combinations(range(n), r):
                for B in combinations(range(n), r):
                    s_hol, s_anti = _wedge_sign(J, Kp, A)[0], _wedge_sign(K, Jp, B)[0]
                    minor = np.linalg.det(g[np.ix_(A, B)]) if r else 1.0
                    sgn = (-1) ** (pp * qq + q * qq + r * (q + pp))
                    total += sgn * s_hol * s_anti * minor * _l2_entry(
                        scalar.section(u.coeffs[di]), scalar.section(v.coeffs[dj]))
    return pref * total


PAIRING_CASES = {
    # fibre, and the bidegrees of us and vs and r of each wedge pairing; the
    # last pairs the (n,1) and (n-1,0) forms of the pushforward route
    "grid": (lambda: elliptic_family(T0, d=2), Grid(N=32, order=6),
             [((1, 0), (1, 0), 0), ((0, 1), (0, 1), 0), ((0, 0), (0, 0), 1),
              ((1, 1), (0, 0), 0)]),
    "siegel-diagonal": (lambda: siegel_diagonal_family(0.2 + 0.9j), Spectral(M=4),
                        [((1, 1), (1, 1), 0), ((1, 0), (1, 0), 1), ((2, 1), (1, 0), 0)]),
}


@pytest.mark.parametrize("case", sorted(PAIRING_CASES))
def test_stacked_pairings_match_the_per_entry_values(case, rng):
    # M[i, j] = (us[j], vs[i]) on stacks of 3 and 2 sections, to rounding of
    # the per-entry sums; a (u, u) stack gives a Hermitian matrix, for the
    # wedge pairing of k-forms after the factor i^{k^2 - n^2} that turns its
    # sqrt(-1)^{n^2} into the Hodge-Riemann sqrt(-1)^{k^2}
    family, disc, wedges = PAIRING_CASES[case]
    fam = family()
    fibre = make_space(fam.torus_at(), fam.bundle_at(), (0, 0), disc)

    def close(M, ref):
        return M.shape == (2, 3) and np.abs(M - ref).max() <= 1e-14 * np.abs(ref).max()

    def hermitian(M):
        return np.abs(M - M.conj().T).max() <= 1e-14 * np.abs(M).max()

    for bu, bv, r in wedges:
        us = [band_limited(fibre.sibling(bu), rng) for _ in range(3)]
        vs = [band_limited(fibre.sibling(bv), rng) for _ in range(2)]
        ref = np.array([[_wedge_entry(u, v, r) for u in us] for v in vs])
        assert close(wedge_pair(us, vs, r), ref)
        if bu == bv:
            ref = np.array([[_l2_entry(u, v) for u in us] for v in vs])
            assert close(pair_matrix(us, vs), ref)
            assert hermitian(pair_matrix(us, us))
            assert hermitian(1j ** (sum(bu) ** 2 - fibre.n ** 2) * wedge_pair(us, us, r))


def test_hodge_riemann_signs(flat_torus, positive_bundle, grid_disc, rng):
    # every form of degree k < n = 1 is primitive, as are the (1,0)- and (0,1)-forms
    for bidegree, sign in (((1, 0), 1), ((0, 1), -1), ((0, 0), 1)):
        sp = make_space(flat_torus, positive_bundle, bidegree, grid_disc)
        lhs, rhs, res = hodge_riemann_check(band_limited(sp, rng))
        assert res <= 1e-8
        assert np.sign(rhs.real) == sign


def test_hodge_riemann_rejects_kaehler_form(torus2, flat_bundle2, spec_disc):
    sp11 = make_space(torus2, flat_bundle2, (1, 1), spec_disc)
    om = sp11.zeros()
    g = torus2.kaehler
    zi = sp11.calculus.zero_mode_index()
    for ci, (J, K) in enumerate(sp11.comps):
        om.coeffs[(ci,) + zi] = 0.5j * g[J[0], K[0]]
    with pytest.raises(NotPrimitive):
        hodge_riemann_check(om)


def test_lefschetz_decomposition_roundtrip(torus2, flat_bundle2, spec_disc, rng):
    sp11 = make_space(torus2, flat_bundle2, (1, 1), spec_disc)
    alpha = band_limited(sp11, rng)
    parts = lefschetz_decompose(alpha)
    rec = lefschetz_reconstruct(sp11, parts)
    assert (rec - alpha).norm() <= 1e-10 * max(alpha.norm(), 1.0)
    for j, part in parts:
        if j == 0 and part.space.bidegree == (1, 1):
            lhs, rhs, res = hodge_riemann_check(part)
            assert res <= 1e-8
            assert rhs.real < 0  # primitive (1,1) sign


def test_flat_family_curvature_closed_form():
    # a flat elliptic fibre and two jump points of the jumping family
    for fam in (elliptic_family(0.2 + 0.8j, d=0, chi=(0.0, 0.0)),
                jumping_family(1j), jumping_family((1j - 1) / 2)):
        s = fam.t.imag
        _, pkg, basis, lift = direct_image_fibre(fam, Spectral(M=6), expected_kernel=1)
        report = curvature_H(fam, lift, basis, pkg)
        expect = 1.0 / (4.0 * s * s)
        assert report.theta_H[0, 0].real == pytest.approx(expect, rel=1e-12)
        assert report.residual_routes <= 1e-12
        # the ambient-curvature term minus the KS wedge pairing: no sff on a flat fibre
        theta_l = report.term_theta_h[0, 0] - report.term_kappa[0, 0]
        assert abs(theta_l - expect) <= 1e-12
        with pytest.raises(CurvatureNotInvertible):
            xu_wang_bound(lift, basis, report)


def test_route_agreement_and_positivity(grid_curv):
    fam, disc, sp, pkg0, basis, lift, report = grid_curv
    scale = max(np.linalg.norm(report.theta_H), 1e-300)
    assert report.residual_routes / scale <= 1e-4
    assert report.nakano_min_eig >= -1e-8
    assert np.linalg.eigvalsh(report.term_sff).min() >= -1e-12
    assert report.hermiticity_defect <= 1e-10


def test_fd_oracle_agreement(grid_curv):
    fam, disc, sp, pkg0, basis, lift, report = grid_curv
    M = fd_chern_curvature_H(fam, 1, disc, step=1e-3, harmonic_basis=basis)
    rel = np.linalg.norm(report.theta_H - M) / np.linalg.norm(M)
    assert rel <= 1e-3


def test_second_fundamental_form_routes(grid_curv):
    fam, disc, sp, pkg0, basis, lift, report = grid_curv
    sp11 = make_space(fam.torus_at(), fam.bundle_at(), (1, 1), disc)
    pkg11 = build_hodge(sp11, expected_kernel=0)
    rep = berndtsson_representative(lift, basis[0], pkg0, tol=ADM)
    ii_proj = second_fundamental_form(rep, pkg0)
    ii_green = second_fundamental_form(rep, pkg11)
    rel = (ii_proj - ii_green).norm() / max(ii_proj.norm(), 1e-300)
    assert rel <= 1e-4  # coarse grid; the fine-grid bound lives in the acceptance suite


def test_lift_independence(grid_curv, rng):
    fam, disc, sp, pkg0, basis, lift, report = grid_curv
    W = band_limited_field(sp.calculus, rng, (1,) + sp.field_shape, magnitude=0.1)
    lift2 = perturb_lift(lift, W)
    r1 = curvature_H(fam, lift, basis, pkg0, admissibility_tol=ADM)
    r2 = curvature_H(fam, lift2, basis, pkg0, admissibility_tol=ADM)
    rel = np.linalg.norm(r1.theta_H - r2.theta_H) / np.linalg.norm(r1.theta_H)
    assert rel <= 1e-3  # coarse grid; the fine-grid bound lives in the acceptance suite


def test_xu_wang_lower_bound(grid_curv):
    fam, disc, sp, pkg0, basis, lift, report = grid_curv
    rhs = xu_wang_bound(lift, basis, report)
    assert np.linalg.eigvalsh(report.theta_H - rhs).min() >= -1e-8


def test_abelian_surface_pairing_identity():
    fam = siegel_diagonal_family(0.2 + 0.9j)
    _, _, (f,), lift = direct_image_fibre(fam, Spectral(M=4), expected_kernel=1)
    kf = kappa(lift, f)
    assert abs(wedge_pair([kf], [kf])[0, 0] + pair_l2(kf, kf)) <= 1e-10
    # primitivity of kappa f, expressed through the Lefschetz operator
    assert lefschetz_L(kf.space).apply(kf).norm() <= 1e-10


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 100))
def test_hodge_riemann_epsilon_is_unit_modulus(seed, torus2, flat_bundle2, spec_disc):
    rng = np.random.default_rng(seed)
    # on a surface, forms of degree k < 2 are primitive too; (0,1) pairs negatively
    for bidegree, sign in (((2, 0), 1), ((0, 0), 1), ((1, 0), 1), ((0, 1), -1)):
        u = band_limited(make_space(torus2, flat_bundle2, bidegree, spec_disc), rng)
        lhs, rhs, res = hodge_riemann_check(u)
        assert res <= 1e-8
        assert abs(rhs - sign * u.norm() ** 2) <= 1e-12
