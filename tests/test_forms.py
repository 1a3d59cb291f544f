import gc
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.signal import fftconvolve
from hypothesis import given, settings
from hypothesis import strategies as st

import toruslab
from toruslab.errors import BidegreeOverflow, ShapeMismatch
from toruslab.forms import (
    Grid,
    Spectral,
    adjoint,
    assemble_dbar,
    assemble_nabla10,
    contract,
    contract_ks,
    curvature_action,
    gram,
    lefschetz_L,
    lefschetz_Lambda,
    make_space,
    multiply,
    pair_l2,
    _dz_wedge,
)
from toruslab.geometry import make_positive_bundle, make_torus

from conftest import band_limited, coo_dbar, coo_nabla10, sample_weights


def spaces_for(torus, bundle, disc, bidegrees):
    return {pq: make_space(torus, bundle, pq, disc) for pq in bidegrees}


def test_make_space_rejects_overflow(flat_torus, flat_bundle, spec_disc):
    with pytest.raises(BidegreeOverflow):
        make_space(flat_torus, flat_bundle, (2, 0), spec_disc)


def test_siblings_share_the_calculus(torus2, flat_bundle2, spec_disc):
    sp = make_space(torus2, flat_bundle2, (0, 0), spec_disc)
    for b in [(0, 1), (1, 0), (1, 1), (2, 2)]:
        assert sp.sibling(b).calculus is sp.calculus
    with pytest.raises(BidegreeOverflow):
        sp.sibling((3, 0))


def test_grid_space_is_freed_with_its_last_reference():
    # nothing outside the spaces keeps a fibre alive: once the spaces, the
    # operators and the sections are dropped, the torus is collected
    torus = make_torus(1, [[0.3 + 1.1j]])
    sp = make_space(torus, make_positive_bundle(torus, 1), (0, 0), Grid(N=16, order=4))
    u = band_limited(sp, np.random.default_rng(0))
    assert pair_l2(u, u).real > 0
    d = assemble_dbar(sp)
    assert adjoint(d).apply(d.apply(u)).norm() > 0
    ref = weakref.ref(torus)
    del torus, sp, u, d
    gc.collect()
    assert ref() is None


def test_grid_fibre_is_freed_by_reference_counting():
    # the operator cache, the dbar factor and the lazily built box hold no
    # cycle: with the cyclic collector off, dropping the last references frees
    # the fibre at once
    from toruslab.curvature import curvature_H, direct_image_fibre
    from toruslab.geometry import elliptic_family
    from toruslab.hodge import build_hodge, minimal_solution

    gc.collect()
    gc.disable()
    try:
        fam = elliptic_family(0.3 + 1.1j, d=2)
        sp10, pkg10, basis, lift = direct_image_fibre(fam, Grid(N=48, order=10),
                                                      expected_kernel=2)
        torus = sp10.torus
        ref = weakref.ref(torus)
        pkg11 = build_hodge(sp10.sibling((1, 1)), expected_kernel=0)
        rep = curvature_H(fam, lift, basis, pkg10)
        assert rep.rank == 2
        rng = np.random.default_rng(3)
        alpha = assemble_dbar(sp10).apply(band_limited(sp10, rng))
        u0 = minimal_solution(pkg11, alpha)
        assert (assemble_dbar(sp10).apply(u0) - alpha).norm() <= 1e-8 * alpha.norm()
        u = band_limited(pkg11.space, rng)
        assert pkg11.laplacian.apply(pkg11.green(u)).norm() > 0
        assert pkg10.diagnostics()["nnz"] > 0 and pkg11.diagnostics()["nnz"] > 0
        del fam, torus, sp10, pkg10, pkg11, basis, lift, rep, alpha, u0, u
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("which", ["spectral", "grid"])
def test_operator_data_is_assembled_once_per_fibre(which, flat_torus, flat_bundle,
                                                   positive_bundle, spec_disc, grid_disc):
    from toruslab.hodge import build_hodge

    bundle = flat_bundle if which == "spectral" else positive_bundle
    disc = spec_disc if which == "spectral" else grid_disc
    sp00 = make_space(flat_torus, bundle, (0, 0), disc)
    for assemble, bidegree in ((assemble_dbar, (0, 0)), (assemble_dbar, (1, 0)),
                               (assemble_nabla10, (0, 0)), (assemble_nabla10, (0, 1))):
        sp = sp00.sibling(bidegree)
        op = assemble(sp)
        assert assemble(sp).data is op.data
        adj = adjoint(op)
        assert adjoint(assemble(sp)).data is adj.data
        gd, gc_ = gram(op.domain), gram(op.codomain)
        if which == "spectral":
            A, adjA = op.sign * op.data, adj.sign * adj.data
            blocks = np.broadcast_to(A, A.shape[:2] + sp.field_shape)
            ref = np.einsum("de,ef...,fc->dc...", gd.Pinv,
                            np.conj(np.swapaxes(blocks, 0, 1)), gc_.P)
            assert np.abs(adjA - ref).max() <= 1e-15 * abs(ref).max()
        else:
            # the adjoint applied to samples, against W_dom^{-1} A^H W_cod of
            # the physical stencil matrix A (conftest's listed-entry reference)
            A = op.sign * (coo_dbar if assemble is assemble_dbar else coo_nabla10)(sp00)
            ref = (sparse.diags(1.0 / sample_weights(op.domain)) @ A.conj().T
                   @ sparse.diags(sample_weights(op.codomain)))
            v = np.random.default_rng(1).standard_normal(sp.dim) + 0j
            got = sp.calculus.samples(adj.apply(op.codomain.section(v)).coeffs).ravel()
            want = ref @ v
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    if which == "spectral":
        # the solver reads lambda off the fibre's (0,0) box, not its own
        pkg = build_hodge(sp00.sibling((1, 0)), expected_kernel=1)
        assert "laplacian" not in pkg.__dict__
    if which == "grid":
        # one matrix per operator and one per adjoint: the (0,1) nabla10 and the
        # (1,0) dbar (with sign -1) share the data of the (0,0) ones, and the
        # dbar is the fibre's dbar_hat, which its factor needs
        assert assemble_dbar(sp00.sibling((1, 0))).sign == -1
        assert assemble_dbar(sp00).data is sp00.calculus.dbar_hat
        assert set(sp00.calculus.operators) == {
            ("dbar", (0, 0)), ("nabla10", (0, 0)),
            ("adjoint", "dbar", (0, 0)), ("adjoint", "nabla10", (0, 0))}
        pkg = build_hodge(sp00.sibling((1, 0)), expected_kernel=1)
        assert "laplacian" not in pkg.__dict__
        diag = pkg.diagnostics()
        assert diag["nnz"] == pkg.__dict__["laplacian"].data.nnz
        # the operator cache and dbar_hat are the only holders of a derivative matrix
        held = {k for k, v in vars(sp00.calculus).items() if sparse.issparse(v)}
        assert held == {"dbar_hat"}


def test_section_arithmetic(flat_torus, flat_bundle, spec_disc, rng):
    sp = make_space(flat_torus, flat_bundle, (0, 1), spec_disc)
    u = band_limited(sp, rng)
    v = band_limited(sp, rng)
    w = 2.0 * u + v - u * 0.5
    assert np.allclose(w.coeffs, 1.5 * u.coeffs + v.coeffs)
    with pytest.raises(ShapeMismatch):
        _ = u + band_limited(make_space(flat_torus, flat_bundle, (1, 0), spec_disc), rng)


def test_gram_weights_positive(flat_torus, positive_bundle, grid_disc):
    # grid coefficients pair with the component metric times 1/N^2, positive
    for bidegree in ((0, 0), (1, 0), (0, 1), (1, 1)):
        sp = make_space(flat_torus, positive_bundle, bidegree, grid_disc)
        P = gram(sp).P
        assert np.allclose(P, sp.comp_metric() / grid_disc.N**2, rtol=1e-15, atol=0)
        assert np.all(np.linalg.eigvalsh(P) > 0)


@pytest.mark.parametrize("which", ["spectral", "grid"])
def test_one_component_pairing_is_the_broadcast_product(which, flat_torus, flat_bundle,
                                                        positive_bundle):
    # a one-component space pairs through the scalar P[0, 0], bitwise the
    # broadcast matmul of the 1 x 1 P that every other space takes
    if which == "spectral":
        sp = make_space(flat_torus, flat_bundle, (1, 0), Spectral(M=8))
    else:
        sp = make_space(flat_torus, positive_bundle, (1, 0), Grid(N=64, order=10))
    g = gram(sp)
    rng = np.random.default_rng(7)
    for m in (1, 3):
        us, vs = (np.stack([band_limited(sp, rng).coeffs for _ in range(m)]) for _ in range(2))
        Pu = g.P @ us.reshape(m, 1, -1)
        assert np.array_equal(g.pair(us, vs), vs.reshape(m, -1).conj() @ Pu.reshape(m, -1).T)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_sections_are_built_from_samples(d, flat_torus):
    # section(samples) turns samples into coefficients once, and the sample
    # export of the calculus turns them back, to rounding in the L2 norm (a
    # sample-wise measure would see that rounding amplified by 1/|E|, up to
    # e^{pi d Im t}); the Gram data on coefficients is the L2 weight
    # metric e^{-phi} / N^2 on samples
    from toruslab.oracle import theta_samples

    sp00 = make_space(flat_torus, make_positive_bundle(flat_torus, d), (0, 0), Grid(N=32, order=6))
    calc = sp00.calculus
    rng = np.random.default_rng(d)
    theta = theta_samples(complex(calc.t), d, 0, calc.x[:, 0], calc.y[0])[None]
    for bidegree in ((0, 0), (1, 0), (0, 1), (1, 1)):
        sp = sp00.sibling(bidegree)
        w = sample_weights(sp)
        su, sv = rng.standard_normal((2, 1, 32, 32)) + 1j * rng.standard_normal((2, 1, 32, 32))
        for s in (su, sv, theta):
            err = calc.samples(sp.section(s).coeffs) - s
            assert np.sum(w * np.abs(err.ravel()) ** 2) <= 1e-26 * np.sum(w * np.abs(s.ravel()) ** 2)
        want = np.sum(np.conj(sv).ravel() * w * su.ravel())
        assert abs(pair_l2(sp.section(su), sp.section(sv)) - want) <= 1e-13 * abs(want)


def test_dbar_squared_spectral_surface(torus2, flat_bundle2, spec_disc, rng):
    sp00 = make_space(torus2, flat_bundle2, (0, 0), spec_disc)
    sp01 = make_space(torus2, flat_bundle2, (0, 1), spec_disc)
    u = band_limited(sp00, rng)
    ddu = assemble_dbar(sp01).apply(assemble_dbar(sp00).apply(u))
    assert ddu.norm() <= 1e-12


@pytest.mark.parametrize("which", ["spectral", "grid"])
def test_adjoint_is_true_adjoint(which, flat_torus, flat_bundle, positive_bundle,
                                 spec_disc, grid_disc, rng):
    if which == "spectral":
        sp = make_space(flat_torus, flat_bundle, (0, 0), spec_disc)
    else:
        sp = make_space(flat_torus, positive_bundle, (0, 0), grid_disc)
    d = assemble_dbar(sp)
    u = band_limited(sp, rng)
    v = band_limited(d.codomain, rng)
    lhs = pair_l2(d.apply(u), v)
    rhs = pair_l2(u, adjoint(d).apply(v))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_lefschetz_adjointness(torus2, flat_bundle2, spec_disc, flat_torus,
                               positive_bundle, grid_disc, rng):
    # Lambda is one closed-form block on both backends; on a grid fibre it is
    # the adjoint of L under the pairing weighted by e^{-phi} / N^2 too
    for sp in (make_space(torus2, flat_bundle2, (1, 0), spec_disc),
               make_space(flat_torus, positive_bundle, (0, 0), grid_disc)):
        L = lefschetz_L(sp)
        u = band_limited(sp, rng)
        v = band_limited(L.codomain, rng)
        lhs = pair_l2(L.apply(u), v)
        rhs = pair_l2(u, lefschetz_Lambda(L.codomain).apply(v))
        assert abs(lhs) > 1e-3
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_dz_wedge_blocks_satisfy_the_exterior_algebra(torus2, flat_bundle2, spec_disc):
    # the blocks of ε_a = dz_a ∧ and ε̄_a = dz̄_a ∧ anticommute, and the
    # contraction ε_aᵀ satisfies ε_aᵀ ε_b + ε_b ε_aᵀ = δ_ab Id (the same for ε̄),
    # exactly, on every bidegree of n = 2
    n = 2
    fibre = make_space(torus2, flat_bundle2, (0, 0), spec_disc)

    def fits(space, *bars):   # room for one more dz (False) or dz̄ (True) per entry
        p, q = space.bidegree
        return p + bars.count(False) <= n and q + bars.count(True) <= n

    def eps(space, a, bar):   # (target space, block) of ε_a, or of ε̄_a with bar
        p, q = space.bidegree
        return space.sibling((p, q + 1) if bar else (p + 1, q)), _dz_wedge(n, p, q, a, bar)

    def prod(space, first, second):   # ε_second ε_first on space, (index, bar) each
        mid, block = eps(space, *first)
        return eps(mid, *second)[1] @ block

    for p in range(n + 1):
        for q in range(n + 1):
            sp = fibre.sibling((p, q))
            for a in range(n):
                for b in range(n):
                    for bar_a, bar_b in ((False, False), (True, True), (False, True)):
                        ea, eb = (a, bar_a), (b, bar_b)
                        if fits(sp, bar_a, bar_b):
                            assert np.array_equal(prod(sp, eb, ea), -prod(sp, ea, eb))
                    for bar in (False, True):
                        total = np.zeros((sp.ncomp, sp.ncomp))
                        if fits(sp, bar):
                            total += eps(sp, a, bar)[1].T @ eps(sp, b, bar)[1]
                        if sp.bidegree[1 if bar else 0] >= 1:
                            below = sp.sibling((p, q - 1) if bar else (p - 1, q))
                            total += eps(below, b, bar)[1] @ eps(below, a, bar)[1].T
                        assert np.array_equal(total, float(a == b) * np.eye(sp.ncomp))


def test_l_lambda_commutator_counts_degree(torus2, flat_bundle2, spec_disc, rng):
    n = 2
    for (p, q) in [(0, 0), (1, 0), (0, 1), (1, 1)]:
        sp = make_space(torus2, flat_bundle2, (p, q), spec_disc)
        u = band_limited(sp, rng)
        acc = (-(p + q - n) * 1.0) * u
        if p + 1 <= n and q + 1 <= n:
            acc = acc - lefschetz_Lambda(sp.sibling((p + 1, q + 1))).apply(
                lefschetz_L(sp).apply(u))
        if p >= 1 and q >= 1:
            acc = acc + lefschetz_L(sp.sibling((p - 1, q - 1))).apply(
                lefschetz_Lambda(sp).apply(u))
        assert acc.norm() <= 1e-12


def test_curvature_action_flat_is_zero(flat_torus, flat_bundle, spec_disc, rng):
    sp = make_space(flat_torus, flat_bundle, (0, 0), spec_disc)
    u = band_limited(sp, rng)
    assert curvature_action(sp).apply(u).norm() == 0.0


def test_curvature_action_positive_is_proportional_to_omega(flat_torus,
                                                            positive_bundle,
                                                            grid_disc):
    # degree-d curvature equals -2 pi d / area times the Kaehler form; on the
    # (0,0) -> (1,1) action this is a constant multiple of omega's coefficient
    sp = make_space(flat_torus, positive_bundle, (0, 0), grid_disc)
    N = grid_disc.N
    u = sp.section(np.ones((1, N, N), dtype=complex))
    out = curvature_action(sp).apply(u)
    field = sp.calculus.samples(out.coeffs)[0]
    assert np.allclose(field, field.flat[0])


@pytest.mark.parametrize("d, N, order", [(1, 64, 10), (3, 64, 10), (2, 16, 4), (2, 8, 10)])
def test_grid_complex_satisfies_the_kaehler_identity(d, N, order):
    # on (0,0), nabla^{1,0} = -(g/2) dbar* and nabla* = -(2/g) dbar, g = 1/Im t,
    # entry by entry: the grid operators are exact adjoints of each other up to
    # these constants, also with a stencil wider than the grid (N = 8, order 10)
    t = 0.3 + 1.1j
    g = 1.0 / t.imag
    torus = make_torus(1, [[t]])
    sp = make_space(torus, make_positive_bundle(torus, d), (0, 0), Grid(N=N, order=order))
    nabla, dbar = assemble_nabla10(sp), assemble_dbar(sp)

    def rel(got, want):
        return abs(got - want).max() / abs(want).max()

    assert rel(nabla.data, -(g / 2) * adjoint(dbar).data) <= 1e-13
    assert rel(adjoint(nabla).data, -(2 / g) * dbar.data) <= 1e-13


def test_multiply_shifts_spectral_modes(flat_torus, flat_bundle):
    # multiplying by a single Fourier mode translates coefficient indices
    spec = Spectral(M=4)
    sp = make_space(flat_torus, flat_bundle, (0, 0), spec)
    u = np.zeros((1,) + sp.field_shape, dtype=complex)
    u[0, 4, 4] = 1.0          # the constant mode sits at the central index
    field = np.zeros(sp.field_shape, dtype=complex)
    field[5, 4] = 2.0         # one unit of x-frequency
    prod = multiply(field, sp.section(u))
    nz = np.argwhere(np.abs(prod.coeffs[0]) > 1e-14)
    assert [tuple(r) for r in nz] == [(5, 4)]
    assert prod.coeffs[0, 5, 4] == pytest.approx(2.0)


def _cropped_convolution(a, b, M):
    """The modes |k| <= M of the full convolution of two mode arrays."""
    return fftconvolve(a, b)[(slice(M, 3 * M + 1),) * a.ndim]


@pytest.mark.parametrize("torus, bundle, M", [("flat_torus", "flat_bundle", 3),
                                               ("torus2", "flat_bundle2", 2)],
                         ids=["n1-M3", "n2-M2"])
def test_spectral_products_are_cropped_convolutions(request, torus, bundle, M):
    # full-band random factors: their product has modes up to |k| = 2M, which
    # a sample grid of fewer than 3M + 1 points per direction aliases onto
    # the kept modes
    torus, bundle = request.getfixturevalue(torus), request.getfixturevalue(bundle)
    rng = np.random.default_rng(23)
    n = torus.n
    sp = make_space(torus, bundle, (n, 0), Spectral(M=M))
    const = (1,) * len(sp.field_shape)

    def noise(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def close(got, want):
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    u = sp.section(noise((1,) + sp.field_shape))
    field = noise(sp.field_shape)
    assert close(multiply(field, u).coeffs[0], _cropped_convolution(field, u.coeffs[0], M))

    # the reference of a contraction convolves each coefficient field with the
    # contraction by the constant unit field of its slot, which is exact
    K = noise((n, n) + sp.field_shape)
    want = 0
    for a in range(n):
        for c in range(n):
            unit = np.zeros((n, n) + const, dtype=complex)
            unit[a, c] = 1.0
            want = want + np.stack([_cropped_convolution(K[a, c], comp, M)
                                    for comp in contract_ks(unit, u).coeffs])
    assert close(contract_ks(K, u).coeffs, want)

    W = noise((n,) + sp.field_shape)
    want = 0
    for a in range(n):
        unit = np.zeros((n,) + const, dtype=complex)
        unit[a] = 1.0
        want = want + np.stack([_cropped_convolution(W[a], comp, M)
                                for comp in contract(unit, u).coeffs])
    assert close(contract(W, u).coeffs, want)


_SIEGEL = {"family": "siegel-diagonal", "t": [0.2, 0.9], "backend": "spectral", "d": 0,
           "M": 4}
_SCIPY_CASES = {
    # the primitive surface lift carries a non-constant Kodaira-Spencer field,
    # so the command takes spectral products, which need numpy.fft only
    "primitive-lift": ("primitive-lift", _SIEGEL),
    "curvature-siegel": ("curvature", _SIEGEL),
    "curvature-elliptic-flat": ("curvature", {"backend": "spectral", "d": 0}),
    "scan-rank": ("scan-rank", None),
    "bls": ("bls", None),
    "hodge-check-siegel": ("hodge-check", _SIEGEL),
    "curvature-grid": ("curvature", {"backend": "grid", "d": 1, "N": 32}),
}


@pytest.mark.parametrize("case", list(_SCIPY_CASES))
def test_only_grid_runs_import_scipy(tmp_path, case):
    # toruslab.grid is the only module that imports scipy, and make_space
    # imports it only for a Grid
    command, payload = _SCIPY_CASES[case]
    args = [command, "--out", str(tmp_path / "out.json")]
    if payload is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        args += ["--config", str(cfg)]
    script = ("import sys\nfrom toruslab import cli\n"
              f"code = cli.main.main({args!r}, standalone_mode=False)\n"
              "print(code, any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules),"
              " 'toruslab.grid' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(toruslab.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    grid = str(case == "curvature-grid")
    assert proc.stdout.splitlines()[-1].split() == ["0", grid, grid]


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(-3.0, 3.0, allow_nan=False))
def test_operator_linearity(scale, flat_torus, flat_bundle, spec_disc):
    rng = np.random.default_rng(17)
    sp = make_space(flat_torus, flat_bundle, (0, 0), spec_disc)
    d = assemble_dbar(sp)
    u = band_limited(sp, rng)
    v = band_limited(sp, rng)
    lhs = d.apply(u * scale + v)
    rhs = d.apply(u) * scale + d.apply(v)
    assert (lhs - rhs).norm() <= 1e-10 * max(1.0, rhs.norm())


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_norm_pairing_consistency(seed, flat_torus, flat_bundle, spec_disc):
    rng = np.random.default_rng(seed)
    sp = make_space(flat_torus, flat_bundle, (1, 0), spec_disc)
    u = band_limited(sp, rng)
    assert abs(u.norm() ** 2 - pair_l2(u, u).real) <= 1e-10
    assert pair_l2(u, u).imag == pytest.approx(0.0, abs=1e-12)


def test_nabla_reduces_to_derivative_for_flat(flat_torus, flat_bundle, spec_disc, rng):
    # flat trivial character: the (1,0)-differential has no zeroth-order term,
    # so it kills constants
    sp = make_space(flat_torus, flat_bundle, (0, 0), spec_disc)
    const = np.zeros((1,) + sp.field_shape, dtype=complex)
    const[(0,) + sp.calculus.zero_mode_index()] = 1.0
    u = sp.section(const)
    assert assemble_nabla10(sp).apply(u).norm() <= 1e-13
