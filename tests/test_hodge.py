import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab import grid
from toruslab.errors import BidegreeOverflow, NotCoexact
from toruslab.forms import (
    FormSection,
    Grid,
    Spectral,
    adjoint,
    assemble_dbar,
    assemble_nabla10,
    make_space,
    pair_l2,
    pair_matrix,
)
from toruslab.curvature import curvature_H, direct_image_fibre
from toruslab.geometry import elliptic_family, make_flat_bundle, make_positive_bundle, make_torus
from toruslab.hodge import (
    bergman_project,
    build_hodge,
    laplacian,
    minimal_solution,
)
from toruslab.oracle import exact_flat_spectrum

from conftest import T0, band_limited, coo_dbar, coo_nabla10, coo_stencil, sample_weights


@pytest.fixture(scope="module")
def flat01():
    torus = make_torus(1, [[T0]])
    bundle = make_flat_bundle(torus, [0.0, 0.0])
    sp = make_space(torus, bundle, (0, 1), Spectral(M=6))
    return build_hodge(sp, expected_kernel=1)


@pytest.fixture(scope="module")
def flat11():
    torus = make_torus(1, [[T0]])
    bundle = make_flat_bundle(torus, [0.0, 0.0])
    sp = make_space(torus, bundle, (1, 1), Spectral(M=6))
    return build_hodge(sp, expected_kernel=1)


@pytest.fixture(scope="module")
def grid11():
    torus = make_torus(1, [[T0]])
    bundle = make_positive_bundle(torus, 1)
    sp = make_space(torus, bundle, (1, 1), Grid(N=32, order=6))
    return build_hodge(sp, expected_kernel=0)


def test_flat_spectrum_matches_closed_form(flat01):
    torus = flat01.space.torus
    lam_exact = exact_flat_spectrum(torus, [0.0, 0.0], (0, 1), M=6)
    lam = np.sort(flat01.eigenvalues())
    m = min(len(lam), len(lam_exact))
    assert np.allclose(lam[:m], lam_exact[:m], atol=1e-10)


@pytest.mark.parametrize("n, period, chi", [
    (1, [[T0]], (0.25, 0.5)),
    (2, [[0.2 + 0.9j, 0.0], [0.0, 0.4 + 1.8j]], (0.0, 0.0, 0.0, 0.0)),
], ids=["elliptic", "siegel"])
def test_flat_box_is_scalar_per_mode(n, period, chi):
    # the spectral solver reads the box as lambda(kappa) Id on each mode
    torus = make_torus(n, period)
    fibre = make_space(torus, make_flat_bundle(torus, chi), (0, 0), Spectral(M=4))
    for p in range(n + 1):
        for q in range(n + 1):
            sp = fibre.sibling((p, q))
            blocks = np.broadcast_to(laplacian(sp, "dbar").data,
                                     (sp.ncomp, sp.ncomp) + sp.field_shape)
            lam = blocks[0, 0].real
            eye = np.eye(sp.ncomp).reshape(blocks.shape[:2] + (1,) * len(sp.field_shape))
            dev = np.abs(blocks - eye * lam).max(axis=(0, 1))
            assert np.all(dev <= 1e-13 * lam), (p, q)


def test_flat_kernel_dims_match_character():
    torus = make_torus(1, [[T0]])
    # chi = 1 - 1e-12 is trivial too, with its kappa = 0 mode at k = -1
    for chi, dim in [((0.0, 0.0), 1), ((0.5, 0.0), 0), ((0.0, 0.5), 0),
                     ((1.0 - 1e-12, 0.0), 1)]:
        bundle = make_flat_bundle(torus, chi)
        sp = make_space(torus, bundle, (1, 0), Spectral(M=4))
        pkg = build_hodge(sp, expected_kernel=dim)
        assert pkg.harmonic_dim == dim
        for f in pkg.harmonic_basis:
            assert pkg.laplacian.apply(f).norm() <= 1e-9 * f.norm()


def test_positive_bundle_kernel_dim_is_degree(rng):
    torus = make_torus(1, [[T0]])
    for d in (1, 2):
        bundle = make_positive_bundle(torus, d)
        sp = make_space(torus, bundle, (1, 0), Grid(N=32, order=6))
        pkg = build_hodge(sp, expected_kernel=d)
        assert pkg.harmonic_dim == d
        u = band_limited(sp, rng)
        resid = u - pkg.harmonic_project(u) - pkg.laplacian.apply(pkg.green(u))
        assert resid.norm() <= 1e-9


def test_grid_kernel_block_grows_to_aliased_cokernel():
    # alone, a d = 3 (1,1) package starts its near-null block at
    # expected_kernel + 2 = 2 columns, fewer than its 3 aliased zero modes
    torus = make_torus(1, [[T0]])
    sp = make_space(torus, make_positive_bundle(torus, 3), (1, 1), Grid(N=32, order=6))
    diag = build_hodge(sp, expected_kernel=0).diagnostics()
    assert diag["kernel_deflated"] == 3
    assert diag["kernel_found"] == 0


def _max_rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize("N", [8, 64])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_grid_operators_match_coo_stencil(d, N):
    # applied through their y-Fourier matrices, dbar (with the sign of (1,0)),
    # nabla10 and both adjoints match the physical stencil; d = 0 is the
    # periodic dbar_of_field.  At N = 8 the order-10 stencil reaches past half
    # the period, so two offsets land on one x index with different wraps
    torus = make_torus(1, [[T0]])
    sp00 = make_space(torus, make_positive_bundle(torus, max(d, 1)), (0, 0),
                      Grid(N=N, order=10))
    rng = np.random.default_rng(10 * N + d)
    v = rng.standard_normal(N * N) + 1j * rng.standard_normal(N * N)
    if d == 0:
        ref = coo_stencil(N, 10, T0, 0, *grid._dzbar(T0), 0.0) @ v
        got = sp00.calculus.dbar_of_field(sp00, v.reshape(1, N, N))
        assert got.shape == (1, 1, N, N) and _max_rel(got.ravel(), ref) <= 1e-14
        return
    dbar, nabla = coo_dbar(sp00), coo_nabla10(sp00)
    for assemble, bidegree, A in ((assemble_dbar, (0, 0), dbar), (assemble_dbar, (1, 0), -dbar),
                                  (assemble_nabla10, (0, 0), nabla),
                                  (assemble_nabla10, (0, 1), nabla)):
        op = assemble(sp00.sibling(bidegree))
        wd, wc = (sample_weights(s) for s in (op.domain, op.codomain))
        adjA = sparse.diags(1.0 / wd) @ A.conj().T @ sparse.diags(wc)
        for o, ref in ((op, A), (adjoint(op), adjA)):
            got = sp00.calculus.samples(o.apply(o.domain.section(v)).coeffs).ravel()
            assert _max_rel(got, ref @ v) <= 1e-14, (bidegree, o is op)


def _unitary(calc, V):
    """U V = F_y (E / |E|) V for columns V of N² samples: the map of the
    weighted samples sqrt(w) u into the y-Fourier basis of the dbar factor."""
    N = calc.N
    phase = (calc.gauge / np.abs(calc.gauge)).ravel()[:, None]
    return np.fft.fft((phase * V).reshape(N, N, -1), axis=1, norm="ortho").reshape(N * N, -1)


@pytest.mark.parametrize("N", [8, 32])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_dbar_factor_matches_assembled_dbar(N, d):
    # the factor's A is the weighted physical dbar Dt = kappa U^H A U in the
    # unitary basis U.  At N = 8 the order-10 stencil reaches past half the
    # period, so two offsets land on one x index with different Bloch wraps;
    # d = 2 links the y frequencies into two chains
    torus = make_torus(1, [[T0]])
    sp10 = make_space(torus, make_positive_bundle(torus, d), (1, 0), Grid(N=N, order=10))
    factor = build_hodge(sp10, expected_kernel=d)._solver.factor
    sp00 = sp10.sibling((0, 0))
    calc = sp00.calculus
    w0, w1 = (np.sqrt(sample_weights(sp00.sibling((0, q)))) for q in (0, 1))
    Dt = sparse.diags(w1) @ coo_dbar(sp00) @ sparse.diags(1.0 / w0)
    rng = np.random.default_rng(N + d)
    V = rng.standard_normal((N * N, 3)) + 1j * rng.standard_normal((N * N, 3))
    for trans, A in (("N", Dt), ("H", Dt.conj().T)):
        ref = _unitary(calc, A @ V)
        got = np.sqrt(factor.kappa2) * factor._apply(_unitary(calc, V), trans)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    # the weighted dbar out of (1,0) is -Dt, so the factor serves it too
    v0, v1 = (np.sqrt(sample_weights(sp10.sibling((1, q)))) for q in (0, 1))
    dbar10 = assemble_dbar(sp10)
    Dt10V = np.stack([v1 * calc.samples(dbar10.apply(sp10.section(col / v0)).coeffs).ravel()
                      for col in V.T], axis=1)
    assert np.abs(Dt10V + Dt @ V).max() <= 1e-14 * np.abs(Dt @ V).max()
    # a right-hand side off the other side's near-null block is solvable
    A = factor.A
    for trans, M, Q in (("N", A, factor.null[1][0]), ("H", A.conj().T, factor.null[0][0])):
        r = V - Q @ (Q.conj().T @ V)
        x = factor.solve(r, trans)
        assert np.linalg.norm(M @ x - r) <= 1e-11 * np.linalg.norm(r)


def _fibre_results(t, d):
    """Kernel, a Green apply, cut, LU fill and theta_H of one N = 64 fibre."""
    fam = elliptic_family(t, d=d)
    sp10, pkg10, basis, lift = direct_image_fibre(fam, Grid(N=64, order=10), expected_kernel=d)
    factor = pkg10._solver.factor
    u = band_limited(sp10, np.random.default_rng(5))
    return [pkg10._solver.kernel, pkg10.green(u).coeffs, factor.cut, factor.lu.nnz,
            curvature_H(fam, lift, basis, pkg10).theta_H]


def test_warm_caches_change_no_result():
    # a fibre built after fibres at other t and other d, which filled the
    # pattern cache, matches its cold build to the bit
    grid._dbar_hat_pattern.cache_clear()
    # the column order comes with the pattern, before any fibre is factored
    assert grid._dbar_hat_pattern(64, 10, 2).column_order is not None
    cold = _fibre_results(T0, 2)
    for t, d in ((T0 + 0.02, 2), (T0, 1), (T0 + 0.01j, 3)):
        _fibre_results(t, d)
    warm = _fibre_results(T0, 2)
    for got, want in zip(warm, cold):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # the cache is bounded: more patterns than it holds evict the oldest
    for N in range(4, 20, 2):
        grid._dbar_hat_pattern(N, 2, 1)
    info = grid._dbar_hat_pattern.cache_info()
    assert info.maxsize is not None and info.currsize == info.maxsize


@pytest.mark.parametrize("bidegree", [(1, 0), (1, 1)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_inverse_iteration_gives_both_near_null_blocks(monkeypatch, d, bidegree):
    # A is square and A^{-H} maps its right near-null vectors onto its left
    # ones, so the iteration with A^{-1} A^{-H} yields the block of A^H too
    solve = grid._DbarFactor.solve
    solves = []

    def counted(self, r, trans="N"):
        solves.append(trans)
        return solve(self, r, trans)

    monkeypatch.setattr(grid._DbarFactor, "solve", counted)
    torus = make_torus(1, [[T0]])
    sp = make_space(torus, make_positive_bundle(torus, d), bidegree, Grid(N=32, order=10))
    factor = build_hodge(sp, expected_kernel=d)._solver.factor
    assert len(solves) == 4   # two iterations at the block d + 2, which does not double
    (_, kernel_ritz), (C, cokernel_ritz) = factor.null
    assert len(kernel_ritz) == len(cokernel_ritz) == d
    # an independent inverse iteration with (A A^H)^{-1} from another start;
    # the Laplacian's Ritz values are kappa2 times A's squared singular values
    n = factor.A.shape[0]
    rng = np.random.default_rng(d)
    V = rng.standard_normal((n, d + 2)) + 1j * rng.standard_normal((n, d + 2))
    for _ in range(3):
        V, _ = np.linalg.qr(V)
        V = solve(factor, solve(factor, V, "N"), "H")
    V, _ = np.linalg.qr(V)
    _, s, Wh = np.linalg.svd(factor.A.conj().T @ V, full_matrices=False)
    assert int(np.sum(factor.kappa2 * s ** 2 < factor.cut)) == d
    ref = V @ Wh[::-1][:d].conj().T
    assert np.abs(C @ C.conj().T - ref @ ref.conj().T).max() <= 1e-10


@pytest.mark.parametrize("d", [1, 2, 3])
def test_near_null_block_belongs_to_the_fibre(monkeypatch, d):
    # a (1,1) package built first (expected kernel 0) starts the fibre's block
    # at d + 2 too: 4 block solves, and the same (1,0) kernel to the bit
    solve = grid._DbarFactor.solve
    solves = []

    def counted(self, r, trans="N"):
        solves.append(trans)
        return solve(self, r, trans)

    monkeypatch.setattr(grid._DbarFactor, "solve", counted)
    torus = make_torus(1, [[T0]])
    bundle = make_positive_bundle(torus, d)
    disc = Grid(N=32, order=6)
    sp11 = make_space(torus, bundle, (1, 1), disc)
    build_hodge(sp11, expected_kernel=0)
    assert len(solves) == 4
    after11 = build_hodge(sp11.sibling((1, 0)), expected_kernel=d)
    alone = build_hodge(make_space(torus, bundle, (1, 0), disc), expected_kernel=d)
    assert len(solves) == 8   # the sibling reuses the fibre's factor
    assert np.array_equal(after11._solver.kernel, alone._solver.kernel)


def test_one_dbar_factor_per_fibre(rng):
    torus = make_torus(1, [[T0]])
    bundle = make_positive_bundle(torus, 2)
    disc = Grid(N=32, order=6)
    shared = make_space(torus, bundle, (0, 0), disc)
    pkgs = [build_hodge(shared, expected_kernel=2),
            build_hodge(shared.sibling((1, 0)), expected_kernel=2)]
    assert len(shared.calculus.dbar_factors) == 1
    assert pkgs[0]._solver.factor is pkgs[1]._solver.factor
    for pkg in pkgs:
        alone = build_hodge(make_space(torus, bundle, pkg.space.bidegree, disc),
                            expected_kernel=2)
        assert pkg.harmonic_dim == alone.harmonic_dim == 2
        assert pkg._solver.kernel.shape == alone._solver.kernel.shape
        u = band_limited(pkg.space, rng)
        for p in (pkg, alone):
            resid = u - p.harmonic_project(u) - p.laplacian.apply(p.green(u))
            assert resid.norm() <= 1e-9
        assert (pkg.green(u) - alone.green(u)).norm() <= 1e-12 * alone.green(u).norm()


@pytest.mark.parametrize("which", ["flat01", "grid11"])
def test_decomposition_identity(which, flat01, grid11, rng):
    pkg = {"flat01": flat01, "grid11": grid11}[which]
    u = band_limited(pkg.space, rng)
    resid = u - pkg.harmonic_project(u) - pkg.laplacian.apply(pkg.green(u))
    assert resid.norm() <= 1e-9


@pytest.mark.parametrize("which", ["flat01", "grid11"])
def test_projection_is_idempotent_and_orthogonal(which, flat01, grid11, rng):
    pkg = {"flat01": flat01, "grid11": grid11}[which]
    u = band_limited(pkg.space, rng)
    hu = pkg.harmonic_project(u)
    assert (pkg.harmonic_project(hu) - hu).norm() <= 1e-10
    assert abs(pair_l2(u - hu, hu)) <= 1e-10


def test_minimal_solution_norm_identity(flat11, rng):
    sp10 = flat11.space.sibling((1, 0))
    v = band_limited(sp10, rng)
    alpha = assemble_dbar(sp10).apply(v)
    u0 = minimal_solution(flat11, alpha)
    lhs = u0.norm() ** 2
    rhs = pair_l2(flat11.green(alpha), alpha).real
    assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-30)
    assert (assemble_dbar(sp10).apply(u0) - alpha).norm() <= 1e-9


def test_minimal_solution_rejects_harmonic_rhs(flat11):
    h = flat11.harmonic_basis[0]
    with pytest.raises(NotCoexact):
        minimal_solution(flat11, h)


def test_bergman_neumann_split(flat11, rng):
    sp10 = flat11.space.sibling((1, 0))
    f = band_limited(sp10, rng)
    bf = bergman_project(flat11, f)
    nf = f - bergman_project(flat11, f)
    assert (bf + nf - f).norm() <= 1e-10
    assert assemble_dbar(sp10).apply(bf).norm() <= 1e-8
    assert (bergman_project(flat11, bf) - bf).norm() <= 1e-8


GRID_CASES = [(16, 4, 2), (48, 10, 1), (64, 10, 3)]


@pytest.fixture(scope="module")
def grid_fibre():
    """The (0,0) space of the degree-d grid fibre at (N, order, d), made once per
    module, so that the packages built on one fibre share its dbar factor."""
    fibres = {}

    def fibre(N, order, d):
        if (N, order, d) not in fibres:
            torus = make_torus(1, [[T0]])
            fibres[N, order, d] = make_space(torus, make_positive_bundle(torus, d), (0, 0),
                                             Grid(N=N, order=order))
        return fibres[N, order, d]
    return fibre


def _dbar_star_green(pkg, alpha):
    """The reference for pkg.dbar_pinv: dbar* after a whole Green apply (on a
    grid fibre two LU solves where dbar_pinv makes one)."""
    p, q = pkg.space.bidegree
    return adjoint(assemble_dbar(pkg.space.sibling((p, q - 1)))).apply(pkg.green(alpha))


def _rel(u, ref):
    return (u - ref).norm() / ref.norm()


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("N, order, d", GRID_CASES)
def test_grid_dbar_pinv_matches_dbar_star_green(grid_fibre, N, order, d, p):
    # alpha has as much weight on a near-null vector of dbar* as off the block,
    # which A^{-1} would blow up without the projection before the solve
    pkg = build_hodge(grid_fibre(N, order, d).sibling((p, 1)), expected_kernel=0)
    alpha = band_limited(pkg.space, np.random.default_rng(N + d + p))
    null = FormSection(pkg.space, pkg._solver.kernel[:, 0].reshape((1, N, N)))
    alpha = alpha + null * (alpha.norm() / null.norm())
    assert _rel(pkg.dbar_pinv(alpha), _dbar_star_green(pkg, alpha)) <= 1e-11


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("N, order", [(32, 6), (64, 10)])
def test_grid_harmonic_basis_is_orthonormal_and_dbar_closed(grid_fibre, N, order, d):
    # the harmonic sections leave the dbar factor's basis through sqrt(c) of
    # their own bidegree, so the basis is orthonormal on (0,0) and (1,0) alike;
    # on each unit section ||dbar h||^2 is the Laplacian's Ritz value, kappa^2
    # times A's squared singular value, below the cut (rtol: the stencil
    # apply and the factor round differently; atol: Ritz values at rounding)
    for bidegree in ((0, 0), (1, 0)):
        pkg = build_hodge(grid_fibre(N, order, d).sibling(bidegree), expected_kernel=d)
        H, ritz = pkg.harmonic_basis, pkg._solver._kernel_ritz
        assert len(H) == len(ritz) == d
        gram_matrix = pair_matrix(H, H)
        assert np.abs(gram_matrix - np.eye(d)).max() <= 1e-12
        dbar = assemble_dbar(pkg.space)
        norms = np.array([dbar.apply(h).norm() ** 2 for h in H])
        assert np.allclose(norms, ritz, rtol=1e-3, atol=1e-25)
        assert ritz.max() < pkg._solver.factor.cut


def test_spectral_dbar_pinv_matches_dbar_star_green(flat11, rng):
    alpha = band_limited(flat11.space, rng)
    assert _rel(flat11.dbar_pinv(alpha), _dbar_star_green(flat11, alpha)) <= 1e-11


@pytest.mark.parametrize("N, order, d", GRID_CASES)
def test_grid_bergman_projection_is_the_harmonic_projection(grid_fibre, N, order, d):
    # f - dbar^+ dbar f is the (1,0) harmonic projection of f
    fibre = grid_fibre(N, order, d)
    pkg10 = build_hodge(fibre.sibling((1, 0)), expected_kernel=d)
    pkg11 = build_hodge(fibre.sibling((1, 1)), expected_kernel=0)
    f = band_limited(pkg10.space, np.random.default_rng(d))
    assert (bergman_project(pkg11, f) - pkg10.harmonic_project(f)).norm() <= 1e-9 * f.norm()


def test_grid_solve_budget(grid_fibre):
    # a Green apply takes two solves of the fibre's dbar factor, a minimal
    # solution and a Bergman projection one each
    fibre = grid_fibre(48, 10, 1)
    pkg = build_hodge(fibre.sibling((1, 1)), expected_kernel=0)
    factor = pkg._solver.factor
    rng = np.random.default_rng(3)
    sp10 = fibre.sibling((1, 0))
    alpha = assemble_dbar(sp10).apply(band_limited(sp10, rng))
    f = band_limited(sp10, rng)
    for run, solves in ((lambda: pkg.green(alpha), 2),
                        (lambda: minimal_solution(pkg, alpha), 1),
                        (lambda: bergman_project(pkg, f), 1)):
        before = factor.solves
        run()
        assert factor.solves - before == solves


def test_grid_hodge_calls_run_no_fft(monkeypatch):
    # sections hold coefficients in the basis where dbar is the factored A, so
    # once the inputs are built no Hodge call or derivative apply transforms
    torus = make_torus(1, [[T0]])
    sp10 = make_space(torus, make_positive_bundle(torus, 1), (1, 0), Grid(N=32, order=6))
    pkg10 = build_hodge(sp10, expected_kernel=1)
    pkg11 = build_hodge(sp10.sibling((1, 1)), expected_kernel=0)
    rng = np.random.default_rng(4)
    u, f = band_limited(sp10, rng), band_limited(sp10, rng)
    alpha = assemble_dbar(sp10).apply(band_limited(sp10, rng))
    calls = []
    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft"):
        def counted(*args, _fn=getattr(np.fft, name), **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(grid.np.fft, name, counted)
    pkg10.green(u)
    pkg10.harmonic_project(u)
    pkg11.dbar_pinv(alpha)
    minimal_solution(pkg11, alpha)
    bergman_project(pkg11, f)
    assemble_dbar(sp10).apply(f)
    assert calls == []
    # the counter sees the transforms of a construction from samples
    sp10.section(np.ones((1, 32, 32)))
    assert len(calls) == 1


@pytest.mark.parametrize("backend", ["spectral", "grid"])
def test_a_p0_package_has_no_dbar_pinv(backend):
    # there is no (p,-1) space, whatever alpha is
    torus = make_torus(1, [[T0]])
    if backend == "grid":
        sp = make_space(torus, make_positive_bundle(torus, 1), (1, 0), Grid(N=16))
    else:
        sp = make_space(torus, make_flat_bundle(torus, [0.0, 0.0]), (1, 0), Spectral(M=4))
    pkg = build_hodge(sp, expected_kernel=1)
    for alpha in (band_limited(sp, np.random.default_rng(0)), sp.zeros()):
        for call in (pkg.dbar_pinv, lambda a: minimal_solution(pkg, a)):
            with pytest.raises(BidegreeOverflow):
                call(alpha)


def test_lambda1_matches_oracle(flat01):
    torus = flat01.space.torus
    lam_exact = exact_flat_spectrum(torus, [0.0, 0.0], (0, 1), M=6)
    lam1 = lam_exact[lam_exact > 1e-9].min()
    assert flat01._solver.lambda1() == pytest.approx(lam1, rel=1e-10)


@pytest.mark.parametrize("which", ["flat01", "grid11"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 1_000))
def test_green_is_selfadjoint_and_positive(which, seed, flat01, grid11):
    pkg = {"flat01": flat01, "grid11": grid11}[which]
    rng = np.random.default_rng(seed)
    u = band_limited(pkg.space, rng)
    v = band_limited(pkg.space, rng)
    gu, gv = pkg.green(u), pkg.green(v)
    assert abs(pair_l2(gu, v) - pair_l2(u, gv)) <= 1e-10
    quad = pair_l2(pkg.green(u - pkg.harmonic_project(u)),
                   u - pkg.harmonic_project(u)).real
    assert quad >= -1e-12
