import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab.bls import (
    FiniteBLSField,
    HermitianFormOnTensor,
    _SWEEP_ROWS,
    _als_min,
    _als_starts,
    _als_step,
    _cp1_sweep,
    _herm,
    _lowest_eigenvector,
    _restricted,
    _smallest_eigenvalue,
    chern_connection_fd,
    chern_curvature_fd,
    gauss_griffiths_check,
    gram_curvature,
    rank_k_min_oracle,
    schur_complement,
    schur_complement_demailly,
)
from toruslab.cli import random_demailly_instance
from toruslab.errors import (
    RankJump,
    SingularBlock,
    StepTooSmall,
    UnsupportedDimension,
)

STEP = 1e-3
T1 = 0.3 + 0.2j


def scalar_weight_field(a=1.0, dim=2):
    return FiniteBLSField(dim, lambda t: np.exp(a * abs(t) ** 2) * np.eye(dim))


def diagonal_weight_field(weights):
    d = len(weights)
    return FiniteBLSField(
        d, lambda t: np.diag([np.exp(a * abs(t) ** 2) for a in weights])
    )


def rotating_line_field(rate=0.8):
    """Euclidean metric with the projector onto the holomorphic span (cos rt, sin rt)."""

    def proj(t):
        v = np.array([np.cos(rate * t), np.sin(rate * t)])
        return np.outer(v, v.conj()) / np.vdot(v, v)

    return FiniteBLSField(2, lambda t: np.eye(2), projector=proj)


# ---------------------------------------------------------------------------
# curvature by finite differences


def test_curvature_of_scalar_weight():
    # h = e^{|t|^2} Id has Theta = -Id for this sign convention
    bf = scalar_weight_field(1.0)
    metric, evaluations = bf.metric, []
    bf.metric = lambda t: evaluations.append(t) or metric(t)
    theta = chern_curvature_fd(bf, T1, STEP)
    assert np.linalg.norm(theta + np.eye(2)) <= 10 * STEP**2
    # h at t, and h on a 5-point stencil around each of the 5 points of A
    assert len(evaluations) == 26


def test_curvature_of_diagonal_weights():
    bf = diagonal_weight_field([2.0, 3.0])
    theta = chern_curvature_fd(bf, T1, STEP)
    assert np.linalg.norm(theta + np.diag([2.0, 3.0])) <= 100 * STEP**2


def test_step_below_cancellation_floor():
    bf = scalar_weight_field()
    with pytest.raises(StepTooSmall):
        chern_curvature_fd(bf, T1, 1e-6)
    with pytest.raises(StepTooSmall):
        chern_connection_fd(bf, T1, 0.0)


def test_connection_of_scalar_weight():
    # h^{-1} dh/dt = d|t|^2/dt = conj(t)
    bf = scalar_weight_field(1.0)
    A = chern_connection_fd(bf, T1, STEP)
    assert np.linalg.norm(A - np.conj(T1) * np.eye(2)) <= 10 * STEP**2


def test_curvature_form_on_full_frame_is_lowered_theta():
    # the Gram matrices of the identity frame are the metric itself
    bf = diagonal_weight_field([1.0, 2.0])
    G = {(px, py): bf.h(T1 + STEP * (px + 1j * py))
         for px, py in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))}
    M = gram_curvature(G, STEP)
    h0 = bf.h(T1)
    theta = chern_curvature_fd(bf, T1, STEP)
    lowered = h0 @ theta
    lowered = (lowered + lowered.conj().T) / 2.0
    assert np.linalg.norm(M - lowered) <= 100 * STEP**2


# ---------------------------------------------------------------------------
# Gauss--Griffiths identity on subfields


def test_gauss_griffiths_holomorphic_rotating_line():
    bf = rotating_line_field()
    res = gauss_griffiths_check(bf, T1, STEP)
    assert res <= 1e-5


def test_gauss_griffiths_constant_subfield_is_exact():
    P = np.diag([1.0, 0.0])
    bf = FiniteBLSField(2, lambda t: np.eye(2), projector=lambda t: P)
    assert gauss_griffiths_check(bf, T1, STEP) <= 1e-12


def test_gauss_griffiths_detects_rank_jump():
    def proj(t):
        return np.eye(2) if t.real > 0.0 else np.zeros((2, 2))

    bf = FiniteBLSField(2, lambda t: np.eye(2), projector=proj)
    with pytest.raises(RankJump):
        gauss_griffiths_check(bf, 0.0 + 0.0j, STEP)


def test_gauss_griffiths_rank_check_covers_the_corners():
    # the rank jumps only at the corner t + step (1 + i) of the 3x3 stencil,
    # which no derivative reads
    def proj(t):
        return np.eye(2) if min(t.real, t.imag) > 0.0 else np.zeros((2, 2))

    bf = FiniteBLSField(2, lambda t: np.eye(2), projector=proj)
    with pytest.raises(RankJump):
        gauss_griffiths_check(bf, 0.0 + 0.0j, STEP)


def test_gauss_griffiths_requires_projector():
    with pytest.raises(ValueError):
        gauss_griffiths_check(scalar_weight_field(), T1, STEP)


# ---------------------------------------------------------------------------
# Hermitian forms, Schur complements, rank-k positivity


def antisymmetric_unit_tensor():
    v0 = np.zeros(4, dtype=complex)
    v0[0 * 2 + 1] = 1.0 / np.sqrt(2.0)   # e_1 (x) f_2
    v0[1 * 2 + 0] = -1.0 / np.sqrt(2.0)  # e_2 (x) f_1
    return v0


def griffiths_not_nakano_form():
    v0 = antisymmetric_unit_tensor()
    phi = np.eye(4) - 1.5 * np.outer(v0, v0.conj())
    return HermitianFormOnTensor(m=2, r=2, phi=phi, split=(2, 0))


def test_form_validation():
    with pytest.raises(ValueError):
        HermitianFormOnTensor(m=2, r=2, phi=np.eye(3), split=(2, 0))
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    with pytest.raises(ValueError):
        HermitianFormOnTensor(m=2, r=2, phi=skew, split=(2, 0))
    with pytest.raises(ValueError):
        HermitianFormOnTensor(m=2, r=2, phi=np.eye(4), split=(1, 0))


def test_schur_complement_identity_and_edge_cases():
    form = HermitianFormOnTensor(m=2, r=2, phi=np.eye(4), split=(1, 1))
    assert np.allclose(schur_complement(form), np.eye(2))
    # empty second factor returns J11 unchanged
    full = HermitianFormOnTensor(m=2, r=2, phi=np.diag([1.0, 2, 3, 4]),
                                 split=(2, 0))
    assert np.allclose(schur_complement(full), np.diag([1.0, 2, 3, 4]))
    singular = HermitianFormOnTensor(m=2, r=2, phi=np.diag([1.0, 1, 0, 0]),
                                     split=(1, 1))
    with pytest.raises(SingularBlock):
        schur_complement(singular)


def test_demailly_identity_is_positive_at_all_ranks():
    form = HermitianFormOnTensor(m=2, r=2, phi=np.eye(4), split=(2, 0))
    for k in (1, 2):
        ok, wit, _ = schur_complement_demailly(form, k)
        assert ok and wit is None


def test_griffiths_positive_but_not_nakano():
    form = griffiths_not_nakano_form()
    # rank-1 minimum is 1 - 1.5/2 = 1/4 > 0; full minimum is -1/2
    assert rank_k_min_oracle(form.phi, 2, 2, 1) == pytest.approx(0.25, abs=1e-6)
    assert rank_k_min_oracle(form.phi, 2, 2, 2) == pytest.approx(-0.5, abs=1e-12)
    ok1, wit1, min1 = schur_complement_demailly(form, 1)
    assert ok1 and wit1 is None
    assert min1 == pytest.approx(0.25, abs=1e-6)
    ok2, wit2, min2 = schur_complement_demailly(form, 2)
    assert not ok2
    assert min2 == pytest.approx(-0.5, abs=1e-12)
    v = wit2.ravel()
    q = np.real(np.vdot(v, form.phi @ v)) / np.real(np.vdot(v, v))
    assert q == pytest.approx(-0.5, abs=1e-8)


def test_oracle_full_rank_matches_eigh():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    S = (A + A.conj().T) / 2.0
    assert rank_k_min_oracle(S, 2, 3, 2) == pytest.approx(
        np.linalg.eigvalsh(S)[0], abs=1e-12)
    # m1 = 1: every tensor has rank <= 1
    S1 = S[:3, :3]
    assert rank_k_min_oracle(S1, 1, 3, 1) == pytest.approx(
        np.linalg.eigvalsh(S1)[0], abs=1e-12)


def test_oracle_rejects_large_dimensions():
    S = np.eye(9)
    with pytest.raises(UnsupportedDimension):
        rank_k_min_oracle(S, 3, 3, 1)
    # the CP^1 sweep takes its eigenvalues in closed form, for r <= 3 only
    with pytest.raises(UnsupportedDimension):
        rank_k_min_oracle(np.eye(8), 2, 4, 1)


def _entries(M):
    r = M.shape[-1]
    return [[M[..., a, b] for b in range(r)] for a in range(r)]


def _with_spectrum(rng, eigenvalues, count):
    """count Hermitian matrices U diag(eigenvalues) U† with random unitary U."""
    r = len(eigenvalues)
    A = rng.standard_normal((count, r, r)) + 1j * rng.standard_normal((count, r, r))
    Q, _ = np.linalg.qr(A)
    M = Q @ (np.asarray(eigenvalues)[:, None] * np.conj(np.swapaxes(Q, -1, -2)))
    return (M + np.conj(np.swapaxes(M, -1, -2))) / 2


@pytest.mark.parametrize("r", [2, 3])
def test_closed_form_smallest_eigenvalue_matches_eigvalsh(r):
    rng = np.random.default_rng(40 + r)
    A = rng.standard_normal((500, r, r)) + 1j * rng.standard_normal((500, r, r))
    M = (A + np.conj(np.swapaxes(A, -1, -2))) / 2
    w = np.linalg.eigvalsh(M)
    rho = np.abs(w).max(axis=1)
    assert np.all(np.abs(_smallest_eigenvalue(_entries(M)) - w[:, 0]) <= 1e-12 * rho)
    # a scalar matrix has p = 0 in the trigonometric formula: q, not NaN
    for c in (0.0, 1.7, -3.0):
        lam = _smallest_eigenvalue(_entries(c * np.eye(r, dtype=complex)[None]))
        assert lam[0] == pytest.approx(c, abs=1e-15)
    lam = _smallest_eigenvalue(_entries(_with_spectrum(rng, [1.7] * r, 50)))
    assert np.all(np.abs(lam - 1.7) <= 1e-12 * 1.7)
    d = rng.standard_normal((50, r))
    D = d[:, :, None] * np.eye(r)
    assert np.all(np.abs(_smallest_eigenvalue(_entries(D)) - d.min(axis=1))
                  <= 1e-12 * np.abs(d).max(axis=1))
    # a double smallest eigenvalue: arccos next to 1 costs about sqrt(eps)
    # for r = 3 (the bound in the docstring); a double largest one does not
    lam = _smallest_eigenvalue(_entries(_with_spectrum(rng, [-1.0] * (r - 1) + [2.0], 500)))
    assert np.all(np.abs(lam + 1.0) <= (1e-7 if r == 3 else 1e-12) * 2.0)
    lam = _smallest_eigenvalue(_entries(_with_spectrum(rng, [-1.0] + [2.0] * (r - 1), 500)))
    assert np.all(np.abs(lam + 1.0) <= 1e-12 * 2.0)


def _complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_closed_form_lowest_eigenvector_matches_eigh():
    rng = np.random.default_rng(44)

    def check(B):
        # unit vectors with eigh's residual, for the Hermitian part of B
        H = _herm(B)
        v = _lowest_eigenvector(B)
        w = np.linalg.eigvalsh(H)
        rho = np.abs(w).max(axis=1)
        resid = np.linalg.norm(np.einsum("Rij,Rj->Ri", H, v) - w[:, :1] * v, axis=1)
        assert np.all(resid <= 1e-12 * rho)
        assert np.all(np.abs(np.linalg.norm(v, axis=1) - 1) <= 1e-15)
        return v

    check(_complex_normal(rng, 500, 2, 2))
    # diagonal blocks: the smaller diagonal entry's basis vector
    v = check(np.array([np.diag([1.0, 2.0]), np.diag([-3.0, -0.5])], dtype=complex))
    assert np.array_equal(np.abs(v), [[1, 0], [1, 0]])
    v = check(np.array([np.diag([2.0, 1.0]), np.diag([0.5, -4.0])], dtype=complex))
    assert np.array_equal(np.abs(v), [[0, 1], [0, 1]])
    # scalar blocks give e0, as eigh does, never NaN
    for c in (0.0, 1.7, -3.0):
        assert np.array_equal(_lowest_eigenvector(c * np.eye(2, dtype=complex)[None]),
                              [[1, 0]])
    # |b| far below and far above |a - d|, on either side of a = d
    for scale in (1e-14, 1e-9, 1e9, 1e14):
        B = np.zeros((200, 2, 2), dtype=complex)
        B[:, 0, 0], B[:, 1, 1] = rng.standard_normal(200), rng.standard_normal(200)
        B[:, 0, 1] = scale * np.abs(B[:, 0, 0] - B[:, 1, 1]) * np.exp(2j * np.pi * rng.random(200))
        B[:, 1, 0] = np.conj(B[:, 0, 1])
        check(B)
    # larger blocks are eigh's
    B = _complex_normal(rng, 50, 3, 3)
    assert np.array_equal(_lowest_eigenvector(B), np.linalg.eigh(_herm(B))[1][:, :, 0])


def reference_als_step(Sk, U, W):
    """One alternation with QR, the 3-operand einsum and eigh on every block."""
    R, m1, kk = U.shape
    r = W.shape[1]
    W, _ = np.linalg.qr(W)
    B = np.einsum("iajb,Ras,Rbt->Risjt", Sk, np.conj(W), W).reshape(R, m1 * kk, m1 * kk)
    U = np.linalg.eigh(_herm(B))[1][:, :, 0].reshape(R, m1, kk)
    U, _ = np.linalg.qr(U)
    C = np.einsum("iajb,Ris,Rjt->Rasbt", Sk, np.conj(U), U).reshape(R, r * kk, r * kk)
    W = np.linalg.eigh(_herm(C))[1][:, :, 0].reshape(R, r, kk)
    return U, W


def _up_to_phase(X, Y):
    """max over restarts of min over phases c of |X - c Y|, for unit X and Y."""
    x, y = X.reshape(len(X), -1), Y.reshape(len(Y), -1)
    ip = np.einsum("Ri,Ri->R", np.conj(y), x)
    return np.abs(x - (ip / np.abs(ip))[:, None] * y).max()


@pytest.mark.parametrize("r", [2, 3])
def test_als_step_matches_reference_at_rank_one(r):
    rng = np.random.default_rng(60 + r)
    A = _complex_normal(rng, 2 * r, 2 * r)
    Sk = ((A + A.conj().T) / 2).reshape(2, r, 2, r)
    U0, W0 = _complex_normal(rng, 50, 2, 1), _complex_normal(rng, 50, r, 1)
    U, W = _als_step(Sk, U0, W0)
    U_ref, W_ref = reference_als_step(Sk, U0, W0)
    assert _up_to_phase(U, U_ref) <= 1e-12
    assert _up_to_phase(W, W_ref) <= 1e-12


@pytest.mark.parametrize("m1, r, k", [(2, 2, 1), (2, 3, 1), (3, 3, 2)])
def test_als_starts_are_the_per_restart_draws(m1, r, k):
    # one draw for all restarts is the stream of the per-restart draws of
    # Re U, Im U, Re W and Im W, to the bit, and leaves the generator where
    # they leave it
    rng, ref_rng = np.random.default_rng(80 + k), np.random.default_rng(80 + k)
    U, W = _als_starts(m1, r, k, 50, rng)
    ref = [(ref_rng.standard_normal((m1, k)) + 1j * ref_rng.standard_normal((m1, k)),
            ref_rng.standard_normal((r, k)) + 1j * ref_rng.standard_normal((r, k)))
           for _ in range(50)]
    assert U.tobytes() == np.stack([u for u, _ in ref]).tobytes()
    assert W.tobytes() == np.stack([w for _, w in ref]).tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pairwise_contractions_match_einsum_at_rank_two():
    rng = np.random.default_rng(70)
    A = _complex_normal(rng, 9, 9)
    Sk = ((A + A.conj().T) / 2).reshape(3, 3, 3, 3)
    U, _ = np.linalg.qr(_complex_normal(rng, 50, 3, 2))
    W, _ = np.linalg.qr(_complex_normal(rng, 50, 3, 2))
    B = np.einsum("iajb,Ras,Rbt->Risjt", Sk, np.conj(W), W).reshape(50, 6, 6)
    C = np.einsum("iajb,Ris,Rjt->Rasbt", Sk, np.conj(U), U).reshape(50, 6, 6)
    assert np.abs(_restricted(Sk, W) - B).max() <= 1e-13
    assert np.abs(_restricted(Sk.transpose(1, 0, 3, 2), U) - C).max() <= 1e-13


def test_als_agrees_with_oracle_on_random_instances():
    disagreements = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        S = (A + A.conj().T) / 2.0
        form = HermitianFormOnTensor(m=2, r=2, phi=S, split=(2, 0))
        truth = rank_k_min_oracle(S, 2, 2, 1)
        if abs(truth) < 1e-6:
            continue  # borderline sign is not a fair verdict comparison
        ok, _, _ = schur_complement_demailly(form, 1, restarts=20, iters=30,
                                             seed=seed)
        if ok != (truth >= 0):
            disagreements += 1
    assert disagreements == 0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_minimum_is_monotone_in_rank(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    S = (A + A.conj().T) / 2.0
    m1 = rank_k_min_oracle(S, 2, 2, 1)
    m2 = rank_k_min_oracle(S, 2, 2, 2)
    assert m2 <= m1 + 1e-9


# ---------------------------------------------------------------------------
# batched minimizers against per-point references

# random_demailly_instance seeds with m1 = 2 and r in {2, 3}: the CP^1 sweep
SWEEP_SEEDS = (0, 4, 5, 7, 13)
# an instance on which the ALS restarts alone stop short of the minimum
SLOW_SEED = 78653459536


def sweep_instances():
    for seed in SWEEP_SEEDS:
        form, _, S = random_demailly_instance(seed)
        assert form.split[0] == 2 and form.r in (2, 3)
        yield seed, form.r, S


def oracle_reference(S, r, grid):
    """The rank-1 CP^1 oracle evaluated one grid point at a time."""
    Sk = S.reshape(2, r, 2, r)
    best, best_xi = np.inf, None
    for th in np.linspace(0, np.pi / 2, grid):
        for ph in np.linspace(0, 2 * np.pi, 2 * grid, endpoint=False):
            xi = np.array([np.cos(th), np.sin(th) * np.exp(1j * ph)])
            A = np.einsum("i,iajb,j->ab", np.conj(xi), Sk, xi)
            lam = np.linalg.eigvalsh((A + A.conj().T) / 2)[0]
            if lam < best:
                best, best_xi = lam, xi
    return polish_reference(Sk, best, best_xi)


def polish_reference(Sk, best, xi):
    """All 200 steps of the oracle's exact alternation, with no early stop."""
    for _ in range(200):
        A = np.einsum("i,iajb,j->ab", np.conj(xi), Sk, xi)
        w, V = np.linalg.eigh((A + A.conj().T) / 2)
        eta = V[:, 0]
        B = np.einsum("a,iajb,b->ij", np.conj(eta), Sk, eta)
        w2, V2 = np.linalg.eigh((B + B.conj().T) / 2)
        xi = V2[:, 0]
        best = min(best, float(w2[0]))
    return best


def test_batched_oracle_matches_per_point_sweep():
    for _, r, S in sweep_instances():
        assert rank_k_min_oracle(S, 2, r, 1, grid=15) == pytest.approx(
            oracle_reference(S, r, 15), abs=1e-12)


def test_batched_oracle_matches_per_point_sweep_across_theta_blocks():
    # three blocks of theta rows: the first strict minimum across blocks wins
    grid = 2 * _SWEEP_ROWS + 5
    for _, r, S in sweep_instances():
        assert rank_k_min_oracle(S, 2, r, 1, grid=grid) == pytest.approx(
            oracle_reference(S, r, grid), abs=1e-12)


def test_als_matches_oracle_on_sweep_instances():
    for seed, r, S in sweep_instances():
        val, X = _als_min(S, 2, r, 1, restarts=50, iters=40,
                          rng=np.random.default_rng(seed + 7))
        assert val == pytest.approx(rank_k_min_oracle(S, 2, r, 1), abs=1e-10)
        assert np.linalg.matrix_rank(X) == 1
        x = X.ravel()
        assert np.real(np.vdot(x, S @ x)) == pytest.approx(val, abs=1e-12)


def test_als_converges_on_slow_instance():
    # without the polish, 50 restarts x 40 alternations stop 2.5e-6 above
    # the minimum here
    seed = SLOW_SEED
    form, _, S = random_demailly_instance(seed)
    m1 = form.split[0]
    val, _ = _als_min(S, m1, form.r, 1, restarts=50, iters=40,
                      rng=np.random.default_rng(seed + 7))
    assert val == pytest.approx(rank_k_min_oracle(S, m1, form.r, 1), abs=1e-10)


def test_sweep_keeps_the_first_grid_point_on_ties():
    # S = P (+) P with zero off-diagonal blocks makes A(xi) = (c² + s²) P; with
    # these P the closed form gives exactly 0 at every grid point, so all
    # twelve theta blocks tie and the strict < keeps theta = phi = 0
    for P in (np.diag([0.0, 1.0]), np.zeros((3, 3))):
        r = len(P)
        S = np.kron(np.eye(2), P).astype(complex)
        best, xi = _cp1_sweep(S.reshape(2, r, 2, r), 181)
        assert best == 0.0
        assert np.array_equal(xi, [1.0, 0.0])
        assert rank_k_min_oracle(S, 2, r, 1) == 0.0



def test_oracle_polish_stop_is_bitwise_exact():
    # the polish stops once an iterate repeats; the value must be the one
    # all 200 steps give, to the last bit
    for seed in (*SWEEP_SEEDS, SLOW_SEED):
        form, _, S = random_demailly_instance(seed)
        assert form.split[0] == 2
        r = form.r
        Sk = S.reshape(2, r, 2, r)
        best, xi = _cp1_sweep(Sk, 181)
        assert rank_k_min_oracle(S, 2, r, 1) == polish_reference(Sk, best, xi)


def _unitary_with_first_column(rng, x):
    n = len(x)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M[:, 0] = x
    Q, _ = np.linalg.qr(M)
    return Q


def test_als_at_rank_two():
    # m1 = r = 3 and k = 2: two columns per ALS factor
    for seed in range(6):
        rng = np.random.default_rng(900 + seed)
        A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        S = (A + A.conj().T) / 2.0
        val, X = _als_min(S, 3, 3, 2, restarts=50, iters=40,
                          rng=np.random.default_rng(seed))
        val1, _ = _als_min(S, 3, 3, 1, restarts=50, iters=40,
                           rng=np.random.default_rng(seed))
        assert np.linalg.matrix_rank(X) <= 2
        x = X.ravel()
        assert np.real(np.vdot(x, S @ x)) == pytest.approx(val, abs=1e-12)
        assert np.linalg.eigvalsh(S)[0] - 1e-12 <= val <= val1 + 1e-12
    # a form whose lowest eigenvector is a rank-2 tensor: ALS reaches it
    rng = np.random.default_rng(950)
    U = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    W = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    x0 = (U @ W.T).ravel()
    Q = _unitary_with_first_column(rng, x0 / np.linalg.norm(x0))
    S = Q @ np.diag([-1.0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4]) @ Q.conj().T
    S = (S + S.conj().T) / 2.0
    val, X = _als_min(S, 3, 3, 2, restarts=50, iters=40,
                      rng=np.random.default_rng(0))
    assert val == pytest.approx(np.linalg.eigvalsh(S)[0], abs=1e-10)
    assert np.linalg.matrix_rank(X) == 2
