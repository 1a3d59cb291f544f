"""Finite-dimensional matrix-metric families: curvature, subfields, positivity.

A field here is a family of Hermitian metrics h(t) on a fixed C^N, together with
an optional family of h-orthogonal projectors cutting out a subfield.  All base
derivatives are central finite differences; curvature identities are checked at
second-order accuracy in the step.

The positivity side works with Hermitian quadratic forms on a tensor product
M (x) F and their Schur complements with respect to a splitting of M, testing
rank-k positivity by alternating minimization with a brute-force oracle for
small dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    RankJump,
    SingularBlock,
    StepTooSmall,
    UnsupportedDimension,
)


# ---------------------------------------------------------------------------
# fields


@dataclass
class FiniteBLSField:
    """A smooth family of metrics on C^ambient_dim with an optional subfield.

    metric(t) must be Hermitian positive definite; projector(t), when given,
    must be an idempotent that is self-adjoint with respect to metric(t) (its
    rank may vary from point to point).
    """

    ambient_dim: int
    metric: Callable[[complex], np.ndarray]
    projector: Optional[Callable[[complex], np.ndarray]] = None

    def h(self, t: complex) -> np.ndarray:
        m = np.asarray(self.metric(t), dtype=complex)
        if m.shape != (self.ambient_dim, self.ambient_dim):
            raise ValueError(f"metric shape {m.shape} != ambient {self.ambient_dim}")
        return m

    def pi(self, t: complex) -> Optional[np.ndarray]:
        if self.projector is None:
            return None
        return np.asarray(self.projector(t), dtype=complex)


def _check_step(step: float) -> None:
    # second-order FD noise ~ eps/step^2 must stay below the step^2 accuracy
    if step <= 0 or step**4 < 16 * np.finfo(float).eps:
        raise StepTooSmall(f"step {step:g} is below the FD cancellation floor")


def _fd_holo(values: dict, step: float):
    """(d/dt, d/dtbar) from a stencil dict {(px,py): matrix}."""
    dX = (values[(1, 0)] - values[(-1, 0)]) / (2 * step)
    dY = (values[(0, 1)] - values[(0, -1)]) / (2 * step)
    return (dX - 1j * dY) / 2.0, (dX + 1j * dY) / 2.0


# the points every derivative here reads: t and t +- step, t +- i step
_AXES = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


def _stencil(fn, t: complex, step: float) -> dict:
    """fn at t + step (px + i py) for each offset (px, py) of _AXES."""
    return {(px, py): fn(t + step * (px + 1j * py)) for px, py in _AXES}


def chern_connection_fd(bfield: FiniteBLSField, t: complex, step: float) -> np.ndarray:
    """Connection coefficient A = h^{-1} (d h / dt) by central differences.

    The Chern covariant derivative of a section f is df/dt + A f.
    """
    _check_step(step)
    H = _stencil(bfield.h, t, step)
    dH, _ = _fd_holo(H, step)
    return np.linalg.solve(H[(0, 0)], dH)


def chern_curvature_fd(bfield: FiniteBLSField, t: complex, step: float) -> np.ndarray:
    """Curvature coefficient Theta = -dbar(h^{-1} d h), by nested 5-point stencils.

    The sign makes a metric h = e^{-phi} Id carry Theta = (d dbar phi) Id, so a
    plurisubharmonic weight has nonnegative curvature.  Verifies that h·Theta
    is Hermitian (metric compatibility of the Chern connection) within 10·step².
    """
    _check_step(step)
    A = _stencil(lambda tt: chern_connection_fd(bfield, tt, step), t, step)
    _, dbarA = _fd_holo(A, step)
    theta = -dbarA
    h0 = bfield.h(t)
    lowered = h0 @ theta
    defect = np.linalg.norm(lowered - lowered.conj().T)
    tol = 10 * step**2 * max(np.linalg.norm(h0), 1.0)
    if defect > tol:
        raise StepTooSmall(
            f"h·Theta Hermiticity defect {defect:.3e} exceeds {tol:.3e}"
        )
    return theta


def gram_curvature(G: dict, step: float) -> np.ndarray:
    """Matrix M with M[i,j] = Theta(e_j, e_i) for the metric with Gram matrices
    G = {(px, py): G(t + step (px + i py))} on a holomorphic frame, at t:
    M = -(d dbar G - dbar G G^{-1} d G), made Hermitian.  For G = e^{-phi}
    this is G phi_{t tbar}."""
    G0 = G[(0, 0)]
    dG, dbG = _fd_holo(G, step)
    dXX = (G[(1, 0)] - 2 * G0 + G[(-1, 0)]) / step**2
    dYY = (G[(0, 1)] - 2 * G0 + G[(0, -1)]) / step**2
    M = -((dXX + dYY) / 4.0 - dbG @ np.linalg.inv(G0) @ dG)
    return (M + M.conj().T) / 2.0


def subfield_curvature_on_frame(bfield: FiniteBLSField, t: complex, step: float,
                                cols: np.ndarray) -> np.ndarray:
    """Lowered curvature of the induced connection on the subfield.

    The subfield connection is Pi composed with the ambient Chern connection;
    its curvature is evaluated as the commutator of the (1,0) and (0,1)
    covariant derivatives on the transported frame Pi(t)·cols, by nested
    stencils.  This stays second-order accurate for any smooth transported
    frame — no holomorphic frame of the subfield is needed.
    """
    _check_step(step)

    def frame(tt: complex) -> np.ndarray:
        return bfield.pi(tt) @ cols

    def conn10(fn, tt: complex) -> np.ndarray:
        S = _stencil(fn, tt, step)
        d, _ = _fd_holo(S, step)
        A = chern_connection_fd(bfield, tt, step)
        return bfield.pi(tt) @ (d + A @ S[(0, 0)])

    def conn01(fn, tt: complex) -> np.ndarray:
        S = _stencil(fn, tt, step)
        _, db = _fd_holo(S, step)
        return bfield.pi(tt) @ db

    comm = (conn10(lambda s: conn01(frame, s), t)
            - conn01(lambda s: conn10(frame, s), t))
    e0 = frame(t)
    M = e0.conj().T @ bfield.h(t) @ comm
    return (M + M.conj().T) / 2.0


def gauss_griffiths_check(bfield: FiniteBLSField, t: complex, step: float) -> float:
    """Residual of Theta^ambient|_sub - Theta^sub - II† II on the subfield frame.

    All three terms are evaluated by central differences at t; the expected
    residual for smooth data is O(step²).  Raises RankJump when the projector
    rank varies across the 3x3 stencil around t.
    """
    _check_step(step)
    if bfield.projector is None:
        raise ValueError("gauss_griffiths_check needs a subfield projector")
    ranks = {
        (px, py): int(round(np.trace(bfield.pi(t + step * (px + 1j * py))).real))
        for px, py in product((-1, 0, 1), repeat=2)
    }
    r = ranks[(0, 0)]
    if len(set(ranks.values())) != 1:
        raise RankJump(f"projector rank varies across the stencil: {sorted(set(ranks.values()))}")
    if r == 0:
        return 0.0

    h0 = bfield.h(t)
    P0 = bfield.pi(t)
    # frame of the subfield: orthonormalized columns of the range at t,
    # transported by the projector elsewhere
    w, V = np.linalg.eigh((P0 + P0.conj().T) / 2)
    cols = V[:, np.argsort(w)[::-1][:r]]

    def frame(tt: complex) -> np.ndarray:
        return bfield.pi(tt) @ cols

    # curvature of the induced connection on the subfield
    M_sub = subfield_curvature_on_frame(bfield, t, step, cols)

    # ambient curvature restricted to the frame
    theta = chern_curvature_fd(bfield, t, step)
    e0 = frame(t)
    M_amb = e0.conj().T @ h0 @ theta @ e0
    M_amb = (M_amb + M_amb.conj().T) / 2.0

    # second fundamental form: (1 - P) nabla e_j at t
    E = _stencil(frame, t, step)
    dE, _ = _fd_holo(E, step)
    A = chern_connection_fd(bfield, t, step)
    nablaE = dE + A @ e0
    II = (np.eye(bfield.ambient_dim) - P0) @ nablaE
    M_ii = II.conj().T @ h0 @ II
    M_ii = (M_ii + M_ii.conj().T) / 2.0

    return float(np.linalg.norm(M_sub - (M_amb - M_ii)))


# ---------------------------------------------------------------------------
# Hermitian forms on tensors and Demailly positivity


@dataclass
class HermitianFormOnTensor:
    """A Hermitian quadratic form on M (x) F, with a splitting of M.

    Basis ordering: e_i (x) f_a  ->  flat index i*r + a.  split = (m1, m2) with
    m1 + m2 = m; test tensors are normalized in the identity metric.
    """

    m: int
    r: int
    phi: np.ndarray
    split: Tuple[int, int]

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=complex)
        d = self.m * self.r
        if self.phi.shape != (d, d):
            raise ValueError(f"form shape {self.phi.shape} != {(d, d)}")
        if np.linalg.norm(self.phi - self.phi.conj().T) > 1e-10 * max(
            np.linalg.norm(self.phi), 1.0
        ):
            raise ValueError("form is not Hermitian")
        if sum(self.split) != self.m:
            raise ValueError(f"split {self.split} does not sum to m={self.m}")

    def blocks(self):
        m1, m2 = self.split
        r = self.r
        J11 = self.phi[: m1 * r, : m1 * r]
        J12 = self.phi[: m1 * r, m1 * r:]
        J21 = self.phi[m1 * r:, : m1 * r]
        J22 = self.phi[m1 * r:, m1 * r:]
        return J11, J12, J21, J22


def schur_complement(form: HermitianFormOnTensor) -> np.ndarray:
    """J11 - J12 J22^{-1} J21; just J11 when the second factor is empty."""
    J11, J12, J21, J22 = form.blocks()
    if J22.shape[0] == 0:
        return J11
    eigs = np.linalg.eigvalsh((J22 + J22.conj().T) / 2)
    if eigs.min() < 1e-12:
        raise SingularBlock(f"J22 min eigenvalue {eigs.min():.3e}")
    S = J11 - J12 @ np.linalg.solve(J22, J21)
    return (S + S.conj().T) / 2.0


# cap on the exact alternation steps after the best start, in the oracle and ALS
_POLISH_STEPS = 200


def _adj(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a stack of matrices."""
    return np.conj(np.swapaxes(A, -1, -2))


def _herm(A: np.ndarray) -> np.ndarray:
    """Hermitian part of a stack of square matrices."""
    return (A + _adj(A)) / 2


def _orthonormal(F: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning each factor of a stack (R, n, k).

    One column is divided by its norm: QR gives the same column up to a phase,
    which no half-step matrix sees, and the column is zero only if the factor
    is.  Two or more columns keep QR, which stays exact on a rank-deficient
    factor.
    """
    if F.shape[-1] == 1:
        return F / np.linalg.norm(F, axis=1, keepdims=True)
    return np.linalg.qr(F)[0]


def _restricted(Sk: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Sk[i,a,j,b] on the tensors X = G F^T of each fixed F, as a form in G:
    B[R,(is),(jt)] = sum_ab conj(F[R,a,s]) Sk[i,a,j,b] F[R,b,t].

    Two pairwise contractions: a tensordot over a, then one batched matmul
    over b.  Sk.transpose(1, 0, 3, 2) gives the form in W for a fixed U.
    """
    R, n, kk = F.shape
    m = Sk.shape[0]
    T = np.tensordot(np.conj(F), Sk, axes=([1], [1]))         # (R, s, i, j, b)
    T = T.transpose(0, 2, 1, 3, 4).reshape(R, m * kk * m, n)  # (R, (isj), b)
    return (T @ F).reshape(R, m * kk, m * kk)


def _half_gap(a, d, b):
    """delta = (a - d)/2 and h = hypot(delta, |b|) for the Hermitian matrices
    [[a, b], [conj b, d]], whose eigenvalues are (a + d)/2 -+ h."""
    delta = (a - d) / 2
    return delta, np.hypot(delta, np.abs(b))


def _lowest_eigenvector(B: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the smallest eigenvalue of the Hermitian parts of a
    stack (R, n, n).

    n = 2 is closed form: with g = h + |delta| (see _half_gap), (-b, g) for
    delta > 0 and (g, -conj b) otherwise, so no component cancels; a scalar
    block (h = 0) gives e0, as eigh does.  Larger blocks take eigh.
    """
    if B.shape[-1] != 2:
        return np.linalg.eigh(_herm(B))[1][:, :, 0]
    a, d = B[:, 0, 0].real, B[:, 1, 1].real
    b = (B[:, 0, 1] + np.conj(B[:, 1, 0])) / 2
    delta, h = _half_gap(a, d, b)
    up = delta > 0
    g = np.where(h > 0, h + np.abs(delta), 1.0)
    v = np.empty((len(B), 2), dtype=complex)
    v[:, 0] = np.where(up, -b, g)
    v[:, 1] = np.where(up, g, -np.conj(b))
    v /= np.hypot(np.abs(b), g)[:, None]
    return v


def _als_step(Sk: np.ndarray, U: np.ndarray, W: np.ndarray):
    """One alternation on stacked factors X = U W^T: best U for W, then best W for U.

    U is (R, m1, k) and W (R, r, k): R independent problems.  Each half-step
    orthonormalizes the fixed factor (same tensors U W^T, whose norm is then
    the free factor's), restricts Sk to it by two pairwise contractions, and
    keeps the lowest eigenvector of the restricted form: in closed form when
    it is 2x2, by eigh otherwise.
    """
    R, m1, kk = U.shape
    r = W.shape[1]
    # fix W, minimize over U: q = U*_{is} B[(is),(jt)] U_{jt}
    W = _orthonormal(W)
    U = _lowest_eigenvector(_restricted(Sk, W)).reshape(R, m1, kk)
    # fix U, minimize over W: q = W*_{as} C[(as),(bt)] W_{bt}
    U = _orthonormal(U)
    W = _lowest_eigenvector(_restricted(Sk.transpose(1, 0, 3, 2), U)).reshape(R, r, kk)
    return U, W


def _als_values(S: np.ndarray, U: np.ndarray, W: np.ndarray):
    """Rayleigh quotients of the stacked tensors X = U W^T, and the unit X."""
    X = U @ np.swapaxes(W, -1, -2)
    X = X / np.linalg.norm(X, axis=(1, 2), keepdims=True)
    x = X.reshape(X.shape[0], -1)
    q = np.einsum("Ri,Ri->R", np.conj(x), x @ S.T).real
    return q, X


def _als_min(S: np.ndarray, m1: int, r: int, k: int, restarts: int,
             iters: int, rng) -> Tuple[float, np.ndarray]:
    """Minimize v† S v over unit tensors of rank <= k by alternating eigenproblems.

    v = vec(X) with X = U W^T of shape (m1, r), rank(X) <= k.  All restarts
    alternate together as one stack; the best one is then alternated alone
    until a step no longer lowers the value, for at most as many steps as the
    oracle's polish.
    """
    kk = min(k, m1, r)
    if kk >= min(m1, r):
        # every tensor has rank <= min(m1, r): plain eigenproblem
        w, V = np.linalg.eigh(S)
        return float(w[0]), V[:, 0].reshape(m1, r)
    Sk = S.reshape(m1, r, m1, r)
    # X = U W^T with X[i,a] = sum_s U[i,s] W[a,s]; rank(X) <= kk
    starts = [(rng.standard_normal((m1, kk)) + 1j * rng.standard_normal((m1, kk)),
               rng.standard_normal((r, kk)) + 1j * rng.standard_normal((r, kk)))
              for _ in range(restarts)]
    U, W = (np.stack(f) for f in zip(*starts))
    for _ in range(iters):
        U, W = _als_step(Sk, U, W)
    q, X = _als_values(S, U, W)
    i = int(np.argmin(q))
    best, best_X = float(q[i]), X[i]
    U, W = U[i:i + 1], W[i:i + 1]
    for _ in range(_POLISH_STEPS):
        U, W = _als_step(Sk, U, W)
        q, X = _als_values(S, U, W)
        if not q[0] < best:
            break  # exact alternation never raises the value: rounding floor
        best, best_X = float(q[0]), X[0]
    return best, best_X


# theta rows of the CP^1 sweep evaluated together: bounds the sweep's memory
_SWEEP_ROWS = 16


def _smallest_eigenvalue(H) -> np.ndarray:
    """Smallest eigenvalue of Hermitian 2x2 or 3x3 matrices given entrywise.

    H[a][b] is an array holding entry (a, b) of every matrix; only the upper
    triangle is read, and the real part of the diagonal.  r = 2 uses the
    quadratic formula and r = 3 the trigonometric formula for the roots of the
    characteristic polynomial of H - q·I, q = tr H / 3 (a scalar matrix gives
    q).  Both are within a few eps of the spectral radius, except where the
    two smallest eigenvalues of a 3x3 matrix (nearly) coincide: there arccos
    is evaluated next to 1 and the result loses about sqrt(eps), staying
    within 1e-7 of the spectral radius.
    """
    if len(H) == 2:
        a, d = H[0][0].real, H[1][1].real
        return (a + d) / 2 - _half_gap(a, d, H[0][1])[1]
    q = (H[0][0].real + H[1][1].real + H[2][2].real) / 3
    x, y, z = H[0][0].real - q, H[1][1].real - q, H[2][2].real - q
    b, c, e = H[0][1], H[0][2], H[1][2]
    bb, cc, ee = (np.abs(v) ** 2 for v in (b, c, e))
    p = np.sqrt((x * x + y * y + z * z + 2 * (bb + cc + ee)) / 6)
    det = x * y * z + 2 * (b * e * np.conj(c)).real - x * ee - y * cc - z * bb
    p3 = 2 * p ** 3
    half = np.divide(det, p3, out=np.zeros_like(det), where=p3 > 0)
    angle = np.arccos(np.clip(half, -1.0, 1.0)) / 3
    return q + 2 * p * np.cos(angle + 2 * np.pi / 3)


def _cp1_sweep(Sk: np.ndarray, grid: int) -> Tuple[float, np.ndarray]:
    """Smallest rank-1 value of Sk (S as (2, r, 2, r), r <= 3) on a CP^1 grid.

    xi = [cos theta, sin theta e^{i phi}] runs over a (grid x 2·grid) grid; on
    each block of _SWEEP_ROWS theta rows the Hermitian part of
    A(xi) = sum_ij conj(xi_i) S_ij xi_j is built entrywise and its smallest
    eigenvalue taken in closed form.  Returns (value, xi) at the first minimum
    in theta-major order: argmin within a block, a strict < across blocks.
    """
    r = Sk.shape[1]
    P, Q = _herm(Sk[0, :, 0, :]), _herm(Sk[1, :, 1, :])
    U = (Sk[0, :, 1, :] + _adj(Sk[1, :, 0, :])) / 2
    thetas = np.linspace(0, np.pi / 2, grid)
    phase = np.exp(1j * np.linspace(0, 2 * np.pi, 2 * grid, endpoint=False))
    best, best_xi = np.inf, None
    for start in range(0, grid, _SWEEP_ROWS):
        rows = thetas[start:start + _SWEEP_ROWS, None]
        c, s = np.cos(rows), np.sin(rows)
        c2, s2, cs = c * c, s * s, c * s
        # H_ab = c² P_ab + s² Q_ab + cs (e^{i phi} U_ab + e^{-i phi} conj(U_ba))
        H = [[None] * r for _ in range(r)]
        for a in range(r):
            for b in range(a, r):
                H[a][b] = (c2 * P[a, b] + s2 * Q[a, b]
                           + cs * (phase * U[a, b] + np.conj(phase * U[b, a])))
        lam = _smallest_eigenvalue(H)
        i, j = np.unravel_index(np.argmin(lam), lam.shape)
        if lam[i, j] < best:
            th = thetas[start + i]
            best = lam[i, j]
            best_xi = np.array([np.cos(th), np.sin(th) * phase[j]])
    return best, best_xi


def rank_k_min_oracle(S: np.ndarray, m1: int, r: int, k: int,
                      grid: int = 181) -> float:
    """Brute-force minimum of v† S v over unit rank-<=k tensors (small dims only).

    For k >= min(m1, r) this is the exact smallest eigenvalue.  For k = 1 with
    m1 = 2 and r <= 3 the minimum of _cp1_sweep is polished by exact
    alternation from its xi until xi repeats bit for bit: a step is a function
    of xi alone, so this is bitwise the value of all _POLISH_STEPS steps.
    """
    kk = min(k, m1, r)
    if kk >= min(m1, r):
        return float(np.linalg.eigvalsh(S)[0])
    if kk != 1 or m1 != 2 or r > 3:
        raise UnsupportedDimension(
            "oracle supports k >= min(m1,r) or k=1 with m1 <= 2 and r <= 3; "
            f"got m1={m1}, r={r}, k={k}")
    Sk = S.reshape(m1, r, m1, r)
    best, xi = _cp1_sweep(Sk, grid)
    # polish with exact alternation from the best grid point, up to a cycle
    seen = {xi.tobytes()}
    for _ in range(_POLISH_STEPS):
        A = np.einsum("i,iajb,j->ab", np.conj(xi), Sk, xi)
        eta = np.linalg.eigh((A + A.conj().T) / 2)[1][:, 0]
        B = np.einsum("a,iajb,b->ij", np.conj(eta), Sk, eta)
        w2, V2 = np.linalg.eigh((B + B.conj().T) / 2)
        xi = V2[:, 0]
        best = min(best, float(w2[0]))
        if xi.tobytes() in seen:
            break
        seen.add(xi.tobytes())
    return best


def schur_complement_demailly(form: HermitianFormOnTensor, k: int,
                              restarts: int = 50, iters: int = 40,
                              seed: int = 0
                              ) -> Tuple[bool, Optional[np.ndarray], float]:
    """k-positivity of the Schur complement on M1 (x) F.

    Minimizes the quadratic form over unit tensors of rank <= k (alternating
    least squares with random restarts) and returns (is_k_positive, witness,
    minimum): witness is a violating tensor (as an m1 x r matrix) when found,
    and minimum is the lowest value found (+inf when M1 is zero).  The form
    is k-positive when the minimum is at least -1e-9 max(||S||, 1).
    """
    S = schur_complement(form)
    m1 = form.split[0]
    r = form.r
    if m1 == 0:
        return True, None, float("inf")
    # the Hermitian part: an un-split form's J11 is returned as given
    Sh = (S + S.conj().T) / 2.0
    rng = np.random.default_rng(seed)
    val, X = _als_min(Sh, m1, r, k, restarts=restarts, iters=iters, rng=rng)
    scale = max(np.linalg.norm(Sh), 1.0)
    if val >= -1e-9 * scale:
        return True, None, val
    return False, X, val


# ---------------------------------------------------------------------------
# seeded battery against the oracle


def random_demailly_instance(seed: int):
    """A seeded random Hermitian-form instance with oracle-checkable dims.

    Returns (form, k, S) with S the Schur complement; dims satisfy m·r <= 9 and
    the rank-k oracle applies (k = 1 with m1 <= 2, or k >= min(m1, r)).
    """
    rng = np.random.default_rng(seed)
    while True:
        m = int(rng.integers(2, 4))
        r = int(rng.integers(1, 9 // m + 1))
        m1 = int(rng.integers(1, m))
        m2 = m - m1
        dim = m * r
        A = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        phi = (A + A.conj().T) / 2.0
        if rng.random() < 0.5:
            phi = A.conj().T @ A + 0.2 * np.eye(dim)
        else:
            phi = phi + (0.5 + float(np.abs(np.linalg.eigvalsh(phi)).max())
                         * float(rng.random())) * np.eye(dim)
        form = HermitianFormOnTensor(m=m, r=r, phi=phi, split=(m1, m2))
        try:
            S = schur_complement(form)
        except SingularBlock:
            continue
        if m1 <= 2:
            k = int(rng.integers(1, min(m1, r) + 1))
        else:
            k = min(m1, r)
        return form, k, S


def demailly_battery(seed: int, instances: int) -> dict:
    """ALS k-positivity verdicts of random_demailly_instance(seed * 100003 + i),
    i < instances, against rank_k_min_oracle, and where they fail monotonicity."""
    disagreements = []
    monotonicity_violations = []
    rows = []
    for i in range(instances):
        seed_i = seed * 100003 + i
        form, k, S = random_demailly_instance(seed_i)
        m1 = form.split[0]
        verdicts = {}
        for kk in range(1, k + 1):
            pos, _, val = schur_complement_demailly(form, kk, seed=seed_i)
            oracle = rank_k_min_oracle(S, m1, form.r, kk)
            agree = bool(abs(val - oracle) <= 1e-6 * max(1.0, abs(oracle))
                         and pos == (oracle > -1e-9))
            verdicts[kk] = pos
            if not agree:
                disagreements.append({"seed": seed_i, "k": kk,
                                      "als": float(val), "oracle": float(oracle)})
            rows.append({"seed": seed_i, "m": form.m, "r": form.r,
                         "split": list(form.split), "k": kk,
                         "als_min": float(val), "oracle_min": float(oracle),
                         "k_positive": bool(pos), "agree": agree})
        for kk in range(2, k + 1):
            if verdicts[kk] and not verdicts[kk - 1]:
                monotonicity_violations.append({"seed": seed_i, "k": kk})
    return {"instances_checked": rows, "disagreements": disagreements,
            "monotonicity_violations": monotonicity_violations}
