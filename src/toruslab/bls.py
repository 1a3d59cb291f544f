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

    def validate(self, t: complex, tol: float = 1e-12) -> None:
        h = self.h(t)
        if np.linalg.norm(h - h.conj().T) > tol * max(np.linalg.norm(h), 1.0):
            raise ValueError("metric is not Hermitian")
        if np.linalg.eigvalsh((h + h.conj().T) / 2).min() <= 1e-12:
            raise ValueError("metric is not positive definite")
        P = self.pi(t)
        if P is not None:
            scale = max(np.linalg.norm(P), 1.0)
            if np.linalg.norm(P @ P - P) > tol * scale:
                raise ValueError("projector is not idempotent")
            hp = h @ P
            if np.linalg.norm(hp - hp.conj().T) > tol * max(np.linalg.norm(hp), 1.0):
                raise ValueError("projector is not self-adjoint for the metric")


def _check_step(step: float) -> None:
    # second-order FD noise ~ eps/step^2 must stay below the step^2 accuracy
    if step <= 0 or step**4 < 16 * np.finfo(float).eps:
        raise StepTooSmall(f"step {step:g} is below the FD cancellation floor")


def _fd_holo(values: dict, step: float):
    """(d/dt, d/dtbar) from a 3x3 stencil dict {(px,py): matrix}."""
    dX = (values[(1, 0)] - values[(-1, 0)]) / (2 * step)
    dY = (values[(0, 1)] - values[(0, -1)]) / (2 * step)
    return (dX - 1j * dY) / 2.0, (dX + 1j * dY) / 2.0


def _stencil(fn, t: complex, step: float) -> dict:
    out = {}
    for px in (-1, 0, 1):
        for py in (-1, 0, 1):
            out[(px, py)] = fn(t + step * (px + 1j * py))
    return out


def chern_connection_fd(bfield: FiniteBLSField, t: complex, step: float) -> np.ndarray:
    """Connection coefficient A = h^{-1} (d h / dt) by central differences.

    The Chern covariant derivative of a section f is df/dt + A f.
    """
    _check_step(step)
    H = _stencil(bfield.h, t, step)
    dH, _ = _fd_holo(H, step)
    return np.linalg.solve(H[(0, 0)], dH)


def chern_curvature_fd(bfield: FiniteBLSField, t: complex, step: float,
                       herm_tol: Optional[float] = None) -> np.ndarray:
    """Curvature coefficient Theta = -dbar(h^{-1} d h), by a nested 3x3 stencil.

    The sign makes a metric h = e^{-phi} Id carry Theta = (d dbar phi) Id, so a
    plurisubharmonic weight has nonnegative curvature.  Verifies that h·Theta
    is Hermitian (metric compatibility of the Chern connection) within
    herm_tol, default 10·step².
    """
    _check_step(step)
    H = _stencil(bfield.h, t, step)

    def conn(tt: complex) -> np.ndarray:
        sub = _stencil(bfield.h, tt, step)
        d, _ = _fd_holo(sub, step)
        return np.linalg.solve(sub[(0, 0)], d)

    A = _stencil(conn, t, step)
    _, dbarA = _fd_holo(A, step)
    theta = -dbarA
    h0 = H[(0, 0)]
    lowered = h0 @ theta
    defect = np.linalg.norm(lowered - lowered.conj().T)
    tol = (10 * step**2 if herm_tol is None else herm_tol) * max(np.linalg.norm(h0), 1.0)
    if defect > tol:
        raise StepTooSmall(
            f"h·Theta Hermiticity defect {defect:.3e} exceeds {tol:.3e}"
        )
    return theta


def curvature_form_on_frame(bfield: FiniteBLSField, t: complex, step: float,
                            frame: Callable[[complex], np.ndarray]) -> np.ndarray:
    """Matrix M with M[i,j] = Theta(e_j, e_i) for the induced metric on a frame.

    frame(t) returns the N x r matrix of frame columns; the induced Gram is
    G(t) = frame† h frame and M = -(d dbar G - dbar G G^{-1} d G) at t.
    """
    _check_step(step)

    def gram_at(tt: complex) -> np.ndarray:
        e = frame(tt)
        return e.conj().T @ bfield.h(tt) @ e

    G = _stencil(gram_at, t, step)
    G0 = G[(0, 0)]
    dG, dbG = _fd_holo(G, step)
    h = step
    dXX = (G[(1, 0)] - 2 * G0 + G[(-1, 0)]) / h**2
    dYY = (G[(0, 1)] - 2 * G0 + G[(0, -1)]) / h**2
    ddbar = (dXX + dYY) / 4.0
    M = -(ddbar - dbG @ np.linalg.solve(G0, dG))
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
    rank varies across the stencil.
    """
    _check_step(step)
    if bfield.projector is None:
        raise ValueError("gauss_griffiths_check needs a subfield projector")
    ranks = {
        pt: int(round(np.trace(P).real))
        for pt, P in _stencil(bfield.pi, t, step).items()
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
    m1 + m2 = m; fiber_metric is the positive metric on F used to normalize
    test tensors (identity by default).
    """

    m: int
    r: int
    phi: np.ndarray
    split: Tuple[int, int]
    fiber_metric: Optional[np.ndarray] = None

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
        if self.fiber_metric is None:
            self.fiber_metric = np.eye(self.r, dtype=complex)
        else:
            self.fiber_metric = np.asarray(self.fiber_metric, dtype=complex)
            if np.linalg.eigvalsh(self.fiber_metric).min() <= 0:
                raise ValueError("fiber metric is not positive definite")

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


# exact alternation steps after the best start, in the oracle and in ALS
_POLISH_STEPS = 200


def _adj(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a stack of matrices."""
    return np.conj(np.swapaxes(A, -1, -2))


def _herm(A: np.ndarray) -> np.ndarray:
    """Hermitian part of a stack of square matrices."""
    return (A + _adj(A)) / 2


def _min_gen_eigvecs(B: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Smallest eigenvectors of B v = lambda N v for a stack of pencils.

    N is positive semidefinite; each pencil is regularized by a jitter relative
    to the mean diagonal of N, reduced by the Cholesky factor L of N + jitter·I
    to the standard problem L^{-1} B L^{-H} y = lambda y, and solved with
    v = L^{-H} y, so v† (N + jitter·I) v = 1.
    """
    n = N.shape[-1]
    jitter = 1e-12 * np.maximum(np.trace(N, axis1=-2, axis2=-1).real / max(n, 1), 1.0)
    Li = np.linalg.inv(np.linalg.cholesky(N + jitter[:, None, None] * np.eye(n)))
    _, Y = np.linalg.eigh(_herm(Li @ B @ _adj(Li)))
    return (_adj(Li) @ Y[:, :, :1])[:, :, 0]


def _als_step(Sk: np.ndarray, U: np.ndarray, W: np.ndarray):
    """One alternation on stacked factors X = U W^T: best U for W, then best W for U.

    U has shape (R, m1, k) and W (R, r, k); the R stacked problems are independent.
    """
    R, m1, kk = U.shape
    r = W.shape[1]
    # fix W, minimize over U: q = U*_{is} B[(is),(jt)] U_{jt}
    B = np.einsum("iajb,Ras,Rbt->Risjt", Sk, np.conj(W), W).reshape(R, m1 * kk, m1 * kk)
    N = np.einsum("ij,Rst->Risjt", np.eye(m1), _adj(W) @ W).reshape(R, m1 * kk, m1 * kk)
    U = _min_gen_eigvecs(_herm(B), N).reshape(R, m1, kk)
    # fix U, minimize over W: q = W*_{as} C[(as),(bt)] W_{bt}
    C = np.einsum("iajb,Ris,Rjt->Rasbt", Sk, np.conj(U), U).reshape(R, r * kk, r * kk)
    N2 = np.einsum("ab,Rst->Rasbt", np.eye(r), _adj(U) @ U).reshape(R, r * kk, r * kk)
    W = _min_gen_eigvecs(_herm(C), N2).reshape(R, r, kk)
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

    v = vec(X) with X = U V† of shape (m1, r), rank(X) <= k.  All restarts
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


def rank_k_min_oracle(S: np.ndarray, m1: int, r: int, k: int,
                      grid: int = 181) -> float:
    """Brute-force minimum of v† S v over unit rank-<=k tensors (small dims only).

    For k >= min(m1, r) this is the exact smallest eigenvalue.  For k = 1 with
    m1 <= 2 the M-factor is swept over a fine (theta, phi) grid of CP^1 with the
    exact F-side eigenvalue at each point, then polished by exact alternation.
    The sweep runs one theta row at a time as a batch; the first strict minimum
    in theta-major, phi-minor order starts the polish.
    """
    kk = min(k, m1, r)
    if kk >= min(m1, r):
        return float(np.linalg.eigvalsh(S)[0])
    if kk == 1 and m1 <= 2:
        Sk = S.reshape(m1, r, m1, r)
        best = np.inf
        best_xi = None
        if m1 == 1:
            return float(np.linalg.eigvalsh(S)[0])
        thetas = np.linspace(0, np.pi / 2, grid)
        phis = np.linspace(0, 2 * np.pi, 2 * grid, endpoint=False)
        phase = np.exp(1j * phis)
        for th in thetas:
            xis = np.stack([np.full(phis.size, np.cos(th), dtype=complex),
                            np.sin(th) * phase], axis=1)
            A = np.einsum("pi,iajb,pj->pab", np.conj(xis), Sk, xis)
            lam = np.linalg.eigvalsh(_herm(A))[:, 0]
            j = int(np.argmin(lam))
            if lam[j] < best:
                best = lam[j]
                best_xi = xis[j]
        # polish with exact alternation from the best grid point
        xi = best_xi
        for _ in range(_POLISH_STEPS):
            A = np.einsum("i,iajb,j->ab", np.conj(xi), Sk, xi)
            w, V = np.linalg.eigh((A + A.conj().T) / 2)
            eta = V[:, 0]
            B = np.einsum("a,iajb,b->ij", np.conj(eta), Sk, eta)
            w2, V2 = np.linalg.eigh((B + B.conj().T) / 2)
            xi = V2[:, 0]
            best = min(best, float(w2[0]))
        return best
    raise UnsupportedDimension(
        f"oracle supports k >= min(m1,r) or k=1 with m1 <= 2; got m1={m1}, r={r}, k={k}"
    )


def schur_complement_demailly(form: HermitianFormOnTensor, k: int,
                              restarts: int = 50, iters: int = 40,
                              tol: float = 1e-9,
                              seed: int = 0) -> Tuple[bool, Optional[np.ndarray]]:
    """k-positivity of the Schur complement on M1 (x) F.

    Minimizes the quadratic form over unit tensors of rank <= k (alternating
    least squares with random restarts) and returns (is_k_positive, witness),
    where witness is a violating tensor (as an m1 x r matrix) when found.
    """
    S = schur_complement(form)
    m1 = form.split[0]
    r = form.r
    if m1 == 0:
        return True, None
    # normalize tensors in the metric Id (x) fiber_metric
    W = np.kron(np.eye(m1), form.fiber_metric)
    L = np.linalg.cholesky(W)
    Sn = np.linalg.solve(L, np.linalg.solve(L, S).conj().T).conj().T
    Sn = (Sn + Sn.conj().T) / 2.0
    rng = np.random.default_rng(seed)
    val, X = _als_min(Sn, m1, r, k, restarts=restarts, iters=iters, rng=rng)
    scale = max(np.linalg.norm(Sn), 1.0)
    if val >= -tol * scale:
        return True, None
    # map the witness back to the original coordinates
    wit = np.linalg.solve(L.conj().T, X.ravel()).reshape(m1, r)
    return False, wit
