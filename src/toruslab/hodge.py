"""Laplacians, harmonic spaces, Green operators, and Bergman projections.

Spectral backend: the Laplacian is mode-diagonal, so the full eigendecomposition
is a vectorized batch of tiny Hermitian problems and the Green operator is again
a mode-diagonal OperatorMatrix (exact arithmetic up to rounding).

Grid backend: the Laplacian is a sparse matrix; the numerical kernel is found by
shift-inverted Lanczos and the Green operator solves a bordered (kernel-deflated)
sparse system via a cached LU factorization.

Both solvers share one interface: green(u), project(u), eigenvalues(),
lambda1() and harmonic_sections().
"""

from __future__ import annotations

from functools import cached_property
from typing import List

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import EigenFailure, EmptySpectrum, NotClosed, NotCoexact
from .forms import (
    FormSection,
    FormSpace,
    OperatorMatrix,
    Spectral,
    adjoint,
    assemble_dbar,
    assemble_nabla10,
    gram,
    zero_operator,
    _as_sparse,
)


def laplacian(space: FormSpace, kind: str) -> OperatorMatrix:
    """kind "dbar": dbar dbar* + dbar* dbar;  kind "nabla": same with nabla^{1,0}."""
    p, q = space.bidegree
    n = space.n
    if kind == "dbar":
        terms = []
        if q >= 1:
            d_in = assemble_dbar(space.sibling((p, q - 1)))
            terms.append(d_in @ adjoint(d_in))
        if q < n:
            d_out = assemble_dbar(space)
            terms.append(adjoint(d_out) @ d_out)
    else:
        terms = []
        if p >= 1:
            d_in = assemble_nabla10(space.sibling((p - 1, q)))
            terms.append(d_in @ adjoint(d_in))
        if p < n:
            d_out = assemble_nabla10(space)
            terms.append(adjoint(d_out) @ d_out)
    if not terms:
        return zero_operator(space, space)
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


class _SpectralSolver:
    """Eigendata of a mode-diagonal G-self-adjoint PSD operator."""

    def __init__(self, space: FormSpace, box: OperatorMatrix, rank_tol: float,
                 expected_kernel: int):
        g = gram(space)
        R = np.linalg.cholesky(g.P).conj().T      # P = R^H R
        Rinv = np.linalg.inv(R)
        nc = space.ncomp
        nm = int(np.prod(space.field_shape))
        blocks = np.broadcast_to(box.data, (nc, nc) + space.field_shape)
        B = np.moveaxis(blocks.reshape(nc, nc, nm), 2, 0)      # (nm, nc, nc)
        Bt = R[None] @ B @ Rinv[None]
        Bt = (Bt + np.conj(np.swapaxes(Bt, 1, 2))) / 2.0
        lam, U = np.linalg.eigh(Bt)
        self.space, self.R, self.Rinv = space, R, Rinv
        self.lam, self.U = lam, U                              # (nm, nc), (nm, nc, nc)
        self.lam_max = float(lam.max()) if lam.size else 0.0
        self.cut = rank_tol * max(self.lam_max, 1.0)
        self.null_mask = lam < self.cut

    def _assemble(self, diag) -> OperatorMatrix:
        """Mode operator R^{-1} U diag U^H R for a (nm, nc) spectral multiplier."""
        nc = self.space.ncomp
        M = self.U @ (diag[..., None] * np.conj(np.swapaxes(self.U, 1, 2)))
        M = self.Rinv[None] @ M @ self.R[None]
        data = np.moveaxis(M, 0, 2).reshape((nc, nc) + self.space.field_shape)
        return OperatorMatrix(self.space, self.space, "mode", data)

    @cached_property
    def _green_op(self) -> OperatorMatrix:
        inv = np.where(self.null_mask, 0.0, 1.0 / np.where(self.null_mask, 1.0, self.lam))
        return self._assemble(inv)

    @cached_property
    def _projector(self) -> OperatorMatrix:
        return self._assemble(self.null_mask.astype(float))

    def green(self, u: FormSection) -> FormSection:
        return self._green_op.apply(u)

    def project(self, u: FormSection) -> FormSection:
        return self._projector.apply(u)

    def harmonic_sections(self) -> List[FormSection]:
        out = []
        idx = np.argwhere(self.null_mask)
        for mode_flat, j in idx:
            vec = self.Rinv @ self.U[mode_flat, :, j]
            coeffs = np.zeros((self.space.ncomp,) + self.space.field_shape, dtype=complex)
            mode_idx = np.unravel_index(mode_flat, self.space.field_shape)
            for c in range(self.space.ncomp):
                coeffs[(c,) + mode_idx] = vec[c]
            out.append(FormSection(self.space, coeffs))
        return out

    def eigenvalues(self) -> np.ndarray:
        return np.sort(self.lam.ravel())

    def lambda1(self) -> float:
        pos = self.lam[~self.null_mask]
        if pos.size == 0:
            raise EmptySpectrum("no eigenvalue above the kernel threshold")
        return float(pos.min())


class _GridSolver:
    """Kernel + deflated solver for a sparse G-self-adjoint PSD operator.

    A square grid discretization of an operator with nonzero index carries exact
    spurious zero modes on the adjoint side, plus small near-Nyquist resonances
    of the difference stencils.  Both kinds are pure grid artifacts concentrated
    in the top frequency shell (in the Gaussian gauge), so eigenpairs are
    classified by their high-frequency energy fraction: aliased modes stay in
    the deflation space of the Green solver but are excluded from the reported
    harmonic basis and from the spectral gap.
    """

    def __init__(self, space: FormSpace, box: OperatorMatrix, rank_tol: float,
                 expected_kernel: int):
        g = gram(space)
        w = np.tile(g.w.ravel(), space.ncomp)
        self.wsqrt = np.sqrt(w)
        calc = space.calculus
        self._gauge = np.exp(
            1j * np.pi * calc.d * calc.t * calc.y**2
            + 2j * np.pi * calc.d * calc.x * calc.y
        )
        k1 = np.fft.fftfreq(calc.N, 1.0 / calc.N)
        KX, KY = np.meshgrid(k1, k1, indexing="ij")
        self._hishell = np.maximum(np.abs(KX), np.abs(KY)) >= calc.N / 3.0
        M = _as_sparse(box)
        Ws = sp.diags(self.wsqrt)
        Wsi = sp.diags(1.0 / self.wsqrt)
        Mt = (Ws @ M @ Wsi).tocsc()
        Mt = (Mt + Mt.conj().T) * 0.5
        self.space, self.Mt = space, Mt
        # spectral scale via power iteration
        rng = np.random.default_rng(1)
        v = rng.standard_normal(Mt.shape[0]) + 1j * rng.standard_normal(Mt.shape[0])
        v /= np.linalg.norm(v)
        # a fixed ARPACK start keeps the eigenbasis, and so every grid report,
        # the same from run to run
        v0 = v.copy()
        for _ in range(30):
            v2 = Mt @ v
            lam_max = np.linalg.norm(v2)
            if lam_max == 0:
                break
            v = v2 / lam_max
        self.lam_max = float(lam_max.real) if Mt.nnz else 0.0
        self.cut = rank_tol * max(self.lam_max, 1.0)
        k = min(max(expected_kernel + 20, 24), Mt.shape[0] - 2)
        try:
            lam, U = spla.eigsh(Mt, k=k, sigma=-0.05 * max(self.lam_max, 1.0), which="LM",
                               v0=v0)
        except Exception as exc:  # pragma: no cover
            raise EigenFailure(str(exc)) from exc
        order = np.argsort(lam)
        self.lam_small = lam[order]
        self.U_small = U[:, order]
        self.aliased = np.array([self._is_aliased(self.U_small[:, j]) for j in range(k)])
        nker = int(np.sum(self.lam_small < self.cut))
        # orthonormalize both blocks (the full kernel drives deflation; only the
        # non-aliased part is reported as harmonic); either may have no columns
        kernel = self.U_small[:, :nker]
        self.kernel, _ = np.linalg.qr(kernel)
        self.kernel_physical, _ = np.linalg.qr(kernel[:, ~self.aliased[:nker]])
        # deflated solve: bordered system [Mt, K; K^H, 0]
        K = sp.csc_matrix(self.kernel)
        self.lu = spla.splu(sp.bmat([[Mt, K], [K.conj().T, None]], format="csc"))

    def _to_tilde(self, u: FormSection) -> np.ndarray:
        return self.wsqrt * u.coeffs.ravel()

    def _from_tilde(self, vec) -> FormSection:
        arr = (vec / self.wsqrt).reshape((self.space.ncomp,) + self.space.field_shape)
        return FormSection(self.space, arr)

    def green(self, u: FormSection) -> FormSection:
        K = self.kernel
        r = self._to_tilde(u)
        r = r - K @ (K.conj().T @ r)
        sol = self.lu.solve(np.concatenate([r, np.zeros(K.shape[1], dtype=complex)]))[: r.size]
        return self._from_tilde(sol - K @ (K.conj().T @ sol))

    def project(self, u: FormSection) -> FormSection:
        r = self._to_tilde(u)
        return self._from_tilde(self.kernel @ (self.kernel.conj().T @ r))

    def _is_aliased(self, tilde_vec: np.ndarray) -> bool:
        N = self._gauge.shape[0]
        v = (tilde_vec / self.wsqrt).reshape(N, N)
        F = np.fft.fft2(self._gauge * v)
        tot = np.sum(np.abs(F) ** 2)
        if tot == 0:
            return True
        return float(np.sum(np.abs(F[self._hishell]) ** 2) / tot) > 0.5

    def harmonic_sections(self) -> List[FormSection]:
        return [
            self._from_tilde(self.kernel_physical[:, j])
            for j in range(self.kernel_physical.shape[1])
        ]

    def eigenvalues(self) -> np.ndarray:
        return np.sort(self.lam_small[~self.aliased])

    def lambda1(self) -> float:
        lam = self.lam_small[~self.aliased]
        pos = lam[lam >= self.cut]
        if pos.size == 0:
            raise EmptySpectrum("no non-aliased eigenvalue above the kernel threshold")
        return float(pos.min())


class HodgePackage:
    """Hodge data of one FormSpace: box, harmonic basis, Green operator, projector."""

    def __init__(self, space: FormSpace, rank_tol: float = 1e-7,
                 expected_kernel: int = 4):
        self.space = space
        self.rank_tol = rank_tol
        self.laplacian = laplacian(space, "dbar")
        solver = _SpectralSolver if isinstance(space.disc, Spectral) else _GridSolver
        self._solver = solver(space, self.laplacian, rank_tol, expected_kernel)
        self.harmonic_basis = self._solver.harmonic_sections()

    def green(self, u: FormSection) -> FormSection:
        return self._solver.green(u)

    def harmonic_project(self, u: FormSection) -> FormSection:
        return self._solver.project(u)

    @property
    def harmonic_dim(self) -> int:
        return len(self.harmonic_basis)

    def eigenvalues(self) -> np.ndarray:
        return self._solver.eigenvalues()


def build_hodge(space: FormSpace, rank_tol: float = 1e-7,
                expected_kernel: int = 4) -> HodgePackage:
    return HodgePackage(space, rank_tol=rank_tol, expected_kernel=expected_kernel)


def minimal_solution(pkg: HodgePackage, alpha: FormSection,
                     tol: float = 1e-8) -> FormSection:
    """Minimal-norm u0 with dbar u0 = alpha: u0 = dbar* G alpha.

    Raises NotCoexact/NotClosed when alpha has a harmonic part or is not closed.
    """
    p, q = pkg.space.bidegree
    na = alpha.norm()
    if na == 0.0:
        return pkg.space.sibling((p, q - 1)).zeros()
    if pkg.harmonic_project(alpha).norm() > tol * na:
        raise NotCoexact("alpha has a nonzero harmonic part")
    if q < pkg.space.n:
        dn = assemble_dbar(pkg.space).apply(alpha).norm()
        scale = max(na, 1.0)
        if dn > 1e-6 * scale:
            raise NotClosed(f"dbar alpha residual {dn:.3e}")
    d_in = assemble_dbar(pkg.space.sibling((p, q - 1)))
    return adjoint(d_in).apply(pkg.green(alpha))


def bergman_project(pkg_up: HodgePackage, f: FormSection) -> FormSection:
    """P_t f = f - dbar* G dbar f for an (n,0)-section f.

    pkg_up is the Hodge package on the (n, 1) space (where G acts).
    """
    d = assemble_dbar(f.space)
    dstar = adjoint(d)
    return f - dstar.apply(pkg_up.green(d.apply(f)))


def neumann_project(pkg_up: HodgePackage, f: FormSection) -> FormSection:
    """Id - P_t: the part of f orthogonal to holomorphic sections."""
    d = assemble_dbar(f.space)
    return adjoint(d).apply(pkg_up.green(d.apply(f)))


def smallest_positive_eigenvalue(pkg: HodgePackage) -> float:
    return pkg._solver.lambda1()
