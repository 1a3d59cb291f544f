"""Laplacians, harmonic spaces, Green operators, and Bergman projections.

Spectral backend (flat bundles): the Laplacian is lambda(kappa) Id on each
shifted mode kappa = k + chi, so the solver reads lambda off the box diagonal
and needs no eigensolve.  Its kernel follows one rule, BundleData.is_trivial:
the whole kappa = 0 mode when chi is integral, nothing otherwise, with no
eigenvalue cut; Green and the projector are multiplications mode by mode.

Grid backend (n = 1): the Laplacian is Dt^H Dt or Dt Dt^H for the weighted
sparse dbar Dt, so Dt is factored, not the Laplacian.  In the Gaussian gauge
and the Fourier basis along y, Dt is diagonal scalings around a matrix with
order + 1 nonzeros a row, banded along its Bloch chains; its sparse LU, kept
by the fibre calculus, serves all four bidegrees: one block inverse iteration
through it finds the near-null blocks of both Dt and Dt^H, and a Green apply
is two solves with it between kernel deflations.  The low spectrum is computed
only on demand.

Both solvers share one interface: green(u), project(u), eigenvalues(),
lambda1(), harmonic_sections() and diagnostics().  rank_tol sets only the grid
kernel cut.  A package assembles its Laplacian box on first use: the spectral
solver reads it at once, the grid solver never, so a grid box is built only
when something applies it or a report asks for its nnz.
"""

from __future__ import annotations

from functools import cached_property
from typing import List

import numpy as np
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
    """Closed-form Hodge data of a flat fibre, with no eigensolve and no cut.

    With the constant Kaehler metric the box of a flat bundle is lambda(kappa) Id
    on each mode kappa = k + chi, so lambda is read off the box diagonal.  The
    kernel is the whole kappa = 0 mode when the bundle is trivial
    (BundleData.is_trivial) and empty otherwise.  Green multiplies by 1/lambda
    off the kernel, the projector by the kernel mask, and the harmonic basis is
    the kernel mode with the columns of R^{-1} (P = R^H R), orthonormal for P.
    """

    def __init__(self, space: FormSpace, box: OperatorMatrix):
        self.space = space
        self.lam = np.broadcast_to(box.data[0, 0].real, space.field_shape)
        self.null_mask = np.zeros(space.field_shape, dtype=bool)
        if space.bundle.is_trivial:
            # kappa = 0 is the mode k = -chi, and chi in [0, 1) rounds to 0 or 1
            self.null_mask[tuple(space.disc.M - np.rint(space.bundle.chi).astype(int))] = True
        self._inv = np.divide(1.0, self.lam, out=np.zeros(space.field_shape),
                              where=~self.null_mask)

    def green(self, u: FormSection) -> FormSection:
        return FormSection(self.space, u.coeffs * self._inv)

    def project(self, u: FormSection) -> FormSection:
        return FormSection(self.space, u.coeffs * self.null_mask)

    def harmonic_sections(self) -> List[FormSection]:
        if not self.null_mask.any():
            return []
        Rinv = np.linalg.inv(np.linalg.cholesky(gram(self.space).P).conj().T)
        out = []
        for column in Rinv.T:
            f = self.space.zeros()
            f.coeffs[:, self.null_mask] = column[:, None]
            out.append(f)
        return out

    def eigenvalues(self) -> np.ndarray:
        return np.sort(np.tile(self.lam.ravel(), self.space.ncomp))

    def diagnostics(self) -> dict:
        return {
            "dim": self.space.dim,
            "kernel_found": self.space.ncomp * int(self.null_mask.sum()),
            "lambda1": _lambda1_or_none(self),
        }

    def lambda1(self) -> float:
        pos = self.lam[~self.null_mask]
        if pos.size == 0:
            raise EmptySpectrum("no eigenvalue off the kernel")
        return float(pos.min())


def _seeded_block(n: int, cols: int, seed: int) -> np.ndarray:
    """A fixed complex Gaussian block: seeded starts keep grid reports repeatable."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))


class _DbarFactor:
    """The weighted dbar Dt = W_cod^{1/2} D W_dom^{-1/2} out of (0,0) on a grid
    fibre, factored in the y-Fourier basis, and the near-null vectors of Dt
    (null[0], the kernel on (p,0)) and of Dt^H (null[1], on (p,1)) with their
    Ritz values.

    Dt = L F_y^H A F_y R with the fibre calculus' dbar_hat A, the unitary FFT
    F_y along y and diagonal L = W_cod^{1/2} E^{-1}, R = E W_dom^{-1/2} (E the
    gauge factor).  So a solve is a scaling, an FFT, a sparse LU solve with A
    (banded along its Bloch chains, so the fill stays small), an inverse FFT
    and a scaling.  The (1,0) dbar is -Dt, since the (p,1) and (p,0) weights
    differ by the same constant for p = 0 and 1; inverse iteration and Green
    use solves in pairs, so one factor serves all four bidegrees.  Dt is not
    normal, so inverse iteration runs with Dt^{-1} Dt^{-H}, not Dt^{-1} alone.
    Dt is square, so Dt and Dt^H share their singular values, and one
    iteration gives both blocks: its iterates V span Dt's block, and its
    half-steps Dt^{-H} V span Dt^H's.
    """

    def __init__(self, space: FormSpace, rank_tol: float):
        calc = space.calculus
        self.N = calc.N
        E = calc.gauge.ravel()[:, None]
        w = [np.sqrt(gram(space.sibling((0, q))).w.ravel())[:, None] for q in (0, 1)]
        L, R = w[1] / E, E / w[0]
        self._scales = {"N": (L, R), "H": (R.conj(), L.conj())}
        self.A = calc.dbar_hat
        self._AH = self.A.conj().T
        # power iteration for the spectral scale of Dt^H Dt.  |L| and |R| are
        # constants l and r (the weights and the gauge factor share the decay
        # e^{-pi d s y^2}), so Dt^H Dt = (l r)^2 U^H A^H A U with U = F_y R / r
        # unitary, and the iteration runs on A from the start U v0.
        l, r = float(np.abs(L).mean()), float(np.abs(R).mean())
        N = self.N
        v = np.fft.fft((R * _seeded_block(N * N, 1, 1)).reshape(N, N), axis=1, norm="ortho")
        v = v.ravel()
        for _ in range(30):
            v = self._AH @ (self.A @ (v / np.linalg.norm(v)))
        self.cut = rank_tol * max((l * r) ** 2 * float(np.linalg.norm(v)), 1.0)
        try:
            self.lu = spla.splu(self.A)
        except RuntimeError as exc:
            raise EigenFailure(str(exc)) from exc
        # Dt has a d-dimensional kernel on a degree-d fibre, so the block is
        # the fibre's, whichever package on it is built first
        self.null = self._near_null(space.bundle.degree + 2)

    def _in_fourier(self, v, op, left, right):
        """left F_y^H op(F_y right v), left and right diagonal, for a vector or
        a block of columns."""
        N = self.N
        V = np.fft.fft((right * v.reshape(N * N, -1)).reshape(N, N, -1), axis=1, norm="ortho")
        V = np.fft.ifft(op(V.reshape(N * N, -1)).reshape(N, N, -1), axis=1, norm="ortho")
        return (left * V.reshape(N * N, -1)).reshape(v.shape)

    def apply(self, v, trans="N"):
        """Dt v, or Dt^H v for trans "H"."""
        A = self.A if trans == "N" else self._AH
        return self._in_fourier(v, A.__matmul__, *self._scales[trans])

    def solve(self, r, trans="N"):
        """Dt^{-1} r, or Dt^{-H} r for trans "H"."""
        left, right = self._scales[trans]
        return self._in_fourier(r, lambda b: self.lu.solve(b, trans=trans), 1 / right, 1 / left)

    def _near_null(self, block: int):
        """Near-null vectors of Dt (null[0]) and of Dt^H (null[1]) and their
        Ritz values, below the cut, from one block inverse iteration with
        (Dt^H Dt)^{-1} = Dt^{-1} Dt^{-H}: its last half-step Y = Dt^{-H} V spans
        Dt^H's block, since Dt^{-H} maps right singular vectors of Dt to left
        ones with the same singular value (Y has had three half-steps, V four).
        Rayleigh-Ritz on each side; the block doubles until a Ritz value of
        each side lies above the cut."""
        n = self.A.shape[0]
        while True:
            V = _seeded_block(n, block, 2)
            for _ in range(2):
                V, _ = np.linalg.qr(V)
                Y = self.solve(V, "H")
                V = self.solve(Y, "N")
            sides = [self._ritz(V, "N"), self._ritz(Y, "H")]
            if all(ritz[-1] >= self.cut for _, _, ritz in sides) or block == n:
                null = []
                for Q, Wh, ritz in sides:
                    keep = int(np.sum(ritz < self.cut))
                    null.append((Q @ Wh[::-1][:keep].conj().T, ritz[:keep]))
                return null
            block = min(2 * block, n)

    def _ritz(self, V, trans):
        """An orthonormal basis Q of span V, the right singular vectors Wh of
        Dt Q (or Dt^H Q for trans "H"), and the Ritz values, ascending."""
        Q, _ = np.linalg.qr(V)
        _, s, Wh = np.linalg.svd(self.apply(Q, trans), full_matrices=False)
        return Q, Wh, s[::-1] ** 2


class _GridSolver:
    """Kernel, Green operator and, on demand, low spectrum of a grid Laplacian.

    With K this side's near-null block of the fibre's _DbarFactor, C the other's
    and P_Q = I - Q Q^H, G is P_K Dt^{-1} P_C Dt^{-H} P_K on (p,0) and
    P_C Dt^{-H} P_K Dt^{-1} P_C on (p,1), the Laplacian's pseudo-inverse.
    Aliased modes (spurious adjoint-side zero modes, near-Nyquist resonances:
    mostly top-shell energy in the Gaussian gauge) stay in the deflation space
    of G but not in the harmonic basis or the spectral gap.
    """

    def __init__(self, space: FormSpace, rank_tol: float, expected_kernel: int):
        q = space.bidegree[1]
        self.space = space
        self.wsqrt = np.sqrt(gram(space).w.ravel())
        calc = space.calculus
        k1 = np.abs(np.fft.fftfreq(calc.N, 1.0 / calc.N))
        self._hishell = np.maximum.outer(k1, k1) >= calc.N / 3.0
        factors = calc.dbar_factors
        if rank_tol not in factors:
            factors[rank_tol] = _DbarFactor(space, rank_tol)
        self.factor = factors[rank_tol]
        self.kernel, self._kernel_ritz = self.factor.null[q]
        self._cokernel = self.factor.null[1 - q][0]
        self._trans = ("H", "N") if q == 0 else ("N", "H")   # as in null[q]
        self._kernel_aliased = self._aliased(self.kernel)
        self.kernel_physical, _ = np.linalg.qr(self.kernel[:, ~self._kernel_aliased])
        self.k = min(max(expected_kernel + 20, 24), self.wsqrt.size - 2)
        self.eigsh_solves = 0

    def _from_tilde(self, vec) -> FormSection:
        arr = (vec / self.wsqrt).reshape((self.space.ncomp,) + self.space.field_shape)
        return FormSection(self.space, arr)

    def _green_tilde(self, r: np.ndarray) -> np.ndarray:
        (first, second), K, C = self._trans, self.kernel, self._cokernel
        y = self.factor.solve(r - K @ (K.conj().T @ r), first)
        x = self.factor.solve(y - C @ (C.conj().T @ y), second)
        return x - K @ (K.conj().T @ x)

    def green(self, u: FormSection) -> FormSection:
        return self._from_tilde(self._green_tilde(self.wsqrt * u.coeffs.ravel()))

    def project(self, u: FormSection) -> FormSection:
        K = self.kernel
        return self._from_tilde(K @ (K.conj().T @ (self.wsqrt * u.coeffs.ravel())))

    def _aliased(self, V: np.ndarray) -> np.ndarray:
        """Whether each column of V has over half its energy in the top shell."""
        gauge = self.space.calculus.gauge
        fields = (V / self.wsqrt[:, None]).T.reshape((-1,) + gauge.shape)
        E = np.abs(np.fft.fft2(gauge * fields)) ** 2
        return E[:, self._hishell].sum(axis=1) > 0.5 * E.sum(axis=(1, 2))

    @cached_property
    def _spectrum(self):
        """The k lowest eigenvalues, sorted, and their aliasing flags: the
        kernel's Ritz values and 1/mu for the largest eigenvalues mu of G."""
        n = self.wsqrt.size

        def apply(r):
            self.eigsh_solves += 1
            return self._green_tilde(r)

        try:
            mu, U = spla.eigsh(spla.LinearOperator((n, n), matvec=apply, dtype=complex),
                               k=self.k - self.kernel.shape[1], which="LM",
                               v0=_seeded_block(n, 1, 1)[:, 0])
        except spla.ArpackError as exc:
            raise EigenFailure(str(exc)) from exc
        lam = np.concatenate([self._kernel_ritz, 1.0 / mu])
        aliased = np.concatenate([self._kernel_aliased, self._aliased(U)])
        order = np.argsort(lam, kind="stable")
        return lam[order], aliased[order]

    def harmonic_sections(self) -> List[FormSection]:
        return [self._from_tilde(v) for v in self.kernel_physical.T]

    def eigenvalues(self) -> np.ndarray:
        lam, aliased = self._spectrum
        return lam[~aliased]

    def diagnostics(self) -> dict:
        return {
            "dim": int(self.wsqrt.size),
            "lu_fill": int(self.factor.lu.nnz),
            "lambda1": _lambda1_or_none(self),   # runs the eigensolve counted next
            "eigsh_solves": self.eigsh_solves,
            "kernel_found": self.kernel_physical.shape[1],
            "kernel_deflated": self.kernel.shape[1],
            "aliased_modes": int(self._spectrum[1].sum()),
            "cut": self.factor.cut,
        }

    def lambda1(self) -> float:
        lam = self.eigenvalues()
        pos = lam[lam >= self.factor.cut]
        if pos.size == 0:
            raise EmptySpectrum("no non-aliased eigenvalue above the kernel threshold")
        return float(pos.min())


def _lambda1_or_none(solver):
    try:
        return solver.lambda1()
    except EmptySpectrum:
        return None


class HodgePackage:
    """Hodge data of one FormSpace: harmonic basis, Green operator, projector,
    and the box, assembled on first use.

    The spectral solver reads the box's scalar mode blocks, so a spectral
    package assembles it at once, and its kernel is the kappa = 0 mode of a
    trivial bundle (BundleData.is_trivial), with no cut.  The grid solver
    factors dbar and cuts its kernel at rank_tol; a grid package assembles the
    box only when something applies it or reads its nnz.
    """

    def __init__(self, space: FormSpace, rank_tol: float = 1e-7,
                 expected_kernel: int = 4):
        self.space = space
        self.expected_kernel = expected_kernel
        if isinstance(space.disc, Spectral):
            self._solver = _SpectralSolver(space, self.laplacian)
        else:
            self._solver = _GridSolver(space, rank_tol, expected_kernel)
        self.harmonic_basis = self._solver.harmonic_sections()

    @cached_property
    def laplacian(self) -> OperatorMatrix:
        """The dbar-Laplacian (box) of the space."""
        return laplacian(self.space, "dbar")

    def green(self, u: FormSection) -> FormSection:
        return self._solver.green(u)

    def harmonic_project(self, u: FormSection) -> FormSection:
        return self._solver.project(u)

    @property
    def harmonic_dim(self) -> int:
        return len(self.harmonic_basis)

    def eigenvalues(self) -> np.ndarray:
        return self._solver.eigenvalues()

    def diagnostics(self) -> dict:
        """Solver size and spectrum facts for reports: the solver's fields plus
        the bidegree and the expected kernel dimension; a grid package adds the
        nnz of its box, which this assembles if nothing has yet."""
        out = {"bidegree": list(self.space.bidegree),
               "kernel_expected": self.expected_kernel,
               **self._solver.diagnostics()}
        if not isinstance(self.space.disc, Spectral):
            out["nnz"] = int(self.laplacian.data.nnz)
        return out


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

