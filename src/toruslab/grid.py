"""The grid backend (positive bundles, n = 1): stencil calculus and Hodge solver.

Sections are sample arrays F[i,j] on the unit (x,y)-torus, periodic in x and
quasi-periodic in y with the level-d factor of automorphy.  Derivatives are
central differences of an even order (4 by default) with the automorphy wrap,
and _stencil_matrix builds every one of them as a scipy.sparse matrix: ∂̄ and
∇¹'⁰ for assemble_dbar and assemble_nabla10, and ∂/∂z̄ of a periodic field
(degree 0) for the Kodaira-Spencer data in family.  Products are taken sample
by sample.  A fibre keeps one matrix per operator, that of its (0,0) form:
∇¹'⁰ on (0,1) equals ∇¹'⁰ on (0,0), and ∂̄ on (1,0) is minus ∂̄ on (0,0), a
sign the operator carries.

Hodge solver: the Laplacian is Dt^H Dt or Dt Dt^H for the weighted sparse dbar
Dt, so _DbarFactor factors Dt, not the Laplacian, once per fibre for all four
bidegrees, and _GridSolver cuts its kernel at rank_tol.  The low spectrum is
computed only on demand.

Set-up runs in two phases, as in sparse direct solvers.  The symbolic phase
depends on the sparsity pattern only: the csr structure of a stencil matrix
per (N, order) (_stencil_pattern), the csc structure of dbar_hat and SuperLU's
COLAMD column order of it per (N, order, d) (_dbar_hat_pattern).  It runs once
and is kept in two small bounded caches of read-only arrays.  The numeric
phase, per fibre, computes values only and gathers them into that structure,
so a fibre's matrices, factor and results are the same to the bit whatever
ran before it.

forms.make_space imports this module for a Grid; no other module imports scipy.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import factorial
from typing import List

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DiscMismatch, EigenFailure, EmptySpectrum
from .forms import FormSection, FormSpace, Grid, OperatorMatrix, _cached, gram
from .geometry import BundleData, LatticeTorus
from .hodge import _lambda1_or_none


def _central_stencil(order):
    """First-derivative central-difference offsets and coefficients of an even
    order: c_k = (-1)^{k+1} (p!)^2 / (k (p-k)! (p+k)!) at offset k, -c_k at -k,
    for k = 1..p, p = order // 2."""
    p = order // 2
    cs = [(-1) ** (k + 1) * factorial(p) ** 2 / (k * factorial(p - k) * factorial(p + k))
          for k in range(1, p + 1)]
    return list(range(-p, 0)) + list(range(1, p + 1)), np.array([-c for c in cs[::-1]] + cs)


class _GridCalculus:
    """n=1 grid backend: sample points, gauge factor and weight data for degree d.

    Besides the operator cache, the only holder of a derivative matrix, it
    keeps dbar_hat, the ∂̄ in the y-Fourier basis, which _DbarFactor factors.
    """

    def __init__(self, torus: LatticeTorus, bundle: BundleData, disc: Grid):
        if torus.n != 1:
            raise DiscMismatch("grid backend supports n=1 only")
        self.disc = disc
        self.grams = {}  # bidegree -> _GridGram, filled by forms.gram()
        self.operators = {}  # operator key -> sparse matrix, filled by forms._operator_data()
        self.dbar_factors = {}  # rank_tol -> _DbarFactor, filled by _GridSolver
        self.t = t = complex(torus.period[0, 0])
        self.d = d = bundle.degree
        self.N = N = disc.N
        self.field_shape = (N, N)
        self.s = s = t.imag
        idx = np.arange(N)
        self.x = (idx[:, None] / N) * np.ones((1, N))
        self.y = np.ones((N, 1)) * (idx[None, :] / N)

        # weight data for the translation-invariant potential phi = 2 pi d y^2 s
        y = self.y
        self.phi = 2.0 * np.pi * d * y**2 * s
        self.phi_z = -2j * np.pi * d * y           # at fixed t
        self.phi_zzbar = np.pi * d / s             # = pi d g, constant
        # t-derivatives at fixed z (holomorphic gauge)
        self.phi_tzbar = -np.pi * d * y / s        # real, so also phi_ztbar
        self.phi_ttbar = np.pi * d * y**2 / s

    @cached_property
    def gauge(self):
        """The gauge factor E = e^{theta} at the sample points, (N, N)."""
        return np.exp(_gauge_exponent(self.x, self.y, self.t, self.d))

    @cached_property
    def dbar_hat(self):
        """The ∂̄ of assemble_dbar in the Gaussian gauge and the y-Fourier basis,
        as a csc matrix: ∂̄ = E^{-1} F_y^H A F_y E with E = e^{theta}, F_y the
        unitary FFT along y, row and column (i, k) = (x index, y frequency).

        A = a (x-stencil) + diag(b lambda_k + (pi d / s) x_i), (a, b) = _dzbar(t),
        where lambda_k = sum_off c_off N e^{2 pi i off k / N} is the periodic
        y-stencil on frequency k and the diagonal gathers the gauge terms of
        _stencil_matrix.  The Bloch factor e^{2 pi i d y w} of an x-stencil
        entry that wraps w times shifts the frequency k -> k - d w, so a row has
        order + 1 nonzeros, and A is periodic-banded along each of the
        gcd(d, N) chains that the shift links.  Its pattern is _dbar_hat_pattern's.
        """
        N, d = self.N, self.d
        offsets, coeffs = _central_stencil(self.disc.order)
        a, b = _dzbar(self.t)
        k = np.arange(N)
        lam = sum(c * N * np.exp(2j * np.pi * off * k / N) for off, c in zip(offsets, coeffs))
        vals = [(b * lam + (np.pi * d / self.s) * self.x).ravel()]
        vals += [np.full(N * N, a * c * N) for c in coeffs]
        return _dbar_hat_pattern(N, self.disc.order, d).matrix(np.concatenate(vals))

    # -- the backend methods that forms, hodge and family call --------------

    def random_coeffs(self, space: FormSpace, rng) -> np.ndarray:
        """Six modes with |k_x|, |k_y| <= 2 per component: stencil operators
        satisfy composite identities only on resolved fields like these."""
        coeffs = np.zeros((space.ncomp,) + self.field_shape, dtype=complex)
        for ci in range(space.ncomp):
            for _ in range(6):
                kx, ky = rng.integers(-2, 3, size=2)
                c = rng.standard_normal() + 1j * rng.standard_normal()
                coeffs[ci] += c * np.exp(2j * np.pi * (kx * self.x + ky * self.y))
        return coeffs

    def gram_matrix(self, space: FormSpace) -> "_GridGram":
        return _GridGram(space)

    def first_order(self, space: FormSpace, target: FormSpace, name: str) -> OperatorMatrix:
        """The matrix of dbar ((p,0) -> (p,1), with the sign (-1)^p of dz̄ past
        dz_J) or of nabla10 = d/dz - phi_z ((0,q) -> (1,q), the same for q = 0
        and 1, with (dx/dz, dy/dz) = (-t̄, 1) / (t - t̄)), kept once per fibre."""
        t = self.t

        def build():
            if name == "dbar":
                return _stencil_matrix(self.N, self.disc.order, t, self.d, *_dzbar(t))
            return _stencil_matrix(self.N, self.disc.order, t, self.d,
                                   -np.conj(t) / (t - np.conj(t)), 1.0 / (t - np.conj(t)),
                                   -self.phi_z)
        sign = (-1) ** space.bidegree[0] if name == "dbar" else 1
        return _cached(space, target, (name, (0, 0)), build, sign=sign)

    def adjoint_data(self, op: OperatorMatrix, gd: "_GridGram", gc: "_GridGram"):
        # W_dom^{-1} A^H W_cod, the transpose of W_cod conj(A) W_dom^{-1}
        wd = np.tile(gd.w.ravel(), op.domain.ncomp)
        wc = np.tile(gc.w.ravel(), op.codomain.ncomp)
        return _scaled(op.data.tocsr().conj(), wc, 1.0 / wd).T

    def pointwise(self, field):
        """Samples multiply as they are."""
        return (lambda a: a), (lambda a: a)

    def constant_field(self, c) -> np.ndarray:
        """The field that is the constant c (of any shape) everywhere, broadcast
        over the samples."""
        c = np.asarray(c, dtype=complex)
        return c.reshape(c.shape + (1, 1))

    def dbar_of_field(self, space: FormSpace, W: np.ndarray) -> np.ndarray:
        # the plain periodic derivative of a periodic sample field: degree 0
        Dzbar = _stencil_matrix(self.N, self.disc.order, self.t, 0, *_dzbar(self.t))
        return (Dzbar @ W[0].ravel()).reshape((1, 1) + W.shape[1:])

    def hodge_solver(self, space: FormSpace, rank_tol: float, expected_kernel: int):
        return _GridSolver(space, rank_tol, expected_kernel)


def _gauge_exponent(x, y, t, d):
    """theta = i pi d t y^2 + 2 pi i d x y, the Gaussian gauge of degree d.

    H = e^theta F is periodic in y and Bloch quasi-periodic in x (factor
    e^{2 pi i d y}), and is uniformly scaled, so central differences on H
    converge at full stencil order even though a section F varies over many
    orders of magnitude across the cell.
    """
    return 1j * np.pi * d * t * y**2 + 2j * np.pi * d * x * y


def _dzbar(t):
    """(dx/dz̄, dy/dz̄) = (t, -1) / (t - t̄) on the elliptic curve of period t."""
    return t / (t - np.conj(t)), -1.0 / (t - np.conj(t))


def _frozen(*arrays):
    """The arrays, made read-only: cached patterns are shared by every fibre."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


class _Pattern:
    """The symbolic phase of an n x n sparse matrix whose entries are listed as
    (major, minor) index pairs in a fixed order, major the row of a csr matrix
    or the column of a csc one: its compressed indices and indptr, and the
    gather that sorts values listed in that order.  matrix(vals) is the numeric
    phase.  Repeated pairs (a stencil wider than the grid) are summed in list
    order.  Patterns are cached and shared by every fibre of the same shape,
    so their arrays are read-only.
    """

    def __init__(self, fmt, major, minor, n):
        key = major * n + minor
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.diff(key, prepend=-1) != 0
        self.gather, self.repeats = order[first], order[~first]
        self.repeat_to = np.cumsum(first)[~first] - 1
        major, minor = np.divmod(key[first], n)
        self.indices = minor.astype(np.int32)
        self.indptr = np.searchsorted(major, np.arange(n + 1)).astype(np.int32)
        _frozen(self.gather, self.repeats, self.repeat_to, self.indices, self.indptr)
        self.fmt, self.shape = fmt, (n, n)

    def matrix(self, vals):
        data = vals[self.gather]
        np.add.at(data, self.repeat_to, vals[self.repeats])
        return self.fmt((data, self.indices, self.indptr), shape=self.shape)


@lru_cache(maxsize=4)
def _stencil_pattern(N, order):
    """The symbolic phase of _stencil_matrix, once per (N, order): the sample
    coordinates, the x-stencil entries that wrap (flat index and wrap count)
    and the column of every entry, listed as the diagonal, then the x-stencil
    and then the y-stencil entries of each offset."""
    offsets = np.array(_central_stencil(order)[0])[:, None]
    row = np.arange(N * N)
    i, j = np.divmod(row, N)  # x and y index of each sample
    wrap, ii = np.divmod(i + offsets, N)
    cols = np.concatenate([row[None], ii * N + j, i * N + (j + offsets) % N])
    wrapped = np.flatnonzero(wrap)
    return (*_frozen(i / N, j / N, wrapped, wrap.ravel()[wrapped], cols),
            _Pattern(sp.csr_matrix, np.tile(row, len(cols)), cols.ravel(), N * N))


@lru_cache(maxsize=4)
def _dbar_hat_pattern(N, order, d):
    """The symbolic phase of _GridCalculus.dbar_hat, once per (N, order, d): its
    csc pattern, listed as the diagonal and then each offset's x-stencil
    entries, and column_order, SuperLU's COLAMD column order q of it and its
    inverse.  COLAMD reads the pattern only, so q is taken from a factor of
    the pattern filled with seeded values, and every fibre's order is q."""
    offsets = np.array(_central_stencil(order)[0])[:, None]
    i, k = np.divmod(np.arange(N * N), N)
    wrap, ii = np.divmod(i + offsets, N)
    cols = np.concatenate([i * N + k, (ii * N + (k - d * wrap) % N).ravel()])
    pattern = _Pattern(sp.csc_matrix, cols, np.tile(i * N + k, len(offsets) + 1), N * N)
    perm_c = spla.splu(pattern.matrix(_seeded_block(len(cols), 1, 3).ravel())).perm_c
    pattern.column_order = _frozen(np.argsort(perm_c), perm_c.copy())
    return pattern


def _stencil_matrix(N, order, t, d, a, b, diag=0.0):
    """a d/dx + b d/dy + diag(diag) on the N x N samples of a degree-d section,
    as a csr matrix; d = 0 differentiates a plain periodic field.

    Every grid derivative is built here, on the pattern of _stencil_pattern.
    The central stencils act on H = e^theta F (see _gauge_exponent): along y
    the periodic stencil, along x the Bloch one, whose entry that wraps w times
    carries e^{2 pi i d y w}.  Moved back to F,
      dF/dx = e^{-theta} d/dx(e^theta F) - (2 pi i d y) F
      dF/dy = e^{-theta} d/dy(e^theta F) - (2 pi i d z) F,  z = x + t y,
    so the gauge terms join diag.
    """
    x, y, wrapped, wrap, cols, pattern = _stencil_pattern(N, order)
    coeffs = _central_stencil(order)[1]
    bloch = np.ones((len(coeffs), N * N), dtype=complex)
    bloch.flat[wrapped] = np.exp(2j * np.pi * d * y[wrapped % (N * N)] * wrap)
    vals = [np.ravel(diag) - 2j * np.pi * d * (a * y + b * (x + t * y))]
    vals += [a * c * N * row for c, row in zip(coeffs, bloch)]
    vals += [np.full(N * N, b * c * N) for c in coeffs]
    theta = _gauge_exponent(x, y, t, d)
    vals = np.exp(-theta) * np.reshape(vals, (-1, N * N)) * np.exp(theta)[cols]
    return pattern.matrix(vals.ravel())


def _scaled(m, left, right):
    """diag(left) m diag(right) for a csr matrix m, in one pass over its entries."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return sp.csr_matrix((left[rows] * m.data * right[m.indices], m.indices, m.indptr),
                         shape=m.shape)


class _GridGram:
    """Inner-product data of a grid FormSpace: a positive weight per sample, the
    scalar component metric x e^{-phi} x quadrature weight 1/N^2 (n = 1)."""

    def __init__(self, space: FormSpace):
        calc = space.calculus   # no reference back to the space, as in forms.GramMatrix
        self.w = space.comp_metric()[0, 0].real * np.exp(-calc.phi) / calc.disc.N**2

    def inner(self, u: FormSection, v: FormSection) -> complex:
        return complex(np.sum(v.coeffs.conj() * self.w * u.coeffs))


# ---------------------------------------------------------------------------
# the Hodge solver


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
    half-steps Dt^{-H} V span Dt^H's.  solves counts the calls to solve.
    """

    def __init__(self, space: FormSpace, rank_tol: float):
        calc = space.calculus
        self.N = calc.N
        E = calc.gauge.ravel()[:, None]
        w = [np.sqrt(gram(space.sibling((0, q))).w.ravel())[:, None] for q in (0, 1)]
        L, R = w[1] / E, E / w[0]
        self._scales = {"N": (L, R), "H": (R.conj(), L.conj())}
        self._inverse_scales = {trans: (1 / right, 1 / left)
                                for trans, (left, right) in self._scales.items()}
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
        # A[:, q] with the pattern's COLAMD order q, factored with no
        # reordering (NATURAL), has the LU and the solves of A under COLAMD
        self._q, self._q_inv = _dbar_hat_pattern(calc.N, calc.disc.order, calc.d).column_order
        try:
            self.lu = spla.splu(self.A[:, self._q], permc_spec="NATURAL")
        except RuntimeError as exc:
            raise EigenFailure(str(exc)) from exc
        self.solves = 0
        # Dt has a d-dimensional kernel on a degree-d fibre, so the block is
        # the fibre's, whichever package on it is built first
        self.null = self._near_null(space.bundle.degree + 2)

    def _in_fourier(self, v, op, left, right):
        """left F_y^H op(F_y right v), left and right diagonal, for a vector or
        a block of columns.  The FFTs run on the block transposed, as rows of
        N² samples, where each transform is contiguous; op maps such rows."""
        N = self.N
        V = np.multiply(right.T, v.reshape(N * N, -1).T, order="C").reshape(-1, N, N)
        V = np.fft.fft(V, axis=2, norm="ortho").reshape(-1, N * N)
        V = np.fft.ifft(op(V).reshape(-1, N, N), axis=2, norm="ortho")
        return np.multiply(left, V.reshape(-1, N * N).T, order="C").reshape(v.shape)

    def apply(self, v, trans="N"):
        """Dt v, or Dt^H v for trans "H"."""
        A = self.A if trans == "N" else self._AH
        return self._in_fourier(v, lambda X: (A @ X.T).T, *self._scales[trans])

    def solve(self, r, trans="N"):
        """Dt^{-1} r, or Dt^{-H} r for trans "H", through the factor of A[:, q]
        (op maps rows, so A^{-1} acts on the transpose)."""
        self.solves += 1
        if trans == "N":
            def op(X):
                return self.lu.solve(X.T).T[:, self._q_inv]
        else:
            def op(X):
                return self.lu.solve(X[:, self._q].T, trans="H").T
        return self._in_fourier(r, op, *self._inverse_scales[trans])

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

    With K and C the near-null blocks of Dt (on (p,0)) and of Dt^H (on (p,1))
    of the fibre's _DbarFactor and P_Q = I - Q Q^H, G is P_K Dt^{-1} P_C Dt^{-H} P_K
    on (p,0) and P_C Dt^{-H} P_K Dt^{-1} P_C on (p,1), the Laplacian's pseudo-inverse.
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

    def dbar_pinv(self, alpha: FormSection, below: FormSpace) -> FormSection:
        """dbar* G alpha on (p,1) in one solve: (-1)^p W_0^{-1/2} P_K Dt^{-1} P_C
        W_1^{1/2} alpha, W_q the Gram weights of (p,q).  The weighted dbar out of
        (p,0) is (-1)^p Dt, so dbar* G = (-1)^p Dt^H P_C Dt^{-H} P_K Dt^{-1} P_C,
        and Dt^H P_C Dt^{-H} = P_K on exact singular blocks: for Dt = U S V^H and
        C, K the U, V columns of the near-null values (mask E), V S (I - E) S^{-1} V^H."""
        K, C = self._cokernel, self.kernel
        r = self.wsqrt * alpha.coeffs.ravel()
        x = self.factor.solve(r - C @ (C.conj().T @ r), "N")
        x = (x - K @ (K.conj().T @ x)) / np.sqrt(gram(below).w.ravel())
        return FormSection(below, (-1) ** below.bidegree[0] * x.reshape(alpha.coeffs.shape))

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

    def diagnostics(self, pkg) -> dict:
        return {
            "dim": int(self.wsqrt.size),
            "lu_fill": int(self.factor.lu.nnz),
            "lambda1": _lambda1_or_none(self),   # runs the eigensolve counted next
            "eigsh_solves": self.eigsh_solves,
            "lu_solves": self.factor.solves,   # of the fibre's factor, so far
            "kernel_found": self.kernel_physical.shape[1],
            "kernel_deflated": self.kernel.shape[1],
            "aliased_modes": int(self._spectrum[1].sum()),
            "cut": self.factor.cut,
            "nnz": int(pkg.laplacian.data.nnz),   # assembles the box if nothing has yet
        }

    def lambda1(self) -> float:
        lam = self.eigenvalues()
        pos = lam[lam >= self.factor.cut]
        if pos.size == 0:
            raise EmptySpectrum("no non-aliased eigenvalue above the kernel threshold")
        return float(pos.min())
