"""The grid backend (positive bundles, n = 1): y-Fourier calculus and Hodge solver.

Sections are sample arrays F[i,j] on the unit (x,y)-torus, periodic in x and
quasi-periodic in y with the level-d factor of automorphy.  Derivatives are
central differences of an even order with the automorphy wrap, taken on
H = E F in the Gaussian gauge E = e^theta.  There the gauge terms of ∂̄ and
∇¹'⁰ are ±(pi d / s) x, so every grid derivative is E^{-1} F_y^H A F_y E, F_y
the unitary FFT along y and A sparse with order + 1 entries a row
(_GridCalculus.fourier_derivative).  An operator's data is its A: ∂̄ is the
fibre's dbar_hat, which _DbarFactor factors; an adjoint's is a constant times
A^H; a composition's, such as the Laplacian box, is the product.  A fibre
keeps one matrix per operator, that of its (0,0) form: ∇¹'⁰ on (0,1) equals
∇¹'⁰ on (0,0), and ∂̄ on (1,0) is minus ∂̄ on (0,0), a sign the operator
carries.  Products are taken sample by sample.

Hodge solver: the Laplacian is Dt^H Dt or Dt Dt^H for the weighted sparse dbar
Dt, so _DbarFactor factors Dt, not the Laplacian, once per fibre for all four
bidegrees, and _GridSolver cuts its kernel at rank_tol.  The low spectrum is
computed only on demand.

Set-up runs in two phases, as in sparse direct solvers.  The symbolic phase,
the csc structure of the y-Fourier derivatives and SuperLU's COLAMD column
order of it per (N, order, d) (_dbar_hat_pattern), depends on the sparsity
pattern only; it runs once and is kept in a small bounded cache of read-only
arrays.  The numeric phase, per fibre, computes values only and gathers them
into that structure, so a fibre's matrices, factor and results are the same
to the bit whatever ran before it.

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

    Every derivative matrix it holds is a y-Fourier one (fourier_derivative):
    the operator cache's and dbar_hat, the ∂̄ that _DbarFactor factors and
    that the cache shares.
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
        """The ∂̄ of assemble_dbar, which _DbarFactor factors: the y-Fourier
        matrix of (dx/dz̄, dy/dz̄) = _dzbar(t), whose gauge term is (pi d / s) x."""
        return self.fourier_derivative(*_dzbar(self.t), np.pi * self.d / self.s, self.d)

    def fourier_derivative(self, a, b, c, d):
        """The y-Fourier matrix A (csc) of a d/dx + b d/dy on degree-d sections
        whose gauge terms sum to c x: the derivative is E^{-1} F_y^H A F_y E
        (fourier_apply), row and column (i, k) = (x index, y frequency).

        The stencils act on H = E F (see _gauge_exponent): along y the periodic
        one, along x the Bloch one, whose entry that wraps w times carries
        e^{2 pi i d y w}.  Back on F, dF/dx and dF/dy gain -(2 pi i d y) F and
        -(2 pi i d z) F, z = x + t y; with the -phi_z of ∇¹'⁰ these sum to
        c x = (pi d / s) x for ∂̄ and -(pi d / s) x for ∇¹'⁰.  So A = a
        (x-stencil) + diag(b lambda_k + c x_i), lambda_k = sum_off c_off N
        e^{2 pi i off k / N} the periodic y-stencil on frequency k.  The Bloch
        factor shifts k -> k - d w, so A is periodic-banded along each of the
        gcd(d, N) chains the shift links; its pattern is _dbar_hat_pattern's.
        """
        N = self.N
        offsets, coeffs = _central_stencil(self.disc.order)
        k = np.arange(N)
        lam = sum(cf * N * np.exp(2j * np.pi * off * k / N) for off, cf in zip(offsets, coeffs))
        vals = [(b * lam + c * self.x).ravel()]
        vals += [np.full(N * N, a * cf * N) for cf in coeffs]
        return _dbar_hat_pattern(N, self.disc.order, d).matrix(np.concatenate(vals))

    def fourier_apply(self, A, u: np.ndarray, gauge: bool = True) -> np.ndarray:
        """E^{-1} F_y^H A F_y E u for the samples u of a section, (1, N, N):
        the derivative or composition whose y-Fourier matrix is A; with
        gauge False (a periodic field, degree 0) F_y^H A F_y u."""
        E = self.gauge.ravel()[:, None] if gauge else np.ones((1, 1))
        return _in_fourier(u, lambda X: (A @ X.T).T, 1.0 / E, E, self.N)

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
        """The y-Fourier matrix of dbar ((p,0) -> (p,1), with the sign (-1)^p of
        dz̄ past dz_J; the fibre's dbar_hat) or of nabla10 = d/dz - phi_z
        ((0,q) -> (1,q), the same for q = 0 and 1, with (dx/dz, dy/dz) =
        (-t̄, 1) / (t - t̄)), kept once per fibre."""
        t = self.t

        def build():
            if name == "dbar":
                return self.dbar_hat
            return self.fourier_derivative(-np.conj(t) / (t - np.conj(t)), 1.0 / (t - np.conj(t)),
                                           -np.pi * self.d / self.s, self.d)
        sign = (-1) ** space.bidegree[0] if name == "dbar" else 1
        return _cached(space, target, (name, (0, 0)), build, sign=sign)

    def adjoint_data(self, op: OperatorMatrix, gd: "_GridGram", gc: "_GridGram"):
        """W_dom^{-1} D^H W_cod for D = E^{-1} F_y^H A F_y E.  A Gram weight is
        a constant c per bidegree times |E|^2 (_GridGram.scale), so this is
        E^{-1} F_y^H (c_cod / c_dom) A^H F_y E, of y-Fourier matrix
        (c_cod / c_dom) A^H."""
        return (gc.scale / gd.scale) * op.data.conj().T

    def pointwise(self, field):
        """Samples multiply as they are."""
        return (lambda a: a), (lambda a: a)

    def constant_field(self, c) -> np.ndarray:
        """The field that is the constant c (of any shape) everywhere, broadcast
        over the samples."""
        c = np.asarray(c, dtype=complex)
        return c.reshape(c.shape + (1, 1))

    def dbar_of_field(self, space: FormSpace, W: np.ndarray) -> np.ndarray:
        """The plain periodic derivative d/dz̄ of a periodic sample field: the
        y-Fourier matrix of degree 0, with no gauge."""
        A = self.fourier_derivative(*_dzbar(self.t), 0.0, 0)
        return self.fourier_apply(A, W[:1], gauge=False)[None]

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


def _in_fourier(v, op, left, right, N):
    """left F_y^H op(F_y right v), left and right diagonal, for the N² samples
    of a section or a block of columns of them.  The FFTs run on the block
    transposed, as rows of N² samples, where each transform is contiguous; op
    maps such rows."""
    V = np.multiply(right.T, v.reshape(N * N, -1).T, order="C").reshape(-1, N, N)
    V = np.fft.fft(V, axis=2, norm="ortho").reshape(-1, N * N)
    V = np.fft.ifft(op(V).reshape(-1, N, N), axis=2, norm="ortho")
    return np.multiply(left, V.reshape(-1, N * N).T, order="C").reshape(v.shape)


def _frozen(*arrays):
    """The arrays, made read-only: cached patterns are shared by every fibre."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


class _Pattern:
    """The symbolic phase of an n x n csc matrix whose entries are listed as
    (column, row) index pairs in a fixed order: its compressed indices and
    indptr, and the gather that sorts values listed in that order.
    matrix(vals) is the numeric phase.  Repeated pairs (a stencil wider than
    the grid) are summed in list order.  Patterns are cached and shared by
    every fibre of the same shape, so their arrays are read-only.
    """

    def __init__(self, major, minor, n):
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
        self.shape = (n, n)

    def matrix(self, vals):
        data = vals[self.gather]
        np.add.at(data, self.repeat_to, vals[self.repeats])
        return sp.csc_matrix((data, self.indices, self.indptr), shape=self.shape)


@lru_cache(maxsize=4)
def _dbar_hat_pattern(N, order, d):
    """The symbolic phase of _GridCalculus.fourier_derivative, once per
    (N, order, d): its csc pattern, listed as the diagonal and then each
    offset's x-stencil entries, and column_order, SuperLU's COLAMD column
    order q of it and its inverse.  COLAMD reads the pattern only, so q is
    taken from a factor of the pattern filled with seeded values, and every
    fibre's order is q."""
    offsets = np.array(_central_stencil(order)[0])[:, None]
    i, k = np.divmod(np.arange(N * N), N)
    wrap, ii = np.divmod(i + offsets, N)
    cols = np.concatenate([i * N + k, (ii * N + (k - d * wrap) % N).ravel()])
    pattern = _Pattern(cols, np.tile(i * N + k, len(offsets) + 1), N * N)
    perm_c = spla.splu(pattern.matrix(_seeded_block(len(cols), 1, 3).ravel())).perm_c
    pattern.column_order = _frozen(np.argsort(perm_c), perm_c.copy())
    return pattern


class _GridGram:
    """Inner-product data of a grid FormSpace: a positive weight per sample, the
    scalar component metric x e^{-phi} x quadrature weight 1/N^2 (n = 1)."""

    def __init__(self, space: FormSpace):
        calc = space.calculus   # no reference back to the space, as in forms.GramMatrix
        metric = space.comp_metric()[0, 0].real
        self.w = metric * np.exp(-calc.phi) / calc.disc.N**2
        self.scale = metric / calc.disc.N**2   # w / |E|^2, as |E|^2 = e^{-phi}

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

    def apply(self, v, trans="N"):
        """Dt v, or Dt^H v for trans "H"."""
        A = self.A if trans == "N" else self._AH
        return _in_fourier(v, lambda X: (A @ X.T).T, *self._scales[trans], self.N)

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
        return _in_fourier(r, op, *self._inverse_scales[trans], self.N)

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
