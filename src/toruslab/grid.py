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

Hodge solver.  A Gram weight w_q is a constant c_q per bidegree (p,q) times
|E|^2 (_GridGram.scale).  So on the weighted samples sqrt(w_q) u the dbar out
of (p,0) is (-1)^p Dt with Dt = sqrt(w_1) E^{-1} F_y^H A F_y E / sqrt(w_0) =
kappa U^H A U, A = dbar_hat, U = F_y E / |E| unitary and kappa^2 = c_1 / c_0,
the same for p = 0 and 1.  _DbarFactor and _GridSolver therefore work in A's
own basis u^ = U sqrt(w_q) u = sqrt(c_q) F_y E u, where the L2 pairing is the
plain one and the Laplacian is kappa^2 A^H A on (p,0) and kappa^2 A A^H on
(p,1): one LU of A per fibre serves all four bidegrees, no solve runs an FFT,
and samples enter and leave the basis once per apply.  _GridSolver cuts the
kernel at rank_tol; the low spectrum is computed only on demand.

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
        (x-stencil) + diag(b lambda_k + c x_i), lambda_k the periodic y-stencil
        on frequency k (_periodic_symbol).  The Bloch factor shifts k -> k - d w,
        so A is periodic-banded along each of the gcd(d, N) chains the shift
        links; its pattern is _dbar_hat_pattern's.
        """
        N = self.N
        coeffs = _central_stencil(self.disc.order)[1]
        vals = [(b * _periodic_symbol(N, self.disc.order) + c * self.x).ravel()]
        vals += [np.full(N * N, a * cf * N) for cf in coeffs]
        return _dbar_hat_pattern(N, self.disc.order, d).matrix(np.concatenate(vals))

    def fourier_apply(self, A, u: np.ndarray) -> np.ndarray:
        """E^{-1} F_y^H A F_y E u for the samples u of a section, (1, N, N):
        the derivative or composition whose y-Fourier matrix is A."""
        return self.from_fourier(A @ self.to_fourier(u))

    def to_fourier(self, u: np.ndarray) -> np.ndarray:
        """F_y E u, (N², m), row (x index, y frequency), of m sample arrays (m, N, N)."""
        return np.fft.fft(self.gauge * u, axis=2, norm="ortho").reshape(len(u), -1).T

    def from_fourier(self, v: np.ndarray) -> np.ndarray:
        """E^{-1} F_y^H v, (m, N, N), of v (N², m) or (N²,): the inverse of to_fourier."""
        return np.fft.ifft(v.T.reshape((-1,) + self.field_shape), axis=2, norm="ortho") / self.gauge

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
        2-D Fourier multiplier a lambda(k_x) + b lambda(k_y) with (a, b) =
        _dzbar(t) and the stencil's symbol lambda (_periodic_symbol)."""
        a, b = _dzbar(self.t)
        lam = _periodic_symbol(self.N, self.disc.order)
        return np.fft.ifft2((a * lam[:, None] + b * lam[None, :]) * np.fft.fft2(W[:1]))[None]

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


def _periodic_symbol(N, order):
    """lambda_k = sum_off c_off N e^{2 pi i off k / N}: the periodic stencil on
    frequency k of numpy's FFT."""
    offsets, coeffs = _central_stencil(order)
    k = np.arange(N)
    return sum(cf * N * np.exp(2j * np.pi * off * k / N) for off, cf in zip(offsets, coeffs))


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

    def pair(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """M[i, j] = (us[j], vs[i]) of sample stacks (m, 1, N, N)."""
        return (vs.conj() * self.w).reshape(len(vs), -1) @ us.reshape(len(us), -1).T


# ---------------------------------------------------------------------------
# the Hodge solver


def _seeded_block(n: int, cols: int, seed: int) -> np.ndarray:
    """A fixed complex Gaussian block: seeded starts keep grid reports repeatable."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))


class _DbarFactor:
    """The y-Fourier ∂̄ A of a grid fibre (its calculus' dbar_hat), its sparse
    LU, and the near-null vectors of A (null[0], the kernel on (p,0)) and of
    A^H (null[1], on (p,1)) with their Ritz values, which are eigenvalues of
    the Laplacian: kappa2 = kappa^2 (module docstring) times the squared
    singular values of A.

    A is banded along its Bloch chains, so the fill stays small.  The (1,0)
    dbar is minus the (0,0) one, and inverse iteration and Green use solves in pairs, so one
    factor serves all four bidegrees.  A is not normal, so inverse iteration
    runs with A^{-1} A^{-H}, not A^{-1} alone.  A is square, so A and A^H share
    their singular values, and one iteration gives both blocks: its iterates V
    span A's block, and its half-steps A^{-H} V span A^H's.  solves counts the
    calls to solve.
    """

    def __init__(self, space: FormSpace, rank_tol: float):
        calc = space.calculus
        self.A = calc.dbar_hat
        self.AT = self.A.T   # a csr view of A's own arrays, for A^H
        self.kappa2 = gram(space.sibling((0, 1))).scale / gram(space.sibling((0, 0))).scale
        # power iteration for the spectral scale kappa2 A^H A of the Laplacian
        v = _seeded_start(calc, 1, 1)[:, 0]
        for _ in range(30):
            v = self._apply(self.A @ (v / np.linalg.norm(v)), "H")
        self.cut = rank_tol * max(self.kappa2 * float(np.linalg.norm(v)), 1.0)
        # A[:, q] with the pattern's COLAMD order q, factored with no
        # reordering (NATURAL), has the LU and the solves of A under COLAMD
        self._q, self._q_inv = _dbar_hat_pattern(calc.N, calc.disc.order, calc.d).column_order
        try:
            self.lu = spla.splu(self.A[:, self._q], permc_spec="NATURAL")
        except RuntimeError as exc:
            raise EigenFailure(str(exc)) from exc
        self.solves = 0
        # A has a d-dimensional kernel on a degree-d fibre, so the block is
        # the fibre's, whichever package on it is built first
        self.null = self._near_null(calc, space.bundle.degree + 2)

    def _apply(self, v, trans):
        """A v, or A^H v = conj(A^T conj(v)) through A's kept transpose view for trans "H"."""
        return self.A @ v if trans == "N" else (self.AT @ v.conj()).conj()

    def solve(self, r, trans="N"):
        """A^{-1} r, or A^{-H} r for trans "H", through the factor of A[:, q]."""
        self.solves += 1
        if trans == "N":
            return self.lu.solve(r)[self._q_inv]
        return self.lu.solve(r[self._q], trans="H")

    def _near_null(self, calc, block: int):
        """Near-null vectors of A (null[0]) and of A^H (null[1]) and their
        Ritz values, below the cut, from one block inverse iteration with
        (A^H A)^{-1} = A^{-1} A^{-H}: its last half-step Y = A^{-H} V spans
        A^H's block, since A^{-H} maps right singular vectors of A to left
        ones with the same singular value (Y has had three half-steps, V four).
        Rayleigh-Ritz on each side; the block doubles until a Ritz value of
        each side lies above the cut."""
        n = self.A.shape[0]
        while True:
            V = _seeded_start(calc, block, 2)
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
        A Q (or A^H Q for trans "H"), and the Ritz values kappa2 s^2 of the
        Laplacian, ascending."""
        Q, _ = np.linalg.qr(V)
        _, s, Wh = np.linalg.svd(self._apply(Q, trans), full_matrices=False)
        return Q, Wh, self.kappa2 * s[::-1] ** 2


def _seeded_start(calc: _GridCalculus, cols: int, seed: int) -> np.ndarray:
    """U V = F_y E (V / |E|) for the seeded block V of N² weighted samples: a
    start in A's basis."""
    V = _seeded_block(calc.N ** 2, cols, seed).T.reshape((cols,) + calc.field_shape)
    return calc.to_fourier(V / np.abs(calc.gauge))


class _GridSolver:
    """Kernel, Green operator and, on demand, low spectrum of a grid Laplacian,
    in A's basis u^ = sqrt(c) F_y E u (see the module docstring).

    With K and C the near-null blocks of A (on (p,0)) and of A^H (on (p,1))
    of the fibre's _DbarFactor and P_Q = I - Q Q^H, G is kappa^{-2} P_K A^{-1}
    P_C A^{-H} P_K on (p,0) and kappa^{-2} P_C A^{-H} P_K A^{-1} P_C on (p,1),
    the Laplacian's pseudo-inverse.  G and the projector commute with sqrt(c).
    Aliased modes (spurious adjoint-side zero modes, near-Nyquist resonances:
    mostly top-shell energy in the Gaussian gauge) stay in the deflation space
    of G but not in the harmonic basis or the spectral gap.
    """

    def __init__(self, space: FormSpace, rank_tol: float, expected_kernel: int):
        q = space.bidegree[1]
        self.space = space
        calc = self.calc = space.calculus
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
        self.k = min(max(expected_kernel + 20, 24), calc.N ** 2 - 2)
        self.eigsh_solves = 0

    def _green_hat(self, r: np.ndarray) -> np.ndarray:
        (first, second), K, C = self._trans, self.kernel, self._cokernel
        y = self.factor.solve(r - K @ (K.conj().T @ r), first)
        x = self.factor.solve(y - C @ (C.conj().T @ y), second)
        return (x - K @ (K.conj().T @ x)) / self.factor.kappa2

    def green(self, u: FormSection) -> FormSection:
        calc = self.calc
        return FormSection(self.space, calc.from_fourier(self._green_hat(calc.to_fourier(u.coeffs))))

    def dbar_pinv(self, alpha: FormSection, below: FormSpace) -> FormSection:
        """dbar* G alpha on (p,1) in one solve: (-1)^p kappa^{-1} P_K A^{-1} P_C in
        A's basis, as dbar* G = (-1)^p kappa^{-1} A^H P_C A^{-H} P_K A^{-1} P_C and
        A^H P_C A^{-H} = P_K on exact singular blocks: for A = U S V^H and C, K
        the U, V columns of the near-null values (mask E), V S (I - E) S^{-1} V^H.
        kappa cancels sqrt(c_1 / c_0): on samples, E^{-1} F_y^H (.) F_y E."""
        K, C, calc = self._cokernel, self.kernel, self.calc
        r = calc.to_fourier(alpha.coeffs)
        x = self.factor.solve(r - C @ (C.conj().T @ r), "N")
        x = calc.from_fourier(x - K @ (K.conj().T @ x))
        return FormSection(below, (-1) ** below.bidegree[0] * x)

    def project(self, u: FormSection) -> FormSection:
        K, calc = self.kernel, self.calc
        return FormSection(self.space, calc.from_fourier(K @ (K.conj().T @ calc.to_fourier(u.coeffs))))

    def _aliased(self, V: np.ndarray) -> np.ndarray:
        """Whether each column of V has over half its energy in the top shell:
        its 2-D spectrum is the FFT of its y-Fourier coefficients along x."""
        E = np.abs(np.fft.fft(V.T.reshape((-1,) + self.calc.field_shape), axis=1)) ** 2
        return E[:, self._hishell].sum(axis=1) > 0.5 * E.sum(axis=(1, 2))

    @cached_property
    def _spectrum(self):
        """The k lowest eigenvalues, sorted, and their aliasing flags: the
        kernel's Ritz values and 1/mu for the largest eigenvalues mu of G."""
        n = self.calc.N ** 2

        def apply(r):
            self.eigsh_solves += 1
            return self._green_hat(r)

        try:
            mu, U = spla.eigsh(spla.LinearOperator((n, n), matvec=apply, dtype=complex),
                               k=self.k - self.kernel.shape[1], which="LM",
                               v0=_seeded_start(self.calc, 1, 1)[:, 0])
        except spla.ArpackError as exc:
            raise EigenFailure(str(exc)) from exc
        lam = np.concatenate([self._kernel_ritz, 1.0 / mu])
        aliased = np.concatenate([self._kernel_aliased, self._aliased(U)])
        order = np.argsort(lam, kind="stable")
        return lam[order], aliased[order]

    def harmonic_sections(self) -> List[FormSection]:
        """The kernel's columns as sections, u = E^{-1} F_y^H u^ / sqrt(c)."""
        fields = self.calc.from_fourier(self.kernel_physical) / np.sqrt(gram(self.space).scale)
        return [FormSection(self.space, h[None]) for h in fields]

    def eigenvalues(self) -> np.ndarray:
        lam, aliased = self._spectrum
        return lam[~aliased]

    def diagnostics(self, pkg) -> dict:
        return {
            "dim": self.calc.N ** 2,
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
