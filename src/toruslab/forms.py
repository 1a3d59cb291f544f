"""Discrete E-valued (p,q)-forms on a fiber and the first-order operator algebra.

Two backends:

* Spectral (flat bundles): sections are expanded in the shifted Fourier basis
  e_k(x,y) = exp(2 pi i ((k_x + chi_x).x + (k_y + chi_y).y)) on the universal
  trivialization z = x + Omega y.  Every operator is mode-diagonal with a small
  component block per mode, so assembly and solves are exact and cheap.

* Grid (positive bundles, n=1): sections are sample arrays F[i,j] on the unit
  (x,y)-torus, periodic in x and quasi-periodic in y with the level-d factor of
  automorphy.  Derivatives are central differences (order 4 by default) with the
  automorphy wrap, and _stencil_matrix builds every one of them as a
  scipy.sparse matrix: ∂̄ and ∇¹'⁰ for assemble_dbar and assemble_nabla10, and
  ∂/∂z̄ of a periodic field (degree 0) for the Kodaira-Spencer data in family.

Pointwise products (multiply, contract, contract_ks) go through _pointwise.  A
grid section multiplies sample by sample.  A spectral product with a
non-constant field is taken on a (3M+1)^{2n} sample grid, 3/2 of the mode grid
per direction, where no product mode (|k| <= 2M) aliases onto a kept mode
(|k| <= M), so back on the modes it is the full convolution, cropped.

Bidegree components are enumerated lexicographically: holomorphic index set J
major, anti-holomorphic K minor, each in increasing order.

Each fibre has one calculus, shared by the spaces of all its bidegrees.  Besides
the Gram data it keeps the data of every operator assemble_dbar,
assemble_nabla10 and adjoint (of those two) have built, so a fibre assembles
each of them once.  A spectral fibre keys that data by operator and bidegree.
A grid fibre (n = 1) keeps one matrix per operator, that of its (0,0) form:
∇¹'⁰ on (0,1) equals ∇¹'⁰ on (0,0), and ∂̄ on (1,0) is minus ∂̄ on (0,0), a
sign the operator carries.  That cache is the only holder of a grid derivative
matrix; besides it the calculus keeps dbar_hat, the y-Fourier form of ∂̄ that
hodge factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from math import comb, factorial
from typing import Union

import numpy as np
import scipy.sparse as sp

from .errors import (
    BidegreeOverflow,
    BidegreeUnderflow,
    DiscMismatch,
    ShapeMismatch,
)
from .geometry import BundleData, LatticeTorus


# ---------------------------------------------------------------------------
# discretization descriptors


@dataclass(frozen=True)
class Spectral:
    """Fourier-mode discretization with cutoff M per real direction."""

    M: int = 8


@dataclass(frozen=True)
class Grid:
    """N x N sample grid with central differences of the given order."""

    N: int = 64
    order: int = 4


Disc = Union[Spectral, Grid]


def _component_list(n, p, q):
    return [
        (J, K)
        for J in combinations(range(n), p)
        for K in combinations(range(n), q)
    ]


def _insert(tup, a):
    """Sign and sorted index set for e_a ^ e_tup; (0, None) if a already present."""
    if a in tup:
        return 0, None
    pos = sum(1 for x in tup if x < a)
    return (-1) ** pos, tuple(sorted(tup + (a,)))


def _remove(tup, a):
    """Sign and index set for the interior product slot removal."""
    if a not in tup:
        return 0, None
    pos = tup.index(a)
    return (-1) ** pos, tuple(x for x in tup if x != a)


# ---------------------------------------------------------------------------
# calculus contexts (one per fibre, shared by all sibling spaces)


def _wavenumbers(n: int, M: int, chi):
    """Shifted wave numbers k + chi of the modes |k_i| <= M: kappa_x, kappa_y, each (n, *mshape)."""
    k = np.arange(-M, M + 1, dtype=float)
    grids = np.meshgrid(*([k] * (2 * n)), indexing="ij")
    kappa_x = np.stack([grids[a] + chi[a] for a in range(n)])
    kappa_y = np.stack([grids[n + a] + chi[n + a] for a in range(n)])
    return kappa_x, kappa_y


def dzbar_multiplier(omega: np.ndarray, kappa_x: np.ndarray, kappa_y: np.ndarray) -> np.ndarray:
    """mu_zbar[a], the d/dzbar_a multiplier of the modes e_k: (n, *mshape).

    2 pi i sum_b (kappa_x_b * dx_b/dzbar_a + kappa_y_b * dy_b/dzbar_a), with
    dx_b/dzbar_a = (Omega A)_{ba}, dy_b/dzbar_a = -A_{ba}, A = (Omega - Omega.conj)^{-1}.
    """
    A = np.linalg.inv(omega - omega.conj())
    return 2j * np.pi * (
        np.tensordot(omega @ A, kappa_x, axes=([0], [0]))
        + np.tensordot(-A, kappa_y, axes=([0], [0]))
    )


class _SpectralCalculus:
    def __init__(self, torus: LatticeTorus, bundle: BundleData, disc: Spectral):
        n, M = torus.n, disc.M
        self.disc = disc
        self.grams = {}  # bidegree -> GramMatrix, filled by gram()
        self.operators = {}  # operator key -> mode array, filled by _operator_data()
        self.mshape = (2 * M + 1,) * (2 * n)
        kappa_x, kappa_y = _wavenumbers(n, M, bundle.chi)
        omega = torus.period
        A = np.linalg.inv(omega - omega.conj())
        # mu_z[a] multiplies e_k by the d/dz_a derivative:
        #   2 pi i sum_b (kappa_x_b * dx_b/dz_a + kappa_y_b * dy_b/dz_a)
        # with dx_b/dz_a = (I - Omega A)_{ba} = (-Omega.conj A)_{ba}, dy_b/dz_a = A_{ba}.
        self.mu_z = 2j * np.pi * (
            np.tensordot(-omega.conj() @ A, kappa_x, axes=([0], [0]))
            + np.tensordot(A, kappa_y, axes=([0], [0]))
        )
        self.mu_zbar = dzbar_multiplier(omega, kappa_x, kappa_y)

    def zero_mode_index(self):
        M = self.disc.M
        return (M,) * len(self.mshape)


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

    It holds no derivative matrix.  assemble_dbar and assemble_nabla10 build
    theirs with _stencil_matrix into the operator cache, on first use; a theta
    frame or a Gram matrix needs only the sample points and the weight.
    dbar_hat is the ∂̄ in the y-Fourier basis, which hodge factors.
    """

    def __init__(self, torus: LatticeTorus, bundle: BundleData, disc: Grid):
        if torus.n != 1:
            raise DiscMismatch("grid backend supports n=1 only")
        self.disc = disc
        self.grams = {}  # bidegree -> GramMatrix, filled by gram()
        self.operators = {}  # operator key -> sparse matrix, filled by _operator_data()
        self.dbar_factors = {}  # rank_tol -> factor of dbar, filled by hodge
        N = disc.N
        t = complex(torus.period[0, 0])
        d = bundle.degree
        self.t, self.d, self.N = t, d, N
        s = t.imag
        self.s = s
        idx = np.arange(N)
        self.x = (idx[:, None] / N) * np.ones((1, N))
        self.y = np.ones((N, 1)) * (idx[None, :] / N)

        # weight data for the translation-invariant potential phi = 2 pi d y^2 s
        y = self.y
        self.phi = 2.0 * np.pi * d * y**2 * s
        self.phi_z = -2j * np.pi * d * y           # at fixed t
        self.phi_zzbar = np.pi * d / s             # = pi d g, constant
        # t-derivatives at fixed z (holomorphic gauge)
        self.phi_tzbar = -np.pi * d * y / s
        self.phi_ztbar = -np.pi * d * y / s
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
        gcd(d, N) chains that the shift links.
        """
        N, d = self.N, self.d
        offsets, coeffs = _central_stencil(self.disc.order)
        a, b = _dzbar(self.t)
        k = np.arange(N)
        lam = sum(c * N * np.exp(2j * np.pi * off * k / N) for off, c in zip(offsets, coeffs))
        i = k[:, None]
        diag = np.broadcast_to(i * N + k, (N, N)).ravel()
        rows, cols = [diag], [diag]
        vals = [(b * lam + (np.pi * d / self.s) * self.x).ravel()]
        for off, c in zip(offsets, coeffs):
            wrap, ii = np.divmod(i + off, N)
            rows.append(diag)
            cols.append((ii * N + (k - d * wrap) % N).ravel())
            vals.append(np.full(N * N, a * c * N))
        return sp.csc_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(N * N, N * N),
        )


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


def _stencil_matrix(N, order, t, d, a, b, diag=0.0):
    """a d/dx + b d/dy + diag(diag) on the N x N samples of a degree-d section,
    as a csr matrix; d = 0 differentiates a plain periodic field.

    Every grid derivative is built here.  The central stencils act on
    H = e^theta F (see _gauge_exponent): along y the periodic stencil, along x
    the Bloch one, whose entry that wraps w times carries e^{2 pi i d y w}.
    Moved back to F,
      dF/dx = e^{-theta} d/dx(e^theta F) - (2 pi i d y) F
      dF/dy = e^{-theta} d/dy(e^theta F) - (2 pi i d z) F,  z = x + t y,
    so the gauge terms join diag.
    """
    offsets, coeffs = _central_stencil(order)
    row = np.arange(N * N)
    i, j = np.divmod(row, N)  # x and y index of each sample
    x, y = i / N, j / N
    rows, cols = [row], [row]
    vals = [np.ravel(diag) - 2j * np.pi * d * (a * y + b * (x + t * y))]
    for off, c in zip(offsets, coeffs):
        wrap, ii = np.divmod(i + off, N)
        rows += [row, row]
        cols += [ii * N + j, i * N + (j + off) % N]
        vals += [a * c * N * np.exp(2j * np.pi * d * y * wrap), np.full(N * N, b * c * N)]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    theta = _gauge_exponent(x, y, t, d)
    vals = np.exp(-theta)[rows] * np.concatenate(vals) * np.exp(theta)[cols]
    return sp.csr_matrix((vals, (rows, cols)), shape=(N * N, N * N))


def _scaled(m, left, right):
    """diag(left) m diag(right) for a csr matrix m, in one pass over its entries."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return sp.csr_matrix((left[rows] * m.data * right[m.indices], m.indices, m.indptr),
                         shape=m.shape)


# ---------------------------------------------------------------------------
# spaces, sections, operators


@dataclass(frozen=True)
class FormSpace:
    """E-valued (p,q)-forms on one fibre, carrying the fibre's calculus.

    make_space builds the calculus; sibling() gives the other bidegrees of the
    fibre and shares it, with the Gram and operator data it keeps.
    """

    torus: LatticeTorus
    bundle: BundleData
    bidegree: tuple
    disc: Disc
    calculus: Union[_SpectralCalculus, _GridCalculus] = field(compare=False, repr=False)

    @property
    def n(self):
        return self.torus.n

    @property
    def comps(self):
        p, q = self.bidegree
        return _component_list(self.n, p, q)

    @property
    def ncomp(self):
        p, q = self.bidegree
        return comb(self.n, p) * comb(self.n, q)

    @property
    def field_shape(self):
        if isinstance(self.disc, Spectral):
            return self.calculus.mshape
        return (self.disc.N, self.disc.N)

    @property
    def dim(self):
        return self.ncomp * int(np.prod(self.field_shape))

    def zeros(self) -> "FormSection":
        return FormSection(self, np.zeros((self.ncomp,) + self.field_shape, dtype=complex))

    def section(self, coeffs) -> "FormSection":
        arr = np.asarray(coeffs, dtype=complex)
        if arr.shape != (self.ncomp,) + self.field_shape:
            arr = arr.reshape((self.ncomp,) + self.field_shape)
        return FormSection(self, arr)

    def sibling(self, bidegree) -> "FormSpace":
        """The space of another bidegree on the same fibre, sharing this calculus."""
        return replace(self, bidegree=_checked_bidegree(self.n, bidegree))

    # pointwise metric on components (spectral: constant; grid: n=1 scalar)
    def comp_metric(self) -> np.ndarray:
        """Hermitian ncomp x ncomp matrix P with P[c,c'] = <e_{c'}, e_c> pointwise."""
        g = self.torus.kaehler
        ginv = np.linalg.inv(g)
        comps = self.comps
        P = np.zeros((len(comps), len(comps)), dtype=complex)
        for c, (J, K) in enumerate(comps):
            for cc, (Jp, Kp) in enumerate(comps):
                hol = np.linalg.det(2.0 * ginv[np.ix_(Jp, J)]) if J else 1.0
                anti = np.linalg.det(2.0 * ginv.conj()[np.ix_(Kp, K)]) if K else 1.0
                P[c, cc] = hol * anti
        return (P + P.conj().T) / 2.0


def _checked_bidegree(n, bidegree):
    p, q = bidegree
    if not (0 <= p <= n and 0 <= q <= n):
        raise BidegreeOverflow(f"bidegree {bidegree} out of range for n={n}")
    return (p, q)


def make_space(torus, bundle, bidegree, disc) -> FormSpace:
    """A form space with a fresh fibre calculus; use sibling() for the same fibre."""
    bidegree = _checked_bidegree(torus.n, bidegree)
    if isinstance(disc, Spectral):
        if not bundle.is_flat:
            raise DiscMismatch("spectral discretization requires a flat bundle")
        calc = _SpectralCalculus(torus, bundle, disc)
    elif isinstance(disc, Grid):
        if bundle.is_flat:
            raise DiscMismatch("grid discretization requires a positive bundle")
        calc = _GridCalculus(torus, bundle, disc)
    else:
        raise DiscMismatch(f"unknown discretization {disc!r}")
    return FormSpace(torus, bundle, bidegree, disc, calc)


def band_limited(space: FormSpace, rng, nmodes: int = 6) -> "FormSection":
    """A smooth random unit section: a handful of low Fourier modes.

    Spectral spaces get random coefficients on every mode; grid spaces get
    nmodes modes with |k_x|, |k_y| <= 2 per component.  Grid stencil operators
    satisfy composite identities only on resolved fields like these.
    """
    coeffs = np.zeros((space.ncomp,) + space.field_shape, dtype=complex)
    if isinstance(space.disc, Spectral):
        coeffs = rng.standard_normal(coeffs.shape) + 1j * rng.standard_normal(coeffs.shape)
    else:
        calc = space.calculus
        for ci in range(space.ncomp):
            for _ in range(nmodes):
                kx, ky = rng.integers(-2, 3, size=2)
                c = rng.standard_normal() + 1j * rng.standard_normal()
                coeffs[ci] += c * np.exp(2j * np.pi * (kx * calc.x + ky * calc.y))
    u = space.section(coeffs)
    nu = u.norm()
    return u * (1.0 / nu) if nu > 0 else u


@dataclass
class FormSection:
    space: FormSpace
    coeffs: np.ndarray

    def __add__(self, other):
        _same_space(self, other)
        return FormSection(self.space, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _same_space(self, other)
        return FormSection(self.space, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return FormSection(self.space, self.coeffs * scalar)

    __rmul__ = __mul__

    def norm(self):
        return float(np.sqrt(max(pair_l2(self, self).real, 0.0)))


def _same_space(u, v):
    if u.space.bidegree != v.space.bidegree or u.space.field_shape != v.space.field_shape:
        raise ShapeMismatch(
            f"sections live in different spaces: {u.space.bidegree} vs {v.space.bidegree}"
        )


class OperatorMatrix:
    """Linear map between two FormSpaces: sign times data.

    kind "mode":   data has shape (ncomp_cod, ncomp_dom, *mshape) and acts
                   mode-diagonally (broadcastable trailing dims allowed).
    kind "sparse": data is a scipy sparse matrix of shape (cod.dim, dom.dim).

    An operator from assemble_dbar or assemble_nabla10 carries the key of its
    data in the fibre calculus' operator cache, so that adjoint() caches too.
    The sign is -1 only where a grid fibre shares one matrix between two
    bidegrees that differ by a sign (the ∂̄ out of (1,0)), and on what is
    composed from or adjoint to such an operator.
    """

    def __init__(self, domain: FormSpace, codomain: FormSpace, kind: str, data,
                 key=None, sign=1):
        self.domain = domain
        self.codomain = codomain
        self.kind = kind
        self.data = data
        self.key = key
        self.sign = sign

    def apply(self, u: FormSection) -> FormSection:
        if u.space.bidegree != self.domain.bidegree or u.space.field_shape != self.domain.field_shape:
            raise ShapeMismatch("operator domain does not match section space")
        if self.kind == "mode":
            out = np.einsum("cd...,d...->c...", _bc(self.data, self.domain), u.coeffs)
        else:
            out = (self.data @ u.coeffs.ravel()).reshape(
                (self.codomain.ncomp,) + self.codomain.field_shape)
        return FormSection(self.codomain, out if self.sign == 1 else -out)

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self o other; both of the kind of their fibre's backend."""
        if self.kind == "mode":
            data = np.einsum("cd...,de...->ce...", _bc(self.data, self.domain),
                             _bc(other.data, other.domain))
        else:
            data = self.data @ other.data
        return OperatorMatrix(other.domain, self.codomain, self.kind, data,
                              sign=self.sign * other.sign)

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        """Sum of two mode operators: only flat (spectral) fibres have a Laplacian
        or curvature commutator of two terms, as a grid fibre has n = 1."""
        a, b = _bc(self.data, self.domain), _bc(other.data, other.domain)
        data = (a if self.sign == 1 else -a) + (b if other.sign == 1 else -b)
        return OperatorMatrix(self.domain, self.codomain, "mode", data)

    def __mul__(self, scalar):
        return OperatorMatrix(self.domain, self.codomain, self.kind,
                              self.data * (self.sign * scalar))

    __rmul__ = __mul__


def _bc(data, space):
    """Broadcast mode-kind data to full field shape."""
    target = data.shape[:2] + space.field_shape
    return np.broadcast_to(data, target)


def zero_operator(domain: FormSpace, codomain: FormSpace) -> OperatorMatrix:
    """The zero map, as mode data that broadcasts over any field shape.

    Only flat (spectral) fibres reach it: on a grid fibre (n = 1) every
    Laplacian, Lefschetz adjoint and curvature commutator that is asked for
    has a term.
    """
    data = np.zeros((codomain.ncomp, domain.ncomp) + (1,) * len(domain.field_shape))
    return OperatorMatrix(domain, codomain, "mode", data.astype(complex))


# ---------------------------------------------------------------------------
# Gram matrices and the L2 pairing


class GramMatrix:
    """Inner-product data of a FormSpace.

    Spectral: constant component matrix P (modes are orthonormal).
    Grid:     pointwise positive weight per component sample (n=1: scalar
              component metric x e^{-phi} x quadrature weight 1/N^2).
    """

    def __init__(self, space: FormSpace):
        # no reference back to the space: the calculus keeps this object, and
        # without a cycle a fibre is freed as soon as its last space goes
        self.ncomp = space.ncomp
        if isinstance(space.disc, Spectral):
            self.kind = "spectral"
            self.P = space.comp_metric()
            self.Pinv = np.linalg.inv(self.P)
        else:
            self.kind = "grid"
            calc = space.calculus
            P = space.comp_metric()
            if P.shape != (1, 1):
                raise ShapeMismatch("grid backend expects scalar components")
            scale = P[0, 0].real
            self.w = scale * np.exp(-calc.phi) / calc.disc.N**2

    def inner(self, u: FormSection, v: FormSection) -> complex:
        if self.kind == "spectral":
            nc = self.ncomp
            uf = u.coeffs.reshape(nc, -1)
            vf = v.coeffs.reshape(nc, -1)
            return complex(np.einsum("ck,cd,dk->", vf.conj(), self.P, uf))
        return complex(np.sum(v.coeffs.conj() * self.w * u.coeffs))


def gram(space: FormSpace) -> GramMatrix:
    """The Gram data of space, kept by its calculus for every sibling."""
    grams = space.calculus.grams
    if space.bidegree not in grams:
        grams[space.bidegree] = GramMatrix(space)
    return grams[space.bidegree]


def pair_l2(u: FormSection, v: FormSection) -> complex:
    """L2 inner product (u, v); on (n,0)-forms this is sqrt(-1)^{n^2} int <u ^ v̄, h>."""
    _same_space(u, v)
    return gram(u.space).inner(u, v)


def adjoint(op: OperatorMatrix) -> OperatorMatrix:
    """Formal adjoint: <A u, v>_cod = <u, A* v>_dom exactly in matrix arithmetic.

    The adjoint of a cached operator is cached under ("adjoint", *key) and
    built between the spaces its data belongs to, so a grid fibre keeps one
    adjoint per operator too: the Gram weights of (p,1) and (p,0), and of (1,q)
    and (0,q), differ by the same constant for both p and q.
    """
    if op.key is None:
        data = _adjoint_data(op)
    else:
        name, base = op.key
        data = _operator_data(
            op.domain, ("adjoint",) + op.key,
            lambda: _adjoint_data(_ASSEMBLERS[name](op.domain.sibling(base))))
    return OperatorMatrix(op.codomain, op.domain, op.kind, data, sign=op.sign)


def _adjoint_data(op: OperatorMatrix):
    """The data of the adjoint of op's data (its sign left aside)."""
    gd = gram(op.domain)
    gc = gram(op.codomain)
    if op.kind == "mode":
        # A* = P_dom^{-1} A^H P_cod per mode
        blocks = _bc(op.data, op.domain)
        AH = np.conj(np.swapaxes(blocks, 0, 1))
        return np.einsum("de,ef...,fc->dc...", gd.Pinv, AH, gc.P)
    # W_dom^{-1} A^H W_cod, the transpose of W_cod conj(A) W_dom^{-1}
    wd = np.tile(gd.w.ravel(), op.domain.ncomp)
    wc = np.tile(gc.w.ravel(), op.codomain.ncomp)
    return _scaled(op.data.tocsr().conj(), wc, 1.0 / wd).T


# ---------------------------------------------------------------------------
# operator assembly


def _cached(space: FormSpace, target: FormSpace, kind: str, key, build,
            sign=1) -> OperatorMatrix:
    """The operator sign * data from space to target, its data built once per
    fibre calculus under key = (name, bidegree the data belongs to)."""
    return OperatorMatrix(space, target, kind, _operator_data(space, key, build), key, sign)


def _operator_data(space: FormSpace, key, build):
    """The data cached under key in the fibre calculus, built on first use.

    The cache holds only arrays and sparse matrices, never a space or an
    OperatorMatrix, so a fibre is freed with its last space.
    """
    ops = space.calculus.operators
    if key not in ops:
        ops[key] = build()
    return ops[key]


def assemble_dbar(space: FormSpace) -> OperatorMatrix:
    """dbar: (p,q) -> (p,q+1)."""
    p, q = space.bidegree
    n = space.n
    if q + 1 > n:
        raise BidegreeOverflow(f"dbar out of (p,{q}) with n={n}")
    target = space.sibling((p, q + 1))
    calc = space.calculus
    if isinstance(space.disc, Spectral):
        def build():
            data = np.zeros((target.ncomp, space.ncomp) + calc.mshape, dtype=complex)
            cidx = {c: i for i, c in enumerate(target.comps)}
            for di, (J, K) in enumerate(space.comps):
                for c in range(n):
                    sgn, Knew = _insert(K, c)
                    if sgn == 0:
                        continue
                    ci = cidx[(J, Knew)]
                    data[ci, di] += ((-1) ** p) * sgn * calc.mu_zbar[c]
            return data
        return _cached(space, target, "mode", ("dbar", space.bidegree), build)
    # n=1: (p,0) -> (p,1), single component each; sign (-1)^p from dz̄ past dz_J
    return _cached(space, target, "sparse", ("dbar", (0, 0)),
                   lambda: _stencil_matrix(calc.N, calc.disc.order, calc.t, calc.d,
                                           *_dzbar(calc.t)),
                   sign=(-1) ** p)


def assemble_nabla10(space: FormSpace) -> OperatorMatrix:
    """Chern-connection (1,0)-part: (p,q) -> (p+1,q)."""
    p, q = space.bidegree
    n = space.n
    if p + 1 > n:
        raise BidegreeOverflow(f"nabla10 out of ({p},q) with n={n}")
    target = space.sibling((p + 1, q))
    calc = space.calculus
    if isinstance(space.disc, Spectral):
        def build():
            data = np.zeros((target.ncomp, space.ncomp) + calc.mshape, dtype=complex)
            cidx = {c: i for i, c in enumerate(target.comps)}
            for di, (J, K) in enumerate(space.comps):
                for a in range(n):
                    sgn, Jnew = _insert(J, a)
                    if sgn == 0:
                        continue
                    ci = cidx[(Jnew, K)]
                    data[ci, di] += sgn * calc.mu_z[a]
            return data
        return _cached(space, target, "mode", ("nabla10", space.bidegree), build)
    # n=1: (0,q) -> (1,q), the same matrix d/dz - phi_z for q = 0 and 1, with
    # (dx/dz, dy/dz) = (-t̄, 1) / (t - t̄)
    t = calc.t
    return _cached(space, target, "sparse", ("nabla10", (0, 0)),
                   lambda: _stencil_matrix(calc.N, calc.disc.order, t, calc.d,
                                           -np.conj(t) / (t - np.conj(t)),
                                           1.0 / (t - np.conj(t)), -calc.phi_z))


_ASSEMBLERS = {"dbar": assemble_dbar, "nabla10": assemble_nabla10}


def _wedge11_block(space: FormSpace, C: np.ndarray) -> np.ndarray:
    """Constant component block of the wedge with sum C_ab dz_a ^ dz̄_b on space."""
    p, q = space.bidegree
    n = space.n
    if p + 1 > n or q + 1 > n:
        raise BidegreeOverflow(f"(1,1)-wedge out of ({p},{q}) with n={n}")
    target = space.sibling((p + 1, q + 1))
    cidx = {c: i for i, c in enumerate(target.comps)}
    block = np.zeros((target.ncomp, space.ncomp), dtype=complex)
    for di, (J, K) in enumerate(space.comps):
        for a in range(n):
            sa, Jnew = _insert(J, a)
            if sa == 0:
                continue
            for b in range(n):
                sb, Knew = _insert(K, b)
                if sb == 0:
                    continue
                # dz_a ^ dz̄_b ^ dz_J ^ dz̄_K = (-1)^p dz_a ^ dz_J ^ dz̄_b ^ dz̄_K
                block[cidx[(Jnew, Knew)], di] += ((-1) ** p) * sa * sb * C[a, b]
    return block


def _wedge11(space: FormSpace, C: np.ndarray) -> OperatorMatrix:
    """Wedge with the (1,1)-form sum C_ab dz_a ^ dz̄_b: (p,q) -> (p+1,q+1)."""
    block = _wedge11_block(space, C)
    target = space.sibling((space.bidegree[0] + 1, space.bidegree[1] + 1))
    if isinstance(space.disc, Spectral):
        data = block.reshape(block.shape + (1,) * len(space.field_shape)).astype(complex)
        return OperatorMatrix(space, target, "mode", data)
    N = space.disc.N
    eye = sp.identity(N * N, dtype=complex, format="csr")
    mats = [[block[i, j] * eye for j in range(block.shape[1])] for i in range(block.shape[0])]
    return OperatorMatrix(space, target, "sparse", sp.bmat(mats, format="csr"))


def lefschetz_L(space: FormSpace) -> OperatorMatrix:
    """Wedge with omega."""
    g = space.torus.kaehler
    return _wedge11(space, 0.5j * g)


def lefschetz_Lambda(space: FormSpace) -> OperatorMatrix:
    """Adjoint of the omega-wedge: (p,q) -> (p-1,q-1)."""
    p, q = space.bidegree
    if p == 0 or q == 0:
        return zero_operator(space, space.sibling((max(p - 1, 0), max(q - 1, 0))))
    source = space.sibling((p - 1, q - 1))
    return adjoint(lefschetz_L(source))


def curvature_action(space: FormSpace) -> OperatorMatrix:
    """Wedge with Theta(h); the zero operator for flat bundles."""
    p, q = space.bidegree
    n = space.n
    if p + 1 > n or q + 1 > n:
        raise BidegreeOverflow(f"curvature wedge out of ({p},{q}) with n={n}")
    if space.bundle.is_flat:
        return zero_operator(space, space.sibling((p + 1, q + 1)))
    return _wedge11(space, space.bundle.curvature)


# ---------------------------------------------------------------------------
# pointwise products and contraction


def _pointwise(space: FormSpace, field):
    """(to, back): maps of coefficient arrays to samples on which a product with
    field is pointwise, and back; each maps only the trailing field axes.

    Grid samples, and a constant field (trailing axes all 1), multiply as they
    are, so both maps are the identity.  Otherwise the field and a section of
    the spectral space have modes |k| <= M, and their product modes |k| <= 2M.
    to() samples modes on L = 3M + 1 points per direction and back() takes the
    modes |k| <= M of samples.  A product mode k lands on a kept mode only if
    k = j (mod L) with |j| <= M, and |k - j| <= 3M < L, so k = j: back() of the
    sampled product is the full convolution cropped to |k| <= M.
    """
    dims = len(space.field_shape)
    if isinstance(space.disc, Grid) or all(s == 1 for s in np.shape(field)[-dims:]):
        return (lambda a: a), (lambda a: a)
    M = space.disc.M
    L = 3 * M + 1
    axes = tuple(range(-dims, 0))
    keep = (Ellipsis,) + np.ix_(*[np.arange(-M, M + 1) % L] * dims)

    def to(a):
        samples = np.zeros(np.shape(a)[:-dims] + (L,) * dims, dtype=complex)
        samples[keep] = a
        return np.fft.ifftn(samples, axes=axes, norm="forward")

    def back(samples):
        return np.fft.fftn(samples, axes=axes, norm="forward")[keep]

    return to, back


def multiply(field: np.ndarray, u: FormSection) -> FormSection:
    """Multiply a section by a scalar field (untwisted modes or grid samples)."""
    to, back = _pointwise(u.space, field)
    return FormSection(u.space, back(to(field) * to(u.coeffs)))


def contract(W: np.ndarray, u: FormSection) -> FormSection:
    """Interior product of the (1,0) vector field sum_a W[a] d/dz_a into the
    holomorphic slots of u.

    W has shape (n, *field_shape) and is untwisted: Fourier modes without
    character shift (spectral) or plain periodic samples (grid).
    """
    p, q = u.space.bidegree
    if p < 1:
        raise BidegreeUnderflow("contraction needs p >= 1")
    target = u.space.sibling((p - 1, q))
    to, back = _pointwise(u.space, W)
    Ws, us = to(W), to(u.coeffs)
    out = np.zeros((target.ncomp,) + us.shape[1:], dtype=complex)
    cidx = {c: i for i, c in enumerate(target.comps)}
    for di, (J, K) in enumerate(u.space.comps):
        for a in J:
            sgn, Jnew = _remove(J, a)
            out[cidx[(Jnew, K)]] += sgn * Ws[a] * us[di]
    return FormSection(target, back(out))


def contract_ks(K_field: np.ndarray, u: FormSection) -> FormSection:
    """Contract a T^{1,0}-valued (0,1)-form K = sum K[a,c] dz̄_c ⊗ d/dz_a into u.

    Computes sum_c dz̄_c ^ (K[a,c] d/dz_a ⌟ u); bidegree (p,q) -> (p-1,q+1).
    K_field has shape (n, n, *field_shape) (constant trailing dims broadcast).
    """
    p, q = u.space.bidegree
    n = u.space.n
    if p < 1:
        raise BidegreeUnderflow("contraction needs p >= 1")
    if q + 1 > n:
        raise BidegreeOverflow("K-contraction overflows antiholomorphic degree")
    target = u.space.sibling((p - 1, q + 1))
    to, back = _pointwise(u.space, K_field)
    Ks, us = to(K_field), to(u.coeffs)
    out = np.zeros((target.ncomp,) + us.shape[1:], dtype=complex)
    cidx = {c: i for i, c in enumerate(target.comps)}
    for di, (J, Kk) in enumerate(u.space.comps):
        for a in J:
            s_rm, Jnew = _remove(J, a)
            for c in range(n):
                s_ins, Knew = _insert(Kk, c)
                if s_ins == 0:
                    continue
                # dz̄_c ^ dz_{Jnew} ^ dz̄_K = (-1)^{p-1} dz_{Jnew} ^ dz̄_c ^ dz̄_K
                sgn = s_rm * s_ins * ((-1) ** (p - 1))
                out[cidx[(Jnew, Knew)]] += sgn * Ks[a, c] * us[di]
    return FormSection(target, back(out))
