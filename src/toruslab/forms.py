"""Discrete E-valued (p,q)-forms on a fiber and the first-order operator algebra.

Each fibre has one calculus, shared by the spaces of all its bidegrees, and the
calculus is the backend.  make_space is the one place that reads the
discretization: it builds a _SpectralCalculus for a Spectral disc and, importing
toruslab.grid (the only module that needs scipy) only then, a
grid._GridCalculus for a Grid.  Every step that differs between backends (field
shape, sections from samples, random sections, ∂̄, ∇¹'⁰, adjoint data,
pointwise products, ∂̄ of a vertical field and the Hodge solver) is a method of
the calculus; the functions here do the bidegree bookkeeping around it.

A section holds coefficients in the basis where the calculus' ∂̄ acts: Fourier
modes (spectral) or y-Fourier coefficients of the gauged samples (grid).  Both
backends pair them with one GramMatrix, the constant component metric times
the calculus' quadrature weight.  Operator data is a numpy array of component
blocks per mode, or the sparse matrix of a grid derivative (see
OperatorMatrix); ω∧, Θ(h)∧, Λ and the zero map are one block.
Every constant-coefficient map and contraction (the spectral ∂̄ and ∇¹'⁰, the
(1,1)-wedges, ι_{∂/∂z_a} and the Kodaira-Spencer contraction) is composed from
one dz_a∧ or dz̄_a∧ component block, _dz_wedge, built once per (n, p, q, a).

This module holds the spectral backend (flat bundles): sections are expanded in
the shifted Fourier basis e_k(x,y) = exp(2 pi i ((k_x + chi_x).x + (k_y +
chi_y).y)) on the universal trivialization z = x + Omega y.  Every operator is
mode-diagonal with a small component block per mode, so assembly and solves are
exact and cheap.  A product with a non-constant field is the full
convolution, cropped (see _SpectralCalculus.pointwise).

Bidegree components are enumerated lexicographically: holomorphic index set J
major, anti-holomorphic K minor, each in increasing order.

Besides the Gram data the calculus keeps the data of every operator
assemble_dbar, assemble_nabla10 and adjoint (of those two) have built, so a
fibre assembles each of them once; a spectral fibre keys that data by operator
and bidegree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Sequence, Union

import numpy as np

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


def _wedge_sign(*index_sets):
    """Sign of sorting the concatenation of index tuples, e_A ^ e_B ^ ... =
    sign e_sorted, and the sorted tuple; (0, None) when an index repeats."""
    seq = [i for tup in index_sets for i in tup]
    if len(set(seq)) != len(seq):
        return 0, None
    swaps = sum(x > y for i, x in enumerate(seq) for y in seq[i + 1:])
    return (-1) ** swaps, tuple(sorted(seq))


@lru_cache(maxsize=128)
def _dz_wedge(n, p, q, a, bar=False):
    """dz_a ∧ (ε_a) or, with bar, dz̄_a ∧ (ε̄_a) on the (p,q)-forms of dimension
    n, a constant 0/±1 block from the (p,q) to the (p+1,q) or (p,q+1)
    components; ε̄_a carries the sign (-1)^p of moving dz̄_a past dz_J.  Built
    once per argument tuple and read-only, as every caller shares it."""
    source = _component_list(n, p, q)
    target = _component_list(n, p, q + 1) if bar else _component_list(n, p + 1, q)
    cidx = {c: i for i, c in enumerate(target)}
    block = np.zeros((len(target), len(source)))
    for di, (J, K) in enumerate(source):
        sgn, new = _wedge_sign((a,), K if bar else J)
        if sgn != 0:
            block[cidx[(J, new) if bar else (new, K)], di] = sgn * (-1) ** p if bar else sgn
    block.flags.writeable = False
    return block


def _block_sum(terms, us=None):
    """sum of coeff * block over terms = [(coeff, block), ...]: a block with the
    coefficients' trailing shape, or, given components us, the sum applied to
    them.  It is taken at the blocks' nonzero entries only, source component
    major and then in the order of terms, so every sum accumulates in one order."""
    ncod, ndom = terms[0][1].shape
    shape = (ncod, ndom) + np.shape(terms[0][0]) if us is None else (ncod,) + us.shape[1:]
    out = np.zeros(shape, dtype=complex)
    for d in range(ndom):
        for coeff, block in terms:
            for c in np.flatnonzero(block[:, d]):
                if us is None:
                    out[c, d] += block[c, d] * coeff
                else:
                    out[c] += block[c, d] * coeff * us[d]
    return out


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
        self.quadrature_weight = 1.0   # modes are orthonormal
        self.grams = {}  # bidegree -> GramMatrix, filled by gram()
        self.operators = {}  # operator key -> mode array, filled by _operator_data()
        self.box_lambda = None  # lambda(kappa) of the box, filled by hodge._SpectralSolver
        self.field_shape = (2 * M + 1,) * (2 * n)
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
        return (self.disc.M,) * len(self.field_shape)

    # -- the backend methods that forms, hodge and family call --------------

    def coefficients(self, modes: np.ndarray) -> np.ndarray:
        """What FormSpace.section takes is already the modes."""
        return modes

    def random_coeffs(self, space: "FormSpace", rng) -> np.ndarray:
        """Random coefficients on every mode."""
        shape = (space.ncomp,) + self.field_shape
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def first_order(self, space: "FormSpace", target: "FormSpace", name: str) -> "OperatorMatrix":
        """The mode operator of dbar = sum_a mu_zbar[a] dz̄_a ∧ or of
        nabla10 = sum_a mu_z[a] dz_a ∧."""
        bar = name == "dbar"
        mu = self.mu_zbar if bar else self.mu_z

        def build():
            return _block_sum([(mu[a], _dz_wedge(space.n, *space.bidegree, a, bar))
                               for a in range(space.n)])
        return _cached(space, target, (name, space.bidegree), build)

    def adjoint_data(self, op: "OperatorMatrix", gd: "GramMatrix", gc: "GramMatrix"):
        # A* = P_dom^{-1} A^H P_cod per mode
        AH = np.conj(np.swapaxes(_bc(op.data, op.domain), 0, 1))
        return np.einsum("de,ef...,fc->dc...", gd.Pinv, AH, gc.P)

    def pointwise(self, field):
        """(samples, to, back): the field's samples and the maps of section
        coefficients to samples on which a product with it is pointwise, and
        back; each maps only the trailing field axes.

        A constant field (trailing axes all 1) multiplies the modes as they
        are: it is its own samples and both maps are the identity.  Otherwise
        the field and a section have modes |k| <= M, and their product modes
        |k| <= 2M.  to() samples modes on L = 3M + 1 points per direction and
        back() takes the modes |k| <= M of samples.  A product mode k lands on
        a kept mode only if k = j (mod L) with |j| <= M, and |k - j| <= 3M < L,
        so k = j: back() of the sampled product is the full convolution cropped
        to |k| <= M.
        """
        dims = len(self.field_shape)
        if all(s == 1 for s in np.shape(field)[-dims:]):
            return field, (lambda a: a), (lambda a: a)
        M = self.disc.M
        L = 3 * M + 1
        axes = tuple(range(-dims, 0))
        keep = (Ellipsis,) + np.ix_(*[np.arange(-M, M + 1) % L] * dims)

        def to(a):
            samples = np.zeros(np.shape(a)[:-dims] + (L,) * dims, dtype=complex)
            samples[keep] = a
            return np.fft.ifftn(samples, axes=axes, norm="forward")

        def back(samples):
            return np.fft.fftn(samples, axes=axes, norm="forward")[keep]

        return to(field), to, back

    def constant_field(self, c) -> np.ndarray:
        """The field that is the constant c (of any shape) everywhere: its zero mode."""
        c = np.asarray(c, dtype=complex)
        out = np.zeros(c.shape + self.field_shape, dtype=complex)
        out[(Ellipsis,) + self.zero_mode_index()] = c
        return out

    def dbar_of_field(self, space: "FormSpace", W: np.ndarray) -> np.ndarray:
        """Componentwise dbar of an untwisted vertical field, K[a,c] = d W_a / d z̄_c:
        the multiplier with chi = 0, the calculus' own when the bundle is untwisted."""
        n = space.n
        mu = self.mu_zbar
        if np.any(space.bundle.chi):
            kappa = _wavenumbers(n, self.disc.M, np.zeros(2 * n))
            mu = dzbar_multiplier(space.torus.period, *kappa)
        return np.stack([np.stack([mu[c] * W[a] for c in range(n)]) for a in range(n)])

    def hodge_solver(self, space: "FormSpace", rank_tol: float, expected_kernel: int):
        from .hodge import _SpectralSolver   # hodge imports this module
        return _SpectralSolver(space)


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
    calculus: object = field(compare=False, repr=False)  # _SpectralCalculus or grid._GridCalculus

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
        return self.calculus.field_shape

    @property
    def dim(self):
        return self.ncomp * int(np.prod(self.field_shape))

    def zeros(self) -> "FormSection":
        return FormSection(self, np.zeros((self.ncomp,) + self.field_shape, dtype=complex))

    def section(self, values) -> "FormSection":
        """The section of these modes (spectral) or samples (grid), turned into
        coefficients; FormSection(space, coeffs) takes coefficients as they are."""
        arr = np.asarray(values, dtype=complex)
        if arr.shape != (self.ncomp,) + self.field_shape:
            arr = arr.reshape((self.ncomp,) + self.field_shape)
        return FormSection(self, self.calculus.coefficients(arr))

    def sibling(self, bidegree) -> "FormSpace":
        """The space of another bidegree on the same fibre, sharing this calculus."""
        bidegree = _checked_bidegree(self.n, bidegree)
        return FormSpace(self.torus, self.bundle, bidegree, self.disc, self.calculus)

    # pointwise metric on components (constant; a scalar on the n = 1 grid)
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
    """A form space with a fresh fibre calculus; use sibling() for the same fibre.

    The one backend dispatch: the calculus chosen here carries every step that
    differs between the spectral and the grid discretization.
    """
    bidegree = _checked_bidegree(torus.n, bidegree)
    if isinstance(disc, Spectral):
        if not bundle.is_flat:
            raise DiscMismatch("spectral discretization requires a flat bundle")
        calc = _SpectralCalculus(torus, bundle, disc)
    elif isinstance(disc, Grid):
        if bundle.is_flat:
            raise DiscMismatch("grid discretization requires a positive bundle")
        from .grid import _GridCalculus   # the only module that imports scipy
        calc = _GridCalculus(torus, bundle, disc)
    else:
        raise DiscMismatch(f"unknown discretization {disc!r}")
    return FormSpace(torus, bundle, bidegree, disc, calc)


def band_limited(space: FormSpace, rng) -> "FormSection":
    """A smooth random unit section from the calculus' random_coeffs: every
    mode (spectral), or the samples of six low modes (grid)."""
    u = space.section(space.calculus.random_coeffs(space, rng))
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

    data is a numpy array of shape (ncomp_cod, ncomp_dom, *shape), a component
    block per coefficient that acts on the component axis; a trailing dim of
    size 1 broadcasts over the field shape, so a constant-coefficient operator
    is one block on either backend.  Or data is the sparse y-Fourier matrix A
    of a grid derivative or of what is composed from or adjoint to it (n = 1,
    one component): grid coefficients live in A's basis, so the map is A @ v
    and composition is the product of the matrices.

    An operator from assemble_dbar or assemble_nabla10 carries the key of its
    data in the fibre calculus' operator cache, so that adjoint() caches too.
    The sign is -1 only where a grid fibre shares one matrix between two
    bidegrees that differ by a sign (the ∂̄ out of (1,0)), and on what is
    composed from or adjoint to such an operator.
    """

    def __init__(self, domain: FormSpace, codomain: FormSpace, data, key=None, sign=1):
        self.domain = domain
        self.codomain = codomain
        self.data = data
        self.key = key
        self.sign = sign

    def apply(self, u: FormSection) -> FormSection:
        if u.space.bidegree != self.domain.bidegree or u.space.field_shape != self.domain.field_shape:
            raise ShapeMismatch("operator domain does not match section space")
        if isinstance(self.data, np.ndarray):
            out = np.einsum("cd...,d...->c...", _bc(self.data, self.domain), u.coeffs)
        else:
            out = (self.data @ u.coeffs.ravel()).reshape(u.coeffs.shape)
        return FormSection(self.codomain, out if self.sign == 1 else -out)

    def compose(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """self o other, both with array data or both with sparse data."""
        if isinstance(self.data, np.ndarray):
            data = np.einsum("cd...,de...->ce...", _bc(self.data, self.domain),
                             _bc(other.data, other.domain))
        else:
            data = self.data @ other.data
        return OperatorMatrix(other.domain, self.codomain, data, sign=self.sign * other.sign)

    def __matmul__(self, other):
        return self.compose(other)

    def __add__(self, other):
        """Sum of two operators with array data: a sparse (grid, n = 1) fibre
        has no Laplacian or curvature commutator of two terms."""
        a, b = _bc(self.data, self.domain), _bc(other.data, other.domain)
        data = (a if self.sign == 1 else -a) + (b if other.sign == 1 else -b)
        return OperatorMatrix(self.domain, self.codomain, data)

    def __mul__(self, scalar):
        return OperatorMatrix(self.domain, self.codomain, self.data * (self.sign * scalar))

    __rmul__ = __mul__


def _bc(data, space):
    """Broadcast array data to full field shape."""
    target = data.shape[:2] + space.field_shape
    return np.broadcast_to(data, target)


def _pointwise_block(domain: FormSpace, codomain: FormSpace, block) -> OperatorMatrix:
    """The operator with the constant component block at every coefficient."""
    data = np.reshape(block, np.shape(block) + (1,) * len(domain.field_shape))
    return OperatorMatrix(domain, codomain, data.astype(complex))


def zero_operator(domain: FormSpace, codomain: FormSpace) -> OperatorMatrix:
    """The zero map, one zero block on either backend."""
    return _pointwise_block(domain, codomain, np.zeros((codomain.ncomp, domain.ncomp)))


# ---------------------------------------------------------------------------
# Gram matrices and the L2 pairing


class GramMatrix:
    """Inner-product data of a FormSpace: the constant component matrix P,
    the component metric times the calculus' quadrature weight (1 on the
    orthonormal modes, 1/N^2 on grid coefficients)."""

    def __init__(self, space: FormSpace):
        # no reference back to the space: the calculus keeps this object, and
        # without a cycle a fibre is freed as soon as its last space goes
        self.P = space.comp_metric() * space.calculus.quadrature_weight
        self.Pinv = np.linalg.inv(self.P)

    def pair(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """M[i, j] = (us[j], vs[i]) of coefficient stacks (m, ncomp, *field)."""
        nc = len(self.P)
        Pu = self.P @ us.reshape(len(us), nc, -1)
        return vs.reshape(len(vs), -1).conj() @ Pu.reshape(len(us), -1).T


def gram(space: FormSpace):
    """The Gram data of space, kept by its calculus for every sibling."""
    grams = space.calculus.grams
    if space.bidegree not in grams:
        grams[space.bidegree] = GramMatrix(space)
    return grams[space.bidegree]


def pair_matrix(us: Sequence[FormSection], vs: Sequence[FormSection]) -> np.ndarray:
    """The matrix M[i, j] = (us[j], vs[i]) of L2 pairings of two sequences of
    sections of one space, as one matrix product with the fibre's Gram data:
    v^H M u is the pairing of sum_j u_j us[j] with sum_i v_i vs[i]."""
    if not us or not vs:
        return np.zeros((len(vs), len(us)), dtype=complex)
    for w in (*us, *vs):
        _same_space(us[0], w)
    return gram(us[0].space).pair(np.stack([u.coeffs for u in us]),
                                  np.stack([v.coeffs for v in vs]))


def pair_l2(u: FormSection, v: FormSection) -> complex:
    """L2 inner product (u, v), the 1 x 1 pair_matrix; on (n,0)-forms this is
    sqrt(-1)^{n^2} int <u ^ v̄, h>."""
    _same_space(u, v)
    return complex(gram(u.space).pair(u.coeffs[None], v.coeffs[None])[0, 0])


def adjoint(op: OperatorMatrix) -> OperatorMatrix:
    """Formal adjoint of an operator from assemble_dbar or assemble_nabla10:
    <A u, v>_cod = <u, A* v>_dom exactly in matrix arithmetic.

    It is cached under ("adjoint", *key) and built between the spaces its
    data belongs to, so a grid fibre keeps one adjoint per operator too: the
    Gram weights of (p,1) and (p,0), and of (1,q) and (0,q), differ by the same
    constant for both p and q.
    """
    name, base = op.key

    def build():   # the adjoint of the data's own operator, its sign left aside
        src = _ASSEMBLERS[name](op.domain.sibling(base))
        return op.domain.calculus.adjoint_data(src, gram(src.domain), gram(src.codomain))
    data = _operator_data(op.domain, ("adjoint",) + op.key, build)
    return OperatorMatrix(op.codomain, op.domain, data, sign=op.sign)


# ---------------------------------------------------------------------------
# operator assembly


def _cached(space: FormSpace, target: FormSpace, key, build, sign=1) -> OperatorMatrix:
    """The operator sign * data from space to target, its data built once per
    fibre calculus under key = (name, bidegree the data belongs to)."""
    return OperatorMatrix(space, target, _operator_data(space, key, build), key, sign)


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
    if q + 1 > space.n:
        raise BidegreeOverflow(f"dbar out of (p,{q}) with n={space.n}")
    return space.calculus.first_order(space, space.sibling((p, q + 1)), "dbar")


def assemble_nabla10(space: FormSpace) -> OperatorMatrix:
    """Chern-connection (1,0)-part: (p,q) -> (p+1,q)."""
    p, q = space.bidegree
    if p + 1 > space.n:
        raise BidegreeOverflow(f"nabla10 out of ({p},q) with n={space.n}")
    return space.calculus.first_order(space, space.sibling((p + 1, q)), "nabla10")


_ASSEMBLERS = {"dbar": assemble_dbar, "nabla10": assemble_nabla10}


def _wedge11_block(space: FormSpace, C: np.ndarray) -> np.ndarray:
    """Constant component block of the wedge with sum C_ab dz_a ^ dz̄_b on
    space: sum_ab C_ab ε_a ε̄_b."""
    p, q = space.bidegree
    n = space.n
    if p + 1 > n or q + 1 > n:
        raise BidegreeOverflow(f"(1,1)-wedge out of ({p},{q}) with n={n}")
    return _block_sum([(C[a, b], _dz_wedge(n, p, q + 1, a) @ _dz_wedge(n, p, q, b, True))
                       for a in range(n) for b in range(n)])


def _wedge11(space: FormSpace, C: np.ndarray) -> OperatorMatrix:
    """Wedge with the (1,1)-form sum C_ab dz_a ^ dz̄_b: (p,q) -> (p+1,q+1)."""
    target = space.sibling((space.bidegree[0] + 1, space.bidegree[1] + 1))
    return _pointwise_block(space, target, _wedge11_block(space, C))


def lefschetz_L(space: FormSpace) -> OperatorMatrix:
    """Wedge with omega."""
    g = space.torus.kaehler
    return _wedge11(space, 0.5j * g)


def _lambda_block(space: FormSpace) -> np.ndarray:
    """Constant block of Lambda: (p,q) -> (p-1,q-1), p, q >= 1: P_below^{-1} L^H P_space
    for the omega-wedge block L.  The quadrature weight of the Gram data
    cancels, so both backends share it."""
    p, q = space.bidegree
    below = space.sibling((p - 1, q - 1))
    return (np.linalg.inv(below.comp_metric())
            @ _wedge11_block(below, 0.5j * space.torus.kaehler).conj().T
            @ space.comp_metric())


def lefschetz_Lambda(space: FormSpace) -> OperatorMatrix:
    """Adjoint of the omega-wedge: (p,q) -> (p-1,q-1)."""
    p, q = space.bidegree
    target = space.sibling((max(p - 1, 0), max(q - 1, 0)))
    if p == 0 or q == 0:
        return zero_operator(space, target)
    return _pointwise_block(space, target, _lambda_block(space))


def curvature_action(space: FormSpace) -> OperatorMatrix:
    """Wedge with Theta(h), whose curvature matrix is zero on a flat bundle."""
    return _wedge11(space, space.bundle.curvature)


# ---------------------------------------------------------------------------
# pointwise products and contraction


def multiply(field: np.ndarray, u: FormSection) -> FormSection:
    """Multiply a section by a scalar field (untwisted modes or grid samples)."""
    samples, to, back = u.space.calculus.pointwise(field)
    return FormSection(u.space, back(samples * to(u.coeffs)))


def contract(W: np.ndarray, u: FormSection) -> FormSection:
    """Interior product of the (1,0) vector field sum_a W[a] d/dz_a into the
    holomorphic slots of u: sum_a W[a] ε_aᵀ.

    W has shape (n, *field_shape) and is untwisted: Fourier modes without
    character shift (spectral) or plain periodic samples (grid).
    """
    p, q = u.space.bidegree
    if p < 1:
        raise BidegreeUnderflow("contraction needs p >= 1")
    target = u.space.sibling((p - 1, q))
    samples, to, back = u.space.calculus.pointwise(W)
    terms = [(w, _dz_wedge(u.space.n, p - 1, q, a).T) for a, w in enumerate(samples)]
    return FormSection(target, back(_block_sum(terms, to(u.coeffs))))


def contract_ks(K_field: np.ndarray, u: FormSection) -> FormSection:
    """Contract a T^{1,0}-valued (0,1)-form K = sum K[a,c] dz̄_c ⊗ d/dz_a into u.

    Computes sum_c dz̄_c ^ (K[a,c] d/dz_a ⌟ u) = sum_ac K[a,c] ε̄_c ε_aᵀ u;
    bidegree (p,q) -> (p-1,q+1).  K_field has shape (n, n, *field_shape)
    (constant trailing dims broadcast).
    """
    p, q = u.space.bidegree
    n = u.space.n
    if p < 1:
        raise BidegreeUnderflow("contraction needs p >= 1")
    if q + 1 > n:
        raise BidegreeOverflow("K-contraction overflows antiholomorphic degree")
    Ks, to, back = u.space.calculus.pointwise(K_field)
    terms = [(Ks[a, c], _dz_wedge(n, p - 1, q, c, True) @ _dz_wedge(n, p - 1, q, a).T)
             for a in range(n) for c in range(n)]
    return FormSection(u.space.sibling((p - 1, q + 1)), back(_block_sum(terms, to(u.coeffs))))
