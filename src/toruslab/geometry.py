"""Flat complex tori, Hermitian line bundles on them, and one-parameter families.

A torus is C^n / (Z^n + Omega Z^n) with Im Omega positive definite.  We work in
the universal real trivialization z = x + Omega y with (x, y) in R^{2n}/Z^{2n}.
The flat Kaehler form is omega = (i/2) sum g_{ab} dz_a dz̄_b with g = (Im Omega)^{-1},
which makes the total volume int omega^n / n! exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonPositivePeriod, UnsupportedDimension


@dataclass(frozen=True)
class LatticeTorus:
    """A flat complex torus with its volume-normalized Kaehler form.

    n        complex dimension (1 or 2)
    period   n x n complex period matrix Omega
    kaehler  n x n positive Hermitian coefficient matrix g of omega
    """

    n: int
    period: np.ndarray
    kaehler: np.ndarray

    def __post_init__(self):
        self.period.setflags(write=False)
        self.kaehler.setflags(write=False)


@dataclass(frozen=True)
class BundleData:
    """A Hermitian line bundle on a fixed fiber.

    kind       "flat" (unitary character chi in [0,1)^{2n}) or "positive"
               (degree d >= 1 on an elliptic curve, quasi-periodic gauge)
    chi        flat character, length 2n (flat kind only; zeros otherwise)
    degree     degree d (positive kind only; 0 for flat)
    curvature  n x n coefficient matrix C of Theta(h) = sum C_ab dz_a ^ dz̄_b
    """

    kind: str
    chi: np.ndarray
    degree: int
    curvature: np.ndarray

    def __post_init__(self):
        self.chi.setflags(write=False)
        self.curvature.setflags(write=False)

    @property
    def is_flat(self) -> bool:
        return self.kind == "flat"

    @property
    def is_trivial(self) -> bool:
        """Flat with chi in Z^{2n} to 1e-9: the one rule for the kernel of a
        flat fibre.  Its box is lambda(kappa) Id on the mode kappa = k + chi,
        zero only at kappa = 0, so every bidegree has harmonic forms (all of
        the kappa = 0 mode) exactly when the bundle is trivial."""
        dist = np.minimum(self.chi, 1.0 - self.chi)   # chi is kept in [0, 1)
        return self.is_flat and bool(np.all(dist <= 1e-9))


def make_torus(n: int, period) -> LatticeTorus:
    """Build a torus from its period matrix; the Kaehler matrix is (Im Omega)^{-1}.

    Raises NonPositivePeriod if Im Omega has an eigenvalue <= 1e-12.
    """
    omega = np.atleast_2d(np.asarray(period, dtype=complex)).copy()
    if omega.shape != (n, n):
        raise ValueError(f"period must be {n}x{n}, got {omega.shape}")
    if n == 2 and not np.allclose(omega, omega.T, atol=1e-12):
        raise NonPositivePeriod("period matrix must be symmetric for n=2")
    im = (omega.imag + omega.imag.T) / 2.0
    eigs = np.linalg.eigvalsh(im)
    if eigs.min() <= 1e-12:
        raise NonPositivePeriod(f"Im(period) eigenvalue {eigs.min():.3e} <= 1e-12")
    g = np.linalg.inv(im).astype(complex)
    g = (g + g.conj().T) / 2.0
    return LatticeTorus(n=n, period=omega, kaehler=g)


def make_flat_bundle(torus: LatticeTorus, chi) -> BundleData:
    """Flat unitary line bundle with character chi in [0,1)^{2n}; curvature 0."""
    chi = np.mod(np.asarray(chi, dtype=float).ravel(), 1.0)
    if chi.shape != (2 * torus.n,):
        raise ValueError(f"chi must have length {2 * torus.n}")
    return BundleData(
        kind="flat",
        chi=chi,
        degree=0,
        curvature=np.zeros((torus.n, torus.n), dtype=complex),
    )


def make_positive_bundle(torus: LatticeTorus, d: int) -> BundleData:
    """Degree-d positive line bundle on an elliptic curve (n=1 only).

    Sections are represented by functions F(x, y) periodic in x and quasi-periodic
    in y with factor of automorphy exp(-2 pi i d (x + t y) - pi i d t).  The
    metric potential phi = 2 pi d y^2 Im(t) (sampled by the grid calculus) gives
    the translation-invariant curvature i*Theta = 2 pi d omega.
    """
    if torus.n != 1:
        raise UnsupportedDimension("positive bundles are implemented for n=1 only")
    if d < 1:
        raise ValueError("degree d must be a positive integer")
    g = torus.kaehler[0, 0].real
    curv = np.array([[np.pi * d * g]], dtype=complex)  # Theta = pi d g dz ^ dz̄
    return BundleData(
        kind="positive",
        chi=np.zeros(2, dtype=float),
        degree=d,
        curvature=curv,
    )


@dataclass(frozen=True)
class FamilySpec:
    """A one-parameter holomorphic family of tori with bundles.

    name        family identifier, as in a config's "family"
    t           base point (Im t > 0)
    period_map  t -> Omega(t)
    dperiod_map t -> dOmega/dt(t) (analytic derivative)
    bundle_map  (torus, t) -> BundleData on the fiber at t
    tau         base tangent direction (complex scalar)
    """

    name: str
    t: complex
    period_map: Callable[[complex], np.ndarray]
    dperiod_map: Callable[[complex], np.ndarray]
    bundle_map: Callable[[LatticeTorus, complex], BundleData]
    tau: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.t.imag <= 0:
            raise NonPositivePeriod("base point must satisfy Im t > 0")

    def torus_at(self, t: Optional[complex] = None) -> LatticeTorus:
        t = self.t if t is None else t
        omega = np.atleast_2d(np.asarray(self.period_map(t), dtype=complex))
        return make_torus(omega.shape[0], omega)

    def bundle_at(self, t: Optional[complex] = None) -> BundleData:
        t = self.t if t is None else t
        return self.bundle_map(self.torus_at(t), t)


def jumping_character(t: complex) -> np.ndarray:
    """Character of L_{[0] - [a(t)]} with a(t) the image of sqrt(-1) in C/(Z + tZ).

    Writing a = alpha1 + alpha2 t with real alpha, the duality pairing
    Pic^0(X_t) ~ C/(Z + tZ) assigns the character chi = (alpha2, -alpha1) mod 1.
    chi = 0 exactly when sqrt(-1) = m + n t is solvable over Z^2.
    """
    s = t.imag
    alpha2 = 1.0 / s
    alpha1 = -t.real / s
    return np.mod(np.array([alpha2, -alpha1]), 1.0)


def jumping_family(t: complex, tau: complex = 1.0 + 0.0j) -> FamilySpec:
    """The rank-jumping family: fibers C/(Z + tZ), bundle L_{[0] - [a(t)]}."""
    def bundle_map(torus, tt):
        return make_flat_bundle(torus, jumping_character(tt))

    return FamilySpec(
        name="jumping",
        t=t,
        period_map=lambda tt: np.array([[tt]]),
        dperiod_map=lambda tt: np.array([[1.0 + 0.0j]]),
        bundle_map=bundle_map,
        tau=tau,
    )


def elliptic_family(t: complex, d: int = 0, chi=(0.0, 0.0), tau: complex = 1.0 + 0.0j) -> FamilySpec:
    """Elliptic family Omega(t) = t; bundle is degree-d positive (d >= 1) or flat chi."""
    if d >= 1:
        def bundle_map(torus, tt):
            return make_positive_bundle(torus, d)
    else:
        chi_arr = np.asarray(chi, dtype=float)

        def bundle_map(torus, tt):
            return make_flat_bundle(torus, chi_arr)

    return FamilySpec(
        name="elliptic",
        t=t,
        period_map=lambda tt: np.array([[tt]]),
        dperiod_map=lambda tt: np.array([[1.0 + 0.0j]]),
        bundle_map=bundle_map,
        tau=tau,
    )


def siegel_diagonal_family(t: complex, chi=(0, 0, 0, 0), tau: complex = 1.0 + 0.0j) -> FamilySpec:
    """Abelian-surface family Omega(t) = diag(t, 2t) with a flat bundle."""
    chi_arr = np.asarray(chi, dtype=float)

    return FamilySpec(
        name="siegel-diagonal",
        t=t,
        period_map=lambda tt: np.array([[tt, 0.0], [0.0, 2.0 * tt]]),
        dperiod_map=lambda tt: np.array([[1.0 + 0.0j, 0.0], [0.0, 2.0 + 0.0j]]),
        bundle_map=lambda torus, tt: make_flat_bundle(torus, chi_arr),
        tau=tau,
    )

