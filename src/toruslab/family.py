"""t-direction calculus on the universal torus trivialization.

Horizontal lifts, Kodaira-Spencer representatives, the primitive-lift
construction, and the Berndtsson representative: the one place where a
section's five forms are built, each once, behind the admissibility gates
(the last checks property (a), the primitivity of xi ⌟ dbar u); both
curvature routes only read them.

Conventions.  A fiber section f is extended to nearby fibers in the frame
hat-dz_a = dx_a + sum_b Omega_{ab}(t) dy_b (the fiberwise dz-frame written in
universal coordinates).  With u = S(x,y,t) hat-dz_1 ^ ... ^ hat-dz_n + dt ^ v:

* the trivialization lift xi = tau d/dt|_{(x,y)} contracts to zero with the
  hat-frame, so every restricted contraction below is a genuine bundle section;
* the dt-component of dbar u restricted to the fiber is alpha0 = kappa_triv f
  (plus -dbar v), for both the constant extension (flat bundles) and the
  holomorphic theta extension (positive bundles);
* the dt-component of nabla^{1,0} u restricted to the fiber is phi0 - nabla v,
  with phi0 in closed form: tr(Omega' (Omega - bar Omega)^{-1}) f for flat
  constant extensions, and y nabla_z theta + theta/(t - bar t) + heat-flow term
  - i pi d y^2 theta for the degree-d theta extension (the sum is periodic even
  though the individual y-weighted terms are not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ExtensionNotAdmissible
from .forms import (
    FormSection,
    FormSpace,
    adjoint,
    assemble_dbar,
    assemble_nabla10,
    contract,
    contract_ks,
    lefschetz_L,
    make_space,
    multiply,
)
from .geometry import FamilySpec, make_flat_bundle
from .hodge import HodgePackage, build_hodge


# ---------------------------------------------------------------------------
# horizontal lifts


@dataclass
class HorizontalLift:
    """xi = tau * (d/dt|_{(x,y)} + sum_a W_a d/dz_a) with W a periodic vertical field.

    K is the Kodaira-Spencer field of xi without tau: the fibre restriction of
    dbar xi is tau * K[a,c] dz̄_c ⊗ d/dz_a.  On the trivialization lift (W = 0)
    it is the constant K_triv = -Omega' (Omega - bar Omega)^{-1} with unit
    trailing dims; on a perturbed lift it is the (n, n, *field_shape) field
    constant_field(K_triv) + dbar W, K_triv on the zero mode of a spectral field.
    """

    family: FamilySpec
    space: FormSpace               # reference (n,0)-space fixing the discretization
    W: Optional[np.ndarray]        # (n, *field_shape) untwisted samples/modes or None
    K: np.ndarray                  # (n, n, 1, ...) or (n, n, *field_shape)

    @property
    def tau(self) -> complex:
        """The base tangent, the family's own."""
        return self.family.tau

    @property
    def n(self) -> int:
        return self.space.n

    def vertical_contract(self, u: FormSection) -> FormSection:
        """iota*(W-part of xi ⌟ u) (without tau); zero for the trivialization lift."""
        p, q = u.space.bidegree
        target = u.space.sibling((p - 1, q))
        if self.W is None:
            return target.zeros()
        return contract(self.W, u)


def _k_triv(family: FamilySpec) -> np.ndarray:
    """K_triv = -Omega' (Omega - bar Omega)^{-1} at the family's base point, (n, n)."""
    omega = np.atleast_2d(np.asarray(family.period_map(family.t), dtype=complex))
    dom = np.atleast_2d(np.asarray(family.dperiod_map(family.t), dtype=complex))
    return -dom @ np.linalg.inv(omega - omega.conj())


def trivialization_lift(family: FamilySpec, space: FormSpace) -> HorizontalLift:
    """The constant-(x,y) lift at the family's base point and tangent tau; for
    Omega(t) = t (n=1): xi = tau (d/dt + y d/dz)."""
    n = space.n
    K = _k_triv(family).reshape((n, n) + (1,) * len(space.field_shape))
    return HorizontalLift(family=family, space=space, W=None, K=K)


def perturb_lift(lift: HorizontalLift, W: np.ndarray) -> HorizontalLift:
    """Add a smooth periodic vertical field to a lift (same base tangent)."""
    W = np.asarray(W, dtype=complex)
    W_total = W if lift.W is None else lift.W + W
    calc = lift.space.calculus
    K = calc.constant_field(_k_triv(lift.family)) + calc.dbar_of_field(lift.space, W_total)
    return HorizontalLift(family=lift.family, space=lift.space, W=W_total, K=K)


def kappa(lift: HorizontalLift, f: FormSection) -> FormSection:
    """kappa^theta f = iota*(dbar xi) ⌟ f, an E-valued (n-1,1)-form."""
    return contract_ks(lift.tau * lift.K, f)


def _vertical_samples(lift: HorizontalLift) -> np.ndarray:
    """Raw samples of the full vertical component V = Omega' y + W (grid, n=1).

    Only ever used inside pointwise expressions (never differentiated), where
    the non-periodic trivialization part is legitimate.  Callers reach it only
    for positive bundles, whose spaces are always grid spaces.
    """
    calc = lift.space.calculus
    dom = complex(np.atleast_2d(lift.family.dperiod_map(lift.family.t))[0, 0])
    V = dom * calc.y.astype(complex)
    if lift.W is not None:
        V = V + lift.W[0]
    return V


def _theta_xi_zbar(lift: HorizontalLift) -> np.ndarray:
    """Samples of Theta(h)(xi, d/dz̄) = tau (phi_tz̄ + V phi_zz̄) (grid, n=1)."""
    calc = lift.space.calculus
    return lift.tau * (calc.phi_tzbar + _vertical_samples(lift) * calc.phi_zzbar)


def curvature_contraction_form(lift: HorizontalLift, f: FormSection) -> FormSection:
    """iota*((xi ⌟ Theta(h)) f): the (n,1)-form with dz̄_c-component Theta_{xi z̄_c} f.

    Vanishes identically for flat bundles and translation-invariant lifts of them.
    """
    space = f.space
    n = space.n
    target = space.sibling((n, 1))
    if space.bundle.is_flat:
        return target.zeros()
    # dz̄ ∧ dz_J = (-1)^n dz_J ∧ dz̄
    return multiply(((-1) ** n) * _theta_xi_zbar(lift), FormSection(target, f.coeffs))


def primitive_lift(theta0: HorizontalLift) -> HorizontalLift:
    """Correct theta0 by eta = (dbar^+ ((dbar xi)⌟omega))^sharp (omega-sharp),
    dbar^+ = dbar* G the dbar pseudo-inverse of the untwisted (0,2)-forms.

    theta0 is returned as-is when the defect (dbar xi)⌟omega vanishes: for
    n=1, which has no (0,2)-forms, and for the trivialization lift whenever
    Omega' is symmetric, as it is on every family here, since then
    K_triv^T g = -(1/2i) Y^{-1} Omega' Y^{-1} (Y = Im Omega) is symmetric.
    """
    space = theta0.space
    n = space.n
    if n == 1:
        return theta0
    torus = space.torus
    flat0 = make_flat_bundle(torus, np.zeros(2 * n))
    sp11 = make_space(torus, flat0, (1, 1), space.disc)
    # omega as an untwisted (1,1)-section with constant components (i/2) g_{ab};
    # n >= 2, so the space is spectral (the grid backend is n = 1 only)
    g = torus.kaehler
    w = sp11.section(sp11.calculus.constant_field([0.5j * g[J[0], K[0]] for J, K in sp11.comps]))
    defect = contract_ks(theta0.K, w)  # (0,2) untwisted
    if not np.any(defect.coeffs):
        return theta0
    eta_form = build_hodge(defect.space, expected_kernel=1).dbar_pinv(defect)  # (0,1)-form
    # sharp via omega: eta-form = eta ⌟ omega = (i/2) sum_a g_{ab} eta^a dz̄_b
    ginvT = np.linalg.inv(g.T)
    shape = (n,) + space.field_shape
    eta_vec = np.zeros(shape, dtype=complex)
    for a in range(n):
        for b in range(n):
            eta_vec[a] += (2.0 / 1j) * ginvT[a, b] * eta_form.coeffs[b]
    return perturb_lift(theta0, -eta_vec)


def primitivity_residual(lift: HorizontalLift, f: FormSection) -> float:
    """|| omega ^ kappa f || / ||f|| for a harmonic (n,0)-section f, tau included."""
    if lift.n == 1:
        return 0.0
    kf = kappa(lift, f)
    wedge = lefschetz_L(kf.space).apply(kf)
    nf = f.norm()
    return wedge.norm() / nf if nf > 0 else 0.0


# ---------------------------------------------------------------------------
# Berndtsson representatives of harmonic (n,0)-sections


def _extension(family: FamilySpec, f: FormSection,
               tol: float) -> Tuple[FormSection, FormSection, FormSection]:
    """(alpha0, phi0, psi) of the canonical admissible extension u of f:
    constant (flat) or theta-flow (positive).

    alpha0: dt-component of dbar u on the fiber (= kappa_triv f).
    phi0:   dt-component of nabla^{1,0} u on the fiber.
    psi:    fiberwise (n,1)-part of dbar u (dbar f; ~0 for harmonic f).

    Raises ExtensionNotAdmissible when iota* L^{1,0} dbar u cannot be made to
    vanish, which for the constant extension happens iff nabla f != 0.
    """
    space = f.space
    n = space.n
    t = complex(family.t)
    K = _k_triv(family).reshape((n, n) + (1,) * len(space.field_shape))
    alpha0 = contract_ks(K, f)
    psi = assemble_dbar(space).apply(f)
    nf = max(f.norm(), 1e-300)
    if space.bundle.is_flat:
        # constant extension in the hat-frame; admissible iff f has zero derivative
        grad = _plain_gradient_norm(f)
        if grad > tol * nf:
            raise ExtensionNotAdmissible(
                f"constant extension of a non-constant section (residual {grad:.3e})"
            )
        # tr(Omega' (Omega - bar Omega)^{-1}) = -tr K_triv
        return alpha0, -complex(np.trace(K).item()) * f, psi
    # positive bundle (n=1): theta-flow extension, holomorphic in t; it is only
    # defined on holomorphic sections (the heat flow extends the theta frame)
    if psi.norm() > tol * nf:
        raise ExtensionNotAdmissible(
            f"theta-flow extension of a non-holomorphic section "
            f"(dbar residual {psi.norm() / nf:.3e})"
        )
    calc = space.calculus
    d = space.bundle.degree
    s = t.imag
    # the cached d/dz - phi_z of the fibre, applied to f as a scalar section
    scalars = space.sibling((0, 0))
    nabla = assemble_nabla10(scalars)
    pz = calc.phi_z
    df = nabla.apply(FormSection(scalars, f.coeffs)).coeffs
    d2f = nabla.apply(FormSection(scalars, df)).coeffs
    F, nablaF, nabla2F = calc.samples(np.concatenate([f.coeffs, df, d2f]))
    # plain d^2/dz^2 via (nabla + phi_z)^2; the grid operators only ever touch
    # genuine sections, the polynomial-in-y factors act on samples afterwards
    dz2F = nabla2F + 2.0 * pz * nablaF + (pz**2 - np.pi * d / s) * F
    heat = dz2F / (4j * np.pi * d)
    y = calc.y
    S_tot = y * nablaF + F / (t - np.conj(t)) + heat - 1j * np.pi * d * y**2 * F
    return alpha0, space.section(S_tot[None]), psi


def _plain_gradient_norm(f: FormSection) -> float:
    """Norm of the plain z-derivatives of the mode coefficients of f (flat bundles)."""
    calc = f.space.calculus
    tot = 0.0
    for a in range(f.space.n):
        tot += float(np.sum(np.abs(calc.mu_z[a] * f.coeffs) ** 2))
        tot += float(np.sum(np.abs(calc.mu_zbar[a] * f.coeffs) ** 2))
    return float(np.sqrt(tot))


@dataclass(frozen=True)
class RepresentativeSet:
    """The forms both curvature routes read, of one harmonic section f.

    The canonical extension u is shifted to u + dt ^ v, v = V2; the three
    restricted contractions are those of the shifted extension.  By the Lie
    identity, iota*(xi ⌟ nabla^{1,0} u) = lie_u - nabla^{1,0} xi_u.
    """

    f: FormSection
    kf: FormSection                 # kappa f = iota*(dbar xi) ⌟ f, an (n-1,1)-form
    theta_f: FormSection            # iota*((xi ⌟ Theta(h)) f), an (n,1)-form
    lie_u: FormSection              # iota* L^{1,0}_xi u, an (n,0)-form (free of v)
    xi_u: FormSection               # iota*(xi ⌟ u), an (n-1,0)-form
    xi_dbar_u: FormSection          # iota*(xi ⌟ dbar u), an (n-1,1)-form


def berndtsson_representative(lift: HorizontalLift, f: FormSection, pkg_n0: HodgePackage,
                              tol: float = 1e-6) -> RepresentativeSet:
    """Shift the canonical extension so that (b) iota*(xi ⌟ nabla u) is
    orthogonal to the non-holomorphic part, keeping (c) the Dolbeault class of
    (dbar xi) ⌟ f, after checking (a): xi ⌟ dbar u is primitive.

    With the shift v = V2 (tau included) and gamma = tau W ⌟ psi:
    xi ⌟ u = tau W ⌟ f + v, xi ⌟ dbar u = gamma + tau alpha0 - dbar v and
    xi ⌟ nabla^{1,0} u = tau phi0 - nabla^{1,0} v.  The Lie derivative
    iota* L^{1,0}_xi u = nabla^{1,0}(iota*(xi ⌟ u)) + iota*(xi ⌟ nabla^{1,0} u)
    = nabla^{1,0}(tau W ⌟ f) + tau phi0: the nabla v contributions cancel.

    (a) needs no shift: gamma = 0, since a harmonic f has psi = dbar f = 0, and
    omega ∧ (K_triv ⌟ f) = 0, since Omega' is symmetric on every family here,
    as Omega is (make_torus rejects a non-symmetric one at n = 2).

    The extension is that of the lift's own family, lift.family.

    Raises ExtensionNotAdmissible on the extension's own gate; when
    iota* L^{1,0} dbar u = dbar lie_u + theta_f + nabla^{1,0} kf exceeds tol
    relative to the first-order term norms; or, for n >= 2, when
    omega ∧ (gamma + tau alpha0) exceeds tol relative to its argument and f.
    """
    space = f.space
    n = space.n
    alpha0, phi0, psi = _extension(lift.family, f, tol)
    phi0 = lift.tau * phi0
    sp_lower = space.sibling((n - 1, 0))
    w = lift.tau * lift.vertical_contract(f)
    lie_u = assemble_nabla10(sp_lower).apply(w) + phi0
    kf = kappa(lift, f)
    theta_f = curvature_contraction_form(lift, f)
    nabla_k = assemble_nabla10(kf.space).apply(kf)
    resid = assemble_dbar(space).apply(lie_u) + theta_f + nabla_k
    scale = max(nabla_k.norm(), theta_f.norm(), lie_u.norm(), f.norm())
    if resid.norm() > tol * scale:
        raise ExtensionNotAdmissible(
            f"iota* L^{{1,0}} dbar u residual {resid.norm() / scale:.3e}"
        )

    unshifted = lift.tau * lift.vertical_contract(psi) + lift.tau * alpha0  # gamma + tau alpha0
    if n >= 2:
        wedge = lefschetz_L(unshifted.space).apply(unshifted).norm()
        scale = max(unshifted.norm(), f.norm())
        if wedge > tol * scale:
            raise ExtensionNotAdmissible(
                f"omega ∧ iota*(xi ⌟ dbar u) residual {wedge / scale:.3e}"
            )

    # V2: solves nabla V2 = P_perp phi0 (G' = G on (n,0)-forms)
    p_perp_phi = phi0 - pkg_n0.harmonic_project(phi0)
    v = adjoint(assemble_nabla10(sp_lower)).apply(pkg_n0.green(p_perp_phi))
    return RepresentativeSet(f=f, kf=kf, theta_f=theta_f, lie_u=lie_u, xi_u=w + v,
                             xi_dbar_u=unshifted - assemble_dbar(sp_lower).apply(v))


def class_match_residual(rep: RepresentativeSet, pkg_n11: HodgePackage) -> float:
    """Harmonic part of (dbar xi) ⌟ f - xi ⌟ dbar u (property c), relative to ||f||."""
    diff = rep.kf - rep.xi_dbar_u
    nf = max(rep.f.norm(), 1e-300)
    return pkg_n11.harmonic_project(diff).norm() / nf
