"""t-direction calculus on the universal torus trivialization.

Horizontal lifts, Kodaira-Spencer representatives, the primitive-lift
construction, and the representative method (with the twisted Lie derivative
of the extension) used by the curvature computations.

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
from typing import Optional

import numpy as np

from .errors import ExtensionNotAdmissible, HodgeUnavailable
from .forms import (
    FormSection,
    FormSpace,
    adjoint,
    assemble_dbar,
    assemble_nabla10,
    contract,
    contract_ks,
    lefschetz_L,
    lefschetz_Lambda,
    make_space,
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
    t: complex
    tau: complex
    space: FormSpace               # reference (n,0)-space fixing the discretization
    W: Optional[np.ndarray]        # (n, *field_shape) untwisted samples/modes or None
    K: np.ndarray                  # (n, n, 1, ...) or (n, n, *field_shape)

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
    return HorizontalLift(family=family, t=family.t, tau=family.tau, space=space, W=None, K=K)


def perturb_lift(lift: HorizontalLift, W: np.ndarray) -> HorizontalLift:
    """Add a smooth periodic vertical field to a lift (same base tangent)."""
    W = np.asarray(W, dtype=complex)
    W_total = W if lift.W is None else lift.W + W
    calc = lift.space.calculus
    K = calc.constant_field(_k_triv(lift.family)) + calc.dbar_of_field(lift.space, W_total)
    return HorizontalLift(family=lift.family, t=lift.t, tau=lift.tau, space=lift.space,
                          W=W_total, K=K)


def kappa(lift: HorizontalLift, f: FormSection) -> FormSection:
    """kappa^theta f = iota*(dbar xi) ⌟ f, an E-valued (n-1,1)-form."""
    return contract_ks(lift.tau * lift.K, f)


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
    """|| omega ^ ((dbar xi) ⌟ f) || / ||f|| for a harmonic (n,0)-section f."""
    if lift.n == 1:
        return 0.0
    kf = contract_ks(lift.K, f)
    wedge = lefschetz_L(kf.space).apply(kf)
    nf = f.norm()
    return wedge.norm() / nf if nf > 0 else 0.0


# ---------------------------------------------------------------------------
# extensions of harmonic (n,0)-sections


@dataclass(frozen=True)
class Extension:
    """Fiber data of the canonical extension u of a harmonic (n,0)-section f.

    alpha0: dt-component of dbar u on the fiber (= kappa_triv f).
    phi0:   dt-component of nabla^{1,0} u on the fiber.
    psi:    fiberwise (n,1)-part of dbar u (dbar f; ~0 for harmonic f).
    """

    alpha0: FormSection
    phi0: FormSection
    psi: FormSection


def make_extension(family: FamilySpec, f: FormSection,
                   admissibility_tol: float = 1e-6) -> Extension:
    """Canonical admissible extension of f: constant (flat) or theta-flow (positive).

    Raises ExtensionNotAdmissible when iota* L^{1,0} dbar u cannot be made to
    vanish, which for the constant extension happens iff nabla f != 0.
    """
    space = f.space
    t = complex(family.t)
    lift = trivialization_lift(family, space)
    alpha0 = contract_ks(lift.K, f)
    psi = assemble_dbar(space).apply(f)
    nf = max(f.norm(), 1e-300)
    if space.bundle.is_flat:
        # constant extension in the hat-frame; admissible iff f has zero derivative
        grad = _plain_gradient_norm(f)
        if grad > admissibility_tol * nf:
            raise ExtensionNotAdmissible(
                f"constant extension of a non-constant section (residual {grad:.3e})"
            )
        # tr(Omega' (Omega - bar Omega)^{-1}) = -tr K_triv
        phi0 = -complex(np.trace(lift.K).item()) * f
        return Extension(alpha0=alpha0, phi0=phi0, psi=psi)
    # positive bundle (n=1): theta-flow extension, holomorphic in t; it is only
    # defined on holomorphic sections (the heat flow extends the theta frame)
    if psi.norm() > admissibility_tol * nf:
        raise ExtensionNotAdmissible(
            f"theta-flow extension of a non-holomorphic section "
            f"(dbar residual {psi.norm() / nf:.3e})"
        )
    calc = space.calculus
    d = space.bundle.degree
    s = t.imag
    F = f.coeffs[0]
    # the cached d/dz - phi_z of the fibre, applied to F as a scalar section
    nabla = assemble_nabla10(space.sibling((0, 0))).data
    pz = calc.phi_z
    nablaF = (nabla @ F.ravel()).reshape(F.shape)
    nabla2F = (nabla @ nablaF.ravel()).reshape(F.shape)
    # plain d^2/dz^2 via (nabla + phi_z)^2; the grid operators only ever touch
    # genuine sections, the polynomial-in-y factors act pointwise afterwards
    dz2F = nabla2F + 2.0 * pz * nablaF + (pz**2 - np.pi * d / s) * F
    heat = dz2F / (4j * np.pi * d)
    y = calc.y
    S_tot = y * nablaF + F / (t - np.conj(t)) + heat - 1j * np.pi * d * y**2 * F
    phi0 = space.section(S_tot[None])
    return Extension(alpha0=alpha0, phi0=phi0, psi=psi)


def _plain_gradient_norm(f: FormSection) -> float:
    """Norm of the plain z-derivatives of the mode coefficients of f (flat bundles)."""
    calc = f.space.calculus
    tot = 0.0
    for a in range(f.space.n):
        tot += float(np.sum(np.abs(calc.mu_z[a] * f.coeffs) ** 2))
        tot += float(np.sum(np.abs(calc.mu_zbar[a] * f.coeffs) ** 2))
    return float(np.sqrt(tot))


# ---------------------------------------------------------------------------
# representatives


@dataclass(frozen=True)
class RepresentativeSet:
    """Berndtsson representative data of one harmonic section at the base point.

    The canonical extension u is shifted to u + dt ^ v; the three restricted
    contractions of the shifted extension are stored.
    """

    f: FormSection
    lift: HorizontalLift
    lie_u: FormSection              # iota* L^{1,0}_xi u, an (n,0)-form (free of v)
    xi_u: FormSection               # iota*(xi ⌟ u), an (n-1,0)-form
    xi_dbar_u: FormSection          # iota*(xi ⌟ dbar u), an (n-1,1)-form
    xi_nabla_u: FormSection         # iota*(xi ⌟ nabla^{1,0} u), an (n,0)-form
    primitive_ok: bool
    orthogonality_ok: bool


def berndtsson_representative(family: FamilySpec, lift: HorizontalLift,
                              f: FormSection, pkg_n0: HodgePackage,
                              pkg_n2: Optional[HodgePackage] = None,
                              tol: float = 1e-6) -> RepresentativeSet:
    """Correct the canonical extension so that (a) xi ⌟ dbar u is primitive,
    (b) iota*(xi ⌟ nabla u) is orthogonal to the non-holomorphic part, and
    (c) the Dolbeault class matches (dbar xi) ⌟ f.

    With the shift v = V1 + V2 (tau included) and gamma = tau W ⌟ psi:
    xi ⌟ u = tau W ⌟ f + v, xi ⌟ dbar u = gamma + tau alpha0 - dbar v and
    xi ⌟ nabla^{1,0} u = tau phi0 - nabla^{1,0} v.  The Lie derivative
    iota* L^{1,0}_xi u = nabla^{1,0}(iota*(xi ⌟ u)) + iota*(xi ⌟ nabla^{1,0} u)
    = nabla^{1,0}(tau W ⌟ f) + tau phi0: the nabla v contributions cancel.
    """
    space = f.space
    n = space.n
    if pkg_n0 is None:
        raise HodgeUnavailable("berndtsson_representative needs the (n,0) package")
    ext = make_extension(family, f, admissibility_tol=tol)
    gamma = lift.tau * lift.vertical_contract(ext.psi)
    alpha0 = lift.tau * ext.alpha0

    # V1: kills the omega-trace of gamma + alpha0 (only possible/needed for n >= 2)
    sp_lower = space.sibling((n - 1, 0))
    if n >= 2:
        if pkg_n2 is None:
            raise HodgeUnavailable("berndtsson_representative needs the (n,2) package")
        src = gamma + alpha0
        wedge = lefschetz_L(src.space).apply(src)           # (n,2)
        dstar = pkg_n2.dbar_pinv(wedge)                     # (n,1)
        v1 = lefschetz_Lambda(dstar.space).apply(dstar)     # (n-1,0)
    else:
        v1 = sp_lower.zeros()

    # V2: solves nabla V2 = P_perp phi0 (G' = G on (n,0)-forms)
    phi0 = lift.tau * ext.phi0
    p_perp_phi = phi0 - pkg_n0.harmonic_project(phi0)
    v2 = adjoint(assemble_nabla10(sp_lower)).apply(pkg_n0.green(p_perp_phi))

    v = v1 + v2
    w = lift.tau * lift.vertical_contract(f)
    lie_u = assemble_nabla10(sp_lower).apply(w) + phi0
    xi_u = w + v
    xi_dbar_u = gamma + alpha0 - assemble_dbar(sp_lower).apply(v)
    xi_nabla_u = phi0 - assemble_nabla10(sp_lower).apply(v)

    nf = max(f.norm(), 1e-300)
    primitive_ok = n == 1 or lefschetz_L(xi_dbar_u.space).apply(xi_dbar_u).norm() <= tol * nf
    orthogonality_ok = (xi_nabla_u - pkg_n0.harmonic_project(xi_nabla_u)).norm() <= tol * nf
    return RepresentativeSet(f=f, lift=lift, lie_u=lie_u, xi_u=xi_u, xi_dbar_u=xi_dbar_u,
                             xi_nabla_u=xi_nabla_u, primitive_ok=primitive_ok,
                             orthogonality_ok=orthogonality_ok)


def class_match_residual(rep: RepresentativeSet, pkg_n11: HodgePackage) -> float:
    """Harmonic part of (dbar xi) ⌟ f - xi ⌟ dbar u (property c), relative to ||f||."""
    kf = kappa(rep.lift, rep.f)
    diff = kf - rep.xi_dbar_u
    nf = max(rep.f.norm(), 1e-300)
    return pkg_n11.harmonic_project(diff).norm() / nf
