"""Curvature of the direct-image Hilbert field and of the ambient field.

Two independent routes are computed for the curvature form on the harmonic
basis of fiberwise holomorphic top forms:

* three-term route: ambient-curvature term minus the wedge pairing of the
  Kodaira-Spencer contractions minus the Gram matrix of the second fundamental
  form;
* pushforward route: fiber integral of the curvature-wedge top form contracted
  with the horizontal lift, plus the Gram matrix of xi ⌟ dbar u, evaluated
  fiberwise for a one-dimensional base.

direct_image_fibre is the one pipeline that sets up both routes on the fibre
at the base point: (n,0)-space -> Hodge package -> unit harmonic basis ->
trivialization lift.  curvature_H then evaluates the curvature on that basis.
Both routes only read the forms family.berndtsson_representative builds for
each section; the route of II follows the package: projection on (n,0), Green
on (n,1).

Sign conventions are pinned by the n=1 Hodge-Riemann sign test: for a
(1,0)-form, i u ∧ ū integrates to +|u|², and for a (0,1)-form to −|u|².
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import CurvatureNotInvertible, NotPrimitive
from .family import (
    HorizontalLift,
    RepresentativeSet,
    _theta_xi_zbar,
    _vertical_samples,
    berndtsson_representative,
    curvature_contraction_form,
    trivialization_lift,
)
from .forms import (
    Disc,
    FormSection,
    FormSpace,
    assemble_nabla10,
    curvature_action,
    lefschetz_L,
    lefschetz_Lambda,
    make_space,
    multiply,
    pair_l2,
    pair_matrix,
    zero_operator,
    _lambda_block,
    _wedge11_block,
    _wedge_sign,
)
from .geometry import FamilySpec
from .hodge import HodgePackage, build_hodge


# ---------------------------------------------------------------------------
# wedge pairings


def wedge_pair(us: Sequence[FormSection], vs: Sequence[FormSection],
               r: Optional[int] = None) -> np.ndarray:
    """M[i, j] = sqrt(-1)^{n^2} int < us[j] ∧ conj(vs[i]) ∧ omega^r / r!, h >,
    with the index convention of forms.pair_matrix; the sections of us share
    one space, and so do those of vs.

    r defaults to the filling power n - p(u) - q(v); the matrix is zero unless
    the bidegrees complement each other to (n,n).  The coupling of the two
    spaces' components is built once, and the L2 pairings of all component
    slices are one pair_matrix.
    """
    M = np.zeros((len(vs), len(us)), dtype=complex)
    if not us or not vs:
        return M
    space, vspace = us[0].space, vs[0].space
    n = space.n
    p, q = space.bidegree
    pp, qq = vspace.bidegree
    if r is None:
        r = n - p - qq
    if r < 0 or p + qq + r != n or q + pp + r != n:
        return M
    gmat = space.torus.kaehler
    detg = complex(np.linalg.det(gmat))
    I_n = ((-1) ** (n * (n - 1) // 2)) * (2.0 / 1j) ** n / detg
    pref = (1j ** (n * n)) * I_n * (0.5j) ** r * ((-1) ** (r * (r - 1) // 2))
    # conjugating v, swapping the antiholomorphic parts and moving omega^r
    sgn = (-1) ** (pp * qq) * (-1) ** (q * qq) * (-1) ** (r * (q + pp))
    coupling = np.zeros((space.ncomp, vspace.ncomp), dtype=complex)
    for di, (J, K) in enumerate(space.comps):
        for dj, (Jp, Kp) in enumerate(vspace.comps):
            for A in combinations(range(n), r):
                for B in combinations(range(n), r):
                    s_hol, _ = _wedge_sign(J, Kp, A)
                    s_anti, _ = _wedge_sign(K, Jp, B)
                    if s_hol and s_anti:
                        minor = complex(np.linalg.det(gmat[np.ix_(A, B)])) if r else 1.0
                        coupling[di, dj] += s_hol * s_anti * minor
    # int a conj(b) e^{-phi} dV of two components: the L2 pairing of (0,0)-sections
    scalar = space.sibling((0, 0))
    S = pair_matrix([FormSection(scalar, c[None]) for u in us for c in u.coeffs],
                    [FormSection(scalar, c[None]) for v in vs for c in v.coeffs])
    S = S.reshape(len(vs), vspace.ncomp, len(us), space.ncomp)
    return (pref * sgn) * np.einsum("iajb,ba->ij", S, coupling)


# ---------------------------------------------------------------------------
# curvature fields of the ambient metric along a lift


def theta_xi_xibar_field(lift: HorizontalLift) -> Optional[np.ndarray]:
    """Samples of Theta(h)(xi, bar xi) including |tau|^2; None when it vanishes."""
    space = lift.space
    if space.bundle.is_flat:
        return None
    calc = space.calculus
    V = _vertical_samples(lift)
    fld = (
        calc.phi_ttbar
        + V * calc.phi_tzbar
        + np.conj(V) * calc.phi_tzbar
        + np.abs(V) ** 2 * calc.phi_zzbar
    )
    return (abs(lift.tau) ** 2) * fld


def xibar_curvature_wedge(lift: HorizontalLift, w: FormSection) -> FormSection:
    """iota*(bar xi ⌟ Theta(h)) ∧ w for an (n-1,0)-form w; an (n,0)-form.

    iota*(bar xi ⌟ Theta) = -sum_a conj(T_a) dz_a with T_a = Theta_{xi z̄_a}.
    """
    space = w.space
    n = space.n
    target = space.sibling((n, 0))
    if space.bundle.is_flat:
        return target.zeros()
    return multiply(-np.conj(_theta_xi_zbar(lift)), FormSection(target, w.coeffs))


def curvature_commutator(space: FormSpace):
    """[i Theta(h) ∧ ·, Lambda] as an operator on the given space."""
    p, q = space.bidegree
    n = space.n
    terms = []
    if p >= 1 and q >= 1:
        down = space.sibling((p - 1, q - 1))
        terms.append((1j * curvature_action(down)) @ lefschetz_Lambda(space))
    if p + 1 <= n and q + 1 <= n:
        up = space.sibling((p + 1, q + 1))
        terms.append((-1.0) * lefschetz_Lambda(up) @ (1j * curvature_action(space)))
    return sum(terms[1:], terms[0]) if terms else zero_operator(space, space)


# ---------------------------------------------------------------------------
# second fundamental form


def second_fundamental_form(rep: RepresentativeSet, pkg: HodgePackage) -> FormSection:
    """II f of rep (along its lift), by the route the package's bidegree selects.

    (n,0) package: the projection P_perp iota*(L^{1,0} u).
    (n,1) package: the Green route -dbar^+ (iota*((xi ⌟ Theta) f) + nabla^{1,0} kappa f),
    dbar^+ = dbar* G.
    The two agree on a representative, which has passed the admissibility gate.
    """
    n = rep.f.space.n
    bidegree = pkg.space.bidegree
    if bidegree == (n, 0):
        return rep.lie_u - pkg.harmonic_project(rep.lie_u)
    if bidegree == (n, 1):
        nabla_k = assemble_nabla10(rep.kf.space).apply(rep.kf)
        return (-1.0) * pkg.dbar_pinv(rep.theta_f + nabla_k)
    raise ValueError(f"second fundamental form needs an (n,0) or (n,1) package, not {bidegree}")


# ---------------------------------------------------------------------------
# curvature of the direct image


@dataclass
class CurvatureReport:
    """All curvature terms on the harmonic basis at one base point.

    Entry convention: M[i, j] is the sesquilinear form evaluated at (f_j, f_i),
    so each stored matrix is Hermitian and v† M v is the quadratic form.
    hermiticity_defect is the largest ||M - M†|| of the six matrices as
    computed, before they were made Hermitian.
    """

    rank: int
    gram: np.ndarray
    term_theta_h: np.ndarray
    term_kappa: np.ndarray
    term_sff: np.ndarray
    theta_H: np.ndarray
    theta_H_bly: np.ndarray
    nakano_min_eig: float
    residual_routes: float
    hermiticity_defect: float


def direct_image_fibre(family: FamilySpec, disc: Disc, expected_kernel: int,
                       rank_tol: float = DEFAULT_TOLERANCES["rank_tol"]
                       ) -> Tuple[FormSpace, HodgePackage, List[FormSection], HorizontalLift]:
    """(space, package, basis, lift) on the fibre at the base point: the
    (n,0)-space, its Hodge package, the unit harmonic basis and the
    trivialization lift, which curvature_H takes."""
    torus = family.torus_at()
    space = make_space(torus, family.bundle_at(), (torus.n, 0), disc)
    pkg = build_hodge(space, rank_tol=rank_tol, expected_kernel=expected_kernel)
    basis = [f * (1.0 / f.norm()) for f in pkg.harmonic_basis]
    return space, pkg, basis, trivialization_lift(family, space)


def _hermitize(M: np.ndarray) -> np.ndarray:
    return (M + M.conj().T) / 2.0


def curvature_H(family: FamilySpec, lift: HorizontalLift,
                basis: Sequence[FormSection],
                pkg_n0: HodgePackage,
                admissibility_tol: float = 1e-5,
                ) -> CurvatureReport:
    """Evaluate the curvature form on the harmonic basis by both routes.

    family must be the lift's own, lift.family (ValueError otherwise): the
    representatives read the family off the lift."""
    if family is not lift.family:
        raise ValueError("curvature_H: family is not the lift's family")
    r = len(basis)
    if r == 0:
        e = np.zeros((0, 0), dtype=complex)
        return CurvatureReport(
            rank=0, gram=e, term_theta_h=e, term_kappa=e,
            term_sff=e, theta_H=e, theta_H_bly=e,
            nakano_min_eig=float("nan"), residual_routes=0.0, hermiticity_defect=0.0,
        )
    reps = [berndtsson_representative(lift, f, pkg_n0, tol=admissibility_tol)
            for f in basis]

    G = pair_matrix(basis, basis)
    fld = theta_xi_xibar_field(lift)
    T_theta = (np.zeros((r, r), dtype=complex) if fld is None
               else pair_matrix([multiply(fld, f) for f in basis], basis))
    kf = [rep.kf for rep in reps]
    T_kappa = wedge_pair(kf, kf)
    sff = [second_fundamental_form(rep, pkg_n0) for rep in reps]
    T_sff = wedge_pair(sff, sff)

    theta_raw = T_theta - T_kappa - T_sff

    # pushforward route: fiber integral of the curvature-wedge top form
    # contracted with the lift, plus the xi ⌟ dbar u pairing.
    xi_u = [rep.xi_u for rep in reps]
    xi_db = [rep.xi_dbar_u for rep in reps]
    sgn = (-1) ** (lift.n + 1)
    bw = [xibar_curvature_wedge(lift, w) for w in xi_u]           # (x̄i⌟Theta) ∧ w
    theta_w = [curvature_action(w.space).apply(w) for w in xi_u]  # Theta ∧ w
    bly = (T_theta
           + sgn * wedge_pair([rep.theta_f for rep in reps], xi_u)  # (xi⌟Theta) ∧ f
           + wedge_pair(bw, basis)
           + sgn * wedge_pair(theta_w, xi_u)
           + pair_matrix(xi_db, xi_db))
    defect = max(float(np.linalg.norm(M - M.conj().T))
                 for M in (G, T_theta, T_kappa, T_sff, theta_raw, bly))
    theta_H, bly = _hermitize(theta_raw), _hermitize(bly)

    residual = float(np.linalg.norm(theta_H - bly))
    nak = float(np.linalg.eigvalsh(theta_H).min())
    return CurvatureReport(
        rank=r, gram=_hermitize(G),
        term_theta_h=_hermitize(T_theta), term_kappa=_hermitize(T_kappa),
        term_sff=_hermitize(T_sff), theta_H=theta_H, theta_H_bly=bly,
        nakano_min_eig=nak, residual_routes=residual, hermiticity_defect=defect,
    )


# ---------------------------------------------------------------------------
# Hodge-Riemann and Lefschetz


def hodge_riemann_check(alpha: FormSection) -> Tuple[complex, complex, float]:
    """(lhs, rhs, residual) of the primitive-form pairing identity.

    lhs = sqrt(-1)^{(p+q)^2} int <alpha ∧ conj(alpha) ∧ omega^{n-k}, h> / (n-k)!
    rhs = epsilon(p,q) ||alpha||^2 with the sign epsilon = i^{k^2 + q - p} (-1)^{k(k-1)/2}
    (n=1 checks: +1 on (1,0)-forms, -1 on (0,1)-forms).
    A form of degree k <= n is primitive iff Lambda alpha = 0 (equivalently
    omega^{n-k+1} ∧ alpha = 0), which holds on every (p,0)- and (0,q)-form;
    NotPrimitive when ||Lambda alpha|| exceeds 1e-8 ||alpha||.
    """
    space = alpha.space
    n = space.n
    p, q = space.bidegree
    k = p + q
    if k > n:
        raise NotPrimitive(f"degree {k} exceeds n={n}")
    na = alpha.norm()
    contracted = lefschetz_Lambda(space).apply(alpha).norm()
    if contracted > 1e-8 * na:
        raise NotPrimitive(f"Lambda alpha residual {contracted / na:.3e} exceeds 1.0e-08")
    # wedge_pair already carries i^{n^2} I_n; rescale to the i^{k^2} convention
    raw = wedge_pair([alpha], [alpha], r=n - k)[0, 0] / (1j ** (n * n)) * (1j ** (k * k))
    eps = (1j ** (k * k + q - p)) * ((-1) ** (k * (k - 1) // 2))
    eps = complex(eps)
    rhs = eps * na**2
    return complex(raw), rhs, float(abs(raw - rhs))


def lefschetz_decompose(alpha: FormSection) -> List[Tuple[int, FormSection]]:
    """alpha = sum_j omega^j ∧ alpha_j with alpha_j primitive; returns [(j, alpha_j)].

    The decomposition is pointwise-algebraic (omega has constant coefficients),
    solved in the least-squares sense on the component vectors of every
    coefficient at once, by the pseudo-inverse of the one constant component matrix.
    """
    space = alpha.space
    n = space.n
    p, q = space.bidegree
    jmax = min(p, q)
    jmin = max(0, p + q - n)
    omega = 0.5j * space.torus.kaehler
    pieces = []       # (j, source space, primitive component basis)
    cols = []
    for j in range(jmin, jmax + 1):
        src = space.sibling((p - j, q - j))
        pj, qj = src.bidegree
        # primitive component vectors: null space of the Lambda block;
        # (p,0)- and (0,q)-forms are all primitive.
        if pj >= 1 and qj >= 1:
            prim_basis = _nullspace(_lambda_block(src))
        else:
            prim_basis = np.eye(src.ncomp, dtype=complex)
        # lift columns: L^j applied to each primitive basis vector
        cur = prim_basis
        sp_cur = src
        for _ in range(j):
            cur = _wedge11_block(sp_cur, omega) @ cur
            sp_cur = sp_cur.sibling((sp_cur.bidegree[0] + 1, sp_cur.bidegree[1] + 1))
        pieces.append((j, src, prim_basis))
        cols.append(cur)
    Bmat = np.concatenate(cols, axis=1)          # (ncomp, total primitive dims)
    flat = alpha.coeffs.reshape(space.ncomp, -1)
    sol = np.linalg.pinv(Bmat) @ flat
    out = []
    ofs = 0
    for (j, src, prim_basis) in pieces:
        w = prim_basis.shape[1]
        comp = prim_basis @ sol[ofs:ofs + w]
        out.append((j, FormSection(src, comp.reshape((src.ncomp,) + space.field_shape))))
        ofs += w
    return out


def _nullspace(M: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    if M.size == 0:
        return np.eye(M.shape[1] if M.ndim == 2 else 0, dtype=complex)
    U, S, Vh = np.linalg.svd(M)
    rank = int(np.sum(S > tol * (S.max() if S.size else 1.0)))
    return Vh[rank:].conj().T


def lefschetz_reconstruct(space: FormSpace,
                         parts: List[Tuple[int, FormSection]]) -> FormSection:
    """sum_j omega^j ∧ alpha_j back in the original space."""
    out = space.zeros()
    for j, part in parts:
        cur = part
        for _ in range(j):
            cur = lefschetz_L(cur.space).apply(cur)
        out = out + cur
    return out


# ---------------------------------------------------------------------------
# lower bound


def xu_wang_bound(lift: HorizontalLift, basis: Sequence[FormSection],
                  report: CurvatureReport) -> np.ndarray:
    """The curvature-commutator lower bound rhs <= Theta^H = report.theta_H.

    rhs = Theta(h)-term - ( [iTheta,Lambda]^{-1} b_j, b_i ) with
    b_i = iota*((xi ⌟ Theta) u_i), on the basis and lift that report was
    computed on; requires a fiberwise positive bundle.
    """
    space = basis[0].space if basis else lift.space
    if space.bundle.is_flat:
        raise CurvatureNotInvertible("[iTheta, Lambda] vanishes for a flat bundle")
    n = space.n
    sp_n1 = space.sibling((n, 1))
    comm = curvature_commutator(sp_n1)
    # on (n,1)-forms with translation-invariant positive curvature the commutator
    # is the scalar 2 pi d; verify invertibility through its action on a probe
    probe = sp_n1.zeros()
    probe.coeffs[0][:] = 1.0
    lam = pair_l2(comm.apply(probe), probe) / pair_l2(probe, probe)
    if lam.real < 1e-10:
        raise CurvatureNotInvertible(f"[iTheta, Lambda] eigenvalue {lam.real:.3e}")
    bvecs = [curvature_contraction_form(lift, f) for f in basis]
    return _hermitize(report.term_theta_h - (1.0 / lam) * pair_matrix(bvecs, bvecs))
