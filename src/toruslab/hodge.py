"""Laplacians, harmonic spaces, Green operators, and Bergman projections.

A HodgePackage asks its space's calculus for the solver, so the backend is the
one make_space chose; every package assembles its Laplacian box only when
something applies it or a report asks for its nnz.  Both solvers share one
interface: green(u), dbar_pinv(alpha, below), project(u), eigenvalues(),
lambda1(), harmonic_sections() and diagnostics(pkg).  The grid solver, which
factors dbar and cuts its kernel at rank_tol, is grid._GridSolver.

This module holds the spectral solver (flat bundles), which is closed-form:
no eigensolve and no eigenvalue cut.
"""

from __future__ import annotations

from functools import cached_property
from typing import List

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import EmptySpectrum, NotClosed, NotCoexact
from .forms import (
    FormSection,
    FormSpace,
    OperatorMatrix,
    adjoint,
    assemble_dbar,
    assemble_nabla10,
    gram,
    zero_operator,
)


def laplacian(space: FormSpace, kind: str) -> OperatorMatrix:
    """kind "dbar": dbar dbar* + dbar* dbar;  kind "nabla": same with nabla^{1,0}."""
    p, q = space.bidegree
    if kind == "dbar":
        assemble, degree, below = assemble_dbar, q, (p, q - 1)
    else:
        assemble, degree, below = assemble_nabla10, p, (p - 1, q)
    terms = []
    if degree >= 1:
        d_in = assemble(space.sibling(below))
        terms.append(d_in @ adjoint(d_in))
    if degree < space.n:
        d_out = assemble(space)
        terms.append(adjoint(d_out) @ d_out)
    return sum(terms[1:], terms[0]) if terms else zero_operator(space, space)


class _SpectralSolver:
    """Closed-form Hodge data of a flat fibre, with no eigensolve and no cut.

    With the constant Kaehler metric the box of a flat bundle is lambda(kappa) Id
    on each mode kappa = k + chi in every bidegree, so lambda is read off the
    fibre's (0,0) box, the cheapest, once per fibre calculus.  The kernel is the whole kappa = 0 mode
    when the bundle is trivial (BundleData.is_trivial) and empty otherwise.
    Green multiplies by 1/lambda off the kernel, the projector by the kernel
    mask, and the harmonic basis is the kernel mode with the columns of R^{-1}
    (P = R^H R), orthonormal for P.
    """

    def __init__(self, space: FormSpace):
        self.space = space
        calc = space.calculus
        if calc.box_lambda is None:
            calc.box_lambda = laplacian(space.sibling((0, 0)), "dbar").data[0, 0].real
        self.lam = np.broadcast_to(calc.box_lambda, space.field_shape)
        self.null_mask = np.zeros(space.field_shape, dtype=bool)
        if space.bundle.is_trivial:
            # kappa = 0 is the mode k = -chi, and chi in [0, 1) rounds to 0 or 1
            self.null_mask[tuple(space.disc.M - np.rint(space.bundle.chi).astype(int))] = True
        self._inv = np.divide(1.0, self.lam, out=np.zeros(space.field_shape),
                              where=~self.null_mask)

    def green(self, u: FormSection) -> FormSection:
        return FormSection(self.space, u.coeffs * self._inv)

    def dbar_pinv(self, alpha: FormSection, below: FormSpace) -> FormSection:
        return adjoint(assemble_dbar(below)).apply(self.green(alpha))

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

    def diagnostics(self, pkg) -> dict:
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


def _lambda1_or_none(solver):
    try:
        return solver.lambda1()
    except EmptySpectrum:
        return None


class HodgePackage:
    """Hodge data of one FormSpace: harmonic basis, Green operator, projector,
    and the box, assembled on first use; the solver comes from the calculus."""

    def __init__(self, space: FormSpace, rank_tol: float = DEFAULT_TOLERANCES["rank_tol"],
                 *, expected_kernel: int):
        self.space = space
        self.expected_kernel = expected_kernel
        self._solver = space.calculus.hodge_solver(space, rank_tol, expected_kernel)
        self.harmonic_basis = self._solver.harmonic_sections()

    @cached_property
    def laplacian(self) -> OperatorMatrix:
        """The dbar-Laplacian (box) of the space."""
        return laplacian(self.space, "dbar")

    def green(self, u: FormSection) -> FormSection:
        return self._solver.green(u)

    def harmonic_project(self, u: FormSection) -> FormSection:
        return self._solver.project(u)

    def dbar_pinv(self, alpha: FormSection) -> FormSection:
        """The dbar pseudo-inverse dbar^+ alpha = dbar* G alpha, a (p,q-1) form, in one LU
        solve on a grid fibre; BidegreeOverflow on (p,0), which has no (p,-1) space."""
        p, q = self.space.bidegree
        return self._solver.dbar_pinv(alpha, self.space.sibling((p, q - 1)))

    @property
    def harmonic_dim(self) -> int:
        return len(self.harmonic_basis)

    def eigenvalues(self) -> np.ndarray:
        return self._solver.eigenvalues()

    def diagnostics(self) -> dict:
        """Solver size and spectrum facts for reports: the bidegree, the
        expected kernel dimension and the solver's fields (a grid solver's
        include the nnz of the box)."""
        return {"bidegree": list(self.space.bidegree),
                "kernel_expected": self.expected_kernel,
                **self._solver.diagnostics(self)}


def build_hodge(space: FormSpace, rank_tol: float = DEFAULT_TOLERANCES["rank_tol"],
                *, expected_kernel: int) -> HodgePackage:
    return HodgePackage(space, rank_tol=rank_tol, expected_kernel=expected_kernel)


def minimal_solution(pkg: HodgePackage, alpha: FormSection) -> FormSection:
    """Minimal-norm u0 with dbar u0 = alpha: u0 = dbar^+ alpha, one pkg.dbar_pinv.

    Raises BidegreeOverflow on a (p,0) package, before any check, and
    NotCoexact/NotClosed when alpha has a harmonic part (above 1e-8 ||alpha||)
    or is not closed.
    """
    p, q = pkg.space.bidegree
    below = pkg.space.sibling((p, q - 1))
    na = alpha.norm()
    if na == 0.0:
        return below.zeros()
    if pkg.harmonic_project(alpha).norm() > 1e-8 * na:
        raise NotCoexact("alpha has a nonzero harmonic part")
    if q < pkg.space.n:
        dn = assemble_dbar(pkg.space).apply(alpha).norm()
        scale = max(na, 1.0)
        if dn > 1e-6 * scale:
            raise NotClosed(f"dbar alpha residual {dn:.3e}")
    return pkg.dbar_pinv(alpha)


def bergman_project(pkg_up: HodgePackage, f: FormSection) -> FormSection:
    """P_t f = f - dbar^+ dbar f for an (n,0)-section f, one pkg_up.dbar_pinv.

    pkg_up is the Hodge package on the (n, 1) space (where G acts).
    """
    return f - pkg_up.dbar_pinv(assemble_dbar(f.space).apply(f))

