"""Independent ground truth: theta frames, exact flat spectra, FD curvature, scans.

Everything here is computed from closed forms or direct quadrature, deliberately
bypassing the operator-assembly machinery, so it can serve as an oracle for the
discrete pipeline.  The FD curvature reads its theta-frame Gram stencil with the
one Gram-curvature formula, bls.gram_curvature.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bls import gram_curvature
from .errors import StencilQuadratureFailure
from .forms import FormSection, FormSpace, Grid, make_space, pair_matrix
from .geometry import (
    FamilySpec,
    LatticeTorus,
    make_positive_bundle,
    make_torus,
)


# ---------------------------------------------------------------------------
# theta frames


@dataclass
class ThetaFrame:
    """A frame of d holomorphic canonical sections on one positive-bundle fiber.

    Sections are represented as (1,0)-forms theta_a(z) dz in the grid gauge,
    a = 0..d-1 (theta series truncated as in `theta_samples`).
    """

    t: complex
    d: int
    space: FormSpace
    sections: List[FormSection]

    def gram(self) -> np.ndarray:
        G = pair_matrix(self.sections, self.sections)
        return (G + G.conj().T) / 2.0


def theta_samples(t: complex, d: int, a: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Level-d theta series with characteristic a/d at z = x_i + t y_j, for 1-D
    sample vectors x and y: an array of shape (len(x), len(y)).

    theta_a(z) = sum_m exp(pi i d t (m + a/d)^2 + 2 pi i d z (m + a/d)); it is
    periodic in x and quasi-periodic in y with the level-d factor of automorphy.
    Each term is exp(2 pi i d c x) exp(pi i d t c^2 + 2 pi i d c t y) with
    c = m + a/d, so the sum over m is one matrix product.
    """
    s = t.imag
    # term magnitude ~ exp(-pi d s (m + a/d + y)^2 + pi d s y^2); with y in [0,1)
    # a symmetric window around -y covers everything above 1e-16.
    reach = np.sqrt(-np.log(1e-16) / (np.pi * d * s)) + 2.0
    m_lo = int(np.floor(-1.0 - reach))
    m_hi = int(np.ceil(reach)) + 1
    c = np.arange(m_lo, m_hi + 1) + a / d
    along_x = np.exp(2j * np.pi * d * np.outer(x, c))
    along_y = np.exp(1j * np.pi * d * t * c[:, None] ** 2 + 2j * np.pi * d * t * np.outer(c, y))
    return along_x @ along_y


def theta_frame(t: complex, d: int, disc: Grid) -> ThetaFrame:
    """Holomorphic frame of the degree-d canonical sections on the fiber at t."""
    torus = make_torus(1, [[t]])
    space = make_space(torus, make_positive_bundle(torus, d), (1, 0), disc)
    calc = space.calculus
    sections = []
    for a in range(d):
        samples = theta_samples(t, d, a, calc.x[:, 0], calc.y[0])
        sections.append(space.section(samples[None, :, :]))
    return ThetaFrame(t=t, d=d, space=space, sections=sections)


# ---------------------------------------------------------------------------
# finite-difference Chern curvature of the L2 metric


def fd_chern_curvature_H(family: FamilySpec, d: int, disc: Grid,
                         step: float = 1e-3,
                         harmonic_basis: Optional[Sequence[FormSection]] = None,
                         ) -> np.ndarray:
    """Curvature of the L2 metric on the holomorphic frame, by a 5-point Gram
    stencil: the base point t and t +- step, t +- i step, read by
    bls.gram_curvature.  Any positive step is taken, without the floor of the
    bls field derivatives.

    Returns the Hermitian matrix of the curvature form in the direction tau,
    expressed in the orthonormal harmonic frame at the base point when
    `harmonic_basis` is given (otherwise in the theta frame itself).
    """
    t = family.t
    # the base frame serves G0 and the basis change; the other four only a Gram
    frame = theta_frame(t, d, disc)
    G = {(0, 0): frame.gram()}
    for px, py in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        G[(px, py)] = theta_frame(t + step * (px + 1j * py), d, disc).gram()
    G0 = G[(0, 0)]
    cond = np.linalg.cond(G0)
    if not np.isfinite(cond) or cond > 1e12:
        raise StencilQuadratureFailure(f"Gram matrix condition {cond:.3e}")
    eigs = np.linalg.eigvalsh(G0)
    if eigs.min() <= 0:
        raise StencilQuadratureFailure("Gram matrix is not positive definite")

    # curvature form on the theta frame, Theta(u, v) = v^H M u, along tau
    M = (abs(complex(family.tau)) ** 2) * gram_curvature(G, step)
    if harmonic_basis is None:
        return M
    # transition to the (orthonormal) harmonic basis u_i = sum_a C[a,i] theta_a
    B = pair_matrix(harmonic_basis, frame.sections)
    C = np.linalg.solve(G0, B)
    T = C.conj().T @ M @ C
    return (T + T.conj().T) / 2.0


# ---------------------------------------------------------------------------
# exact flat spectra and rank scans


def _flat_mode_eigenvalue(torus: LatticeTorus, kappa_x: np.ndarray,
                          kappa_y: np.ndarray) -> np.ndarray:
    """dbar-Laplacian eigenvalue of the shifted mode kappa = k + chi (closed form)."""
    omega = torus.period
    A = np.linalg.inv(omega - omega.conj())
    # mu_zbar[a] = 2 pi i sum_b (kappa_x_b (Omega A)_{ba} - kappa_y_b A_{ba})
    v = 2j * np.pi * (
        np.tensordot(omega @ A, kappa_x, axes=([0], [0]))
        - np.tensordot(A, kappa_y, axes=([0], [0]))
    )  # shape (n, ...)
    ginv = np.linalg.inv(torus.kaehler)
    lam = 2.0 * np.einsum("a...,ab,b...->...", v.conj(), ginv.conj().T, v)
    return lam.real


def exact_flat_spectrum(torus: LatticeTorus, chi, bidegree: Tuple[int, int],
                        M: int = 8) -> np.ndarray:
    """Sorted dbar-Laplacian spectrum of the flat bundle chi on modes |k| <= M.

    Matches the spectral-backend discrete Laplacian exactly, multiplicities
    included (each mode eigenvalue repeats once per form component).
    """
    from math import comb

    n = torus.n
    chi = np.mod(np.asarray(chi, dtype=float).ravel(), 1.0)
    k = np.arange(-M, M + 1, dtype=float)
    grids = np.meshgrid(*([k] * (2 * n)), indexing="ij")
    kappa_x = np.stack([grids[a] + chi[a] for a in range(n)])
    kappa_y = np.stack([grids[n + a] + chi[n + a] for a in range(n)])
    lam = _flat_mode_eigenvalue(torus, kappa_x, kappa_y).ravel()
    p, q = bidegree
    ncomp = comb(n, p) * comb(n, q)
    return np.sort(np.tile(lam, ncomp))


def exact_landau_spectrum(d: int, bidegree: Tuple[int, int], count: int) -> np.ndarray:
    """The lowest `count` dbar-Laplacian eigenvalues of a degree-d positive bundle.

    With constant curvature the Laplacian on a fibre is a Landau Hamiltonian,
    whatever the period t: its levels are 2 pi d m, each d times, from m = 0
    on (p,0) (dbar* dbar, kernel = holomorphic sections) and from m = 1 on
    (p,1) (dbar dbar*, no kernel).
    """
    q = bidegree[1]
    m = q + np.arange(count) // d
    return 2.0 * np.pi * d * m


def is_jump_point(t: complex) -> bool:
    """Decide i in Z + t Z, to 1e-9, by solving the 2x2 real system for (m, n):
    an independent reference for BundleData.is_trivial on the jumping family."""
    nn = 1.0 / t.imag
    mm = -nn * t.real
    return abs(nn - round(nn)) <= 1e-9 and abs(mm - round(mm)) <= 1e-9


def rank_scan(family: FamilySpec, t_samples: Sequence[complex],
              M: int = 8) -> List[Tuple[complex, int, float]]:
    """Exact kernel count and spectral gap of the flat family at each sample.

    Returns rows (t, rank, lambda1) with rank = dim of the holomorphic canonical
    sections on the fiber (kernel of the dbar-Laplacian on top-degree forms) and
    lambda1 the lowest closed-form eigenvalue off the kernel.
    """
    rows = []
    for t in t_samples:
        torus = family.torus_at(t)
        bundle = family.bundle_at(t)
        lam = exact_flat_spectrum(torus, bundle.chi, (torus.n, 0), M=M)
        # the one kernel rule of a flat fibre: the kappa = 0 mode, present
        # exactly when the bundle is trivial, and lambda1 the next eigenvalue
        rank = int(bundle.is_trivial)
        rows.append((complex(t), rank, float(lam[rank])))
    return rows


def write_rank_scan_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_re", "t_im", "rank", "lambda1"])
        for t, rank, lam1 in rows:
            writer.writerow([f"{t.real:.12g}", f"{t.imag:.12g}", rank, f"{lam1:.12g}"])
