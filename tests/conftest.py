import numpy as np
import pytest
from scipy import sparse

from toruslab import grid
from toruslab.forms import Grid, Spectral, band_limited  # noqa: F401  (re-exported to the tests)
from toruslab.forms import assemble_nabla10, lefschetz_L
from toruslab.geometry import make_torus, make_flat_bundle, make_positive_bundle

T0 = 0.3 + 1.1j


def band_limited_field(calc, rng, shape, magnitude=0.1):
    """A smooth random vertical field with sup-norm `magnitude`."""
    W = np.zeros(shape, dtype=complex)
    for (kx, ky) in [(0, 0), (1, 0), (0, 1), (-1, 1), (2, -1)]:
        c = rng.standard_normal() + 1j * rng.standard_normal()
        W[0] += c * np.exp(2j * np.pi * (kx * calc.x + ky * calc.y))
    W *= magnitude / max(np.abs(W).max(), 1e-300)
    return W


def coo_stencil(N, order, t, d, a, b, diag):
    """a d/dx + b d/dy + diag(diag) on the N x N samples of a degree-d section,
    as the physical stencil matrix assembled from listed entries and converted
    by scipy: central stencils on H = e^theta F, the x-stencil entry that wraps
    w times carrying e^{2 pi i d y w}, and the gauge terms on the diagonal.
    The reference for the grid operators, which act through y-Fourier matrices."""
    offsets, coeffs = grid._central_stencil(order)
    row = np.arange(N * N)
    i, j = np.divmod(row, N)
    x, y = i / N, j / N
    rows, cols = [row], [row]
    vals = [np.ravel(diag) - 2j * np.pi * d * (a * y + b * (x + t * y))]
    for off, c in zip(offsets, coeffs):
        wrap, ii = np.divmod(i + off, N)
        rows += [row, row]
        cols += [ii * N + j, i * N + (j + off) % N]
        vals += [a * c * N * np.exp(2j * np.pi * d * y * wrap), np.full(N * N, b * c * N)]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    theta = grid._gauge_exponent(x, y, t, d)
    vals = np.exp(-theta)[rows] * np.concatenate(vals) * np.exp(theta)[cols]
    return sparse.csr_matrix((vals, (rows, cols)), shape=(N * N, N * N))


def sample_weights(sp):
    """The L2 weight of each sample of a grid space, flattened: the component
    metric times e^{-phi} / N^2.  The reference for the Gram data, which acts
    on coefficients."""
    calc = sp.calculus
    return sp.comp_metric()[0, 0].real * np.exp(-calc.phi).ravel() / calc.N**2


def coo_dbar(sp):
    """The physical stencil matrix of dbar out of (0,0) on the grid fibre of sp."""
    calc = sp.calculus
    return coo_stencil(calc.N, calc.disc.order, calc.t, calc.d, *grid._dzbar(calc.t), 0.0)


def coo_nabla10(sp):
    """The physical stencil matrix of nabla10 = d/dz - phi_z out of (0,0)."""
    calc, t = sp.calculus, sp.calculus.t
    return coo_stencil(calc.N, calc.disc.order, t, calc.d, -np.conj(t) / (t - np.conj(t)),
                       1.0 / (t - np.conj(t)), -calc.phi_z)


def representative_residuals(rep, pkg_n0):
    """Properties (a) and (b) of a Berndtsson representative, relative to ||f||.

    (a) ||omega ∧ iota*(xi ⌟ dbar u)||, 0 at n = 1, where every (0,1)-form is
    primitive; (b) the non-harmonic part of iota*(xi ⌟ nabla^{1,0} u), read by
    the Lie identity as lie_u - nabla^{1,0} xi_u.
    """
    nf = rep.f.norm()
    xdu = rep.xi_dbar_u
    prim = 0.0 if xdu.space.n == 1 else lefschetz_L(xdu.space).apply(xdu).norm() / nf
    xi_nabla_u = rep.lie_u - assemble_nabla10(rep.xi_u.space).apply(rep.xi_u)
    orth = (xi_nabla_u - pkg_n0.harmonic_project(xi_nabla_u)).norm() / nf
    return prim, orth


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def flat_torus():
    return make_torus(1, [[T0]])


@pytest.fixture(scope="session")
def flat_bundle(flat_torus):
    return make_flat_bundle(flat_torus, [0.0, 0.0])


@pytest.fixture(scope="session")
def spec_disc():
    return Spectral(M=6)


@pytest.fixture(scope="session")
def grid_disc():
    return Grid(N=32, order=6)


@pytest.fixture(scope="session")
def positive_bundle(flat_torus):
    return make_positive_bundle(flat_torus, 1)


@pytest.fixture(scope="session")
def torus2():
    return make_torus(2, [[T0, 0.0], [0.0, 2.0 * T0]])


@pytest.fixture(scope="session")
def flat_bundle2(torus2):
    return make_flat_bundle(torus2, [0.0, 0.0, 0.0, 0.0])
