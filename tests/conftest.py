import numpy as np
import pytest

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
