import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toruslab.errors import NonPositivePeriod
from toruslab.geometry import (
    elliptic_family,
    jumping_character,
    jumping_family,
    make_flat_bundle,
    make_positive_bundle,
    make_torus,
    siegel_diagonal_family,
)

T0 = 0.3 + 1.1j


def test_torus_metric_positive_definite():
    torus = make_torus(1, [[T0]])
    assert np.linalg.eigvalsh(torus.kaehler).min() > 0
    torus2 = make_torus(2, [[T0, 0.1j], [0.1j, 2j]])
    assert np.linalg.eigvalsh(torus2.kaehler).min() > 0


def test_torus_rejects_bad_period():
    with pytest.raises(NonPositivePeriod):
        make_torus(1, [[0.3 - 1.1j]])
    with pytest.raises(NonPositivePeriod):
        make_torus(1, [[0.5]])


def test_flat_bundle_has_no_curvature():
    torus = make_torus(1, [[T0]])
    bundle = make_flat_bundle(torus, [0.25, 0.5])
    assert bundle.is_flat
    assert np.allclose(np.asarray(bundle.curvature), 0.0)
    assert np.allclose(bundle.chi, [0.25, 0.5])


def test_positive_bundle_curvature_scales_with_degree():
    torus = make_torus(1, [[T0]])
    b1 = make_positive_bundle(torus, 1)
    b3 = make_positive_bundle(torus, 3)
    assert not b1.is_flat
    assert np.allclose(3.0 * np.asarray(b1.curvature), np.asarray(b3.curvature))


def test_family_constructors_reject_lower_half_plane():
    for ctor in (jumping_family, siegel_diagonal_family):
        with pytest.raises(NonPositivePeriod):
            ctor(0.3 - 0.5j)
    with pytest.raises(NonPositivePeriod):
        elliptic_family(1.0 + 0.0j)


def test_elliptic_family_dispatches_bundle_kind():
    fam = elliptic_family(T0, d=2)
    assert not fam.bundle_at().is_flat
    fam0 = elliptic_family(T0, d=0, chi=(0.25, 0.0))
    assert fam0.bundle_at().is_flat


def test_siegel_family_period_is_diagonal():
    fam = siegel_diagonal_family(T0)
    omega = fam.torus_at().period
    assert np.allclose(omega, np.diag([T0, 2 * T0]))


def test_jumping_character_vanishes_exactly_on_lattice_points():
    # sqrt(-1) = m + n t is solvable iff t = (i - m)/n
    chi = jumping_character(1j)
    assert np.allclose(np.minimum(chi, 1 - chi), 0.0, atol=1e-12)
    chi_off = jumping_character(0.05 + 1j)
    assert np.abs(np.minimum(chi_off, 1 - chi_off)).max() > 1e-3


@settings(max_examples=50, deadline=None)
@given(m=st.integers(-3, 3), n=st.integers(1, 3),
       jitter=st.floats(0.0, 0.02))
def test_jumping_character_lattice_property(m, n, jitter):
    t = (1j - m) / n
    if t.imag <= 0:
        t = -t.conjugate()
        return
    chi = jumping_character(t)
    dist = np.minimum(chi, 1 - chi)
    assert np.all(dist <= 1e-9)
    if jitter > 1e-6:
        chi2 = jumping_character(t + jitter)
        dist2 = np.minimum(chi2, 1 - chi2)
        assert dist2.max() > 1e-9
