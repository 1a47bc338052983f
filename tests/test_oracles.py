"""The reference models must agree with independent closed forms."""

import math

import numpy as np
import pytest
from scipy.special import lambertw

from kslab.errors import BranchError
from kslab.oracles import IdealModel, TonksModel


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("z", [-0.3, -0.05, 0.0, 0.1, 1.0, 10.0, 250.0, "near branch"])
def test_pressure_matches_lambert_w(a, z):
    # w * exp(a*w) = z has the closed form w = W(a*z) / a on the branch
    # through the origin, here against scipy's W.  W has a square-root
    # singularity at the branch point, so next to it the rounding of a*z
    # costs digits: at (1 - 1e-6) times the branch point, W(a*z) = -0.99859
    rel = 1e-12
    if z == "near branch":
        z, rel = (1.0 - 1e-6) * TonksModel(a).branch_point, 1e-10
    if z < -1.0 / (math.e * a):
        return
    w = TonksModel(a).pressure(z)
    ref = float(np.real(lambertw(a * z, 0))) / a
    assert math.isfinite(ref)
    assert w == pytest.approx(ref, rel=rel, abs=1e-13)


def test_density_from_pressure():
    m = TonksModel(1.0)
    for z in (0.05, 0.7, 3.0):
        w = m.pressure(z)
        assert m.density(z) == pytest.approx(w / (1.0 + w), rel=1e-13)


def test_density_is_activity_derivative_of_pressure():
    # rho_1 = z d(beta p)/dz, checked by central difference
    m = TonksModel(1.0)
    z, h = 0.2, 1e-6
    deriv = (m.pressure(z + h) - m.pressure(z - h)) / (2 * h)
    assert m.density(z) == pytest.approx(z * deriv, rel=1e-8)


def test_branch_point_rejected():
    m = TonksModel(1.0)
    with pytest.raises(BranchError):
        m.pressure(m.branch_point - 1e-6)
    # the fold itself is still on the branch
    assert m.pressure(m.branch_point) == pytest.approx(-1.0, rel=1e-6)


def test_series_closed_forms():
    m = TonksModel(1.0)
    d = m.density_series(6)
    p = m.pressure_series(6)
    for k in range(1, 7):
        assert d[k - 1] == pytest.approx(
            (-1.0) ** (k - 1) * k**k / math.factorial(k), rel=1e-14
        )
        # rho = z d(beta p)/dz term by term
        assert d[k - 1] == pytest.approx(k * p[k - 1], rel=1e-14)


def test_series_sums_to_function():
    m = TonksModel(1.0)
    z = 0.05  # well inside radius 1/e, tail below 1e-13
    ks = np.arange(1, 31)
    assert float(np.dot(m.density_series(30), z**ks)) == pytest.approx(
        m.density(z), rel=1e-12
    )
    assert float(np.dot(m.pressure_series(30), z**ks)) == pytest.approx(
        m.pressure(z), rel=1e-12
    )


def test_radii_and_constants():
    m = TonksModel(2.0)
    assert m.branch_point == pytest.approx(-1.0 / (2.0 * math.e))
    assert m.cluster_radius == pytest.approx(1.0 / (2.0 * math.e))
    assert m.virial_radius == pytest.approx(0.5)


def test_ideal_model():
    m = IdealModel(3.0)
    assert math.isinf(m.cluster_radius)
