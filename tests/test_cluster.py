"""Cluster series, radius estimators, virial reversion, and claim rows."""

import math
import types

import numpy as np
import pytest

from kslab.cluster import (
    PowerSeries,
    claim_row,
    compose_series,
    density_bound_check,
    density_coefficients_extrapolated,
    density_series,
    log_series,
    radius_estimate,
    revert_series,
    richardson,
    sign_pattern,
    virial_reversion,
)
from kslab.errors import InsufficientData, NumericalError
from kslab.oracles import TonksModel
from kslab.potentials import PairPotential

from conftest import make_ideal, make_tonks


def series(values, variable="z"):
    return PowerSeries.from_values(values, variable)


def test_power_series_round_trip_and_rows():
    s = series([0.0, 1.5, 0.0, -2.0])
    assert np.allclose(s.values, [0.0, 1.5, 0.0, -2.0])
    assert len(s) == 4
    assert s.nonzero_indices() == [1, 3]
    rows = s.to_rows()
    assert rows[3] == {"n": 3, "coefficient": -2.0, "sign": -1}
    assert rows[2]["sign"] == 0


def test_sign_pattern_classification():
    assert sign_pattern(series([1.0, 2.0, -1.0, 0.5, -0.25])) == "alternating"
    assert sign_pattern(series([0.0, 1.0, 0.0, 3.0])) == "positive"
    assert sign_pattern(series([0.0, 1.0, 1.0, -1.0])) == "mixed"
    # start skips the leading entries entirely
    assert sign_pattern(series([-5.0, 1.0, 2.0]), start=1) == "positive"


def test_log_series_matches_direct_expansion(tonks5):
    # independent route: log(1+u) = sum (-1)^(j-1) u^j / j with u = Xi - 1,
    # truncated polynomial arithmetic
    N = 6
    ell = log_series(tonks5, N).values
    u = np.zeros(N + 1)
    u[: tonks5.M + 1] = tonks5.coeffs[: N + 1]
    u[0] = 0.0
    acc = np.zeros(N + 1)
    power = np.array([1.0] + [0.0] * N)
    for j in range(1, N + 1):
        power = np.polynomial.polynomial.polymul(power, u)[: N + 1]
        power = np.pad(power, (0, N + 1 - len(power)))
        acc += (-1.0) ** (j - 1) * power / j
    assert np.allclose(ell, acc, rtol=1e-10, atol=1e-12)


def test_log_series_is_truncation_independent():
    # coefficient k of log Xi only sees c_1..c_k
    full = log_series(make_tonks(5.0, M=6), 4).values
    short = log_series(make_tonks(5.0, M=4), 4).values
    assert np.array_equal(full, short)


def test_free_gas_log_series_terminates():
    ell = log_series(make_ideal(V=3.0, M=8), 8)
    assert ell.nonzero_indices() == [1]
    assert ell.values[1] == pytest.approx(3.0, rel=1e-14)
    # and the density series is exactly z
    rho = density_series(ell, 3.0)
    assert rho.values[1] == pytest.approx(1.0, rel=1e-14)
    assert rho.nonzero_indices() == [1]


def test_density_series_scaling(tonks5):
    ell = log_series(tonks5, 5)
    rho = density_series(ell, 5.0)
    assert np.allclose(rho.values, ell.values * np.arange(6) / 5.0)


def test_richardson_eliminates_power_corrections():
    val, err = richardson([7.0 + 3.0 / L for L in (4.0, 8.0, 16.0)])
    assert val == pytest.approx(7.0, abs=1e-12)
    val, err = richardson(
        [7.0 + 3.0 / L + 5.0 / L**2 for L in (4.0, 8.0, 16.0)])
    assert val == pytest.approx(7.0, abs=1e-12)
    with pytest.raises(InsufficientData):
        richardson([1.0])


def test_extrapolated_density_coefficients_match_closed_form():
    p = PairPotential.hardcore(1.0)
    s, errs, per_len = density_coefficients_extrapolated(p, (8.0, 16.0, 32.0), 5)
    ref = TonksModel(1.0).density_series(5)
    for k in range(1, 6):
        assert s.values[k] == pytest.approx(ref[k - 1], rel=1e-8)
        assert errs[k] <= 1e-8
    assert len(per_len) == 3
    # the linear coefficient is volume independent
    for fl in per_len:
        assert fl.values[1] == pytest.approx(1.0, rel=1e-14)


def test_radius_estimators_on_closed_form_series():
    m = TonksModel(1.0)
    s = series(np.concatenate([[0.0], m.density_series(30)]))
    est = radius_estimate(s)
    assert est.R == pytest.approx(1.0 / math.e, rel=0.02)
    assert est.sign_pattern == "alternating"
    assert est.singularity.real < 0.0
    assert est.R == pytest.approx(0.3678449483711733, rel=1e-10)
    assert est.diagnostics["intercept"] < 0.0


def test_radius_estimate_terminating_series():
    s = series([0.0, 1.0, 0.5] + [0.0] * 9)
    est = radius_estimate(s)
    assert est.R == math.inf
    assert est.diagnostics["terminating"] is True


def test_radius_estimate_insufficient_data():
    with pytest.raises(InsufficientData):
        radius_estimate(series([0.0, 1.0, 1.0, 1.0]))


def test_revert_series_known_inverse():
    # z/(1-z) inverts to t/(1+t)
    s = series([0.0] + [1.0] * 8)
    inv = revert_series(s)
    want = [0.0] + [(-1.0) ** (k - 1) for k in range(1, 9)]
    assert np.allclose(inv.values, want, rtol=1e-12, atol=1e-12)
    with pytest.raises(InsufficientData):
        revert_series(series([0.0, 0.0, 1.0]))


def test_compose_revert_round_trip():
    s = series([0.0, 2.0, 0.3, -0.1, 0.05])
    ident = compose_series(s, revert_series(s))
    want = np.zeros(5)
    want[1] = 1.0
    assert np.allclose(ident.values, want, rtol=1e-12, atol=1e-12)
    with pytest.raises(NumericalError):
        compose_series(s, series([1.0, 1.0]))


def test_virial_reversion_hard_rods():
    m = TonksModel(1.0)
    dens = series(np.concatenate([[0.0], m.density_series(14)]))
    pres = series(np.concatenate([[0.0], m.pressure_series(14)]))
    vir, est = virial_reversion(dens, pres)
    assert vir.variable == "rho"
    # closed form: every coefficient of rho/(1 - rho) is 1
    for k in range(1, 15):
        assert vir.values[k] == pytest.approx(1.0, rel=1e-6)
    assert est.R == pytest.approx(1.0, abs=1e-6)
    assert est.sign_pattern == "positive"


def test_virial_reversion_free_gas_terminates():
    flat = [0.0, 1.0] + [0.0] * 7
    vir, est = virial_reversion(series(flat), series(flat))
    assert vir.nonzero_indices() == [1]
    assert est.R == math.inf


def test_density_bound_check_hard_rods():
    rep = density_bound_check(TonksModel(1.0), 2.0, np.linspace(0.02, 2.0, 100))
    assert rep.ok and rep.monotone
    assert rep.violations == []
    assert rep.min_margin == pytest.approx(3.6035e-6, rel=1e-3)


def test_density_bound_check_flags_violations():
    # density sitting 10% under the bound everywhere
    fake = types.SimpleNamespace(density=lambda s: 0.9 * s / (1.0 + 2.0 * s))
    rep = density_bound_check(fake, 2.0, np.linspace(0.1, 1.0, 10))
    assert not rep.ok
    assert rep.min_margin < 0.0
    assert len(rep.violations) == 10


def test_claim_row_equals_verdicts():
    row = claim_row("gap", 1.0, 1.0, oracle=1.0)
    assert row["verdict"] == "consistent"
    assert row["uncertainty"] == pytest.approx(0.02)
    assert claim_row("gap", 2.0, 1.0)["verdict"] == "inconsistent"
    row = claim_row("gap", 2.0, 1.0, oracle=1.25)  # u = 2 |1.0 - 1.25| = 0.5
    assert row["verdict"] == "inconclusive"
    # oracle discrepancy widens the band
    row = claim_row("gap", 1.5, 1.0, oracle=1.4)
    assert row["uncertainty"] == pytest.approx(0.8)
    assert row["verdict"] == "consistent"


def test_claim_row_handles_infinite_radius():
    row = claim_row("radius", math.inf, math.inf)
    assert row["verdict"] == "consistent"
    assert row["claimed"] == math.inf


def test_claim_row_bound_relations():
    assert claim_row("R", 0.25, 1.0, relation="at_least")["verdict"] == "consistent"
    assert (claim_row("R", 2.0, 1.0, oracle=1.05,
                      relation="at_least")["verdict"] == "inconsistent")
    assert claim_row("R", 2.0, 1.0, relation="at_most")["verdict"] == "consistent"
    with pytest.raises(ValueError):
        claim_row("R", 1.0, 1.0, relation="near")
