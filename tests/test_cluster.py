"""Cluster series, radius estimators, virial inversion, and claim rows."""

import math
import types
from fractions import Fraction

import numpy as np
import pytest

from kslab.cluster import (
    claim_row,
    density_bound_check,
    density_coefficients_extrapolated,
    density_series,
    log_series,
    radius_estimate,
    richardson,
    series_rows,
    sign_pattern,
    virial_reversion,
)
from kslab.errors import InsufficientData
from kslab.oracles import TonksModel
from kslab.potentials import PairPotential

from conftest import make_ideal, make_tonks


def series(values):
    return np.array(values, dtype=float)


def test_series_rows():
    rows = series_rows(series([0.0, 1.5, 0.0, -2.0]))
    assert len(rows) == 4
    assert rows[3] == {"n": 3, "coefficient": -2.0, "sign": -1}
    assert rows[2]["sign"] == 0


def test_sign_pattern_classification():
    assert sign_pattern(series([1.0, 2.0, -1.0, 0.5, -0.25])) == "alternating"
    assert sign_pattern(series([0.0, 1.0, 0.0, 3.0])) == "positive"
    assert sign_pattern(series([0.0, 1.0, 1.0, -1.0])) == "mixed"
    # the constant term is skipped entirely
    assert sign_pattern(series([-5.0, 1.0, 2.0])) == "positive"


def test_log_series_matches_direct_expansion(tonks5):
    # independent route: log(1+u) = sum (-1)^(j-1) u^j / j with u = Xi - 1,
    # truncated polynomial arithmetic
    N = 6
    ell = log_series(tonks5, N)
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
    full = log_series(make_tonks(5.0, M=6), 4)
    short = log_series(make_tonks(5.0, M=4), 4)
    assert np.array_equal(full, short)


def test_free_gas_log_series_terminates():
    ell = log_series(make_ideal(V=3.0, M=8), 8)
    assert np.flatnonzero(ell).tolist() == [1]
    assert ell[1] == pytest.approx(3.0, rel=1e-14)
    # and the density series is exactly z
    rho = density_series(ell, 3.0)
    assert rho[1] == pytest.approx(1.0, rel=1e-14)
    assert np.flatnonzero(rho).tolist() == [1]


def test_density_series_scaling(tonks5):
    ell = log_series(tonks5, 5)
    rho = density_series(ell, 5.0)
    assert np.allclose(rho, ell * np.arange(6) / 5.0)


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
        assert s[k] == pytest.approx(ref[k - 1], rel=1e-8)
        assert errs[k] <= 1e-8
    assert len(per_len) == 3
    # the linear coefficient is volume independent
    for fl in per_len:
        assert fl[1] == pytest.approx(1.0, rel=1e-14)


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


def test_virial_reversion_hard_rods():
    m = TonksModel(1.0)
    dens = series(np.concatenate([[0.0], m.density_series(14)]))
    vir, est = virial_reversion(dens)
    # closed form: every coefficient of rho/(1 - rho) is 1
    for k in range(1, 15):
        assert vir[k] == pytest.approx(1.0, rel=1e-6)
    assert est.R == pytest.approx(1.0, abs=1e-6)
    assert est.sign_pattern == "positive"


def _mul(a, b, N):
    out = [Fraction(0)] * (N + 1)
    for i, ai in enumerate(a):
        for j in range(N + 1 - i):
            out[i + j] += ai * b[j]
    return out


def _rods_virial_exact(L, N):
    """Finite-box hard-rod (a = 1) virial coefficients B_0..B_N in exact
    rationals, by reverting rho(z) and composing the pressure with z(rho)."""
    c = [Fraction(max(0, L - (m - 1)) ** m, math.factorial(m)) for m in range(N + 1)]
    ell = [Fraction(0)] * (N + 1)
    for k in range(1, N + 1):
        ell[k] = (k * c[k] - sum(j * ell[j] * c[k - j] for j in range(1, k))) / k
    p = [x / L for x in ell]
    rho = [k * x / L for k, x in enumerate(ell)]
    w = [Fraction(0)] * (N + 1)
    for n in range(1, N + 1):
        acc, power = Fraction(0), w[:]
        for j in range(2, n + 1):
            power = _mul(power, w, N)
            acc += rho[j] * power[n]
        w[n] = ((1 if n == 1 else 0) - acc) / rho[1]
    out, power = [Fraction(0)] * (N + 1), [Fraction(1)] + [Fraction(0)] * N
    for j in range(1, N + 1):
        power = _mul(power, w, N)
        for n in range(N + 1):
            out[n] += p[j] * power[n]
    return out


def test_virial_inversion_matches_exact_rationals():
    # a finite box against exact reversion and composition, and the
    # thermodynamic limit against the closed form B_n = 1
    vir, _ = virial_reversion(density_series(log_series(make_tonks(8.0, M=9), 10), 8.0))
    exact = _rods_virial_exact(8, 10)
    assert max(abs(vir[n] / float(exact[n]) - 1) for n in range(1, 11)) <= 1e-11
    tonks = series(np.concatenate([[0.0], TonksModel(1.0).density_series(14)]))
    vir, _ = virial_reversion(tonks)
    assert np.abs(vir[1:] - 1.0).max() <= 1e-8


def test_virial_reversion_free_gas_terminates():
    vir, est = virial_reversion(series([0.0, 1.0] + [0.0] * 7))
    assert np.flatnonzero(vir).tolist() == [1]
    assert est.R == math.inf
    with pytest.raises(InsufficientData):
        virial_reversion(series([0.0, 0.0, 1.0]))
    with pytest.raises(InsufficientData):
        virial_reversion(series([0.5, 1.0, 1.0]))


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
