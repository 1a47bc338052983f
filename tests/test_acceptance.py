"""End-to-end acceptance battery.

One test per shipped guarantee, each ending in a single printed
``criterion NN PASS/FAIL`` line (visible with -rA or on failure).  Frozen
reference numbers come from closed-form models or were cross-checked
against exact arithmetic; none were read back from the code under test.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from kslab.cluster import (claim_row, density_bound_check, density_coefficients_extrapolated,
                           density_series, log_series, radius_estimate, virial_reversion)
from kslab.integrals import Box
from kslab.ksop import (CallableFamily, apply_ks_function, build_ks_matrix,
                        ks_residual)
from kslab.oracles import TonksModel
from kslab.partition import smallest_zero, zeros
from kslab.potentials import PairPotential, regularity_C
from kslab.spectral import (coefficient_asymptotics, leading_asymptotics,
                            leading_projection, power_convergence,
                            riesz_projection, spectrum)

from conftest import make_ideal, make_tonks, poly_from_coeffs, rel_err

# companion of (lam - 2)^2 (lam - 1/2): a genuine double pole with a
# spectral gap, the smallest fixture where rank and pole order differ
JORDAN = np.array([[4.5, -6.0, 2.0],
                   [1.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0]])

HARD_RODS = PairPotential.hardcore(1.0)
FREE_GAS = PairPotential.ideal(dimension=1)


def _report(num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def battery():
    """Hard rods at four box lengths: polynomial, operator, projection."""
    t0 = time.perf_counter()
    cases = {}
    for L in (5.0, 10.0, 20.0, 40.0):
        poly = make_tonks(L)
        ks = build_ks_matrix(poly)
        spec = spectrum(ks)
        cases[L] = SimpleNamespace(
            poly=poly, ks=ks, spec=spec,
            rp=leading_projection(ks, spec),
            sm=smallest_zero(zeros(poly)))
    return cases, time.perf_counter() - t0


def _companion_inversion_error(poly):
    """Worst relative mismatch between 1/eigenvalue and the zeros."""
    zs = np.sort_complex(zeros(poly).zeros)
    lam = spectrum(build_ks_matrix(poly)).eigenvalues
    lam = lam[np.abs(lam) > 1e-12]  # c_M = 0 contributes a true kernel
    inv = np.sort_complex(1.0 / lam)
    if len(inv) != len(zs):
        return math.inf
    return float(np.max(np.abs(inv - zs) / np.abs(zs)))


def test_criterion_01_companion_spectrum_inverts_zeros():
    t0 = time.perf_counter()
    worst = _companion_inversion_error(make_tonks(5.0))
    rng = np.random.default_rng(20260819)
    produced = 0
    while produced < 20:
        M = int(rng.integers(4, 12))
        r = np.exp(rng.uniform(math.log(0.3), math.log(30.0), M))
        r.sort()
        if np.any(np.diff(r) / r[1:] < 0.05):
            continue  # keep the zeros well separated, rejection is cheap
        produced += 1
        c = np.polynomial.polynomial.polyfromroots(-r)
        worst = max(worst, _companion_inversion_error(
            poly_from_coeffs(c.real / c[0].real)))
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-8 and elapsed < 1.0,
            f"hard rods + 20 random spectra, worst rel {worst:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_02_battery_certificates_and_rank(battery):
    cases, elapsed = battery
    z_c = {5.0: -0.416716009044, 10.0: -0.382349437679,
           20.0: -0.371894875117, 40.0: -0.368943927812}
    ok = elapsed < 10.0
    worst_zc = 0.0
    for L, case in cases.items():
        ok &= case.sm.derivative_certificate > 1e-6
        ok &= case.sm.min_gap > 1e-6
        ok &= not case.sm.tie
        ok &= case.rp.rank == 1 and case.rp.pole_order == 1
        ok &= case.rp.second_singular_ratio <= 1e-8
        ok &= case.rp.nilpotent_ratio <= 1e-8
        worst_zc = max(worst_zc, rel_err(case.sm.z_c, z_c[L]))
    ok &= worst_zc <= 1e-9
    jp = riesz_projection(JORDAN, 2.0, 0.6)
    ok &= jp.rank == 2 and jp.pole_order == 2
    _report(2, ok,
            f"4 boxes certified, worst zero drift {worst_zc:.1e}, "
            f"double-pole fixture rank {jp.rank} pole {jp.pole_order}, "
            f"{elapsed:.1f}s")


def test_criterion_03_projection_algebra_defects(battery):
    cases, _ = battery
    rps = [case.rp for case in cases.values()]
    rps.append(riesz_projection(JORDAN, 2.0, 0.6))
    worst = max(max(rp.idempotency_defect, rp.annihilation_defect,
                    rp.reduced_identity_defect) for rp in rps)
    _report(3, worst <= 1e-10, f"worst Laurent algebra defect {worst:.1e}")


def test_criterion_04_power_iteration_tracks_gap(battery):
    cases, _ = battery
    case = cases[20.0]
    power = power_convergence(case.ks, case.spec, case.rp.generators["P"], n_terms=60)
    dev = abs(power.fitted_ratio / power.expected_ratio - 1.0)
    _report(4, dev <= 0.05,
            f"fitted {power.fitted_ratio:.6f} vs gap ratio "
            f"{power.expected_ratio:.6f}, off by {100 * dev:.2f}%")


def test_criterion_05_correlation_decay_matches_residue(battery):
    cases, _ = battery
    poly = cases[5.0].poly
    worst = 0.0
    for x in np.linspace(0.3, 4.7, 5):
        worst = max(worst, leading_asymptotics(poly, [[float(x)]]).agreement)
    worst = max(worst, leading_asymptotics(poly, [[0.3], [2.5]]).agreement)
    worst = max(worst, leading_asymptotics(poly, [[0.3], [2.5], [4.7]]).agreement)
    exact = leading_asymptotics(make_ideal(V=1.0, M=4), [[0.5]]).agreement
    _report(5, worst <= 1e-6 and exact <= 1e-9,
            f"ray vs residue off by {worst:.2e} (hard rods), "
            f"{exact:.2e} (free gas)")


def test_criterion_06_coefficient_growth_locates_pole(battery):
    cases, _ = battery
    lam_c = cases[5.0].spec.lam_c.real
    dens = density_series(log_series(make_tonks(5.0, M=30), 30), 5.0)
    ratio = dens[30] / dens[29]
    rel = abs(ratio - lam_c) / abs(lam_c)
    k = np.arange(41)
    double = coefficient_asymptotics((k + 1) * 2.5**k)
    simple = coefficient_asymptotics(2.5**k)
    ok = rel <= 0.01
    ok &= abs(double.subexp_exponent - 1.0) <= 0.1
    ok &= abs(simple.subexp_exponent) <= 0.05
    ok &= abs(double.fit_rate - 2.5) <= 3e-3 * 2.5
    ok &= abs(simple.fit_rate - 2.5) <= 1e-6 * 2.5
    ok &= abs(simple.growth_estimate - 2.5) <= 1e-12 * 2.5
    _report(6, ok,
            f"density ratio hits lambda_c to {100 * rel:.4f}%, synthetic "
            f"pole orders {double.subexp_exponent:.3f}/"
            f"{simple.subexp_exponent:.3f}")


def test_criterion_07_fixed_point_residuals():
    worst_exact = 0.0
    for M in (6, 8):
        poly = make_ideal(V=1.0, M=M)
        for z in (0.1, 0.5, 0.2 + 0.3j):
            rep = ks_residual(poly, z, 4, order=16, count=8)
            worst_exact = max(worst_exact, rep.sup_residual)
    rep = ks_residual(make_tonks(5.0), 0.2, 2, order=64, count=32)
    ok = worst_exact <= 1e-12
    ok &= rep.sup_residual <= rep.error_bound <= 1e-6
    _report(7, ok,
            f"free gas sup {worst_exact:.1e}; hard rods sup "
            f"{rep.sup_residual:.1e} within bound {rep.error_bound:.1e}")


def test_criterion_08_extrapolated_series_vs_closed_form():
    t0 = time.perf_counter()
    s, _, _ = density_coefficients_extrapolated(
        HARD_RODS, (20.0, 40.0, 80.0), 12)
    model = TonksModel(1.0)
    ref = model.density_series(12)
    worst = max(abs(s[k] - ref[k - 1]) / abs(ref[k - 1])
                for k in range(1, 9))
    est = radius_estimate(np.concatenate([[0.0], model.density_series(30)]))
    C, _ = regularity_C(HARD_RODS)
    row = claim_row("activity radius vs inverse kernel norm",
                    1.0 / C, est.R, oracle=model.cluster_radius)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01
    ok &= rel_err(est.R, model.cluster_radius) <= 0.02
    ok &= est.sign_pattern == "alternating"
    ok &= row["verdict"] == "inconsistent"
    ok &= elapsed < 60.0
    _report(8, ok,
            f"coefficients off by {worst:.2e} (n<=8), radius {est.R:.6f} "
            f"vs 1/e, norm claim rightly {row['verdict']}, {elapsed:.1f}s")


def test_criterion_09_virial_radius_and_density_bound():
    model = TonksModel(1.0)
    _, est = virial_reversion(np.concatenate([[0.0], model.density_series(14)]))
    C, _ = regularity_C(HARD_RODS)
    rep = density_bound_check(model, C, np.linspace(0.02, 2.0, 100), tol=1e-9)
    ok = abs(est.R - model.virial_radius) <= 1e-6
    ok &= est.R >= 1.0 / (2.0 * C)
    ok &= rep.ok and rep.monotone and not rep.violations
    _report(9, ok,
            f"virial radius {est.R:.9f} (target 1), lower bound margin "
            f"{rep.min_margin:.2e} on {len(rep.grid)} points")


def test_criterion_10_truncation_stability():
    t0 = time.perf_counter()
    mods = []
    for M in range(1, 41):
        poly = make_ideal(V=1.0, M=M)
        mods.append(abs(smallest_zero(zeros(poly)).z_c))
    receding = all(b > a for a, b in zip(mods, mods[1:]))
    box = Box((1.0,))
    anchors = np.array([[0.2], [0.45], [0.7], [0.95]])
    worst = 0.0
    for z in (0.1, 0.3, 0.2 + 0.1j):
        fam = CallableFamily(lambda lvl, cfg, z=z: np.full(cfg.shape[0], z**lvl))
        for M in range(2, 9):
            for n in range(1, min(5, M)):
                val, _ = apply_ks_function(FREE_GAS, box, fam, n,
                                           anchors[:n], M, order=16)
                rhs = z * (1.0 + val) if n == 1 else z * val
                worst = max(worst, abs(z**n - rhs))
    elapsed = time.perf_counter() - t0
    _report(10, receding and worst <= 1e-12,
            f"free-gas zero modulus grows through M=40 (last {mods[-1]:.4f}), "
            f"power family fixed to {worst:.1e}, {elapsed:.2f}s")


def test_criterion_11_wide_box_zeros():
    # hard rods at L = 80: every zero from the fixed-point Aberth pass at 180
    # digits.  z_c is frozen from the mpmath-Horner pass's output and agrees
    # to 3e-17 with Newton on the exact coefficients at 200 digits.
    t0 = time.perf_counter()
    sm = smallest_zero(zeros(make_tonks(80.0, 81)))
    elapsed = time.perf_counter() - t0
    drift = rel_err(sm.z_c, -0.36815400035903173)
    _report(11, drift <= 1e-9 and elapsed < 3.0,
            f"hard rods L=80 z_c {sm.z_c.real:.12f}, drift {drift:.1e}, {elapsed:.2f}s")


def test_criterion_13_certified_wide_box_zeros():
    # hard rods at L = 160: every zero certified by an inclusion radius on
    # the precision ladder, in under 3 s and without a warning; z_c agrees
    # to 3e-17 with Newton on the exact coefficients at 500 digits
    import warnings

    poly = make_tonks(160.0, 161)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zs = zeros(poly)
        sm = smallest_zero(zs)
    elapsed = time.perf_counter() - t0
    drift = rel_err(sm.z_c, -0.36794919649441027)
    _report(13, drift <= 1e-12 and elapsed < 3.0,
            f"hard rods L=160 z_c {sm.z_c.real:.12f} at {zs.digits} digits, "
            f"drift {drift:.1e}, {elapsed:.2f}s")


def test_criterion_12_wide_box_laurent_data():
    # hard rods at L = 80: the closed form's working-precision arithmetic is
    # O(M), so the mp40 rung certifies P and S in well under a second
    ks = build_ks_matrix(make_tonks(80.0, 81))
    spec = spectrum(ks)
    t0 = time.perf_counter()
    rp = leading_projection(ks, spec)
    elapsed = time.perf_counter() - t0
    ok = (rp.precision, rp.rank, rp.pole_order) == ("mp40", 1, 1) and elapsed < 0.3
    _report(12, ok, f"hard rods L=80 {rp.precision}, rank {rp.rank}, "
                    f"pole order {rp.pole_order}, {elapsed:.3f}s")
