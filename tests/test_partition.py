"""Partition polynomial assembly, evaluation, zeros, and certificates."""

import math

import numpy as np
import pytest

from kslab.errors import Degenerate, NearPole, NumericalError
from kslab.integrals import Box, build_table, hardrod_anchored_series
from kslab.partition import (
    PartitionPolynomial,
    _dd_aberth_seeds,
    _dd_horner,
    _mp_aberth,
    _pair_conjugates,
    _scaled_residual,
    assemble,
    correlation,
    evaluate,
    evaluate_derivative,
    evaluate_second_derivative,
    numerator_coefficients,
    smallest_zero,
    zeros,
    zeros_to_rows,
)
from kslab.potentials import PairPotential

from conftest import make_ideal, make_tonks, poly_from_coeffs, rel_err, sector_reference


def test_assemble_coefficients_are_scaled_factorials(tonks5):
    # hard rods, L=5, a=1: Z_m = (5 - (m-1))^m, zero once rods cannot fit
    want_Z = [1.0, 5.0, 16.0, 27.0, 16.0, 1.0, 0.0]
    for m, Zm in enumerate(want_Z):
        assert tonks5.coeffs[m] == pytest.approx(
            Zm / math.factorial(m), rel=1e-14, abs=1e-300
        )


def test_assemble_scale_balances_endpoints(tonks5):
    b = tonks5.scaled_coeffs()
    nz = [m for m in range(1, len(b)) if b[m] != 0.0]
    assert abs(b[nz[0]]) == pytest.approx(abs(b[nz[-1]]), rel=1e-10)


def test_assemble_explicit_scale():
    poly = poly_from_coeffs([1.0, 2.0, 0.5], scale=3.0)
    assert poly.scale == 3.0
    np.testing.assert_allclose(poly.scaled_coeffs(), [1.0, 6.0, 4.5])


def test_evaluate_against_direct_horner(tonks5):
    z = 0.37
    direct = sum(c * z**m for m, c in enumerate(tonks5.coeffs))
    val, cond = evaluate(tonks5, z)
    assert val == pytest.approx(direct, rel=1e-13)
    assert cond >= abs(val)


def test_derivatives_match_finite_differences(tonks5):
    z, h = 0.21, 1e-6
    fp = evaluate(tonks5, z + h)[0]
    fm = evaluate(tonks5, z - h)[0]
    f0 = evaluate(tonks5, z)[0]
    assert evaluate_derivative(tonks5, z) == pytest.approx(
        (fp - fm) / (2 * h), rel=1e-8
    )
    assert evaluate_second_derivative(tonks5, z) == pytest.approx(
        (fp - 2 * f0 + fm) / h**2, rel=1e-3
    )


def test_tonks_small_box_smallest_zero(tonks5):
    zs = zeros(tonks5)
    assert zs.method == "lapack"
    assert np.all(zs.residuals <= 1e-10)
    sm = smallest_zero(zs)
    assert sm.z_c == pytest.approx(-0.416716009044, rel=1e-9)
    assert abs(sm.z_c.imag) == 0.0
    assert sm.derivative_certificate == pytest.approx(0.19005, rel=1e-3)
    assert sm.min_gap == pytest.approx(0.48468, rel=1e-3)
    assert not sm.tie
    assert 10.0 < sm.root_conditioning < 100.0


def test_tonks_wide_box_goes_to_extended_precision():
    poly = make_tonks(20.0)
    zs = zeros(poly)
    assert zs.method == "mpmath-exact"
    sm = smallest_zero(zs)
    assert sm.z_c == pytest.approx(-0.371894875117, rel=1e-9)


def test_wide_box_zeros_match_mpmath_polyroots():
    import mpmath as mp

    poly = make_tonks(20.0)
    zs = zeros(poly)
    assert zs.method == "mpmath-exact"
    deg = len(zs.zeros)
    with mp.workdps(max(60, 2 * deg + 20)):
        cs = poly.mp_coefficients()[: deg + 1]
        ref = [complex(r) for r in mp.polyroots(cs[::-1], maxsteps=400,
                                                 extraprec=200)]
    for r in ref:
        assert np.min(np.abs(zs.zeros - r)) <= 1e-14 * abs(r)


def test_unconverged_aberth_raises_numerical_error():
    import mpmath as mp

    with mp.workdps(60):
        b = [mp.mpf(float(c)) for c in make_tonks(20.0).scaled_coeffs()[:21]]
        with pytest.raises(NumericalError):
            _mp_aberth(b, max_sweeps=1)


def test_ideal_zeros_match_companion_reference():
    poly = make_ideal(V=1.0, M=6)
    got = sorted(zeros(poly).zeros, key=lambda w: (w.real, w.imag))
    ref = np.roots([1.0 / math.factorial(k) for k in range(6, -1, -1)])
    want = sorted(ref, key=lambda w: (w.real, w.imag))
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-8 * abs(w)


def test_zeros_come_in_exact_conjugate_pairs():
    zs = zeros(make_ideal(V=1.0, M=6)).zeros
    complex_part = sorted(
        (w for w in zs if w.imag != 0.0), key=lambda w: (w.real, abs(w.imag))
    )
    for lo, hi in zip(complex_part[0::2], complex_part[1::2]):
        assert lo == hi.conjugate()


def test_double_root_collapses_certificate():
    # (1+z)^2 (1+z/3): a genuine double root at -1 must be flagged, not
    # reported as two accidentally close simple zeros
    poly = poly_from_coeffs([1.0, 7.0 / 3.0, 5.0 / 3.0, 1.0 / 3.0], scale=1.0)
    sm = smallest_zero(zeros(poly))
    assert abs(sm.z_c) == pytest.approx(1.0, rel=1e-6)
    assert sm.derivative_certificate < 1e-6
    assert sm.min_gap < 1e-6
    assert sm.tie


def test_linear_polynomial_certificate_is_infinite():
    sm = smallest_zero(zeros(poly_from_coeffs([1.0, 2.0], scale=1.0)))
    assert sm.z_c == pytest.approx(-0.5)
    assert math.isinf(sm.derivative_certificate)
    assert math.isinf(sm.min_gap)
    assert not sm.tie


def test_degree_zero_raises():
    with pytest.raises(Degenerate):
        zeros(poly_from_coeffs([2.0], scale=1.0))


def test_trailing_zero_coefficients_are_stripped(tonks5):
    # M=6 table has Z_6 = 0; the polynomial still factors into 5 zeros
    assert len(zeros(tonks5).zeros) == 5


def test_zero_rows_flag_exactly_one_smallest(tonks5):
    zs = zeros(tonks5)
    rows = zeros_to_rows(zs, smallest_zero(zs))
    assert sum(r["is_smallest"] for r in rows) == 1
    assert all(isinstance(r["is_smallest"], int) for r in rows)
    flagged = [r for r in rows if r["is_smallest"]][0]
    assert flagged["re"] == pytest.approx(-0.416716009044, rel=1e-9)


def test_correlation_refuses_a_pole(tonks5):
    z_c = smallest_zero(zeros(tonks5)).z_c
    with pytest.raises(NearPole):
        correlation(tonks5, z_c, np.array([[0.5]]))


def test_correlation_vanishes_outside_box(tonks5):
    val = correlation(tonks5, 0.2, np.array([[7.5]]))
    assert val.value == 0.0 and val.chi == 0.0


def _per_order_reference(poly, z, anchors, degree):
    """Numerator coefficients and correlation, one order at a time.

    This is the loop correlation and numerator_coefficients ran before they
    took every order from one anchored_series call, with its per-family
    branches written out and references that bypass the series: V^m for
    the ideal gas, column m of the gap series for hard rods and the
    recursive sector sum for the 1-D step.  Anchors outside the box give
    zero.
    """
    p, box = poly.potential, poly.box
    n = len(anchors)
    inside = np.all((anchors >= 0.0) & (anchors <= box.extents))
    coeffs = np.zeros(degree + 1)
    num = 0.0 + 0.0j
    for m in range(min(poly.M, degree) - n + 1):
        if not inside:
            A = 0.0
        elif p.family == "ideal":
            A = box.volume**m
        elif p.family == "hardcore":
            A = hardrod_anchored_series(box.extents[0], p.a, anchors.T, m)[0, m]
            A *= math.factorial(m)
        else:
            A = sector_reference(p, box.extents[0], anchors[:, 0], m) * math.factorial(m)
        coeffs[n + m] = A / math.factorial(m)
        num += complex(z) ** (n + m) * coeffs[n + m]
    return coeffs, num / evaluate(poly, z)[0]


def test_batched_correlation_matches_per_order_loop(tonks5):
    step = assemble(build_table(PairPotential.step(0.8, 1.3), Box((3.0,)), 3))
    cases = [(tonks5, [[1.1]], 0.2), (tonks5, [[0.4], [2.0]], 0.1 + 0.05j),
             (tonks5, [[1.0], [1.3]], 0.2),  # overlapping rods: exactly zero
             (make_ideal(V=1.0, M=6), [[0.3], [0.9]], 0.5),
             (step, [[1.1]], 0.1), (step, [[0.4], [2.0]], 0.1)]
    for poly, anchors, z in cases:
        anchors = np.array(anchors)
        # the step's reference sums the same integrals in another order
        rtol = 1e-12 if poly is step else 1e-15
        for degree in range(len(anchors), poly.M + 1):
            want_c, want_rho = _per_order_reference(poly, z, anchors, degree)
            got_c, _ = numerator_coefficients(poly, anchors, degree=degree)
            rho = correlation(poly, z, anchors, degree=degree).value
            assert np.all(np.abs(got_c - want_c) <= rtol * np.abs(want_c))
            assert abs(rho - want_rho) <= rtol * abs(want_rho)
        # anchors outside the box, or not numbers, carry no weight
        for bad in ([[-0.5]], [[poly.box.extents[0] + 1.0]], [[1.0], [np.nan]]):
            got_c, got_e = numerator_coefficients(poly, np.array(bad))
            assert np.all(got_c == 0.0) and np.all(got_e == 0.0)
            assert correlation(poly, z, np.array(bad)).value == 0.0


def test_mp_coefficients_only_for_closed_forms(tonks5):
    cs = tonks5.mp_coefficients()
    assert cs is not None
    assert float(cs[2]) == pytest.approx(8.0, rel=1e-15)  # 16 / 2!
    assert poly_from_coeffs([1.0, 1.0, 0.3]).mp_coefficients() is None


def test_gaps_are_mutual(tonks5):
    zs = zeros(tonks5)
    g = zs.gaps()
    assert len(g) == len(zs.zeros) and np.all(g > 0)
    # the two closest zeros see each other at the same distance
    i = int(np.argmin(g))
    d = np.abs(zs.zeros - zs.zeros[i])
    d[i] = np.inf
    assert g[int(np.argmin(d))] == pytest.approx(g[i])


# -- the double-double seeds of the wide-box route --------------------------------


def _exact_scaled(L, dps):
    """mpmath scaled coefficients of hard rods at L, as the zeros route builds them."""
    import mpmath as mp

    poly = make_tonks(L)
    with mp.workdps(dps):
        s = mp.mpf(poly.scale)
        b = [c * s**m for m, c in enumerate(poly.mp_coefficients())]
    while b[-1] == 0:  # rods past packing
        b.pop()
    return b


def _dd_coeffs(b):
    bh = np.array([float(x) for x in b])
    return bh, np.array([float(x - h) for x, h in zip(b, bh)])


def test_dd_horner_matches_mpmath_across_magnitudes():
    import mpmath as mp

    with mp.workdps(100):
        b = _exact_scaled(40.0, 100)
        bh, bl = _dd_coeffs(b)
        bx = [mp.mpf(h) + l for h, l in zip(bh, bl)]
        radii = np.logspace(-3, 24, 28)
        w = radii * np.exp(1j * np.linspace(0.3, 3.0, len(radii)))
        q, dq, mag, k, E = _dd_horner(bh, bl, (np.array([w.real, w.imag]),
                                               np.zeros((2, len(w)))))
        for arr in (*q, *dq, mag):
            assert np.all(np.isfinite(arr))
        for i, x in enumerate(w):
            xm = mp.mpc(x)
            ref = mp.polyval(bx[::-1], xm)
            dref = mp.polyval([m * c for m, c in enumerate(bx)][:0:-1], xm)
            scale = mp.ldexp(1, int(E[i]))
            got = (mp.mpf(q[0][0, i]) + q[1][0, i]) + 1j * (mp.mpf(q[0][1, i]) + q[1][1, i])
            dgot = (mp.mpf(dq[0][0, i]) + dq[1][0, i]) + 1j * (mp.mpf(dq[0][1, i]) + dq[1][1, i])
            size = mp.fsum(abs(c) * abs(xm) ** m for m, c in enumerate(bx))
            dsize = mp.fsum(m * abs(c) * abs(xm) ** (m - 1) for m, c in enumerate(bx))
            assert mag[i] == pytest.approx(float(size / scale), rel=1e-12)
            assert abs(got * scale - ref) <= 1e-29 * size
            assert abs(dgot * mp.ldexp(scale, -int(k[i])) - dref) <= 1e-29 * dsize


def test_scaled_residual_past_extended_range():
    # hard rods at L = 160: |w|^deg passes 1e4932 at the largest zero's
    # modulus, where unscaled extended-precision sums overflow to NaN
    import warnings

    import mpmath as mp

    poly = make_tonks(160.0, 161)
    b = poly.scaled_coeffs()
    w = -1.2e50 / poly.scale * np.exp(1j * np.array([0.0, 1e-3, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _scaled_residual(b, w)
    assert np.all(np.isfinite(res))
    with mp.workdps(40):
        for r, x in zip(res, w):
            xm = mp.mpc(x)
            ref = abs(mp.polyval([mp.mpf(c) for c in b[::-1]], xm)) / mp.fsum(
                abs(c) * abs(xm) ** m for m, c in enumerate(b))
            assert r == pytest.approx(float(ref), rel=1e-12)


def test_dd_horner_residual_at_exact_roots():
    import mpmath as mp

    with mp.workdps(100):
        b = _exact_scaled(40.0, 100)
        roots = _mp_aberth(b)
    bh, bl = _dd_coeffs(b)
    parts = [[float(r.real), float(r.imag)] for r in roots]
    hi = np.array(parts).T
    with mp.workdps(100):
        lo = np.array([[float(r.real - h[0]), float(r.imag - h[1])]
                       for r, h in zip(roots, parts)]).T
    q, _, mag, _, _ = _dd_horner(bh, bl, (hi, lo))
    assert np.max(np.hypot(q[0][0], q[0][1]) / mag) <= 1e-30


@pytest.mark.parametrize("L", [20.0, 30.0])
def test_seeded_aberth_matches_newton_polygon_start(L):
    import mpmath as mp

    dps = max(60, 2 * int(L) + 20)
    with mp.workdps(dps):
        b = _exact_scaled(L, dps)
        seeds = _dd_aberth_seeds(b)
        assert seeds is not None
        seeded = _mp_aberth(b, starts=seeds)
        plain = _mp_aberth(b)
    as128 = [_pair_conjugates(np.array([complex(r) for r in w])) for w in (seeded, plain)]
    assert np.array_equal(*as128)


def test_seeded_aberth_evaluation_count(monkeypatch):
    # the seeds leave the mpmath pass a few Newton steps per root
    import mpmath as mp

    from kslab import partition

    calls = []
    real = partition.mp_horner

    def counting(*args):
        calls.append(1)
        return real(*args)

    with mp.workdps(100):
        b = _exact_scaled(40.0, 100)
        seeds = _dd_aberth_seeds(b)
        monkeypatch.setattr(partition, "mp_horner", counting)
        _mp_aberth(b, starts=seeds)
    assert len(calls) / (len(b) - 1) <= 8


def test_seeds_skipped_past_float_range(monkeypatch):
    # a common factor 1e400 leaves the roots alone but takes the coefficients
    # out of float64: no seeds, the Newton-polygon starts, the same zeros
    import mpmath as mp

    poly = make_tonks(20.0)
    want = zeros(poly)
    with mp.workdps(60):
        assert _dd_aberth_seeds([c * mp.mpf("1e400") for c in _exact_scaled(20.0, 60)]) is None
    real = PartitionPolynomial.mp_coefficients
    monkeypatch.setattr(PartitionPolynomial, "mp_coefficients",
                        lambda self: [c * mp.mpf("1e400") for c in real(self)])
    got = zeros(poly)
    assert got.method == "mpmath-exact"
    assert np.array_equal(got.zeros, want.zeros)


def test_mp_aberth_huge_root_past_extended_range():
    # (w - 1e90)(1 + w + ... + w^59): |w|^60 = 1e5400 passes even longdouble,
    # so the freeze test must not take sum_m |b_m| |w|^m from plain powers
    import mpmath as mp

    with mp.workdps(80):
        R = mp.mpf("1e90")
        b = [-R] + [1 - R] * 59 + [mp.mpf(1)]
        roots = _mp_aberth(b)
        assert min(abs(r - R) for r in roots) <= mp.mpf("1e-70") * R
        unity = sorted(roots, key=abs)[:59]
        assert max(abs(r**60 - 1) for r in unity) <= mp.mpf("1e-70")
