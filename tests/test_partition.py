"""Partition polynomial assembly, evaluation, zeros, and certificates."""

import math

import numpy as np
import pytest

from kslab import partition
from kslab.errors import Degenerate, NearPole, NumericalError
from kslab.integrals import Box, IntegralTable, ZEntry, build_table, hardrod_anchored_series
from kslab.partition import (
    NumeratorFamily,
    PartitionPolynomial,
    _gamma,
    _mp_aberth,
    _pair_conjugates,
    assemble,
    companion_roots,
    correlation,
    evaluate,
    fixed_horner,
    fixed_terms,
    fixed_values,
    horner,
    inclusion_radii,
    polish_roots,
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


def test_unconverged_aberth_raises_numerical_error(monkeypatch):
    import mpmath as mp

    monkeypatch.setattr(partition, "_MAX_SWEEPS", 1)
    with mp.workdps(60):
        b = [mp.mpf(float(c)) for c in make_tonks(20.0).scaled_coeffs()[:21]]
        with pytest.raises(NumericalError):
            _mp_aberth(b)


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
    assert val.value == 0.0


def _per_order_reference(poly, z, anchors, degree):
    """Numerator coefficients and correlation, one order at a time.

    This is the loop correlation and the numerator coefficients ran before
    they took every order from one anchored_series call, with its per-family
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
            got_c = NumeratorFamily(poly, degree)(len(anchors), anchors[None])[0]
            rho = correlation(poly, z, anchors, degree=degree).value
            assert np.all(np.abs(got_c - want_c) <= rtol * np.abs(want_c))
            assert abs(rho - want_rho) <= rtol * abs(want_rho)
        # anchors outside the box, or not numbers, carry no weight
        for bad in ([[-0.5]], [[poly.box.extents[0] + 1.0]], [[1.0], [np.nan]]):
            fam = NumeratorFamily(poly)
            got_c, got_e = fam(len(bad), np.array(bad)[None])[0], fam.last_error[0]
            assert np.all(got_c == 0.0) and np.all(got_e == 0.0)
            assert correlation(poly, z, np.array(bad)).value == 0.0


def test_mp_coefficients_only_for_closed_forms(tonks5):
    # closed forms give exact c_m; any other table gives its float64 c_m
    # exactly, and only the former is flagged exact
    cs = tonks5.mp_coefficients()
    assert tonks5.exact and tonks5.rational_coeffs[2] == 8  # 16 / 2!
    assert float(cs[2]) == pytest.approx(8.0, rel=1e-15)
    poly = poly_from_coeffs([1.0, 1.0, 0.3])
    assert not poly.exact
    assert [float(c) for c in poly.mp_coefficients()] == poly.coeffs.tolist()


def test_gaps_are_mutual(tonks5):
    zs = zeros(tonks5)
    g = zs.gaps()
    assert len(g) == len(zs.zeros) and np.all(g > 0)
    # the two closest zeros see each other at the same distance
    i = int(np.argmin(g))
    d = np.abs(zs.zeros - zs.zeros[i])
    d[i] = np.inf
    assert g[int(np.argmin(d))] == pytest.approx(g[i])


# -- the fixed-point Aberth pass of the wide-box route ----------------------------


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


def _ladder_seeds(b):
    """The starts zeros hands its ladder: the companion roots of b rounded to
    float64, polished for _SEED_SWEEPS sweeps."""
    return polish_roots(b, companion_roots(b), partition._SEED_SWEEPS)


def _float_seeds(b):
    """_ladder_seeds of the float64 coefficients, as mpc starts."""
    import mpmath as mp

    return [mp.mpc(w) for w in _ladder_seeds(np.array([float(x) for x in b]))]


def test_fixed_horner_matches_mpmath_across_magnitudes():
    import mpmath as mp

    with mp.workdps(100):
        b = _exact_scaled(40.0, 100)
        terms = fixed_terms(b)
        radii = np.logspace(-3, 24, 28)
        w = radii * np.exp(1j * np.linspace(0.3, 3.0, len(radii)))
        for x in w:
            xm = mp.mpc(x)
            _, E, mag, _, _ = fixed_horner(terms, xm)
            with mp.workdps(140):
                # p, p', p'' against mpmath, each within 1e-99 of its magnitude sum
                for j, val in enumerate(fixed_values(terms, xm)):
                    dj = [mp.ff(m, j) * c for m, c in enumerate(b)][j:]
                    size = mp.fsum(abs(c) * abs(xm) ** m for m, c in enumerate(dj))
                    assert abs(val - mp.polyval(dj[::-1], xm)) <= mp.mpf("1e-99") * size
                    if j == 0:
                        assert mag == pytest.approx(float(size / mp.ldexp(1, E)), rel=1e-12)


def test_scaled_residual_past_extended_range():
    # hard rods at L = 160: |w|^deg passes 1e4932 at the largest zero's
    # modulus, where unscaled extended-precision sums overflow to NaN; zeros
    # takes each zero's residual as |p| / mag from one scaled horner pass
    import warnings

    import mpmath as mp

    poly = make_tonks(160.0, 161)
    b = poly.scaled_coeffs()
    w = -1.2e50 / poly.scale * np.exp(1j * np.array([0.0, 1e-3, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acc, mag, _ = horner(b, w, magnitude=True)
        res = (np.abs(acc) / (mag + np.longdouble(1e-300))).astype(float)
    assert np.all(np.isfinite(res))
    with mp.workdps(40):
        for r, x in zip(res, w):
            xm = mp.mpc(x)
            ref = abs(mp.polyval([mp.mpf(c) for c in b[::-1]], xm)) / mp.fsum(
                abs(c) * abs(xm) ** m for m, c in enumerate(b))
            assert r == pytest.approx(float(ref), rel=1e-12)


def test_fixed_horner_residual_at_exact_roots():
    import mpmath as mp

    with mp.workdps(100):
        b = _exact_scaled(40.0, 100)
        roots = _mp_aberth(b)
        terms = fixed_terms(b)
        worst = 0.0
        for r in roots:
            _, _, mag, _, ((pr, pi), _) = fixed_horner(terms, r)
            q = mp.ldexp(mp.sqrt(pr * pr + pi * pi), -(mp.mp.prec + partition._GUARD_BITS))
            worst = max(worst, float(q) / mag)
    assert worst <= 1e-99


@pytest.mark.parametrize("L", [20.0, 30.0])
def test_seeded_aberth_matches_newton_polygon_start(L):
    import mpmath as mp

    dps = max(60, 2 * int(L) + 20)
    with mp.workdps(dps):
        b = _exact_scaled(L, dps)
        seeded = _mp_aberth(b, starts=_float_seeds(b))
        plain = _mp_aberth(b)
    as128 = [_pair_conjugates(np.array([complex(r) for r in w])) for w in (seeded, plain)]
    assert np.array_equal(*as128)


def test_seeded_aberth_evaluation_count(monkeypatch):
    # the float64 seeds leave the pass about ten integer evaluations per
    # root at L = 40
    import mpmath as mp

    kernel, real_kernel = [], partition.fixed_horner

    def counting_kernel(*args, **kwargs):
        kernel.append(1)
        return real_kernel(*args, **kwargs)

    with mp.workdps(100):
        b = _exact_scaled(40.0, 100)
        seeds = _float_seeds(b)
        monkeypatch.setattr(partition, "fixed_horner", counting_kernel)
        _mp_aberth(b, starts=seeds)
    assert len(kernel) / (len(b) - 1) <= 11


def mp_horner(b, db, x):
    """(p(x), p'(x)) for p = sum b_m x^m, by Horner in the arithmetic of x.

    db are the derivative coefficients m b_m, m = 1..deg, b and db
    ascending; with mpmath numbers everything runs at the caller's working
    precision.
    """
    p = dp = 0 * x
    for bm in b[::-1]:
        p = p * x + bm
    for dm in db[::-1]:
        dp = dp * x + dm
    return p, dp


def _mp_horner_aberth(b, starts, max_sweeps=200):
    """The Gauss-Seidel Aberth pass with p and p' by mpmath Horner (mp_horner):
    the reference _mp_aberth must reproduce to complex128."""
    import mpmath as mp

    deg = len(b) - 1
    db = [m * b[m] for m in range(1, deg + 1)]
    log2b = np.array([float(mp.log(abs(bm), 2)) for bm in b])
    powers = np.arange(deg + 1)
    w, wc = list(starts), np.array([complex(x) for x in starts])
    live = list(range(deg))
    for _ in range(max_sweeps):
        still = []
        for i in live:
            x = w[i]
            p, dp = mp_horner(b, db, x)
            l2 = log2b + powers * math.log2(abs(wc[i]))
            e = math.floor(l2.max())
            if abs(p) <= (deg + 1) * mp.eps * mp.ldexp(float(np.sum(np.exp2(l2 - e))), e):
                continue
            if dp == 0:
                still.append(i)
                continue
            newton = p / dp
            d = wc[i] - wc
            d[i] = np.inf
            step = newton / (1 - newton * complex(np.sum(1.0 / d)))
            w[i] = x - step
            wc[i] = complex(w[i])
            if abs(step) > mp.eps * abs(w[i]):
                still.append(i)
        live = still
        if not live:
            return w
    raise AssertionError("reference Aberth pass did not converge")


def _huge_root_fixture():
    """(w - 1e90)(1 + w + ... + w^59) as mpf coefficients, ascending."""
    import mpmath as mp

    R = mp.mpf("1e90")
    return [-R] + [1 - R] * 59 + [mp.mpf(1)]


@pytest.mark.parametrize("case", [20.0, 30.0, 40.0, "huge-root"])
def test_fixed_point_aberth_matches_mpmath_horner_pass(case):
    import mpmath as mp

    if case == "huge-root":
        dps = 80
        with mp.workdps(dps):
            b = _huge_root_fixture()
            starts = partition._newton_polygon_starts(b)  # its float64 roots coincide
    else:
        dps = max(60, 2 * int(case) + 20)
        b = _exact_scaled(case, dps)
        with mp.workdps(dps):
            starts = _float_seeds(b)
    with mp.workdps(dps):
        got = _mp_aberth(b, starts=starts)
        want = _mp_horner_aberth(b, starts)
    as128 = [np.array([complex(r) for r in w]) for w in (got, want)]
    if case == "huge-root":
        # the roots +-i carry real parts of 3e-86 and -5e-83: evaluation
        # noise below the working precision, which either pass leaves
        for w in as128:
            tiny = 10.0 ** (2 - dps) * np.abs(w)
            w.real[np.abs(w.real) <= tiny] = 0.0
            w.imag[np.abs(w.imag) <= tiny] = 0.0
    assert np.array_equal(*[_pair_conjugates(w) for w in as128])


def _record_starts(monkeypatch):
    """Wrap _mp_aberth so that the starts zeros hands it are kept."""
    seen, real = [], partition._mp_aberth

    def recording(b, starts=None):
        seen.append(starts)
        return real(b, starts=starts)

    monkeypatch.setattr(partition, "_mp_aberth", recording)
    return seen


def test_float_seeds_past_float_range(monkeypatch):
    # a common factor 1e400 leaves the roots alone but takes the exact
    # coefficients out of float64: the seeds still come from the float64
    # coefficients' companion roots, and the zeros are the same
    import mpmath as mp

    poly = make_tonks(20.0)
    want = zeros(poly)
    real = PartitionPolynomial.mp_coefficients
    monkeypatch.setattr(PartitionPolynomial, "mp_coefficients",
                        lambda self: [c * mp.mpf("1e400") for c in real(self)])
    seen = _record_starts(monkeypatch)
    got = zeros(poly)
    assert got.method == "mpmath-exact"
    assert np.array_equal(got.zeros, want.zeros)
    seeds = _ladder_seeds(np.trim_zeros(poly.scaled_coeffs(), "b"))
    assert np.array_equal([complex(x) for x in seen[0]], seeds)


@pytest.mark.parametrize("fault", ["duplicate", "nan"])
def test_bad_float_seeds_fall_back_to_newton_polygon(monkeypatch, fault):
    # Aberth needs distinct finite starts.  Only the largest seed is
    # spoiled: a duplicate leaves the smallest root's conditioning, and so
    # the route, as it was, and a NaN leaves it unknown, which routes to
    # mpmath as well
    import warnings

    poly = make_tonks(20.0)
    want = zeros(poly)
    real = partition.companion_roots

    def faulty(b):
        w = real(b)
        w[-1] = w[-2] if fault == "duplicate" else complex(np.nan, 0.0)
        return w

    monkeypatch.setattr(partition, "companion_roots", faulty)
    seen = _record_starts(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = zeros(poly)
    assert seen == [None]
    assert got.method == "mpmath-exact"
    assert np.array_equal(got.zeros, want.zeros)


def test_mp_aberth_huge_root_past_extended_range():
    # (w - 1e90)(1 + w + ... + w^59): |w|^60 = 1e5400 passes even longdouble,
    # so the freeze test must not take sum_m |b_m| |w|^m from plain powers
    import mpmath as mp

    with mp.workdps(80):
        R = mp.mpf("1e90")
        b = _huge_root_fixture()
        roots = _mp_aberth(b)
        assert min(abs(r - R) for r in roots) <= mp.mpf("1e-70") * R
        unity = sorted(roots, key=abs)[:59]
        assert max(abs(r**60 - 1) for r in unity) <= mp.mpf("1e-70")


# -- the certified precision ladder -----------------------------------------------


def test_inclusion_radii_refuse_a_converged_wrong_pass(monkeypatch):
    # hard rods at L = 80: from the float64 roots a 45-digit pass converges,
    # but its z_c lands 9.3e-7 off; the inclusion radii refuse it, and the
    # rung the ladder certifies puts z_c on the value Newton gives on the
    # exact coefficients at 200 digits (criterion 11)
    import mpmath as mp

    poly = make_tonks(80.0)
    seeds = _ladder_seeds(np.trim_zeros(poly.scaled_coeffs(), "b"))
    b = _exact_scaled(80.0, 180)
    with mp.workdps(45):
        roots = _mp_aberth(b, starts=[mp.mpc(x) for x in seeds])
        w, rel, ok, _ = inclusion_radii(fixed_terms(b), roots)
    assert rel_err(w[np.argmin(np.abs(w))] * poly.scale, -0.36815400035903173) > 1e-7
    assert not ok and rel.max() > 1e-3
    seen, real = [], partition.inclusion_radii
    monkeypatch.setattr(partition, "inclusion_radii",
                        lambda terms, roots: seen.append(real(terms, roots)) or seen[-1])
    zs = zeros(poly)
    assert [s[2] for s in seen] == [False] * (len(seen) - 1) + [True]
    assert seen[-1][1].max() <= 2.0**-64
    assert zs.digits < 180  # the degree-set digits, max(60, 2 deg + 20), before the ladder
    assert rel_err(smallest_zero(zs).z_c, -0.36815400035903173) <= 1e-15


def test_ladder_evaluates_no_frozen_root_again(monkeypatch):
    # hard rods at L = 40 climb two rungs of 40 roots; every root freezes on
    # its residual test, and inclusion_radii take those evaluations: 441
    # kernel calls for zeros and smallest_zero, against 521 when the radii
    # evaluate all 80 roots again
    calls, real = [], partition.fixed_horner
    monkeypatch.setattr(partition, "fixed_horner",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    poly = make_tonks(40.0, 41)
    smallest_zero(zeros(poly))
    assert len(calls) <= 441


def test_double_root_never_certifies(monkeypatch):
    # (w + 1)^2 (w + 2)(w + 3)(w + 5)(w + 7): the two approximations of the
    # double root never separate into disjoint discs, so every rung up to
    # the ceiling, max(60, 2 deg + 20) = 60 digits, fails the certificate
    import mpmath as mp

    c = np.polynomial.polynomial.polyfromroots([-1, -1, -2, -3, -5, -7])
    monkeypatch.setattr(PartitionPolynomial, "mp_coefficients",
                        lambda self: [mp.mpf(x) for x in c])
    monkeypatch.setattr(PartitionPolynomial, "exact", True)
    with pytest.raises(NumericalError,
                       match=r"inclusion-radius certificate failed at \[30, .*60\] digits"):
        zeros(poly_from_coeffs(c, scale=1.0))


def test_derivative_data_at_working_precision():
    # hard rods at L = 40: Xi' and Xi'' at z_c from the exact coefficients
    # at 100 digits; coefficients rounded to 15 digits read a derivative
    # certificate of 0.177 and a root conditioning of 3.7e16 instead
    import mpmath as mp

    sm = smallest_zero(zeros(make_tonks(40.0)))
    with mp.workdps(100):
        c = make_tonks(40.0).mp_coefficients()
        d1 = [m * cm for m, cm in enumerate(c)][1:]
        d2 = [m * cm for m, cm in enumerate(d1)][1:]
        z = mp.findroot(lambda x: mp.polyval(c[::-1], x), mp.mpf(sm.z_c.real))
        dv, ddv = mp.polyval(d1[::-1], z), mp.polyval(d2[::-1], z)
        cert = abs(dv) / (abs(z) * abs(ddv))
        kappa = mp.fsum(abs(cm) * abs(z) ** m for m, cm in enumerate(c)) / abs(z * dv)
    assert sm.derivative_certificate == pytest.approx(float(cert), rel=1e-12)
    assert sm.root_conditioning == pytest.approx(float(kappa), rel=1e-12)


def test_correlation_family_rows_do_not_depend_on_the_batch(tonks5):
    # a configuration's numerator row and its errors are the same bits alone,
    # in a small batch and in a 2,048-row one, and correlation() sums that
    # row over Xi in a fixed order: rho and its bound are the same bits as
    # the row of the large batch gives
    rng = np.random.default_rng(5)
    step = assemble(build_table(PairPotential.step(1.0, 1.0), Box((4.0,)), 4))
    for poly in (tonks5, step):
        fam = NumeratorFamily(poly)
        for level in (1, 2):
            configs = np.sort(rng.uniform(0.0, poly.box.extents[0], (2048, level)),
                              axis=1)[:, :, None]
            want, want_err = fam(level, configs), fam.last_error.copy()
            for size in (1, 2, 7):
                for s in range(0, 70, size):
                    got = fam(level, configs[s : s + size])
                    assert np.array_equal(got, want[s : s + size])
                    assert np.array_equal(fam.last_error, want_err[s : s + size])
            for z in (0.2, 0.1 + 0.3j):
                xi, cond = evaluate(poly, z)
                xi_err = np.polyval(poly.coeff_errors[::-1], abs(z)) + _gamma(poly.M + 1) * cond
                zpow = complex(z) ** np.arange(level, poly.M + 1)
                for s in range(10):
                    S, E = want[s : s + 1, level:], want_err[s : s + 1, level:]
                    value = (S * zpow).sum(axis=1) / xi
                    err = (np.abs(value) * xi_err
                           + _gamma(S.shape[1] + 1) * (S * abs(zpow)).sum(axis=1))
                    if E.any():
                        err = (E * abs(zpow)).sum(axis=1) + err
                    c = correlation(poly, z, configs[s])
                    assert (c.value, c.error) == (value[0], err[0] / abs(xi))


def test_zeros_of_wide_range_float_coefficients_take_the_aberth_ladder():
    # roots -1, -10, ..., -1e6 at scale 1: the companion entries span past
    # 1e14, so the float64 coefficients go to the mpmath ladder
    roots = 10.0 ** np.arange(7)
    zs = zeros(poly_from_coeffs(np.poly(-roots)[::-1] / np.prod(roots), scale=1.0))
    assert (zs.method, zs.digits) == ("mpmath", 30)
    assert np.max(np.abs(zs.zeros / -roots - 1.0)) <= 1e-14  # 4.0e-15 measured
    assert smallest_zero(zs).z_c == pytest.approx(-1.0, rel=1e-14)


def test_zeros_past_the_float_range_take_the_table_entries():
    # c_m = K^m e_{4-m}(q) / e_4(q), K = e^400: past c_1 the coefficients
    # overflow float64; the zeros -q/K come from the table entries, and
    # so does smallest_zero's certificate, |p'| / (|w| |p''|) = 6 / 22 at
    # the root w = -1 of (w + 1)(w + 2)(w + 3)(w + 4)
    q, log_k = np.arange(1.0, 5.0), 400.0
    e = np.poly(-q)[::-1]
    entries = [ZEntry(m, 1, m * log_k + math.log(e[m] / e[0]) + math.lgamma(m + 1),
                      0.0, "synthetic") for m in range(5)]
    poly = assemble(IntegralTable(PairPotential.hardcore(1.0), Box((5.0,)), 4, entries))
    assert np.isinf(poly.coeffs).any()
    zs = zeros(poly)
    assert zs.method == "mpmath"
    # log magnitudes near 1,600 carry 2e-13 of rounding; 3.9e-12 measured
    assert np.max(np.abs(zs.zeros * math.exp(log_k) / -q - 1.0)) <= 1e-10
    sm = smallest_zero(zs)
    assert abs(sm.z_c * math.exp(log_k) + 1.0) <= 1e-10
    assert sm.derivative_certificate == pytest.approx(3.0 / 11.0, abs=1e-9)
