"""Spectrum, Riesz projection, nilpotent part, and asymptotic diagnostics."""

import cmath
import contextlib
import math
import warnings

import numpy as np
import pytest

from kslab import partition, spectral
from kslab.errors import ContourError, InsufficientData
from kslab.integrals import Box, IntegralTable, ZEntry, build_table
from kslab.ksop import KSMatrix, build_ks_matrix
from kslab.partition import (PartitionPolynomial, assemble, companion_roots, correlation,
                             polish_roots, smallest_zero, zeros)
from kslab.potentials import PairPotential
from kslab.spectral import (
    _center,
    _closed_form,
    _left_vector,
    _pole_from_chain,
    coefficient_asymptotics,
    leading_asymptotics,
    leading_projection,
    power_convergence,
    ray_limit,
    riesz_projection,
    spectrum,
)

from conftest import (balanced, companion, dense_laurent, make_ideal, make_tonks,
                      poly_from_coeffs)


# reference for the closed form: the exact-structure mpmath contour sums
def _mp_contour(b, dvec, center, radius, n_nodes, dps):
    """Contour sums of the balanced companion resolvent in mpmath, b as mpf.

    The companion inverse has closed-form rows: a suffix Horner pass gives
    the top row, every other row follows by shift-and-divide, and the
    balancing similarity is an entrywise diagonal scale.  O(M^2) per node.
    Returns P, S (numpy complex), certified Frobenius defects, the pole
    order from the nilpotent chain, and the refined center.
    """
    from mpmath import mp, mpc, mpf

    M = len(b) - 1
    with mp.workdps(dps):
        bmp = list(b)
        dmp = [mpf(x) for x in dvec.tolist()]
        cen = _center(mp, bmp, center)

        P = [[mpc(0)] * M for _ in range(M)]
        S = [[mpc(0)] * M for _ in range(M)]
        r = mpf(radius)
        for k in range(n_nodes):
            th = 2 * mp.pi * (k + mpf("0.5")) / n_nodes
            eio = mp.expjpi(2 * (k + mpf("0.5")) / n_nodes)  # e^{i theta}
            lam = cen + r * eio
            # suffix pass h_j = (b_{j+1} + h_{j+1}) / lam
            h = [mpc(0)] * (M + 1)
            for j in range(M - 1, -1, -1):
                h[j] = (bmp[j + 1] + h[j + 1]) / lam
            q = lam * (1 + h[0])
            x0 = [mpc(0)] * M
            x0[0] = -1 / q
            for kk in range(1, M):
                x0[kk] = h[kk] / q
            wA = -r * eio / n_nodes
            wS = mpf(1) / n_nodes
            inv_lam = 1 / lam
            row = list(x0)  # X[0, :]
            for i in range(M):
                if i > 0:
                    # X[i, :] = (X[i-1, :] - e_i) / lam
                    prev = row
                    row = [v * inv_lam for v in prev]
                    row[i] -= inv_lam
                di = dmp[i]
                Pi, Si = P[i], S[i]
                for kcol in range(M):
                    scaled = row[kcol] * (dmp[kcol] / di)
                    Pi[kcol] += wA * scaled
                    Si[kcol] += wS * scaled

        # balanced companion A[r, c] = C[r, c] d_c / d_r
        A = [[mpc(0)] * M for _ in range(M)]
        for kcol in range(M):
            A[0][kcol] = -bmp[kcol + 1] * dmp[kcol] / dmp[0]
        for i in range(1, M):
            A[i][i - 1] = dmp[i - 1] / dmp[i]

        def matmul(X, Y):
            return [[sum(X[i][j] * Y[j][k] for j in range(M)) for k in range(M)]
                    for i in range(M)]

        def fro(X):
            return mp.sqrt(sum(abs(v) ** 2 for rw in X for v in rw))

        def sub(X, Y):
            return [[X[i][k] - Y[i][k] for k in range(M)] for i in range(M)]

        I = [[mpc(1 if i == k else 0) for k in range(M)] for i in range(M)]
        shifted = [[A[i][k] - (cen if i == k else 0) for k in range(M)]
                   for i in range(M)]
        nP, nS = fro(P), fro(S)
        idem = fro(sub(matmul(P, P), P)) / nP
        annih = max(fro(matmul(P, S)), fro(matmul(S, P))) / (nP * nS)
        ImP = sub(I, P)
        red = fro(sub(matmul(shifted, S), ImP)) / max(mpf(1), fro(ImP))
        # nilpotent chain in the same precision: the float64 cast of P is
        # far too coarse for (A - c)P once ||P|| passes 1/eps
        D = matmul(shifted, P)
        nA = fro(A)
        nil = fro(D) / nA
        chain = [nil]
        Dq = D
        for q in range(2, 4):
            Dq = matmul(Dq, D)
            chain.append(fro(Dq) / nA**q)
        pole = _pole_from_chain(chain)

        Pf = np.array([[complex(v) for v in rw] for rw in P])
        Sf = np.array([[complex(v) for v in rw] for rw in S])
        return (Pf, Sf, float(idem), float(annih), float(red), float(nil),
                pole, complex(cen))



# reference for the generator form: the closed form with every matrix dense
def _dense_closed_form(ctx, b, dvec, center):
    """Laurent data at a simple leading eigenvalue, P and S as M x M lists.

    P = v nu^T / (nu^T v); S is built column by column as the solution of
    (A - lam) x = (I - P) e_j with nu^T x = 0, and every defect is measured
    on the dense result, all in ctx.  O(M^2).  Same arguments and return
    tuple as spectral._closed_form.
    """
    M = len(b) - 1
    d = dvec.tolist()
    lam = _center(ctx, b, center)
    a0 = [-b[k + 1] * d[k] / d[0] for k in range(M)]
    sub = [None] + [d[i - 1] / d[i] for i in range(1, M)]
    v = [lam ** (M - 1 - i) / d[i] for i in range(M)]
    nu = [x * d[i] for i, x in enumerate(_left_vector(b, lam))]

    def dot(x, y):
        return ctx.fsum(xi * yi for xi, yi in zip(x, y))

    def norm(x):
        return ctx.sqrt(ctx.fsum(abs(xi) ** 2 for xi in x))

    def shifted(x):
        return [dot(a0, x) - lam * x[0]] + [sub[i] * x[i - 1] - lam * x[i]
                                            for i in range(1, M)]

    pairing = dot(nu, v)
    if abs(pairing) <= M * ctx.eps * norm(nu) * norm(v):
        return None
    u = [vi / pairing for vi in v]
    P = [[ui * nk for nk in nu] for ui in u]
    cols = []
    for j in range(M):
        r = [-ui * nu[j] for ui in u]
        r[j] += 1
        x = [ctx.mpf(0)] * M
        for i in range(1, M):
            x[i] = (sub[i] * x[i - 1] - r[i]) / lam
        t = dot(nu, x) / pairing
        cols.append([xi - t * vi for xi, vi in zip(x, v)])
    S = [list(row) for row in zip(*cols)]

    nu_norm = norm(nu)
    nP = norm(u) * nu_norm
    nS = norm([s for col in cols for s in col])
    idem = abs(dot(nu, u) - 1)
    pS = norm([dot(nu, col) for col in cols]) * norm(u)
    Sp = norm([dot(row, u) for row in S]) * nu_norm
    annih = max(pS, Sp) / (nP * nS)
    red_sq = ctx.mpf(0)
    for j, col in enumerate(cols):
        res = shifted(col)
        for i in range(M):
            res[i] += P[i][j] - (1 if i == j else 0)
        red_sq += ctx.fsum(abs(x) ** 2 for x in res)
    I_minus_P = norm([(1 if i == j else 0) - P[i][j]
                      for i in range(M) for j in range(M)])
    red = ctx.sqrt(red_sq) / max(ctx.mpf(1), I_minus_P)
    g = shifted(u)
    nA = norm(a0 + sub[1:])
    nD = norm(g) * nu_norm
    ratio = abs(dot(nu, g))
    chain = [nD * ratio ** (q - 1) / nA**q for q in range(1, 4)]
    pole = _pole_from_chain(chain)

    Pf = np.array([[complex(x) for x in row] for row in P])
    Sf = np.array([[complex(x) for x in row] for row in S])
    return (Pf, Sf, float(idem), float(annih), float(red), float(chain[0]),
            pole, complex(lam))



@pytest.fixture(scope="module")
def ks20():
    return build_ks_matrix(make_tonks(20.0))


@pytest.fixture(scope="module")
def ks5(tonks5):
    return build_ks_matrix(tonks5)


@pytest.fixture(scope="module")
def spec5(ks5):
    return spectrum(ks5)


def test_spectrum_matches_partition_zeros(tonks5, spec5):
    # Z_6 = 0 puts an exact zero eigenvalue in the M=6 realization; the
    # reciprocal correspondence covers the nonzero part of the spectrum
    zs = zeros(tonks5).zeros
    got = sorted((l for l in spec5.eigenvalues if abs(l) > 1e-12),
                 key=lambda w: (w.real, w.imag))
    want = sorted((1.0 / z for z in zs), key=lambda w: (w.real, w.imag))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-10 * abs(w)
    assert spec5.lam_c == pytest.approx(1.0 / smallest_zero(zeros(tonks5)).z_c,
                                        rel=1e-10)


def test_spectrum_orders_and_gaps(spec5):
    mods = np.abs(spec5.eigenvalues)
    assert np.all(np.diff(mods) <= 1e-12)  # descending
    assert spec5.spectral_radius == pytest.approx(mods[0])
    assert spec5.lam2_mod == pytest.approx(mods[1])
    rest = [l for l in spec5.eigenvalues if abs(l - spec5.lam_c) > 1e-12]
    assert spec5.dist_gap == pytest.approx(min(abs(l - spec5.lam_c) for l in rest))
    assert not spec5.is_tie


def test_left_right_pair_is_biorthogonal(ks5, spec5):
    A = companion(ks5)
    lam_s = spec5.lam_c * ks5.scale
    right = lam_s ** np.arange(ks5.M - 1, -1, -1)
    nu = np.array(_left_vector(ks5.poly.scaled_coeffs(), lam_s))
    pairing = np.dot(nu, right)  # bilinear nu^T v, no conjugation
    assert abs(pairing) > 1e-12 * np.linalg.norm(nu) * np.linalg.norm(right)
    left = nu / pairing
    assert np.linalg.norm(A @ right - lam_s * right) <= 1e-9 * abs(lam_s)
    assert np.linalg.norm(left @ A - lam_s * left) <= 1e-9 * abs(lam_s)
    assert np.dot(left, right) == pytest.approx(1.0, rel=1e-10)


def test_leading_projection_tonks(ks5, spec5):
    rz = leading_projection(ks5, spec5)
    assert rz.precision == "float64"
    assert rz.rank == 1
    assert rz.pole_order == 1
    assert rz.second_singular_ratio <= 1e-12
    assert max(rz.idempotency_defect, rz.annihilation_defect, rz.reduced_identity_defect) <= 1e-10
    assert rz.nilpotent_ratio <= 1e-11


def test_closed_form_projection_matches_mp_contour():
    # at L = 20 float64 cannot certify the contour; the closed-form Laurent
    # data must reproduce what the mp40 contour integrates on the same
    # exact coefficients
    from mpmath import mp
    from scipy.linalg import matrix_balance

    ks = build_ks_matrix(make_tonks(20.0))
    spec = spectrum(ks)
    rz = leading_projection(ks, spec)
    assert (rz.precision, rz.n_nodes) == ("mp40", 0)
    assert rz.rank == 1
    assert rz.pole_order == 1
    with mp.workdps(40):
        b = ks.poly.mp_scaled_coeffs()
    _, T = matrix_balance(companion(ks), permute=False)
    P, S, *_ = _mp_contour(b, np.diag(T), spec.lam_c * ks.scale,
                           0.5 * spec.dist_gap * ks.scale, 96, 40)
    rP, rS = dense_laurent(rz.generators)
    assert np.linalg.norm(rP - P) <= 1e-12 * np.linalg.norm(P)
    assert np.linalg.norm(rS - S) <= 1e-10 * np.linalg.norm(S)


_FLOAT_BOXES = {
    "rods-L5": lambda: make_tonks(5.0),
    "rods-L10": lambda: make_tonks(10.0),
    "ideal-M6": lambda: make_ideal(M=6),
    "ideal-M8": lambda: make_ideal(M=8),
    "step-L5": lambda: assemble(build_table(PairPotential.step(1.0, 1.0), Box((5.0,)), 6)),
    "disks-L3": lambda: assemble(build_table(PairPotential.hardcore(0.7, dimension=2),
                                             Box((3.0, 3.0)), 4)),
}


@pytest.mark.parametrize("box", sorted(_FLOAT_BOXES))
def test_float64_closed_form_matches_dense_contour(box):
    # where float64 certifies, the closed form must reproduce the dense
    # contour on the balanced companion, an independent route to P and S
    ks = build_ks_matrix(_FLOAT_BOXES[box]())
    spec = spectrum(ks)
    rz = leading_projection(ks, spec)
    assert rz.precision == "float64"
    assert rz.rank == 1
    assert rz.pole_order == 1
    ref = riesz_projection(balanced(ks), spec.lam_c * ks.scale,
                           0.5 * spec.dist_gap * ks.scale)
    P, S = dense_laurent(rz.generators)
    assert np.linalg.norm(P - ref.P) <= 1e-12 * np.linalg.norm(ref.P)
    assert np.linalg.norm(S - ref.S) <= 1e-11 * np.linalg.norm(ref.S)


_DENSE_BOXES = {
    "rods-L10": ("float64", lambda: make_tonks(10.0)),
    "rods-L20": ("mp40", lambda: make_tonks(20.0)),
    "rods-L40": ("mp46", lambda: make_tonks(40.0)),
    "rods-L80": ("mp72", lambda: make_tonks(80.0)),
    "step-L5": ("float64", _FLOAT_BOXES["step-L5"]),
}


@pytest.mark.parametrize("box", sorted(_DENSE_BOXES))
def test_closed_form_matches_dense_reference(box):
    # the generator form against the dense closed form, both in the
    # arithmetic that certified the box's zeros
    from mpmath import fp, mp

    precision, make = _DENSE_BOXES[box]
    ks = build_ks_matrix(make())
    spec = spectrum(ks)
    assert leading_projection(ks, spec).precision == precision
    dvec = ks.balancing[2]
    if precision == "float64":
        ctx, digits, tol = fp, contextlib.nullcontext(), 1e-10
    else:
        ctx, digits, tol = mp, mp.workdps(int(precision[2:])), 1e-12
    with digits:
        b = ks.poly.scaled_coeffs().tolist() if ctx is fp else ks.poly.mp_scaled_coeffs()
        got = _closed_form(ctx, b, dvec, spec.lam_c * ks.scale)
        want = _dense_closed_form(ctx, b, dvec, spec.lam_c * ks.scale)
    for x, ref in zip(dense_laurent(got[6]), want[:2]):  # P, S
        assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.norm(ref)
    assert got[4:6] == want[6:]  # pole order, center
    assert got[4] == 1
    assert max(got[:3]) <= tol and max(want[2:5]) <= tol


def test_closed_form_multiplications_grow_linearly(monkeypatch):
    # working-precision arithmetic is O(M): doubling the box must not
    # quadruple the mpc products, as the dense form does (3,536 -> 12,636)
    from mpmath import mp

    inputs = []
    for L in (20.0, 40.0):
        ks = build_ks_matrix(make_tonks(L))
        spec = spectrum(ks)
        with mp.workdps(40):
            b = ks.poly.mp_scaled_coeffs()
        inputs.append((b, ks.balancing[2], spec.lam_c * ks.scale))
    real = mp.mpc.__mul__
    counts = []

    def counting(self, other):
        counts[-1] += 1
        return real(self, other)

    monkeypatch.setattr(mp.mpc, "__mul__", counting)
    for args in inputs:
        counts.append(0)
        with mp.workdps(40):
            _closed_form(mp, *args)
    assert counts[1] <= 2.5 * counts[0]


def test_spectrum_of_coincident_float_roots_is_the_certified_zeros():
    # (w - 1e90)(1 + ... + w^59): the companion's float64 eigenvalues hold 3
    # distinct values for its 60 roots; the eigenvalues are 1/z for the 60
    # zeros the ladder certifies instead
    poly = poly_from_coeffs([-1e90] + [1 - 1e90] * 59 + [1.0], scale=1.0)
    assert np.unique(companion_roots(poly.scaled_coeffs())).size == 3
    spec = spectrum(build_ks_matrix(poly))
    zs = spec.zeros
    assert zs.method == "mpmath"
    assert np.unique(zs.zeros).size == 60
    assert np.array_equal(np.sort_complex(spec.eigenvalues), np.sort_complex(1 / zs.zeros + 0))


_SHARED_BOXES = {**_FLOAT_BOXES,
                 **{f"rods-L{L}": (lambda L=L: make_tonks(float(L))) for L in (20, 40, 80)}}


@pytest.mark.parametrize("box", sorted(_SHARED_BOXES))
def test_spectrum_and_zeros_share_one_root_stage(box):
    # the operator's eigenvalues are the reciprocals of the very zeros that
    # zeros reports, on either route, so lam_c z_c = 1 to the rounding of one
    # division (the float64 root stage alone read 0.092 at L = 40 and 0.80 at
    # L = 80)
    poly = _SHARED_BOXES[box]()
    zs = zeros(poly)
    assert zs.method == ("lapack" if box in _FLOAT_BOXES else "mpmath-exact")
    spec = spectrum(build_ks_matrix(poly))
    assert abs(spec.lam_c * smallest_zero(zs).z_c - 1) <= 1e-15
    lam = spec.eigenvalues[spec.eigenvalues != 0]
    assert len(lam) == len(zs.zeros)
    for l in lam:
        assert np.min(np.abs(l - 1 / zs.zeros)) <= 1e-15 * abs(l)


@pytest.mark.parametrize("L", [120.0, 150.0])
def test_wide_box_spectrum_warns_nothing(L):
    # no RuntimeWarning escapes on these boxes.  The closed form's right
    # eigenvector passes 1e308 at L = 150, yet P and S are finite
    ks = build_ks_matrix(make_tonks(L))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = spectrum(ks)
        rz = leading_projection(ks, spec)
    assert spec.zeros.digits > 40
    assert (rz.precision, rz.rank, rz.pole_order) == (f"mp{spec.zeros.digits}", 1, 1)
    assert abs(spec.lam_c * smallest_zero(spec.zeros).z_c - 1) <= 1e-15
    assert np.all(np.isfinite(spec.eigenvalues))
    assert len(spec.eigenvalues) == ks.M


@pytest.mark.parametrize("L", [20.0, 40.0])
def test_left_eigenvector_residual_wide_boxes(L):
    # the backward recurrence keeps the left pair accurate where the
    # forward one loses every digit (relative residual O(1) at L >= 20), at
    # the float64 companion's leading eigenvalue: 1/w for the smallest of
    # its float64 coefficients' roots, polished
    ks = build_ks_matrix(make_tonks(L))
    A = companion(ks)
    b = np.trim_zeros(ks.poly.scaled_coeffs(), "b")
    w = polish_roots(b, companion_roots(b))
    lam_s = 1 / w[np.argmin(np.abs(w))]
    nu = np.array(_left_vector(ks.poly.scaled_coeffs(), lam_s))
    res = np.linalg.norm(nu @ A - lam_s * nu) / (abs(lam_s) * np.linalg.norm(nu))
    assert res <= 1e-12


def test_leading_projection_failure_names_both_routes(ks5, spec5, ks20, monkeypatch):
    # the closed form runs once, in the arithmetic that certified the zeros
    # (float64 on the lapack route at L = 5, 40 digits on the ladder's at
    # L = 20); when it does not certify, the error names that arithmetic and
    # the defect
    from mpmath import mp

    real = spectral._closed_form
    calls = []

    def failing(ctx, b, dvec, center):
        calls.append(ctx)
        out = real(ctx, b, dvec, center)
        return (1e-6,) + out[1:] if ctx is mp else out

    monkeypatch.setattr(spectral, "_closed_form", failing)
    spec20 = spectrum(ks20)
    with pytest.raises(ContourError, match=r"certify: mp40: defect 1\.000e-06 above 1e-12$"):
        leading_projection(ks20, spec20)
    assert calls == [mp]
    rz = leading_projection(ks5, spec5)
    assert (rz.precision, rz.n_nodes, rz.rank, rz.pole_order) == ("float64", 0, 1, 1)
    monkeypatch.setattr(spectral, "_closed_form", lambda *args: None)
    for ks, spec, precision in ((ks5, spec5, "float64"), (ks20, spec20, "mp40")):
        with pytest.raises(ContourError,
                           match=f"did not certify: {precision}: the pairing nu\\^T v vanishes$"):
            leading_projection(ks, spec)


def test_leading_projection_escalates_to_mp60(ks20, monkeypatch):
    # the closed form's digits follow the zero set: zeros that took 60
    # digits to certify take the one evaluation to mp60, and an mp40
    # evaluation that would fail is never made
    import dataclasses

    from mpmath import mp

    real = spectral._closed_form
    dps = []

    def failing_mp40(ctx, b, dvec, center):
        dps.append(mp.dps)
        out = real(ctx, b, dvec, center)
        return (1e-6,) + out[1:] if ctx is mp and mp.dps == 40 else out

    monkeypatch.setattr(spectral, "_closed_form", failing_mp40)
    spec = spectrum(ks20)
    assert spec.zeros.method == "mpmath-exact" and spec.zeros.digits <= 40
    with pytest.raises(ContourError, match=r"certify: mp40: defect"):
        leading_projection(ks20, spec)
    spec60 = dataclasses.replace(spec, zeros=dataclasses.replace(spec.zeros, digits=60))
    dps.clear()
    rz = leading_projection(ks20, spec60)
    assert dps == [60]
    assert (rz.precision, rz.n_nodes) == ("mp60", 0)
    assert max(rz.idempotency_defect, rz.annihilation_defect, rz.reduced_identity_defect) <= 1e-12
    assert rz.rank == 1 and rz.pole_order == 1


def test_float64_overflow_escalates(monkeypatch):
    # at L = 80 the balanced eigenvector norms overflow float64, and the
    # box's zeros come from the ladder: the closed form runs in mpmath at
    # their digits and certifies.  An overflow in that one evaluation is
    # named, not a traceback
    ks = build_ks_matrix(make_tonks(80.0))
    spec = spectrum(ks)
    rz = leading_projection(ks, spec)
    assert spec.zeros.method == "mpmath-exact"
    assert rz.precision == f"mp{spec.zeros.digits}"
    assert rz.rank == 1 and rz.pole_order == 1

    def overflowing(*args):
        raise OverflowError("a generator, ||P|| or ||S|| leaves the float64 range")

    monkeypatch.setattr(spectral, "_closed_form", overflowing)
    with pytest.raises(ContourError) as err:
        leading_projection(ks, spec)
    assert f"{rz.precision}: OverflowError" in str(err.value)


def test_riesz_projection_on_jordan_companion():
    # (lam - 2)^2 (lam - 1/2): a rank-2 group with a genuine order-2 pole
    comp = np.array([[4.5, -6.0, 2.0], [1, 0, 0], [0, 1, 0]])
    rz = riesz_projection(comp, 2.0, 0.6)
    assert rz.rank == 2
    assert rz.pole_order == 2
    assert max(rz.idempotency_defect, rz.annihilation_defect, rz.reduced_identity_defect) <= 1e-8


def test_riesz_projection_on_jordan_companion_wide_radius():
    # radius 1.4 against the outside eigenvalue at distance 1.5: q = 0.93
    # needs 512 nodes
    comp = np.array([[4.5, -6.0, 2.0], [1, 0, 0], [0, 1, 0]])
    rz = riesz_projection(comp, 2.0, 1.4)
    assert rz.n_nodes == 512
    assert rz.rank == 2
    assert rz.pole_order == 2
    assert max(rz.idempotency_defect, rz.annihilation_defect, rz.reduced_identity_defect) <= 1e-10


def test_power_convergence_tracks_subleading_ratio(ks5, spec5):
    rep = power_convergence(ks5, spec5, leading_projection(ks5, spec5).generators["P"],
                            n_terms=60)
    assert rep.expected_ratio == pytest.approx(
        spec5.lam2_mod / abs(spec5.lam_c), rel=1e-12
    )
    assert rep.fitted_ratio == pytest.approx(rep.expected_ratio, rel=0.01)
    assert rep.n_used >= 10


def _power_fit_per_power(ks, spec, P, n_terms=60):
    """(fitted, median, n_used) from one 2-norm call per power of K/lam_c."""
    A = balanced(ks).astype(complex) / (spec.lam_c * ks.scale)
    deltas = np.empty(n_terms)
    term = np.eye(ks.M, dtype=complex)
    for n in range(1, n_terms + 1):
        term = term @ A
        deltas[n - 1] = np.linalg.norm(term - P, 2)
    mask = deltas > max(1e-13 * deltas[0], 1e-15)
    idx = np.arange(1, n_terms + 1)[mask]
    half = idx >= idx[len(idx) // 2]
    fit = np.polyfit(idx[half], np.log(deltas[mask][half]), 1)
    median = np.median(deltas[mask][1:] / deltas[mask][:-1])
    return float(np.exp(fit[0])), float(median), int(mask.sum())


@pytest.mark.parametrize("L", [5, 20, 40, 80])
def test_power_convergence_on_probes_fits_the_dense_norms(L):
    # four probe vectors see the decay rate of the dense powers' 2-norms
    ks = build_ks_matrix(make_tonks(L))
    spec = spectrum(ks)
    P = leading_projection(ks, spec).generators["P"]
    rep = power_convergence(ks, spec, P, n_terms=60)
    fitted, _, n_used = _power_fit_per_power(ks, spec, np.outer(P["u"], P["nu"]))
    assert rep.fitted_ratio == pytest.approx(fitted, rel=0.005)
    assert rep.n_used == n_used


def test_laurent_data_and_probes_hold_no_dense_matrix():
    # c_m = 1 up to M = 300 puts the zeros on the unit circle, where float64
    # certifies; the closed form and the probe powers keep O(M) arrays, less
    # than one complex128 M x M matrix (the dense P and S peaked at 4.8 MB)
    import tracemalloc

    for M in (20, 300):  # the first run loads what mpmath imports lazily
        entries = [ZEntry(m, 1, math.lgamma(m + 1), 0.0, "synthetic") for m in range(M + 1)]
        table = IntegralTable(PairPotential.hardcore(1.0), Box((M + 1.0,)), M, entries)
        ks = KSMatrix(PartitionPolynomial(np.ones(M + 1), np.zeros(M + 1), 1.0, table))
        spec = spectrum(ks)
        ks.balancing
        tracemalloc.start()
        try:
            rp = leading_projection(ks, spec)
            power_convergence(ks, spec, rp.generators["P"], n_terms=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert rp.precision == "float64"
    assert peak < 16 * M * M


def test_ray_limit_extracts_directional_value():
    z0 = -0.4

    def g(z):
        return 3.0 / (1.0 - z / z0) * (1.0 - z / z0) + cmath.cos(z) * (1.0 - z / z0)

    mean, spread, rays = ray_limit(g, z0, 0.2)
    assert abs(mean - 3.0) <= 1e-12
    assert spread <= 1e-11
    assert len(rays) == 5


def test_leading_asymptotics_ideal_agrees_with_residue():
    poly = make_ideal(V=1.0, M=4)
    res = leading_asymptotics(poly, np.array([[0.5]]))
    assert res.agreement <= 1e-9
    doc = res.to_json()
    assert {"ray_value", "residue_value", "agreement", "z_c"} <= set(doc)


def test_leading_asymptotics_report_the_documented_limit():
    # both routes give lim rho_1(z) (1 - z/z_c) / z, read here off the
    # correlation itself just inside the pole
    poly = make_ideal(V=1.0, M=4)
    res = leading_asymptotics(poly, np.array([[0.5]]))
    z = res.z_c * (1.0 - 1e-7)
    want = correlation(poly, z, np.array([[0.5]])).value * (1.0 - z / res.z_c) / z
    assert abs(res.ray_value - want) <= 1e-5 * abs(want)
    assert abs(res.residue_value - want) <= 1e-5 * abs(want)


def test_leading_asymptotics_vanish_outside_box(tonks5):
    # rho is zero outside the box, so both routes must read exactly zero
    for x in (9.0, -1.0):
        res = leading_asymptotics(tonks5, np.array([[x]]))
        assert res.ray_value == 0.0 and res.residue_value == 0.0


def test_rod_asymptotics_agree_at_working_precision():
    # hard rods at L = 20, one anchor at L/2: both routes divide by the same
    # Xi at the certified digits, so they agree far below the 7.3e-3 that a
    # float64 Xi' leaves, and within the reported bounds
    res = leading_asymptotics(make_tonks(20.0), np.array([[10.0]]))
    assert res.agreement <= 1e-6  # 7.5e-9 measured
    assert res.agreement <= res.ray_error + res.residue_error


@pytest.mark.parametrize("L", [30.0, 40.0])
def test_rod_asymptotics_bound_a_cancelling_numerator(L):
    # N(z_c) cancels with condition 6.5e13 at L = 30 and 1.4e19 at L = 40
    # (exact rationals at the 80-digit z_c): its float64 rounding must show
    # in the residue's bound
    res = leading_asymptotics(make_tonks(L), np.array([[L / 2]]))
    assert res.residue_error >= res.agreement


@pytest.mark.parametrize("L", [20.0, 40.0, 80.0])
def test_mp40_center_takes_few_kernel_evaluations(monkeypatch, L):
    # Newton on fixed_horner, at the digits leading_projection takes (40 at
    # L = 20, the ZeroSet's 46 and 72 at L = 40 and 80), stops once a step no
    # longer shrinks: 3, 5 and 3 evaluations, where an eight-step cap ran all 8
    from mpmath import mp

    ks = build_ks_matrix(make_tonks(L))
    spec = spectrum(ks)
    digits = mp.workdps(max(40, spec.zeros.digits))
    with digits:
        bmp = ks.poly.mp_scaled_coeffs()
    calls, real = [], partition.fixed_horner
    monkeypatch.setattr(partition, "fixed_horner",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    with digits:
        lam = _center(mp, bmp, spec.lam_c * ks.scale)
        # 1/lam is a root of the polynomial to the working precision's noise
        w = 1 / lam
        size = mp.fsum(abs(c) * abs(w) ** m for m, c in enumerate(bmp))
        assert abs(mp.polyval(bmp[::-1], w)) <= mp.mpf("1e-30") * size
    assert 1 <= len(calls) <= 5


def test_coefficient_asymptotics_separates_pole_orders():
    k = np.arange(40)
    double = (k + 1) * 2.5**k  # order-2 pole at 0.4
    ca = coefficient_asymptotics(double)
    assert ca.subexp_exponent == pytest.approx(1.0, abs=0.1)
    # log(k+1) vs log(k) in the fitted model leaves a small finite-k bias
    assert ca.fit_rate == pytest.approx(2.5, rel=3e-3)
    simple = 2.5**k
    cs = coefficient_asymptotics(simple)
    assert abs(cs.subexp_exponent) <= 0.05
    assert cs.fit_rate == pytest.approx(2.5, rel=1e-6)
    assert cs.growth_estimate == pytest.approx(2.5, rel=1e-12)


def test_coefficient_asymptotics_needs_data():
    with pytest.raises(InsufficientData):
        coefficient_asymptotics([1.0, 2.0, 4.0])
