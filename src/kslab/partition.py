"""Grand-canonical partition polynomials, their zeros, and correlations.

The finite-truncation partition function is the polynomial

    Xi(z) = sum_{m=0..M} c_m z^m,   c_m = Z_m / m!,

assembled from an integral table.  Everything downstream hangs off its
zeros, so the zero finder is deliberately careful.  Its one float64 root
stage, float_roots, takes balanced companion eigenvalues, an Aberth-Ehrlich
polish to scaled residual _POLISH_TOL and enforced conjugate symmetry; the
operator's spectrum reads its eigenvalues 1/z from the same stage.  When
the companion matrix spans too many orders of magnitude or the smallest
zero is too ill-conditioned for float64 coefficients, the zeros come from
an Aberth-Ehrlich iteration in mpmath instead.  That pass is
seeded by Jacobi Aberth sweeps in double-double arithmetic (Dekker 1971),
vectorized over all roots from the circles of the coefficients' Newton
polygon (Bini 1996; Bini and Robol, MPSolve, 2014), so the mpmath
Gauss-Seidel sweeps only finish a few Newton steps per root.

Evaluation uses Horner in 80-bit extended precision together with the
coefficient-magnitude sum as a condition estimate, which is what the zero
residuals and near-pole guards are measured against.  Correlations
N(z; x)/Xi(z) and their error bounds all come from CorrelationFamily.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, NearPole, NumericalError
from .integrals import IntegralTable, anchored_series
from .slog import SLog

_LONG = np.clongdouble


@dataclass
class PartitionPolynomial:
    """Coefficients c_m = Z_m/m! plus the conditioning scale used on them."""

    coeffs: np.ndarray  # raw float c_m, index m = 0..M
    coeff_slogs: list  # SLog per coefficient, authoritative for huge tables
    coeff_errors: np.ndarray
    scale: float
    table: IntegralTable

    @property
    def M(self):
        return len(self.coeffs) - 1

    @property
    def box(self):
        return self.table.box

    @property
    def potential(self):
        return self.table.potential

    def scaled_coeffs(self):
        """b_m = c_m * scale^m, the polynomial actually handed to solvers.

        Raises NumericalError when the product leaves the float64 range.
        """
        return scaled_coefficients(self.coeffs, self.scale)

    def mp_coefficients(self):
        """Coefficients rebuilt in arbitrary precision, or None.

        Available only when every table entry came from a closed form; the
        values are re-derived from the potential and box under the caller's
        mpmath precision, so no float64 rounding of the table enters.  The
        smallest zero of a wide hard-rod box is sensitive enough that this
        distinction decides its third decimal.
        """
        from .integrals import exact_mp_Z

        if any(e.method != "exact" for e in self.table.entries):
            return None
        import mpmath as mp

        out = []
        for e in self.table.entries:
            zval = exact_mp_Z(self.table.potential, self.table.box, e.m)
            if zval is None:
                return None
            out.append(zval / mp.factorial(e.m))
        return out


def scaled_coefficients(c, scale):
    """b_m = c_m * scale^m; NumericalError when some b_m is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        b = c * scale ** np.arange(len(c))
    if not np.all(np.isfinite(b)):
        raise NumericalError(
            f"scaled coefficients c_m * {scale:.6g}^m leave the float64 range")
    return b


def assemble(table: IntegralTable, scale=None) -> PartitionPolynomial:
    """Partition polynomial from a Z-table.

    The default conditioning scale equalizes the first and last nonzero
    rescaled coefficients geometrically (computed in log space), which
    keeps companion entries within a workable range even when the raw
    coefficients span a hundred decades.
    """
    slogs = []
    coeffs = np.empty(table.M + 1)
    errs = np.empty(table.M + 1)
    for e in table.entries:
        cs = e.slog.scaled(-math.lgamma(e.m + 1))
        slogs.append(cs)
        coeffs[e.m] = cs.value
        errs[e.m] = e.error / math.factorial(e.m) if e.m < 170 else 0.0
    if scale is None:
        nz = [m for m in range(1, table.M + 1) if slogs[m].sign != 0]
        if len(nz) >= 2 and nz[-1] > nz[0]:
            first, last = nz[0], nz[-1]
            scale = math.exp((slogs[first].log_mag - slogs[last].log_mag)
                             / (last - first))
        else:
            scale = 1.0
    return PartitionPolynomial(coeffs, slogs, errs, float(scale), table)


# -- evaluation ----------------------------------------------------------------


def horner(c, w, magnitude=False):
    """sum_m c_m w^m by Horner in 80-bit extended precision.

    w may be a scalar or an array; the value has w's shape, as clongdouble.
    With magnitude the triple (value, mag, E) is returned: mag = sum_m
    |c_m| |w|^m is accumulated the same way in longdouble, and value and
    mag are both divided by 2^E per point, E = floor(max_m log2 |c_m||w|^m).
    As in _dd_horner, w runs as 2^-k w, k the binary exponent of |w|, and
    c_m as 2^(m k - E) c_m.  Both shifts are exact, so every intermediate
    is 2^-E times the unscaled one: value / mag is unchanged wherever the
    unscaled sums fit, and stays finite past |w|^deg ~ 1e4932, where they
    overflow even longdouble.
    """
    x = np.asarray(w, dtype=_LONG)
    if not magnitude:
        acc = np.zeros_like(x)
        for cm in np.asarray(c, dtype=_LONG)[::-1]:
            acc = acc * x + cm
        return acc
    w = np.asarray(w, dtype=complex)
    # hypot, as scalar abs(): numpy's array abs of complex128 rounds differently
    absw = np.hypot(w.real, w.imag)
    k = np.frexp(absw)[1]
    m = np.arange(len(c)).reshape((-1,) + (1,) * absw.ndim)
    c = np.asarray(c, dtype=np.longdouble).reshape(m.shape)
    with np.errstate(divide="ignore"):
        E = np.floor(np.max(np.log2(np.abs(c)) + m * np.log2(np.where(absw > 0, absw, 1.0)),
                            axis=0))
    E = np.where(np.isfinite(E), E, 0).astype(int)
    cs = np.ldexp(c, m * k - E)
    xs = np.empty_like(x)
    xs.real, xs.imag = np.ldexp(x.real, -k), np.ldexp(x.imag, -k)
    ax = np.ldexp(absw.astype(np.longdouble), -k)
    acc, mag = np.zeros_like(xs), np.zeros_like(ax)
    for cm, am in zip(cs[::-1], np.abs(cs[::-1])):
        acc = acc * xs + cm
        mag = mag * ax + am
    return acc, mag, E


def evaluate(poly: PartitionPolynomial, z):
    """Xi(z) by extended-precision Horner, with a condition estimate.

    Returns (value, cond) where cond = sum_m |b_m| |w|^m is the magnitude
    the rounding error is proportional to; residuals and the near-pole
    guard are scaled by it.
    """
    b = poly.scaled_coeffs()
    w = complex(z) / poly.scale
    cond = float(np.polyval(np.abs(b)[::-1], abs(w)))
    return complex(horner(b, w)), cond


def evaluate_derivative(poly: PartitionPolynomial, z):
    """d Xi/dz at z, same evaluation scheme as evaluate()."""
    b = poly.scaled_coeffs()
    db = (b * np.arange(len(b)))[1:]  # derivative in w; unscale by 1/s below
    return complex(horner(db, complex(z) / poly.scale)) / poly.scale


def evaluate_second_derivative(poly: PartitionPolynomial, z):
    """d^2 Xi/dz^2 at z, same evaluation scheme as evaluate()."""
    b = poly.scaled_coeffs()
    k = np.arange(len(b))
    ddb = (b * k * (k - 1))[2:]
    return complex(horner(ddb, complex(z) / poly.scale)) / poly.scale**2


# -- zeros ---------------------------------------------------------------------


@dataclass
class ZeroSet:
    zeros: np.ndarray  # complex, unscaled activities
    residuals: np.ndarray  # scaled residuals |Xi(z)| / cond at each zero
    method: str  # "lapack", "mpmath-exact" or "mpmath"
    poly: PartitionPolynomial

    def gaps(self):
        """Distance from each zero to its nearest distinct neighbor."""
        zs = self.zeros
        if len(zs) == 1:
            return np.array([np.inf])
        d = np.abs(zs[:, None] - zs[None, :])
        np.fill_diagonal(d, np.inf)
        return d.min(axis=1)


def _scaled_residual(b, w):
    """|p(w)| relative to the accumulated coefficient magnitude at w."""
    acc, mag, _ = horner(b, w, magnitude=True)
    return (np.abs(acc) / (mag + np.longdouble(1e-300))).astype(float)


def _pair_conjugates(w):
    """Force conjugate symmetry on the root multiset of a real polynomial."""
    w = w.copy()
    used = np.zeros(len(w), dtype=bool)
    out = []
    idx = np.lexsort((np.abs(w.imag), w.real, np.abs(w)))
    for i in idx:
        if used[i]:
            continue
        v = w[i]
        if abs(v.imag) <= 1e-12 * (abs(v) + 1e-300):
            out.append(complex(v.real, 0.0))
            used[i] = True
            continue
        # find the best conjugate partner among the unused
        cand = np.where(~used)[0]
        cand = cand[cand != i]
        if len(cand) == 0:
            out.append(v)
            used[i] = True
            continue
        j = cand[np.argmin(np.abs(w[cand] - v.conjugate()))]
        pair = 0.5 * (v + w[j].conjugate())
        out.append(pair)
        out.append(pair.conjugate())
        used[i] = used[j] = True
    return np.array(out)


def _newton_polygon_starts(b):
    """Aberth starting points for sum b_m w^m from its Newton polygon.

    Each edge (i, j) of the upper convex hull of (m, log|b_m|) carries j - i
    roots of modulus about (|b_i|/|b_j|)^(1/(j-i)) (Bini 1996); they start
    evenly spaced on that circle, rotated off the real axis so that no
    start sits on a symmetry line of a real polynomial.
    """
    from mpmath import mp

    pts = [(m, mp.log(abs(bm))) for m, bm in enumerate(b) if bm != 0]
    hull = []
    for p in pts:
        # drop the middle point while it lies on or below the chord
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                                  >= (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])):
            hull.pop()
        hull.append(p)
    deg = len(b) - 1
    starts = []
    for (i, li), (j, lj) in zip(hull, hull[1:]):
        k = j - i
        r = mp.exp((li - lj) / k)
        starts += [r * mp.expj(2 * mp.pi * (l / mp.mpf(k) + i / mp.mpf(deg)) + 0.7)
                   for l in range(k)]
    return starts


def mp_horner(b, db, x):
    """(p(x), p'(x)) for p = sum b_m x^m, by Horner in the arithmetic of x.

    db are the derivative coefficients m b_m, m = 1..deg, b and db
    ascending; with mpmath numbers everything runs at the caller's working
    precision, and plain complex x stays in float64.
    """
    p = dp = 0 * x
    for bm in b[::-1]:
        p = p * x + bm
    for dm in db[::-1]:
        dp = dp * x + dm
    return p, dp


def newton_root(ctx, b, w):
    """Root of sum b_m w^m near w by Newton in the arithmetic context ctx
    (mpmath.fp, or mpmath.mp at the caller's precision), b ascending ctx
    numbers: at most eight steps, ending once a step is below 10^(2-dps) |w|."""
    db = [m * b[m] for m in range(1, len(b))]
    for _ in range(8):
        val, dval = mp_horner(b, db, w)
        if dval == 0:
            break
        step = val / dval
        w -= step
        if abs(step) < ctx.mpf(10) ** (-ctx.dps + 2) * abs(w):
            break
    return w


def _mp_aberth(b, max_sweeps=200, starts=None):
    """All roots of sum b_m w^m (b_0, b_deg nonzero) at the working precision.

    Gauss-Seidel Aberth-Ehrlich sweeps from starts (default: the Newton
    polygon's).  Only p and p' are evaluated in mpmath; the repulsion
    sum_j 1/(w_i - w_j) and the magnitude sum_m |b_m| |w|^m come from a
    complex128 copy of the roots, as both only need a few digits.  A root
    is frozen once its Horner residual reaches the rounding level of the
    evaluation, (deg + 1) eps sum_m |b_m| |w|^m, or its correction drops
    below eps |w|; the iteration raises NumericalError when some root is
    still moving after max_sweeps.
    """
    from mpmath import mp

    deg = len(b) - 1
    db = [m * b[m] for m in range(1, deg + 1)]
    eps = mp.eps
    # the magnitude sum is 2^e sum_m 2^(l_m - e), l_m = log2 |b_m| |w|^m, so
    # neither |b_m| nor |w|^m has to fit in a float
    log2b = np.array([float(mp.log(abs(bm), 2)) for bm in b])
    powers = np.arange(deg + 1)
    w = list(_newton_polygon_starts(b) if starts is None else starts)
    wc = np.array([complex(x) for x in w])
    live = list(range(deg))
    for _ in range(max_sweeps):
        still = []
        for i in live:
            x = w[i]
            p, dp = mp_horner(b, db, x)
            l2 = log2b + powers * math.log2(abs(wc[i]))
            e = math.floor(l2.max())
            if abs(p) <= (deg + 1) * eps * mp.ldexp(float(np.sum(np.exp2(l2 - e))), e):
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
            if abs(step) > eps * abs(w[i]):
                still.append(i)
        live = still
        if not live:
            return w
    raise NumericalError(
        f"Aberth iteration left {len(live)} of {deg} roots unconverged after "
        f"{max_sweeps} sweeps at {mp.dps} digits")


# -- double-double seeds (Dekker 1971) -----------------------------------------

_SPLIT = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves
_DD_EPS = 2.0**-104
_DD_SWEEPS = 30
_MINUS_PLUS = np.array([[-1.0], [1.0]])  # (re, im) signs of the cross terms


def _dd_add(x, y):
    """x + y for double-doubles x = (hi, lo): two-sum, then renormalize."""
    s = x[0] + y[0]
    v = s - x[0]
    e = ((x[0] - (s - v)) + (y[0] - v)) + (x[1] + y[1])
    h = s + e
    return h, e - (h - s)


def _dd_mul(x, y):
    """x * y for double-doubles: Dekker's two-product, no fused multiply-add."""
    p = x[0] * y[0]
    t, u = _SPLIT * x[0], _SPLIT * y[0]
    ah, bh = t - (t - x[0]), u - (u - y[0])
    al, bl = x[0] - ah, y[0] - bh
    e = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + (x[0] * y[1] + x[1] * y[0])
    h = p + e
    return h, e - (h - p)


def _dd_cmul(x, w):
    """x * w for complex double-doubles; axis -2 is (re, im), w is (2, n)."""
    i, j = [0, 1, 0, 1], [0, 1, 1, 0]
    ph, pl = _dd_mul((x[0][..., i, :], x[1][..., i, :]), (w[0][j], w[1][j]))
    # re = xr wr - xi wi, im = xr wi + xi wr
    return _dd_add((ph[..., ::2, :], pl[..., ::2, :]),
                   (_MINUS_PLUS * ph[..., 1::2, :], _MINUS_PLUS * pl[..., 1::2, :]))


def _dd_horner(bh, bl, w):
    """Scaled p and p' of p = sum b_m w^m at complex double-double points.

    b = bh + bl ascending; w = (hi, lo), each (2, n): real and imaginary
    parts.  Per point, w' = 2^-k w with k the binary exponent of |w|, and
    b_m becomes 2^(m k - E) b_m with E = floor(max_m log2 |b_m| |w|^m).
    Both shifts are exact and keep q(w') = 2^-E p(w) near 1, with no
    overflow for |w| from 1e-3 to past 1e24.  Returns (q, dq, mag, k, E):
    q and dq = dq/dw' = 2^(k-E) p'(w) as double-doubles of shape (2, n),
    and mag = 2^-E sum_m |b_m| |w|^m in float64.
    """
    n = w[0].shape[1]
    m = np.arange(len(bh))[:, None]
    absw = np.hypot(w[0][0], w[0][1])
    k = np.frexp(absw)[1]
    with np.errstate(divide="ignore"):
        E = np.floor(np.max(np.log2(np.abs(bh))[:, None] + m * np.log2(absw), axis=0))
    shift = m * k - E.astype(int)
    Bh, Bl = np.ldexp(bh[:, None], shift), np.ldexp(bl[:, None], shift)
    ws = (np.ldexp(w[0], -k), np.ldexp(w[1], -k))
    mag = np.sum(np.abs(Bh) * np.ldexp(absw, -k) ** m, axis=0)
    acc, zero = (np.zeros((2, 2, n)), np.zeros((2, 2, n))), np.zeros(n)
    for bm, bml in zip(Bh[::-1], Bl[::-1]):
        # [p, dp] <- [p w' + b_m, dp w' + p]
        acc = _dd_add(_dd_cmul(acc, ws), (np.array([[bm, zero], acc[0][0]]),
                                          np.array([[bml, zero], acc[1][0]])))
    return (acc[0][0], acc[1][0]), (acc[0][1], acc[1][1]), mag, k, E


def _dd_aberth_seeds(b):
    """Starts for _mp_aberth from Jacobi Aberth sweeps in double-double.

    All roots move at once from the Newton-polygon starts, p and p' by
    _dd_horner, the repulsion in complex128.  A root stops once its
    residual reaches (deg + 1) 2^-104 of the magnitude sum or its step
    drops below 2^-104 |w|, all roots after _DD_SWEEPS; the mpmath
    Gauss-Seidel pass resolves what Jacobi leaves (pairs of approximations
    sharing a root of a dense cluster).  Returns mpc seeds, or None when
    the coefficients do not fit in float64 or a value turns non-finite.
    """
    from mpmath import mp

    bh = np.array([float(x) for x in b])
    bl = np.array([float(x - h) for x, h in zip(b, bh)])
    if not np.all(np.isfinite(bh)) or any((h == 0) != (x == 0) for x, h in zip(b, bh)):
        return None
    deg = len(b) - 1
    w0 = np.array([complex(x) for x in _newton_polygon_starts(b)])
    wh, wl = np.array([w0.real, w0.imag]), np.zeros((2, deg))
    live = np.arange(deg)
    with np.errstate(all="ignore"):
        for _ in range(_DD_SWEEPS):
            q, dq, mag, k, _ = _dd_horner(bh, bl, (wh[:, live], wl[:, live]))
            wc = wh[0] + 1j * wh[1]
            newton = np.ldexp(1.0, k) * (q[0][0] + 1j * q[0][1]) / (dq[0][0] + 1j * dq[0][1])
            diff = wc[live, None] - wc[None, :]
            diff[np.arange(live.size), live] = np.inf
            step = newton / (1 - newton * np.sum(1.0 / diff, axis=1))
            if not np.all(np.isfinite(step)):
                return None
            step[np.hypot(q[0][0], q[0][1]) <= (deg + 1) * _DD_EPS * mag] = 0
            wh[:, live], wl[:, live] = _dd_add((wh[:, live], wl[:, live]),
                                               (-np.array([step.real, step.imag]), 0.0))
            live = live[np.abs(step) > _DD_EPS * np.abs(wc[live])]
            if not live.size:
                break
    return [mp.mpc(mp.mpf(wh[0, i]) + wl[0, i], mp.mpf(wh[1, i]) + wl[1, i])
            for i in range(deg)]


_POLISH_TOL = 1e-15  # scaled residual the float64 root stage polishes to
_POLISH_SWEEPS = 60


def float_roots(b):
    """All roots of sum b_m w^m (b ascending, b_deg != 0): the float64 root stage.

    Companion eigenvalues (LAPACK balances the matrix), refined together by
    Aberth-Ehrlich sweeps until every scaled residual is <= _POLISH_TOL or
    for _POLISH_SWEEPS sweeps, then paired into exact conjugates.  A step
    that is not finite (values past the float64 range on wide boxes) is not
    taken.  zeros' lapack route returns these roots times the scale, and
    spectrum's eigenvalues are their reciprocals.
    """
    deg = len(b) - 1
    comp = np.zeros((deg, deg))
    comp[0, :] = -b[:-1][::-1] / b[-1]
    comp[1:, :-1] = np.eye(deg - 1)
    w = np.linalg.eigvals(comp).astype(complex)
    db = b[1:] * np.arange(1, deg + 1)
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_SWEEPS):
            pv, mag, E = horner(b, w, magnitude=True)
            if (np.abs(pv) / (mag + np.longdouble(1e-300))).max() <= _POLISH_TOL:
                break
            dv = horner(db, w)
            pv = pv * np.ldexp(np.longdouble(1), E)
            newton = np.where(dv != 0, pv / np.where(dv == 0, 1, dv), 0).astype(complex)
            diff = w[:, None] - w[None, :]
            np.fill_diagonal(diff, np.inf)
            denom = 1.0 - newton * (1.0 / diff).sum(axis=1)
            step = np.where(np.abs(denom) > 1e-30, newton / denom, newton)
            w = w - np.where(np.isfinite(step), step, 0)
    return _pair_conjugates(w)


def zeros(poly: PartitionPolynomial) -> ZeroSet:
    """All zeros of Xi.

    On the lapack route they come from float_roots on the activity-rescaled
    coefficients.  They come instead from an Aberth-Ehrlich iteration in
    mpmath at max(60, 2 deg + 20) digits when the companion has entry
    dynamic range past 1e14, or when the exact coefficients exist and the
    smallest root's conditioning times float64 unit roundoff passes 1e-10.
    That iteration starts from double-double seeds (_dd_aberth_seeds), or
    from the circles of the coefficients' Newton polygon when those do not
    fit in float64.  Raises NumericalError when it does not converge, or
    when the scaled coefficients leave the float64 range.
    """
    # strip exactly-vanishing leading coefficients (smaller boxes cut the degree)
    b = np.trim_zeros(poly.scaled_coeffs(), "b")
    deg = len(b) - 1
    if deg < 1:
        raise Degenerate("partition polynomial has no zeros: degree 0 after stripping")
    # routing on the raw companion entry range, the ratios b_m / b_deg and the
    # subdiagonal's ones: LAPACK balances internally on the eig path, and
    # scipy's explicit balancer breaks down past ~1e50 anyway
    ratio = np.abs(b[:-1] / b[-1])
    ratio = np.append(ratio[ratio != 0], [1.0] * (deg > 1))
    dynamic = ratio.max() / ratio.min() if ratio.size else 1.0

    w, kappa, method = None, math.inf, "lapack"
    if dynamic <= 1e14:
        w = float_roots(b)
        x = w[np.argmin(np.abs(w))]
        _, mag, E = horner(b, x, magnitude=True)
        kappa = np.ldexp(mag, E) / abs(x * horner(b[1:] * np.arange(1, deg + 1), x))
    # coefficient rounding alone moves z_c by (unit roundoff) x (root
    # conditioning), so past 1e-10 closed-form families are rebuilt in full
    # precision rather than re-read from the float64 table
    if kappa * np.finfo(float).eps > 1e-10:
        import mpmath as mp

        with mp.workdps(max(60, 2 * deg + 20)):
            cs = poly.mp_coefficients()
            if cs is not None:
                s = mp.mpf(poly.scale)
                bmp = [cs[m] * s**m for m in range(deg + 1)]
                method = "mpmath-exact"
            elif w is None:
                bmp = [mp.mpf(float(c)) for c in b]
                method = "mpmath"
            if method != "lapack":
                raw = _mp_aberth(bmp, starts=_dd_aberth_seeds(bmp))
                w = _pair_conjugates(np.array([complex(r) for r in raw]))

    res = _scaled_residual(b, w)
    zs = w * poly.scale
    order = np.lexsort((zs.imag, zs.real, np.abs(zs)))
    return ZeroSet(zs[order], res[order], method, poly)


@dataclass
class SmallestZero:
    z_c: complex
    derivative_certificate: float  # |Xi'(z_c)| / (|z_c| |Xi''(z_c)|); 0 at a double root
    min_gap: float  # nearest other zero, relative to |z_c|
    tie: bool
    root_conditioning: float  # sum_m |c_m z_c^m| / |z_c Xi'(z_c)|


def _mp_derivative_data(poly: PartitionPolynomial, z_c):
    """(|Xi'|/(|z_c||Xi''|), cond/|z_c Xi'|) in arbitrary precision, or None.

    Clustered zero sets push |Xi'(z_c)| below the float64 evaluation noise
    (roundoff is proportional to the coefficient magnitude sum), so when
    the closed-form coefficients are available the certificate is computed
    there: the seed root is re-polished by Newton, then both derivatives
    are exact evaluations.  Both returned ratios are invariant under the
    activity rescaling, so everything stays in the scaled frame.
    """
    cs = poly.mp_coefficients()
    if cs is None:
        return None
    from mpmath import mp

    with mp.workdps(max(60, 2 * poly.M + 20)):
        s = mp.mpf(poly.scale)
        b = [c * s**m for m, c in enumerate(cs)]
        db = [m * b[m] for m in range(1, len(b))]
        w = newton_root(mp, b, mp.mpc(complex(z_c)) / s)
        dv, ddv = mp_horner(db, [m * db[m] for m in range(1, len(db))], w)
        cond = mp.fsum(abs(bm) * abs(w) ** m for m, bm in enumerate(b))
        cert = abs(dv) / (abs(w) * abs(ddv)) if ddv != 0 else mp.inf
        kappa = cond / (abs(w) * abs(dv)) if dv != 0 else mp.inf
        return float(cert), float(kappa)


def smallest_zero(zs: ZeroSet, tie_rel=1e-9) -> SmallestZero:
    """Zero of smallest modulus with a simplicity certificate.

    The certificate pair is (curvature-scaled derivative, relative gap to
    the nearest other zero).  The first entry |Xi'(z_c)| / (|z_c| |Xi''(z_c)|)
    is a dimensionless Newton-basin radius: it collapses to zero when the
    zero degenerates into a double root and stays of order the zero spacing
    for honestly simple zeros, independent of any rescaling of the activity
    or the coefficients.  The separately reported root_conditioning is the
    coefficient magnitude sum over |z_c Xi'(z_c)|: the amplification factor
    from relative coefficient error to relative root error.  It grows
    exponentially with the box when zeros cluster toward the bulk
    singularity, which says the root is expensive to locate, not that it
    is degenerate; that is why it is not part of the pass/fail pair.

    Moduli within tie_rel of the minimum count as tied; a tie is broken
    toward the negative real axis when such a candidate exists, otherwise
    the tie flag is set and the candidate with nonnegative imaginary part
    is reported.
    """
    z = zs.zeros
    mods = np.abs(z)
    mmin = mods.min()
    cand = np.where(mods <= mmin * (1.0 + tie_rel))[0]
    tie = len(cand) > 1
    pick = None
    for i in cand:
        if z[i].real < 0 and abs(z[i].imag) <= tie_rel * mods[i]:
            pick = i
            break
    if pick is None:
        up = [i for i in cand if z[i].imag >= 0]
        pick = up[0] if up else cand[0]
    z_c = complex(z[pick])

    poly = zs.poly
    data = _mp_derivative_data(poly, z_c)
    if data is not None:
        cert, kappa = data
    else:
        dv = evaluate_derivative(poly, z_c)
        ddv = evaluate_second_derivative(poly, z_c)
        _, cond = evaluate(poly, z_c)
        cert = abs(dv) / (abs(z_c) * abs(ddv)) if ddv != 0 else float("inf")
        kappa = cond / (abs(z_c) * abs(dv)) if dv != 0 else float("inf")
    others = np.delete(z, pick)
    min_gap = float(np.min(np.abs(others - z_c)) / abs(z_c)) if len(others) else float("inf")
    return SmallestZero(z_c, float(cert), min_gap, bool(tie), float(kappa))


# -- correlations ----------------------------------------------------------------


@dataclass
class CorrelationValue:
    value: complex
    error: float
    chi: float  # indicator that the anchors sit inside the box
    n: int
    z: complex
    degree: int  # total z-degree kept in the numerator


class CorrelationFamily:
    """Correlations rho(z; x) at one activity as a vectorized anchored-function family.

    Evaluates rho(z; configs) for whole batches of configurations, with the
    numerator truncated at total degree `degree` (default M): one
    anchored_series call gives every A_j / j! of a batch, times the powers
    z^(level + j), over the full Xi.  Each call leaves the per-row error
    bound of its values in last_error: the anchored integrals' errors plus
    |rho| times the table error inside Xi, over |Xi|.  Raises NearPole when
    z is numerically on a partition zero.
    """

    def __init__(self, poly: PartitionPolynomial, z, degree=None):
        self.poly = poly
        self.z = complex(z)
        self.degree = poly.M if degree is None else int(degree)
        self.xi, cond = evaluate(poly, z)
        if abs(self.xi) <= 1e-10 * cond:
            zc = smallest_zero(zeros(poly)).z_c
            raise NearPole(f"Xi({z}) is numerically zero", z=z, nearest_zero=zc)
        self.xi_err = float(np.polyval(poly.coeff_errors[::-1], abs(self.z)))
        # correlations of a hard-core gas are zero on overlapping
        # configurations, which licenses the rod-packing cutoff in the
        # operator quadrature
        self.vanishes_on_overlap = bool(poly.potential.has_hard_core)

    def __call__(self, level, configs):
        configs = np.asarray(configs, dtype=float)
        nc = configs.shape[0]
        jmax = min(self.poly.M, self.degree) - level  # below 0: no terms, all zero
        S, E = anchored_series(self.poly.potential, self.poly.box,
                               configs.reshape(nc, level, self.poly.box.dimension), jmax)
        zpow = self.z ** (level + np.arange(jmax + 1))
        values = S @ zpow / self.xi
        self.last_error = (E @ np.abs(zpow) + np.abs(values) * self.xi_err) / abs(self.xi)
        return values


def correlation(poly: PartitionPolynomial, z, anchors, degree=None) -> CorrelationValue:
    """n-point correlation rho(z; x_1..x_n) at total degree `degree` (default
    M): one row of CorrelationFamily.  Anchors outside the box give zero."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    n = anchors.shape[0]
    if n < 1:
        raise ValueError("correlation needs at least one anchor")
    if degree is None:
        degree = poly.M
    if degree < n:
        raise ValueError("degree budget smaller than the anchor count")

    chi = 1.0 if poly.box.contains(anchors) else 0.0
    fam = CorrelationFamily(poly, z, degree)
    value = fam(n, anchors[None])[0]
    return CorrelationValue(complex(value), float(fam.last_error[0]), chi, n, fam.z, degree)


def numerator_coefficients(poly: PartitionPolynomial, anchors, degree=None):
    """Coefficients of N(z) = sum_m A_m z^{n+m}/m! and their error bounds,
    indexed by the power of z up to degree (default M)."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    n = anchors.shape[0]
    if degree is None:
        degree = poly.M
    S, E = anchored_series(poly.potential, poly.box, anchors[None], min(poly.M, degree) - n)
    out = np.zeros(degree + 1)
    errs = np.zeros(degree + 1)
    out[n : n + S.shape[1]] = S[0]
    errs[n : n + S.shape[1]] = E[0]
    return out, errs


# -- exports -----------------------------------------------------------------------


def zeros_to_rows(zs: ZeroSet, smallest: SmallestZero = None):
    if smallest is None:
        smallest = smallest_zero(zs)
    gaps = zs.gaps()
    rows = []
    for i, z in enumerate(zs.zeros):
        rows.append(
            {
                "re": float(z.real),
                "im": float(z.imag),
                "residual": float(zs.residuals[i]),
                "is_smallest": int(abs(z - smallest.z_c) == 0.0),
                "gap": float(gaps[i]),
            }
        )
    return rows


def zeros_to_json(zs: ZeroSet, smallest: SmallestZero = None):
    sm = smallest if smallest is not None else smallest_zero(zs)
    return {
        "zeros": zeros_to_rows(zs, sm),
        "method": zs.method,
        "smallest": {
            "re": sm.z_c.real,
            "im": sm.z_c.imag,
            "derivative_certificate": sm.derivative_certificate,
            "min_gap": sm.min_gap,
            "tie": sm.tie,
            "root_conditioning": sm.root_conditioning,
        },
        "scale": zs.poly.scale,
        "M": zs.poly.M,
    }
