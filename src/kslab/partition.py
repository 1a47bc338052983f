"""Grand-canonical partition polynomials, their zeros, and correlations.

The finite-truncation partition function is the polynomial

    Xi(z) = sum_{m=0..M} c_m z^m,   c_m = Z_m / m!,

assembled from an integral table.  Everything downstream hangs off its
zeros, so the zero finder is deliberately careful, and the operator's
spectrum reads its eigenvalues 1/z from the same ZeroSet.  The zeros start
as balanced companion eigenvalues; on the lapack route an Aberth-Ehrlich
polish to scaled residual _POLISH_TOL and enforced conjugate symmetry
finish them in float64.  When the companion matrix spans too many orders
of magnitude, the smallest zero is too ill-conditioned for float64
coefficients or the coefficients leave the float64 range, the zeros come
from Aberth-Ehrlich passes on a ladder of working digits set by the
measured root conditioning, each certified by Weierstrass inclusion radii
(Bini and Robol, MPSolve, 2014), which reuse the evaluations each root
froze on.  The passes evaluate p and p' by
fixed_horner, a fixed-point Horner on Python integers, and so does every
evaluation of Xi at or near a zero: the smallest zero's certificate and
spectral's centers and asymptotics run newton_root and fixed_values on
mp_scaled_coeffs at the ZeroSet's certified digits.

Away from the zeros, evaluation uses Horner in 80-bit extended precision
together with the coefficient-magnitude sum as a condition estimate, which
is what the zero residuals and near-pole guards are measured against.
Correlations are N(z; x)/Xi(z), with the numerator's z-free coefficients
from NumeratorFamily.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import Degenerate, NearPole, NumericalError
from .integrals import IntegralTable, anchored_series, free_length, nest_is_exact, signed_exp

_LONG = np.clongdouble


@dataclass
class PartitionPolynomial:
    """Coefficients c_m = Z_m/m! plus the conditioning scale used on them.
    rational_coeffs holds each c_m exactly; past the float64 range of a
    non-closed-form entry the table's entry stays its form (log_coeff)."""

    coeffs: np.ndarray  # raw float c_m, index m = 0..M
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
        """b_m = c_m * scale^m in float64, the polynomial handed to float64 solvers;
        NumericalError when some b_m is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            b = self.coeffs * self.scale ** np.arange(len(self.coeffs))
        if not np.all(np.isfinite(b)):
            raise NumericalError(
                f"scaled coefficients c_m * {self.scale:.6g}^m leave the float64 range")
        return b

    @property
    def exact(self):
        """Whether every table entry came from a closed form."""
        return all(e.method == "exact" for e in self.table.entries)

    @functools.cached_property
    def rational_coeffs(self):
        """c_m, m = 0..M, as exact Fractions, the one source of c_m past float64:
        Z_m/m! by free_length for an "exact" entry, so no rounding of the table
        enters, else the float64 c_m's binary value, or None past its range."""
        out, p, box = [], self.potential, self.box
        for e, c in zip(self.table.entries, self.coeffs):
            free = free_length(p, box, e.m, Fraction) if e.method == "exact" else None
            if free is not None:
                out.append(free**e.m / math.factorial(e.m) if free > 0 else Fraction(0))
            else:
                out.append(Fraction(c) if math.isfinite(c) else None)
        return out

    def mp_coefficients(self):
        """c_m as mpf: rational_coeffs correctly rounded at the caller's mpmath
        precision, or where None the entry's sign and log_coeff."""
        from mpmath import mp
        from mpmath.libmp import from_rational, round_nearest

        return [e.sign * mp.exp(log_coeff(e)) if c is None else
                mp.make_mpf(from_rational(c.numerator, c.denominator, mp.prec, round_nearest))
                for e, c in zip(self.table.entries, self.rational_coeffs)]

    def mp_scaled_coeffs(self):
        """(b, exact): b_m = c_m scale^m from mp_coefficients, the one source of
        every evaluation at working precision, and the exact flag."""
        import mpmath as mp

        s = mp.mpf(self.scale)
        return [c * s**m for m, c in enumerate(self.mp_coefficients())], self.exact


def log_coeff(e):
    """log|c_m| = log|Z_m| - log m! of a table entry; -inf at sign 0."""
    return e.log_value - math.lgamma(e.m + 1)


def assemble(table: IntegralTable) -> PartitionPolynomial:
    """Partition polynomial from a Z-table.

    The conditioning scale equalizes the first and last nonzero rescaled
    coefficients geometrically (computed in log space), which keeps
    companion entries within a workable range even when the raw
    coefficients span a hundred decades.
    """
    logs = [log_coeff(e) for e in table.entries]
    coeffs = np.array([signed_exp(e.sign, lc) for e, lc in zip(table.entries, logs)])
    errs = np.array([e.error / math.factorial(e.m) if e.m < 170 else 0.0
                     for e in table.entries])
    nz = [m for m in range(1, table.M + 1) if table.entries[m].sign]
    scale = 1.0
    if len(nz) >= 2:
        first, last = nz[0], nz[-1]
        scale = math.exp((logs[first] - logs[last]) / (last - first))
    return PartitionPolynomial(coeffs, errs, scale, table)


# -- evaluation ----------------------------------------------------------------


def horner(c, w, magnitude=False):
    """sum_m c_m w^m by Horner in 80-bit extended precision.

    w may be a scalar or an array; the value has w's shape, as clongdouble.
    With magnitude the triple (value, mag, E) is returned: mag = sum_m
    |c_m| |w|^m is accumulated the same way in longdouble, and value and
    mag are both divided by 2^E per point, E = floor(max_m log2 |c_m||w|^m).
    As in fixed_horner, w runs as 2^-k w, k the binary exponent of |w|,
    and c_m as 2^(m k - E) c_m.  Both shifts are exact, so every
    intermediate is 2^-E times the unscaled one: value / mag is unchanged
    wherever the unscaled sums fit, and stays finite past |w|^deg ~ 1e4932,
    where they overflow even longdouble.
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


# -- zeros ---------------------------------------------------------------------


@dataclass
class ZeroSet:
    zeros: np.ndarray  # complex, unscaled activities
    residuals: np.ndarray  # scaled residuals |Xi(z)| / cond at each zero
    method: str  # "lapack", "mpmath-exact" or "mpmath"
    poly: PartitionPolynomial
    digits: int  # working digits of the certified rung, or those a first rung would take

    def gaps(self):
        """Distance from each zero to its nearest distinct neighbor."""
        zs = self.zeros
        if len(zs) == 1:
            return np.array([np.inf])
        d = np.abs(zs[:, None] - zs[None, :])
        np.fill_diagonal(d, np.inf)
        return d.min(axis=1)


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


def newton_root(b, w):
    """Root of sum b_m w^m near the mpc w by Newton at the mpmath working
    precision, b ascending real mpmath numbers, p and p' from fixed_horner:
    at most eight steps, ending once a step is below 10^(2-dps) |w|, or once
    a step is no shorter than the one before (the evaluation noise), which
    is not taken."""
    from mpmath import mp

    terms, last = fixed_terms(b), mp.inf
    for _ in range(8):
        val, dval = fixed_values(terms, w, second=False)
        if dval == 0:
            break
        step = val / dval
        if abs(step) >= last:
            break
        w -= step
        if abs(step) < mp.mpf(10) ** (2 - mp.dps) * abs(w):
            break
        last = abs(step)
    return w


# -- fixed-point Horner on Python integers -------------------------------------

_GUARD_BITS = 16  # fraction bits of fixed_horner past the working precision
_ROUNDED_BITS = 1 << 24  # memory for fixed_horner's rounded coefficients, per fixed_terms
_MAX_SWEEPS = 200  # Aberth sweeps of one rung before it reports non-convergence


def fixed_terms(b):
    """Coefficients for fixed_horner: the signed mantissas, binary exponents
    and float log2 |b_m| (-inf at 0) of real mpmath numbers b_m = man 2^exp,
    and the dict in which fixed_horner keeps its rounded coefficients."""
    from mpmath import mp

    mans, exps = [], []
    for sign, man, exp, _ in (mp.mpf(bm)._mpf_ for bm in b):
        mans.append(-man if sign else man)
        exps.append(exp)
    log2b = np.array([math.log2(abs(m)) + e if m else -math.inf for m, e in zip(mans, exps)])
    return mans, exps, log2b, {}


def _shift(n, e):
    """The integer n times 2^e, rounded down."""
    return n << e if e >= 0 else n >> -e


def _fixed(v, e):
    """The mpf v times 2^e, rounded down to an integer."""
    sign, man, x, _ = v._mpf_
    return _shift(-man if sign else man, x + e)


def _to_float(n, e):
    """The integer n times 2^e as a float, rounded to nearest."""
    return n / (1 << -e) if e < 0 else float(n << e)


def _log2_abs(re, im):
    """log2 |re + i im| for integers of any size; 0 at 0, as if one unit."""
    return 0.5 * math.log2(re * re + im * im or 1)


def fixed_horner(terms, x, second=False):
    """Horner for p = sum b_m x^m, b real and x an mpc, on Python integers.

    terms = fixed_terms(b); x may also be _mp_aberth's (re, im, e), x = (re
    + i im) 2^e.  As in horner(magnitude=True), x runs as w = 2^-k x, k the
    binary exponent of |x|, and b_m as 2^(m k - E) b_m, E = floor(max_m log2
    |b_m| |x|^m).  Both shifts are exact, so |w| < 1, no term exceeds 2 and
    a fixed point with f = mp.prec + _GUARD_BITS fraction bits keeps the
    working precision of the largest term.  One loop accumulates p, p' and,
    with second, p''/2.  Returns (k, E, mag, w, acc): mag = 2^-E sum_m |b_m|
    |x|^m in float, w and the accumulators acc = [2^-E p(x), 2^(k-E) p'(x)(,
    2^(2k-E) p''(x)/2)] as pairs (re, im) of integers in units of 2^-f.  w is
    x rounded down, and the deg + 1 coefficients and deg products by w round
    down once each: acc[0] is within (1 + sqrt 2)(deg + 1) of 2^(f-E) p(2^k
    w).  The rounded coefficients depend on x only through (f, k, E), so
    terms' dict keeps them per key, and is emptied before it would pass
    _ROUNDED_BITS (2 MiB).
    """
    from mpmath import mp

    mans, exps, log2b, rounded = terms
    f = mp.prec + _GUARD_BITS
    fixed = isinstance(x, tuple)
    ax = abs(complex(_to_float(x[0], x[2]), _to_float(x[1], x[2])) if fixed else complex(x))
    k = math.frexp(ax)[1]
    if fixed:
        wr, wi = _shift(x[0], x[2] + f - k), _shift(x[1], x[2] + f - k)
    else:
        wr, wi = _fixed(x.real, f - k), _fixed(x.imag, f - k)
    l2 = log2b + np.arange(len(mans)) * (math.log2(ax) if ax else 0.0)
    E = math.floor(l2.max())
    coeffs = rounded.get((f, k, E))
    if coeffs is None:
        # each coefficient costs about f bits plus 256 for its int and list slot
        if len(rounded) * len(mans) * (f + 256) >= _ROUNDED_BITS:
            rounded.clear()
        coeffs = rounded[f, k, E] = [_shift(man, exp + f - E + m * k) for m, (man, exp)
                                     in enumerate(zip(mans, exps))][::-1]
    ws, wd = wr + wi, wi - wr  # (a + ib) w in three products
    pr = pi = dr = di = sr = si = 0
    for c in coeffs:
        # [s, d, p] <- [s w + d, d w + p, p w + b_m]
        if second:
            t = (sr + si) * wr
            sr, si = ((t - si * ws) >> f) + dr, ((t + sr * wd) >> f) + di
        t = (dr + di) * wr
        dr, di = ((t - di * ws) >> f) + pr, ((t + dr * wd) >> f) + pi
        t = (pr + pi) * wr
        pr, pi = ((t - pi * ws) >> f) + c, (t + pr * wd) >> f
    acc = [(pr, pi), (dr, di)] + [(sr, si)] * second
    return k, E, float(np.sum(np.exp2(l2 - E))), (wr, wi), acc


def fixed_values(terms, x, second=True):
    """(p(x), p'(x)(, p''(x))) as mpc at the working precision, from fixed_horner."""
    from mpmath import mp

    k, E, _, _, acc = fixed_horner(terms, x, second)
    f = mp.prec + _GUARD_BITS
    out = []
    for j, (re, im) in enumerate(acc):  # p^(j)(x) = j! 2^(E - j k) acc_j
        n, e = math.factorial(j), E - j * k - f
        out.append(mp.mpc(mp.mpf((n * re, e)), mp.mpf((n * im, e))))
    return out


class Roots(list):
    """_mp_aberth's roots, as mpc at the working precision, and for each the
    fixed_horner result at the fixed-point point where it froze on its
    residual, or None where it froze on its step; coeffs (the mantissas and
    exponents) and prec say which polynomial and precision they belong to.
    inclusion_radii takes those evaluations instead of evaluating again."""

    def __init__(self, roots, coeffs, prec, frozen):
        super().__init__(roots)
        self.coeffs, self.prec, self.frozen = coeffs, prec, frozen


def _mp_aberth(b, starts=None):
    """All roots of sum b_m w^m (b real, b_0, b_deg != 0) at the working precision.

    One rung of zeros' precision ladder: Gauss-Seidel Aberth-Ehrlich sweeps
    from starts (default: the Newton polygon's), in fixed_horner's integers,
    which carry each root as (re, im, e) until the pass ends.  The step is
    p / (p' - p S) at root w_i, with the repulsion S = sum_j 1/(w_i - w_j)
    from a complex128 copy of the roots, as it only needs a few digits.  A
    root is frozen once its residual reaches the rounding level of the
    evaluation, (deg + 1) eps sum_m |b_m| |w|^m, or its correction drops
    below eps |w|; NumericalError when some root still moves after _MAX_SWEEPS.
    The roots come back as a Roots list, with the evaluation each root froze
    on its residual at.
    """
    from mpmath import mp

    deg = len(b) - 1
    f = mp.prec + _GUARD_BITS
    terms = fixed_terms(b)
    w = list(_newton_polygon_starts(b) if starts is None else starts)
    wc = np.array([complex(x) for x in w])
    frozen = [None] * deg
    live = list(range(deg))
    for _ in range(_MAX_SWEEPS):
        still = []
        for i in live:
            val = fixed_horner(terms, w[i])
            k, _, mag, (wr, wi), ((pr, pi), (dr, di)) = val
            # |p| <= (deg + 1) eps mag with eps = 2^(1 - prec), in units of 2^-f
            tol = int(math.ldexp((deg + 1) * mag, _GUARD_BITS + 1))
            if pr * pr + pi * pi <= tol * tol:
                frozen[i] = val
                continue
            d = wc[i] - wc
            d[i] = np.inf
            rep = complex(np.sum(1.0 / d))
            # S = (rr + i ri) 2^e with 60-bit integers
            e = math.frexp(abs(rep))[1] - 60
            rr, ri = int(math.ldexp(rep.real, -e)), int(math.ldexp(rep.imag, -e))
            # the step p / (p' - p S), in units of 2^k: q / (dq - q S 2^k)
            cr = dr - _shift(pr * rr - pi * ri, e + k)
            ci = di - _shift(pr * ri + pi * rr, e + k)
            den = cr * cr + ci * ci
            if den == 0:
                still.append(i)
                continue
            sr = ((pr * cr + pi * ci) << f) // den
            si = ((pi * cr - pr * ci) << f) // den
            wr, wi = wr - sr, wi - si
            w[i] = (wr, wi, k - f)
            wc[i] = complex(_to_float(wr, k - f), _to_float(wi, k - f))
            # |step| > eps |w|
            if (sr * sr + si * si) << (2 * mp.prec - 2) > wr * wr + wi * wi:
                still.append(i)
        live = still
        if not live:
            return Roots([mp.mpc(mp.mpf((x[0], x[2])), mp.mpf((x[1], x[2])))
                          if isinstance(x, tuple) else x for x in w],
                         terms[:2], mp.prec, frozen)
    raise NumericalError(
        f"Aberth iteration left {len(live)} of {deg} roots unconverged after "
        f"{_MAX_SWEEPS} sweeps at {mp.dps} digits")


def inclusion_radii(terms, roots):
    """Weierstrass inclusion radii r_i of the deg mpc roots of p = sum b_m w^m.

    The discs |w - w_i| <= r_i = deg |p(w_i)| / (|b_deg| prod_{j != i}
    |w_i - w_j|) hold every root of p, k of them in a connected union of k
    (Bini and Robol, 2014).  |p(w_i)| is fixed_horner's value plus e_i =
    2^-prec sum_m |b_m| |w_i|^m (b_m rounded to the working precision) +
    (1 + sqrt 2)(deg + 1) 2^(E_i - f) (fixed_horner's bound).  Distances
    shrink by 2^-50 (|w_i| + |w_j|) for the complex128 centers, r_i doubles
    for the float64 logs.  Certified: all r_i <= 2^-64 |w_i| and r_i + r_j <
    |w_i - w_j|, so each disc holds one root and its complex128 rounding is
    settled.  Returns (complex128 w, r_i / |w_i|, certified, the largest
    log10 (sum_m |b_m| |w_i|^m / |w_i p'(w_i)|) from the same evaluations).
    w_i is the fixed-point point p was evaluated at: for Roots from
    _mp_aberth on the same coefficients and precision, the one where the
    root froze on its residual; otherwise (a root that froze on its step)
    the root rounded down to fixed point by a new evaluation.
    """
    from mpmath import mp

    n, f = len(roots), mp.prec + _GUARD_BITS
    frozen = [None] * n
    if (isinstance(roots, Roots) and roots.prec == mp.prec
            and roots.coeffs == terms[:2]):
        frozen = roots.frozen
    w = np.empty(n, dtype=complex)
    lp, lk = np.empty((2, n))  # log2 (|p| + e_i) and log2 kappa_i
    for i, x in enumerate(roots):
        # p in units of 2^(E - f), at w = wf 2^(k - f)
        k, E, mag, wf, (p, dp) = frozen[i] or fixed_horner(terms, x)
        w[i] = complex(_to_float(wf[0], k - f), _to_float(wf[1], k - f))
        lp[i] = E - f + np.logaddexp2(_log2_abs(*p), math.log2(mag * 2**16 + 2.5 * (n + 1)))
        lk[i] = math.log2(mag) + 2 * f - _log2_abs(*wf) - _log2_abs(*dp)
    aw = np.abs(w)
    dist = np.abs(w[:, None] - w) - 2.0**-50 * (aw[:, None] + aw)
    np.fill_diagonal(dist, 1.0)
    lr = (math.log2(2 * n) + lp - terms[2][-1]  # centers with dist <= 0: unbounded discs
          - np.log2(np.maximum(dist, np.finfo(float).tiny)).sum(axis=1))
    with np.errstate(over="ignore"):
        r, rel = np.exp2(lr), np.exp2(lr - np.log2(aw))
    ok = rel.max() <= 2.0**-64 and np.all((r[:, None] + r < dist) | np.eye(n, dtype=bool))
    return w, rel, bool(ok), lk.max() / math.log2(10)


_POLISH_TOL = 1e-15  # scaled residual the lapack route polishes to
_POLISH_SWEEPS = 60
_SEED_SWEEPS = 8  # polish sweeps of the ladder's starts: hard rods L = 30-160 run 3-9 % faster


def companion_roots(b):
    """Eigenvalues of the companion of sum b_m w^m (b ascending, b_deg != 0), which
    LAPACK balances: the roots zeros routes on and seeds its ladder from."""
    deg = len(b) - 1
    comp = np.zeros((deg, deg))
    comp[0, :] = -b[:-1][::-1] / b[-1]
    comp[1:, :-1] = np.eye(deg - 1)
    return np.linalg.eigvals(comp).astype(complex)


def polish_roots(b, w, sweeps=_POLISH_SWEEPS):
    """The roots w of sum b_m w^m refined together by float64 Aberth-Ehrlich sweeps
    until every scaled residual is <= _POLISH_TOL or for `sweeps` sweeps, then paired
    into exact conjugates: the lapack route's zeros, or the ladder's starts.  A step
    that is not finite (values past the float64 range on wide boxes) is not taken."""
    deg = len(b) - 1
    db = b[1:] * np.arange(1, deg + 1)
    with np.errstate(all="ignore"):
        for _ in range(sweeps):
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
    """All zeros of Xi, in the arithmetic that certifies them.

    companion_roots runs on the activity-rescaled coefficients b of every
    box, and on the lapack route polish_roots finishes them as the zeros.
    The ladder of _mp_aberth passes on mp_scaled_coeffs (rational_coeffs
    rounded at its ceiling) takes over when the companion's entry range
    passes 1e14, when the coefficients are exact and the smallest root's
    conditioning kappa times float64 unit roundoff passes 1e-10 (or is
    unknown, as some root is not finite), or when b leaves the float64
    range.  Its first rung starts from the companion roots after
    _SEED_SWEEPS polish sweeps, at max(30, log10(deg kappa) + 20) digits
    (kappa their largest), or without distinct finite starts from the Newton
    polygon at 30 digits.  A rung that inclusion_radii do not certify starts
    the next from its roots at max(log10(deg kappa) + 20, digits + 10)
    digits, kappa now at those roots, and at least twice the digits when
    kappa 10^-digits > 1e-6 (not resolved); past the ceiling, max(60, 2 deg
    + 20) digits, NumericalError.  ZeroSet.digits is the certified rung, at
    which spectral.leading_projection works (lapack: the first rung's).
    """
    import mpmath as mp

    try:  # strip exactly-vanishing leading coefficients (smaller boxes cut the degree)
        b = np.trim_zeros(poly.scaled_coeffs(), "b")
        deg = len(b) - 1
    except NumericalError:
        b, deg = None, max(e.m for e in poly.table.entries if e.sign)
    if deg < 1:
        raise Degenerate("partition polynomial has no zeros: degree 0 after stripping")
    ceiling = max(60, 2 * deg + 20)
    kappa, method, digits, w = math.inf, "lapack", 30, None
    if b is not None:
        # routing on the raw companion entry range, the ratios b_m / b_deg and the
        # subdiagonal's ones: LAPACK balances internally on the eig path, and
        # scipy's explicit balancer breaks down past ~1e50 anyway
        ratio = np.abs(b[:-1] / b[-1])
        ratio = np.append(ratio[ratio != 0], [1.0] * (deg > 1))
        dynamic = ratio.max() / ratio.min() if ratio.size else 1.0
        w = companion_roots(b)
        if np.all(np.isfinite(w)):  # conditioning of every root, p and p' scaled by 2^-E
            _, mag, E = horner(b, w, magnitude=True)
            dv, _, Ed = horner(b[1:] * np.arange(1, deg + 1), w, magnitude=True)
            with np.errstate(divide="ignore", over="ignore"):
                kap = (np.ldexp(mag / np.abs(dv), E - Ed) / np.abs(w)).astype(float)
            digits = int(np.clip(np.ceil(np.log10(deg * kap.max())) + 20, 30, ceiling))
            if dynamic <= 1e14:
                kappa = kap[np.argmin(np.abs(w))]
    # coefficient rounding alone moves z_c by (unit roundoff) x (root
    # conditioning), so past 1e-10 closed-form families are rebuilt in full
    # precision rather than re-read from the float64 table
    if kappa * np.finfo(float).eps > 1e-10:
        with mp.workdps(ceiling):
            bmp, exact = poly.mp_scaled_coeffs()
        bmp = bmp[:deg + 1]
        method = ("mpmath-exact" if exact else
                  "mpmath" if b is None or dynamic > 1e14 else "lapack")
        if method != "lapack":
            w = None if w is None else polish_roots(b, w, _SEED_SWEEPS)
            seeded = w is not None and np.all(np.isfinite(w)) and np.unique(w).size == deg
            starts, tried = [mp.mpc(x) for x in w] if seeded else None, []
            digits = digits if seeded else 30
            while True:
                tried.append(digits)
                with mp.workdps(digits):
                    starts = _mp_aberth(bmp, starts=starts)
                    w, rel, ok, lk = inclusion_radii(fixed_terms(bmp), starts)
                if ok:
                    break
                if digits >= ceiling:
                    raise NumericalError(
                        f"inclusion-radius certificate failed at {tried} digits: largest "
                        f"radius {rel.max():.2g} |w|, not disjoint discs within 2^-64 |w|")
                nxt = max(math.ceil(math.log10(deg) + lk) + 20, digits + 10)
                digits = min(max(nxt, 2 * digits) if lk - digits > -6 else nxt, ceiling)
            w = _pair_conjugates(w)
    if method == "lapack":
        w = polish_roots(b, w)
    if b is None:  # the ladder's coefficients in longdouble, whose range is wider
        b = np.array([mp.nstr(c, 21) for c in bmp], dtype=np.longdouble)
    acc, mag, _ = horner(b, w, magnitude=True)  # |p(w)| against sum_m |b_m| |w|^m
    res = (np.abs(acc) / (mag + np.longdouble(1e-300))).astype(float)
    zs = w * poly.scale
    order = np.lexsort((zs.imag, zs.real, np.abs(zs)))
    return ZeroSet(zs[order], res[order], method, poly, digits)


_TIE_REL = 1e-9  # relative modulus gap within which two zeros tie


@dataclass
class SmallestZero:
    z_c: complex
    derivative_certificate: float  # |Xi'(z_c)| / (|z_c| |Xi''(z_c)|); 0 at a double root
    min_gap: float  # nearest other zero, relative to |z_c|
    tie: bool
    root_conditioning: float  # sum_m |c_m z_c^m| / |z_c Xi'(z_c)|


def smallest_index(z):
    """(index, tied) of smallest_zero's pick among the zeros z, with no certificate."""
    mods = np.abs(z)
    cand = np.where(mods <= mods.min() * (1.0 + _TIE_REL))[0]
    for i in cand:
        if z[i].real < 0 and abs(z[i].imag) <= _TIE_REL * mods[i]:
            return i, len(cand) > 1
    up = [i for i in cand if z[i].imag >= 0]
    return (up[0] if up else cand[0]), len(cand) > 1


def smallest_pick(zs: ZeroSet):
    """smallest_zero's z_c among the zeros zs, without its working-precision certificate."""
    return complex(zs.zeros[smallest_index(zs.zeros)[0]])


def smallest_zero(zs: ZeroSet) -> SmallestZero:
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
    is degenerate; that is why it is not part of the pass/fail pair.  Both
    come from newton_root's z_c and fixed_values' Xi' and Xi'' on
    mp_scaled_coeffs at ZeroSet.digits, where float64 evaluation noise would
    swamp |Xi'(z_c)| on clustered zero sets; both ratios are invariant under
    the activity rescaling, so everything stays in the scaled frame.

    Moduli within _TIE_REL of the minimum count as tied; a tie is broken
    toward the negative real axis when such a candidate exists, otherwise
    the tie flag is set and the candidate with nonnegative imaginary part
    is reported.
    """
    from mpmath import mp

    z = zs.zeros
    pick, tie = smallest_index(z)
    z_c = complex(z[pick])

    with mp.workdps(zs.digits):
        b, _ = zs.poly.mp_scaled_coeffs()
        w = newton_root(b, mp.mpc(z_c) / mp.mpf(zs.poly.scale))
        _, dv, ddv = fixed_values(fixed_terms(b), w)
        cond = mp.fsum(abs(bm) * abs(w) ** m for m, bm in enumerate(b))
        cert = float(abs(dv) / (abs(w) * abs(ddv))) if ddv != 0 else math.inf
        kappa = float(cond / (abs(w) * abs(dv))) if dv != 0 else math.inf
    others = np.delete(z, pick)
    min_gap = float(np.min(np.abs(others - z_c)) / abs(z_c)) if len(others) else float("inf")
    return SmallestZero(z_c, cert, min_gap, bool(tie), kappa)


# -- correlations ----------------------------------------------------------------


@dataclass
class CorrelationValue:
    value: complex
    error: float
    n: int
    z: complex
    degree: int  # total z-degree kept in the numerator


class NumeratorFamily:
    """Numerator coefficients of the correlations as a z-free anchored-function family.

    A level-n row holds N_n[k], the coefficient of z^k in N_n(z; x) = sum_j
    A_j(x) z^(n+j) / j!, for k = 0..degree (default M): column n + j is
    A_j / j!, j <= min(M, degree) - n, from one anchored_series call per
    batch, and every other column is zero.  Each call leaves the entries'
    integral error bounds in last_error, of the rows' shape.
    """

    def __init__(self, poly: PartitionPolynomial, degree=None):
        self.poly = poly
        self.degree = poly.M if degree is None else int(degree)
        self.row_shape = (self.degree + 1,)
        # correlations of a hard-core gas are zero on overlapping
        # configurations, which licenses the rod-packing cutoff in the
        # operator quadrature
        self.vanishes_on_overlap = bool(poly.potential.has_hard_core)

    def panel_degree(self, level):
        """Total degree, in the free coordinates, of the values at `level` on each cell
        of the contact-lattice cuts, or None where they are not polynomials there: the
        hard-rod gap series is exact, and a 1-D step's nest is where nest_is_exact holds."""
        d, p = min(self.poly.M, self.degree) - level, self.poly.potential
        exact = p.family == "hardcore" or (p.family == "step" and nest_is_exact(level, d))
        return d if exact and self.poly.box.dimension == 1 else None

    def __call__(self, level, configs):
        configs = np.asarray(configs, dtype=float)
        nc = configs.shape[0]
        jmax = min(self.poly.M, self.degree) - level  # below 0: no terms, all zero
        S, E = anchored_series(self.poly.potential, self.poly.box,
                               configs.reshape(nc, level, self.poly.box.dimension), jmax)
        rows, self.last_error = np.zeros((2, nc) + self.row_shape)
        rows[:, level : level + S.shape[1]] = S
        self.last_error[:, level : level + S.shape[1]] = E
        return rows


def _gamma(k):  # k u / (1 - k u) bounds k float64 roundings (Higham 2002, section 3.1)
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def correlation(poly: PartitionPolynomial, z, anchors, degree=None) -> CorrelationValue:
    """n-point correlation rho = N / Xi of one NumeratorFamily row at total degree
    `degree` (default M), with the bound of the integrals' errors, the numerator's
    rounding gamma_(J+2) sum_j S_j |z|^(n+j) (S_j >= 0) and |rho| times Xi's table
    error and rounding gamma_(M+1) cond, over |Xi|.  Raises NearPole when z is
    numerically on a partition zero.  Anchors outside the box give zero."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    n = anchors.shape[0]
    if n < 1:
        raise ValueError("correlation needs at least one anchor")
    if degree is None:
        degree = poly.M
    if degree < n:
        raise ValueError("degree budget smaller than the anchor count")

    z = complex(z)
    xi, cond = evaluate(poly, z)
    if abs(xi) <= 1e-10 * cond:
        raise NearPole(f"Xi({z}) is numerically zero", z=z,
                       nearest_zero=smallest_pick(zeros(poly)))
    xi_err = np.polyval(poly.coeff_errors[::-1], abs(z)) + _gamma(poly.M + 1) * cond
    fam = NumeratorFamily(poly, degree)
    cols = slice(n, min(poly.M, degree) + 1)
    S, E = fam(n, anchors[None])[:, cols], fam.last_error[:, cols]
    zpow = z ** (n + np.arange(S.shape[1]))
    value = (S * zpow).sum(axis=1) / xi
    azpow = np.abs(zpow)
    err = np.abs(value) * xi_err + _gamma(S.shape[1] + 1) * (S * azpow).sum(axis=1)
    if E.any():  # an exact series (all-zero E) would add a zero sum: no bit moves
        err = (E * azpow).sum(axis=1) + err
    return CorrelationValue(complex(value[0]), float(err[0] / abs(xi)), n, z, degree)


# -- exports -----------------------------------------------------------------------


def zeros_to_rows(zs: ZeroSet, smallest: SmallestZero):
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


def zeros_to_json(zs: ZeroSet, smallest: SmallestZero):
    return {
        "zeros": zeros_to_rows(zs, smallest),
        "method": zs.method,
        "smallest": {
            "re": smallest.z_c.real,
            "im": smallest.z_c.imag,
            "derivative_certificate": smallest.derivative_certificate,
            "min_gap": smallest.min_gap,
            "tie": smallest.tie,
            "root_conditioning": smallest.root_conditioning,
        },
        "scale": zs.poly.scale,
        "M": zs.poly.M,
    }
