"""Cluster and virial series analysis.

The pressure-like series log Xi comes out of the coefficient recurrence,
the density series is its Euler derivative over the volume, and the virial
series is the density's Lagrange inversion, all three in exact rationals on
the partition polynomial's exact coefficients; each value is rounded to
float64 once, where it leaves that chain (rounded).  Everything else is
plumbing on coefficient arrays indexed by power: the Domb-Sykes
radius-of-convergence fit, finite-volume extrapolation of thermodynamic-limit
coefficients,
the density lower-bound sweep, and the side-by-side claim table that
compares a measured radius against the kernel-norm prediction and the closed
form without adjudicating between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, InsufficientData, NumericalError
from .integrals import Box, build_table
from .partition import PartitionPolynomial, assemble

# -- series rows and sign pattern -----------------------------------------------


def rounded(values):
    """Series coefficients, exact or not, rounded once to float64 where they
    leave the exact chain; NumericalError past the float64 range."""
    try:
        out = np.array([float(v) for v in values])
        if np.isfinite(out).all():
            return out
    except OverflowError:
        pass
    raise NumericalError("series coefficients leave the float64 range; reduce N or the box")


def series_rows(values):
    """CSV-ready rows (power, coefficient, sign) of a coefficient array."""
    return [{"n": k, "coefficient": v, "sign": (v > 0) - (v < 0)}
            for k, v in enumerate(rounded(values).tolist())]


def sign_pattern(values):
    """Classify the nonzero coefficients from power 1 on.

    "alternating" means every consecutive nonzero pair flips sign,
    "positive" means no negative entries; anything else is "mixed".
    """
    signs = np.sign(values[1:])
    signs = signs[signs != 0]
    if len(signs) >= 2 and np.all(signs[1:] == -signs[:-1]):
        return "alternating"
    return "positive" if np.all(signs > 0) else "mixed"


# -- log, density -----------------------------------------------------------------


def log_series(poly: PartitionPolynomial, N):
    """First N coefficients of log Xi(z), as exact Fractions (an object array).

    Standard recurrence from Xi * (log Xi)' = Xi' on poly.rational_coeffs,
    which rounds nothing: coefficient k depends on c_1..c_k only, so any
    truncation M >= N gives the exact finite-volume values, and a series that
    terminates (the free gas past its first coefficient) gives exact zeros.
    The constant term is dropped (c_0 = 1 for a partition polynomial; a
    nonunit constant only shifts log Xi).  NumericalError when some c_m it
    needs has no exact value (past the float64 range).
    """
    c = poly.rational_coeffs[: N + 1]
    if None in c:
        raise NumericalError("a coefficient past the float64 range has no exact value; "
                             "reduce N or the box")
    c = c + [Fraction(0)] * (N + 1 - len(c))
    if c[0] == 0:
        raise NumericalError("series log needs a nonzero constant term")
    c = [x / c[0] for x in c]
    ell = [Fraction(0)] * (N + 1)
    for k in range(1, N + 1):
        ell[k] = (k * c[k] - sum(j * ell[j] * c[k - j] for j in range(1, k))) / k
    return np.array(ell, dtype=object)


def density_series(ell, volume):
    """One-point density series rho_1(z) = (z d/dz log Xi) / |box|, in Fractions."""
    v = Fraction(volume)
    return np.array([k * x / v for k, x in enumerate(ell)], dtype=object)


# -- finite-volume extrapolation ---------------------------------------------------


def richardson(values, ratio=2.0, first_order=1):
    """Eliminate successive 1/L^p terms from values at L, ratio*L, ratio^2*L, ...

    Assumes f(L) = f_inf + A1/L^p + A2/L^(p+1) + ... with p = first_order.
    Returns (extrapolated, error_estimate) in float64, the latter being the
    last correction applied, which is an honest scale for what remains.
    Exact values (Fractions) are combined exactly and rounded once at the end.
    """
    t = list(values)
    if len(t) < 2:
        raise InsufficientData("Richardson needs at least two values")
    p = first_order
    last_step = abs(t[-1] - t[0])
    while len(t) > 1:
        fac = Fraction(ratio) ** p
        nxt = [(fac * t[i + 1] - t[i]) / (fac - 1) for i in range(len(t) - 1)]
        last_step = abs(nxt[-1] - t[-1])
        t = nxt
        p += 1
    return tuple(rounded([t[0], last_step]).tolist())


def density_coefficients_extrapolated(p, lengths, N, cache_dir=None, order=16, seed=42):
    """Thermodynamic-limit density coefficients from a ladder of box lengths.

    Builds the finite-volume density series at each 1-D box length (tables
    from build_table with the given order and seed), exact for closed-form
    tables, and Richardson-extrapolates coefficient by coefficient (leading
    error is order 1/L).  Returns (float64 series, per-coefficient error
    estimates, per-length list of exact series).
    """
    per_len = []
    for L in lengths:
        table = build_table(p, Box((float(L),)), N, order=order, seed=seed, cache_dir=cache_dir)
        per_len.append(density_series(log_series(assemble(table), N), L))
    vals, errs = np.zeros((2, N + 1))
    for k in range(1, N + 1):
        seq = [s[k] for s in per_len]
        ratio = lengths[1] / lengths[0]
        vals[k], errs[k] = richardson(seq, ratio=ratio, first_order=1)
    return vals, errs, per_len


# -- radius of convergence --------------------------------------------------------


@dataclass
class RadiusEstimate:
    method: str  # always "domb_sykes", the fit that produced it
    R: float  # radius estimate; inf for terminating series
    singularity: complex  # estimated location of the nearest singularity
    sign_pattern: str  # "alternating", "positive", "mixed"
    diagnostics: dict = field(default_factory=dict)


_MIN_NONZERO = 8  # coefficients a radius fit needs
_MAX_ORDERS = 64  # virial_reversion's ceiling: at 64 orders its exact O(N^3) takes 0.5-4 s


def radius_estimate(v) -> RadiusEstimate:
    """Radius of convergence of a truncated series by the Domb-Sykes fit.

    The signed consecutive ratio c_k/c_{k-1} is fitted against 1/k on the
    last half of the points (Domb & Sykes, Proc. R. Soc. A 240, 1957); the
    intercept is 1/z_s for the nearest singularity z_s, so its sign places
    the singularity on the positive or the negative axis.

    The fit runs on the rounded coefficients.  A series with fewer nonzero
    entries than _MIN_NONZERO is only accepted when it visibly terminates (a
    long run of exact zeros at the tail), in which case the radius is
    infinite; otherwise InsufficientData.
    """
    method = "domb_sykes"
    v = rounded(v)
    pattern = sign_pattern(v)
    nz = [k for k in range(1, len(v)) if v[k] != 0.0]
    if len(nz) < _MIN_NONZERO:
        trailing = len(v) - 1 - (nz[-1] if nz else 0)
        if nz and trailing >= max(2, len(v) // 4):
            return RadiusEstimate(method, float("inf"), complex("inf"),
                                  pattern, {"terminating": True,
                                            "n_nonzero": len(nz)})
        raise InsufficientData(
            f"radius estimate needs {_MIN_NONZERO} nonzero coefficients, "
            f"got {len(nz)}")

    pairs = [(k, v[k] / v[k - 1]) for k in nz if v[k - 1] != 0.0]
    if len(pairs) < _MIN_NONZERO - 1:
        raise InsufficientData("too few consecutive nonzero ratio points")
    ks = np.array([k for k, _ in pairs], dtype=float)
    rs = np.array([r for _, r in pairs])
    take = max(4, math.ceil(len(rs) / 2))
    ks, rs = ks[-take:], rs[-take:]

    A = np.column_stack([np.ones_like(ks), 1.0 / ks])
    sol, res, *_ = np.linalg.lstsq(A, rs, rcond=None)
    intercept = sol[0]
    resid = float(res[0]) if len(res) else 0.0
    if abs(intercept) == 0.0:
        return RadiusEstimate(method, float("inf"), complex("inf"), pattern,
                              {"intercept": 0.0, "n_points": int(len(ks))})
    return RadiusEstimate(method, float(1.0 / abs(intercept)), complex(1.0 / intercept),
                          pattern, {"intercept": complex(intercept).real, "slope": float(sol[1]),
                                    "fit_residual": resid, "n_points": int(len(ks))})


# -- virial series -----------------------------------------------------------------


def check_orders(N):  # virial_reversion's ceiling, which cli checks before any table work
    if N > _MAX_ORDERS:
        raise ConfigError(f"the virial series takes at most {_MAX_ORDERS} orders, got {N}")


def virial_reversion(density):
    """Pressure as a series in density, in exact rationals, plus its radius estimate.

    Since z d(beta p)/dz = rho(z), Lagrange inversion of rho(z) = z / phi(z)
    gives B_n = [z^(n-1)] phi(z)^(n-1) / n (Flajolet & Sedgewick, Analytic
    Combinatorics, 2009, Thm A.2), on the exact density (floats at their binary
    values).  In integers: rho(z)/z = Q(z)/D, phi(z) = (D/Q_0) S(z/Q_0) with
    S_0 = 1, S_k = -sum_j Q_j Q_0^(j-1) S_(k-j), and B_n = D^a P_a / (n Q_0^(2a)),
    a = n - 1, for P = S^a from k P_k = sum_j ((a+1) j - k) S_j P_(k-j) (Knuth,
    TAOCP vol. 2, 4.7), whose divisions are exact.  That is O(N^3), so more than
    _MAX_ORDERS orders raise ConfigError.  Returns (object array of Fractions,
    RadiusEstimate or None when the series terminates too fast to measure and
    fails the terminating-series test).
    """
    N = len(density) - 1
    check_orders(N)
    if N < 1 or density[1] == 0:
        raise InsufficientData("virial series needs a nonzero linear density coefficient")
    if density[0] != 0:
        raise InsufficientData("virial series needs a zero constant density term")
    q = [Fraction(x) for x in density[1:]]  # rho(z) / z
    D = math.lcm(*(x.denominator for x in q))
    Q = [x.numerator * (D // x.denominator) for x in q]
    S = [1] + [0] * (N - 1)
    for k in range(1, N):
        S[k] = -sum(Q[j] * Q[0] ** (j - 1) * S[k - j] for j in range(1, k + 1))
    virial = [Fraction(0), Fraction(1)] + [Fraction(0)] * (N - 1)
    for n in range(2, N + 1):
        a = n - 1
        P = [1] + [0] * a
        for k in range(1, a + 1):
            P[k] = sum(((a + 1) * j - k) * S[j] * P[k - j] for j in range(1, k + 1)) // k
        virial[n] = Fraction(D**a * P[a], n * Q[0] ** (2 * a))
    virial = np.array(virial, dtype=object)
    try:
        est = radius_estimate(virial)
    except InsufficientData:
        est = None
    return virial, est


# -- density lower bound -----------------------------------------------------------


@dataclass
class BoundReport:
    ok: bool
    monotone: bool
    min_margin: float  # min over the grid of rho_1(s) - s/(1+Cs)
    violations: list  # (s, rho, bound) triples below -tol
    grid: np.ndarray


def density_bound_check(model, C, s_grid, tol=1e-9) -> BoundReport:
    """Check rho_1(s) >= s/(1+Cs) - tol and monotonicity on a grid.

    The model supplies the exact density (closed-form reference); C is the
    Mayer-norm regularity constant of the potential.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    rho = np.array([model.density(s) for s in s_grid])
    bound = s_grid / (1.0 + C * s_grid)
    margin = rho - bound
    violations = [
        (float(s), float(r), float(b))
        for s, r, b, m in zip(s_grid, rho, bound, margin)
        if m < -tol
    ]
    monotone = bool(np.all(np.diff(rho) >= -tol))
    return BoundReport(len(violations) == 0, monotone,
                       float(margin.min()), violations, s_grid)


# -- claim table -------------------------------------------------------------------


def claim_row(quantity, claimed, measured, oracle=None, relation="equals"):
    """One row of the claim-check table, with a conservative verdict.

    relation "equals": the claim names the value; "at_least"/"at_most":
    the claim bounds the measured quantity from below/above.  The verdict
    compares at the scale of the measurement uncertainty u (twice the
    measured-to-oracle discrepancy, floored at 2% of the measured value;
    just the floor when no oracle value exists): within u is
    "consistent", beyond 3u is "inconsistent", and the band between is
    "inconclusive".  The row always carries the numbers; the verdict never
    suppresses them.
    """
    measured = float(measured)
    claimed = float(claimed)
    oracle = None if oracle is None else float(oracle)
    uncertainty = 0.02 * abs(measured) if math.isfinite(measured) else 0.0
    if oracle is not None and math.isfinite(measured - oracle):
        uncertainty = max(uncertainty, 2.0 * abs(measured - oracle))
    if relation == "equals":
        if math.isinf(claimed) and math.isinf(measured) and claimed == measured:
            dev = 0.0
        else:
            dev = abs(measured - claimed)
        if dev <= uncertainty:
            verdict = "consistent"
        elif dev > 3.0 * uncertainty:
            verdict = "inconsistent"
        else:
            verdict = "inconclusive"
    elif relation in ("at_least", "at_most"):
        margin = measured - claimed if relation == "at_least" else claimed - measured
        if margin >= -uncertainty:
            verdict = "consistent"
        elif margin < -3.0 * uncertainty:
            verdict = "inconsistent"
        else:
            verdict = "inconclusive"
    else:
        raise ValueError(f"unknown relation {relation!r}")
    return {
        "quantity": quantity,
        "relation": relation,
        "claimed": claimed,
        "measured": measured,
        "oracle": oracle,
        "uncertainty": float(uncertainty),
        "verdict": verdict,
    }
