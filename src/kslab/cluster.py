"""Cluster and virial series analysis.

The pressure-like series log Xi comes out of the coefficient recurrence,
the density series is its Euler derivative over the volume, and everything
else is series plumbing: radius-of-convergence estimators (ratio, power-
corrected root fit, Domb-Sykes), Lagrange reversion into the virial series,
finite-volume extrapolation of thermodynamic-limit coefficients, the
density lower-bound sweep, and the side-by-side claim table that compares
a measured radius against the kernel-norm prediction and the closed form
without adjudicating between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData, NumericalError
from .integrals import Box, build_table
from .partition import PartitionPolynomial, assemble

# -- series container ------------------------------------------------------------


@dataclass
class PowerSeries:
    """Truncated power series with float64 coefficients."""

    values: np.ndarray  # coefficient per power, index = power
    variable: str  # "z" (activity) or "rho" (density)

    @classmethod
    def from_values(cls, values, variable):
        return cls(np.array(values, dtype=float), variable)

    def __len__(self):
        return len(self.values)

    def nonzero_indices(self):
        return np.flatnonzero(self.values).tolist()

    def to_rows(self):
        """CSV-ready rows (power, coefficient, sign)."""
        return [{"n": k, "coefficient": v, "sign": (v > 0) - (v < 0)}
                for k, v in enumerate(self.values.tolist())]


def sign_pattern(series: PowerSeries, start=1):
    """Classify the nonzero coefficients from index start on.

    "alternating" means every consecutive nonzero pair flips sign,
    "positive" means no negative entries; anything else is "mixed".
    """
    signs = np.sign(series.values[start:])
    signs = signs[signs != 0]
    if len(signs) >= 2 and np.all(signs[1:] == -signs[:-1]):
        return "alternating"
    return "positive" if np.all(signs > 0) else "mixed"


# -- log, density, exp -----------------------------------------------------------


def log_series(poly: PartitionPolynomial, N) -> PowerSeries:
    """First N coefficients of log Xi(z).

    Standard recurrence from Xi * (log Xi)' = Xi': coefficient k depends on
    c_1..c_k only, so any truncation M >= N gives the exact finite-volume
    values.  The constant term is dropped (c_0 = 1 for a partition
    polynomial; a nonunit constant would only shift log Xi by a constant).

    A coefficient whose value lands below the roundoff bound propagated
    through its own recurrence is reported as an exact zero: at working
    precision it is indistinguishable from one, and keeping the junk would
    fake a sign pattern and a radius where the series actually terminates
    (the free gas cancels every coefficient past the first).
    """
    c = np.zeros(N + 1)
    upto = min(N, poly.M)
    c[: upto + 1] = poly.coeffs[: upto + 1]
    if c[0] == 0.0:
        raise NumericalError("series log needs a nonzero constant term")
    if c[0] != 1.0:
        c = c / c[0]
    if not np.isfinite(c).all():
        raise NumericalError(
            "coefficients overflow float64; reduce N or the box")
    eps = np.finfo(float).eps
    ell = np.zeros(N + 1)
    bound = np.zeros(N + 1)
    for k in range(1, N + 1):
        acc = k * c[k]
        mag = abs(acc)
        carried = 0.0
        for j in range(1, k):
            t = j * ell[j] * c[k - j]
            acc -= t
            mag += abs(t)
            carried += j * bound[j] * abs(c[k - j])
        ell[k] = acc / k
        bound[k] = ((k + 2) * eps * mag + carried) / k
        if abs(ell[k]) <= bound[k]:
            ell[k] = 0.0
    return PowerSeries.from_values(ell, "z")


def exp_series(s: PowerSeries, N=None) -> PowerSeries:
    """Series exponential of a series with zero constant term."""
    v = s.values
    if v[0] != 0.0:
        raise NumericalError("series exp expects a zero constant term")
    if N is None:
        N = len(v) - 1
    e = np.zeros(N + 1)
    e[0] = 1.0
    for k in range(1, N + 1):
        acc = 0.0
        for j in range(1, k + 1):
            if j < len(v):
                acc += j * v[j] * e[k - j]
        e[k] = acc / k
    return PowerSeries.from_values(e, s.variable)


def density_series(logseries: PowerSeries, volume) -> PowerSeries:
    """One-point density series rho_1(z) = (z d/dz log Xi) / |box|."""
    ell = logseries.values
    d = ell * np.arange(len(ell)) / float(volume)
    return PowerSeries.from_values(d, "z")


# -- finite-volume extrapolation ---------------------------------------------------


def richardson(values, ratio=2.0, first_order=1):
    """Eliminate successive 1/L^p terms from values at L, ratio*L, ratio^2*L, ...

    Assumes f(L) = f_inf + A1/L^p + A2/L^(p+1) + ... with p = first_order.
    Returns (extrapolated, error_estimate), the latter being the last
    correction applied, which is an honest scale for what remains.
    """
    t = [float(v) for v in values]
    if len(t) < 2:
        raise InsufficientData("Richardson needs at least two values")
    p = first_order
    last_step = abs(t[-1] - t[0])
    while len(t) > 1:
        fac = ratio**p
        nxt = [(fac * t[i + 1] - t[i]) / (fac - 1.0) for i in range(len(t) - 1)]
        last_step = abs(nxt[-1] - t[-1])
        t = nxt
        p += 1
    return t[0], last_step


def density_coefficients_extrapolated(p, lengths, N, cache_dir=None, order=16, seed=42):
    """Thermodynamic-limit density coefficients from a ladder of box lengths.

    Builds the finite-volume density series at each 1-D box length (tables
    from build_table with the given order and seed) and Richardson-
    extrapolates coefficient by coefficient (leading error is order 1/L).
    Returns (series, per-coefficient error estimates, per-length series list).
    """
    per_len = []
    for L in lengths:
        table = build_table(p, Box((float(L),)), N, order=order, seed=seed, cache_dir=cache_dir)
        poly = assemble(table)
        per_len.append(density_series(log_series(poly, N), L))
    vals = np.zeros(N + 1)
    errs = np.zeros(N + 1)
    for k in range(1, N + 1):
        seq = [s.values[k] for s in per_len]
        ratio = lengths[1] / lengths[0]
        vals[k], errs[k] = richardson(seq, ratio=ratio, first_order=1)
    return PowerSeries.from_values(vals, "z"), errs, per_len


# -- radius of convergence --------------------------------------------------------


@dataclass
class RadiusEstimate:
    method: str  # "ratio", "root", or "domb_sykes"
    R: float  # radius estimate; inf for terminating series
    singularity: complex  # estimated location of the nearest singularity
    sign_pattern: str  # "alternating", "positive", "mixed"
    diagnostics: dict = field(default_factory=dict)


def _tail_points(idx, vals, count):
    return idx[-count:], vals[-count:]


def radius_estimate(series: PowerSeries, method="domb_sykes",
                    min_nonzero=8) -> RadiusEstimate:
    """Radius of convergence of a truncated series, three estimators.

    "ratio" extrapolates |c_k/c_{k+1}| linearly in 1/k; "root" fits
    log|c_k| = log A + p log k - k log R, the power factor absorbing
    subexponential corrections of Stirling type; "domb_sykes" fits the
    signed consecutive ratio c_k/c_{k-1} against 1/k on the last half of
    the points, so the intercept carries the singularity's sign.

    A series with fewer nonzero entries than min_nonzero is only accepted
    when it visibly terminates (a long run of exact zeros at the tail), in
    which case the radius is infinite; otherwise InsufficientData.
    """
    pattern = sign_pattern(series)
    v = series.values
    nz = [k for k in range(1, len(v)) if v[k] != 0.0]
    if len(nz) < min_nonzero:
        trailing = len(v) - 1 - (nz[-1] if nz else 0)
        if nz and trailing >= max(2, len(v) // 4):
            return RadiusEstimate(method, float("inf"), complex("inf"),
                                  pattern, {"terminating": True,
                                            "n_nonzero": len(nz)})
        raise InsufficientData(
            f"radius estimate needs {min_nonzero} nonzero coefficients, "
            f"got {len(nz)}")

    if method == "root":
        k_fit, c_fit = _tail_points(np.array(nz), v[nz], max(min_nonzero, len(nz) // 2))
        A = np.column_stack([np.ones_like(k_fit, dtype=float),
                             np.log(k_fit.astype(float)), k_fit.astype(float)])
        sol, res, *_ = np.linalg.lstsq(A, np.log(np.abs(c_fit)), rcond=None)
        R = math.exp(-sol[2])
        resid = float(res[0]) if len(res) else 0.0
        sing = -R if pattern == "alternating" else R
        return RadiusEstimate("root", R, complex(sing), pattern,
                              {"log_amplitude": float(sol[0]),
                               "power": float(sol[1]),
                               "fit_residual": resid,
                               "n_points": int(len(k_fit))})

    # both ratio variants need consecutive nonzero pairs
    pairs = [(k, v[k] / v[k - 1]) for k in nz if k - 1 in series.nonzero_indices()]
    if len(pairs) < min_nonzero - 1:
        raise InsufficientData("too few consecutive nonzero ratio points")
    ks = np.array([k for k, _ in pairs], dtype=float)
    rs = np.array([r for _, r in pairs])
    take = max(4, math.ceil(len(rs) / 2))
    ks, rs = ks[-take:], rs[-take:]

    if method == "ratio":
        rs = np.abs(rs)
    elif method != "domb_sykes":
        raise ValueError(f"unknown radius method {method!r}")
    A = np.column_stack([np.ones_like(ks), 1.0 / ks])
    sol, res, *_ = np.linalg.lstsq(A, rs, rcond=None)
    intercept = sol[0]
    resid = float(res[0]) if len(res) else 0.0
    if abs(intercept) == 0.0:
        return RadiusEstimate(method, float("inf"), complex("inf"), pattern,
                              {"intercept": 0.0, "n_points": int(len(ks))})
    R = float(1.0 / abs(intercept))
    sing = 1.0 / intercept if method == "domb_sykes" else \
        (-R if pattern == "alternating" else R)
    return RadiusEstimate(method, R, complex(sing), pattern,
                          {"intercept": complex(intercept).real,
                           "slope": float(sol[1]),
                           "fit_residual": resid,
                           "n_points": int(len(ks))})


# -- reversion and virial series ---------------------------------------------------


def _mul_trunc(a, b, N):
    out = np.zeros(N + 1)
    for i, ai in enumerate(a[: N + 1]):
        if ai == 0.0:
            continue
        hi = min(len(b), N + 1 - i)
        out[i : i + hi] += ai * b[:hi]
    return out


def revert_series(s: PowerSeries, N=None) -> PowerSeries:
    """Compositional inverse of a series with s(0) = 0, s'(0) != 0.

    Triangular solve: the k-th coefficient of the inverse comes from
    matching the k-th coefficient of s(inverse(t)) = t, which involves
    convolution powers already known.  O(N^3), fine at series lengths here.
    """
    d = s.values
    if N is None:
        N = len(d) - 1
    if len(d) < 2 or d[1] == 0.0:
        raise InsufficientData("reversion needs a nonzero linear coefficient")
    if d[0] != 0.0:
        raise InsufficientData("reversion needs a zero constant term")
    e = np.zeros(N + 1)
    e[1] = 1.0 / d[1]
    # powers[j] = coefficients of (inverse)^j, updated as e grows
    for k in range(2, N + 1):
        # coefficient k of sum_j d_j * e(t)^j must vanish for j >= 2 terms
        # plus d_1 * e_k; recompute the needed convolution powers directly
        acc = 0.0
        power = e.copy()  # e^1
        for j in range(2, k + 1):
            power = _mul_trunc(power, e, k)
            if j < len(d) and d[j] != 0.0:
                acc += d[j] * power[k]
        e[k] = -acc / d[1]
    inv_var = "rho" if s.variable == "z" else "z"
    return PowerSeries.from_values(e, inv_var)


def compose_series(outer: PowerSeries, inner: PowerSeries, N=None) -> PowerSeries:
    """outer(inner(t)) truncated; inner must have zero constant term."""
    o = outer.values
    i = inner.values
    if i[0] != 0.0:
        raise NumericalError("composition needs inner constant term zero")
    if N is None:
        N = min(len(o), len(i)) - 1
    # Horner on series: result = o_n; result = result*inner + o_j
    out = np.zeros(N + 1)
    for oj in o[: N + 1][::-1]:
        out = _mul_trunc(out, i, N)
        out[0] += oj
    return PowerSeries.from_values(out, inner.variable)


def virial_reversion(density: PowerSeries, pressure: PowerSeries, N=None):
    """Pressure as a series in density, plus its radius estimate.

    Reverts rho(z) by Lagrange inversion and composes the pressure series
    with z(rho).  Returns (virial series in rho, RadiusEstimate); the
    estimate is None when the virial series terminates too fast to measure
    and also fails the terminating-series test.

    The reverted coefficients grow fast for series with a finite activity
    radius, and the composition then cancels them down to modest virial
    coefficients: for hard rods the relative roundoff grows by about 6x
    per order, so keep N near 14 in double precision unless the tail is
    going to be discarded anyway.
    """
    if N is None:
        N = min(len(density), len(pressure)) - 1
    z_of_rho = revert_series(density, N)
    virial = compose_series(pressure, z_of_rho, N)
    virial.variable = "rho"
    try:
        est = radius_estimate(virial, method="domb_sykes")
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


def claim_row(quantity, claimed, measured, oracle=None, relation="equals",
              uncertainty=None):
    """One row of the claim-check table, with a conservative verdict.

    relation "equals": the claim names the value; "at_least"/"at_most":
    the claim bounds the measured quantity from below/above.  The verdict
    compares at the scale of the measurement uncertainty u (default: twice
    the measured-to-oracle discrepancy, floored at 2% of the measured
    value; just the floor when no oracle value exists): within u is
    "consistent", beyond 3u is "inconsistent", and the band between is
    "inconclusive".  The row always carries the numbers; the verdict never
    suppresses them.
    """
    measured = float(measured)
    claimed = float(claimed)
    oracle = None if oracle is None else float(oracle)
    if uncertainty is None:
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
