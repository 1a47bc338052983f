"""Cluster and virial series analysis.

The pressure-like series log Xi comes out of the coefficient recurrence,
the density series is its Euler derivative over the volume, and everything
else is plumbing on coefficient arrays indexed by power: the Domb-Sykes
radius-of-convergence fit, the virial series by Lagrange inversion of the
density, finite-volume extrapolation of thermodynamic-limit coefficients,
the density lower-bound sweep, and the side-by-side claim table that
compares a measured radius against the kernel-norm prediction and the closed
form without adjudicating between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData, NumericalError
from .integrals import Box, build_table
from .partition import PartitionPolynomial, assemble

# -- series rows and sign pattern -----------------------------------------------


def series_rows(values):
    """CSV-ready rows (power, coefficient, sign) of a coefficient array."""
    return [{"n": k, "coefficient": v, "sign": (v > 0) - (v < 0)}
            for k, v in enumerate(map(float, values))]


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


# -- log, density, exp -----------------------------------------------------------


def log_series(poly: PartitionPolynomial, N):
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
    return ell


def density_series(ell, volume):
    """One-point density series rho_1(z) = (z d/dz log Xi) / |box|."""
    return ell * np.arange(len(ell)) / float(volume)


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


def radius_estimate(v) -> RadiusEstimate:
    """Radius of convergence of a truncated series by the Domb-Sykes fit.

    The signed consecutive ratio c_k/c_{k-1} is fitted against 1/k on the
    last half of the points (Domb & Sykes, Proc. R. Soc. A 240, 1957); the
    intercept is 1/z_s for the nearest singularity z_s, so its sign places
    the singularity on the positive or the negative axis.

    A series with fewer nonzero entries than _MIN_NONZERO is only accepted
    when it visibly terminates (a long run of exact zeros at the tail), in
    which case the radius is infinite; otherwise InsufficientData.
    """
    method = "domb_sykes"
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


def virial_reversion(density):
    """Pressure as a series in density, plus its radius estimate.

    Since z d(beta p)/dz = rho(z), Lagrange inversion of rho(z) = z / phi(z)
    gives the virial coefficients from the density alone:
    B_n = [z^(n-1)] phi(z)^(n-1) / n with phi = z / rho(z) (Flajolet &
    Sedgewick, Analytic Combinatorics, 2009, Thm A.2).  phi comes from one
    triangular reciprocal of rho(z)/z and each power of phi from the one
    before, so the series costs O(N^3).  Returns (virial series in rho,
    RadiusEstimate); the estimate is None when the virial series terminates
    too fast to measure and also fails the terminating-series test.

    The powers of phi grow fast for series with a finite activity radius,
    and their coefficient n - 1 cancels down to a modest virial
    coefficient: from the closed-form hard-rod density the relative
    roundoff grows by about 4x per order, to 3.4e-9 at N = 14 and 1.1e-5
    at N = 20, so keep N near 14 in double precision unless the tail is
    going to be discarded anyway.
    """
    N = len(density) - 1
    if N < 1 or density[1] == 0.0:
        raise InsufficientData("virial series needs a nonzero linear density coefficient")
    if density[0] != 0.0:
        raise InsufficientData("virial series needs a zero constant density term")
    q = density[1:]  # rho(z) / z
    phi = np.zeros(N)
    for k in range(N):
        phi[k] = ((k == 0) - q[1 : k + 1] @ phi[:k][::-1]) / q[0]
    virial = np.zeros(N + 1)
    virial[1] = 1.0
    power = np.ones(1)
    for n in range(2, N + 1):
        power = np.convolve(power, phi)[:N]
        virial[n] = power[n - 1] / n
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
