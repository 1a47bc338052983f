"""Spectral analysis of the operator matrix.

Eigenvalues are computed in the rescaled companion frame and mapped back;
the leading eigenvalue's Laurent data (projection, reduced resolvent,
nilpotent part) are computed and reported in the balanced frame, where
norm ratios are meaningful.  The resolvent sign convention is

    R(lam) = (K - lam)^(-1),      P = -(1/2 pi i) oint R(lam) dlam.

The leading eigenvalue is a simple pole of R: its residue gives the
rank-one projection and its holomorphic part the reduced resolvent S,
which satisfies PS = SP = 0 and (K - lam_c) S = I - P.  Both come in
closed form from the companion eigenvectors, P = v nu^T / nu^T v and
S = (K - lam + P)^{-1} - P (Kato I §5), O(M^2) in all.  One formula is
evaluated in float64 and, where float64 cannot certify the projection
algebra (companion matrices of clustered zeros are strongly non-normal),
in mpmath at 40, 60 or 90 digits.  riesz_projection keeps the dense
contour route, P = -(r/N) sum_k R(lam_k) e^{i theta_k} on a circle of
radius r with S the plain node average of R, for general matrices and as
an independent check of the closed form.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourError, Degenerate, InsufficientData
from .ksop import KSMatrix
from .partition import (PartitionPolynomial, evaluate, evaluate_derivative,
                        horner, newton_root, numerator_coefficients,
                        scaled_coefficients, smallest_zero, zeros)

_TIE_REL = 1e-9
_LONG = np.clongdouble


@dataclass
class Spectrum:
    eigenvalues: np.ndarray  # unscaled, sorted by descending modulus
    lam_c: complex
    lam2_mod: float
    dist_gap: float          # min distance from lam_c to the rest (unscaled)
    is_tie: bool
    right: np.ndarray        # right eigenvector of the scaled companion
    left: np.ndarray         # left eigenvector, normalized left^T right = 1
    normalized: bool         # False when the pair is numerically defective
    scale: float

    @property
    def spectral_radius(self):
        return abs(self.lam_c)


def _left_vector(b, lam):
    """Left eigenvector of the companion with first row -b_1..-b_M at lam.

    Backward recurrence nu_{M-1} = -b_M/lam, nu_k = (nu_{k+1} - b_{k+1})/lam,
    normalized to nu_0 = 1 at an exact eigenvalue; the forward recurrence
    nu_{j+1} = lam nu_j + b_{j+1} is unstable (relative left residual O(1)
    for hard rods at L = 20).  Plain arithmetic, so float64 and mpmath
    share it; returns a list.
    """
    M = len(b) - 1
    nu = [None] * M
    nu[M - 1] = -b[M] / lam
    for k in range(M - 2, -1, -1):
        nu[k] = (nu[k + 1] - b[k + 1]) / lam
    return nu


def _polish_reciprocal(lam_scaled, b):
    """Newton-polish companion eigenvalues through w = 1/lam.

    The characteristic polynomial evaluated in lam suffers catastrophic
    cancellation when the coefficients span many decades; Xi(w) at
    w = 1/lam is well conditioned instead.  Steps are kept only when they
    shrink |Xi| (extended precision throughout).
    """
    dbl = (b.astype(_LONG) * np.arange(len(b)))[1:]
    out = lam_scaled.astype(complex).copy()
    live = np.abs(out) > 1e-12 * max(1.0, np.abs(out).max())
    w = np.zeros_like(out, dtype=_LONG)
    w[live] = 1.0 / out[live].astype(_LONG)
    for _ in range(3):
        val = horner(b, w)
        dval = horner(dbl, w)
        ok = live & (np.abs(dval) > 0)
        step = np.where(ok, val / np.where(dval == 0, 1, dval), 0)
        w_try = w - step
        better = np.abs(horner(b, w_try)) < np.abs(val)
        w = np.where(ok & better, w_try, w)
    out[live] = (1.0 / w[live]).astype(complex)
    return out


def spectrum(ks: KSMatrix) -> Spectrum:
    """Polished eigenvalues of the operator matrix, the leading pair identified."""
    b = scaled_coefficients(ks.coeffs, ks.scale)
    lam = _polish_reciprocal(np.linalg.eigvals(ks.scaled_matrix()), b) / ks.scale
    order = np.lexsort((lam.imag, lam.real, -np.abs(lam)))
    lam = lam[order]
    lam_c = complex(lam[0])
    rest = lam[1:]
    lam2 = float(np.max(np.abs(rest))) if len(rest) else 0.0
    tie = len(rest) > 0 and (abs(lam_c) - lam2) <= _TIE_REL * abs(lam_c)
    dist = float(np.min(np.abs(rest - lam_c))) if len(rest) else math.inf
    lam_s = lam_c * ks.scale
    v = (lam_s ** np.arange(ks.M - 1, -1, -1)).astype(complex)
    nu = np.array(_left_vector(b, lam_s), dtype=complex)
    pairing = complex(np.dot(nu, v))  # bilinear nu^T v, no conjugation
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing pair is not normalized
        normalized = abs(pairing) > 1e-12 * np.linalg.norm(nu) * np.linalg.norm(v)
    if normalized:
        nu = nu / pairing
    return Spectrum(lam, lam_c, lam2, dist, tie, v, nu, normalized, ks.scale)


@dataclass
class RieszResult:
    P: np.ndarray
    S: np.ndarray            # reduced resolvent, the holomorphic part of R at center
    center: complex
    radius: float            # isolating disc; no contour is drawn when n_nodes is 0
    n_nodes: int             # float64 trapezoid nodes; 0 on the closed form
    idempotency_defect: float          # ||P^2 - P|| / ||P||
    annihilation_defect: float         # max(||PS||, ||SP||) / (||P|| ||S||)
    reduced_identity_defect: float     # ||(K-c)S - (I-P)|| / ||I-P||
    nilpotent_ratio: float             # ||(K-c)P|| / ||K||
    pole_order: int                    # pole order at the center; 0 = not resolved in chain cap
    rank: int
    second_singular_ratio: float
    precision: str           # "float64", "mp40", "mp60" or "mp90"

    @property
    def algebra_defect(self):
        return max(self.idempotency_defect, self.annihilation_defect,
                   self.reduced_identity_defect)


def _algebra_defects(mat, center, P, S):
    nP = np.linalg.norm(P, 2)
    nS = np.linalg.norm(S, 2)
    I = np.eye(mat.shape[0])
    idem = np.linalg.norm(P @ P - P, 2) / max(1e-300, nP)
    annih = max(np.linalg.norm(P @ S, 2), np.linalg.norm(S @ P, 2))
    annih /= max(1e-300, nP * nS)
    shifted = mat - center * I
    red = np.linalg.norm(shifted @ S - (I - P), 2) / max(1.0, np.linalg.norm(I - P, 2))
    nil = np.linalg.norm(shifted @ P, 2) / max(1e-300, np.linalg.norm(mat, 2))
    return float(idem), float(annih), float(red), float(nil)


def _svd_ratio(P):
    sv = np.linalg.svd(np.asarray(P, dtype=complex), compute_uv=False)
    if sv[0] <= 0:
        return 0, 0.0
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    ratio = float(sv[1] / sv[0]) if len(sv) > 1 else 0.0
    return rank, ratio


_POLE_THRESHOLD = 1e-8


def _pole_from_chain(norm_ratios):
    """First power q with ||D^q|| / ||K||^q below threshold; 0 if none."""
    for q, r in enumerate(norm_ratios, start=1):
        if r <= _POLE_THRESHOLD:
            return q
    return 0


def riesz_projection(mat, center, radius, n_start=64, n_max=1024,
                     rtol=1e-10) -> RieszResult:
    """Spectral projection and reduced resolvent by circle trapezoid sums.

    Doubles the node count until the projection algebra certifies at rtol;
    trapezoid sums of analytic integrands converge geometrically, so the
    loop settles fast once the contour resolves the spectrum.  Dense
    float64 route for general matrices, and an independent check of the
    closed form; the operator's leading eigenvalue goes through
    leading_projection instead.
    """
    mat = np.asarray(mat, dtype=complex)
    dim = mat.shape[0]
    if radius <= 0:
        raise ContourError("contour radius must be positive")
    I = np.eye(dim)
    n = n_start
    while True:
        theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        P = np.zeros((dim, dim), dtype=complex)
        S = np.zeros((dim, dim), dtype=complex)
        for t in theta:
            lam = center + radius * cmath.exp(1j * t)
            R = np.linalg.solve(mat - lam * I, I)
            S += R
            P += R * cmath.exp(1j * t)
        P *= -radius / n
        S /= n
        idem, annih, red, nil = _algebra_defects(mat, center, P, S)
        defect = max(idem, annih, red)
        if defect <= rtol or n >= n_max:
            break
        n *= 2
    if defect > rtol:
        raise ContourError(
            f"projection algebra stalled at defect {defect} with {n} nodes; "
            "matrix is likely too non-normal for double precision")
    rank, ratio = _svd_ratio(P)
    normK = np.linalg.norm(mat, 2)
    D = (mat - center * I) @ P
    chain = []
    Dq = np.eye(dim, dtype=complex)
    for q in range(1, min(dim, max(2, rank + 1)) + 1):
        Dq = Dq @ D
        chain.append(np.linalg.norm(Dq, 2) / normK**q)
    pole = _pole_from_chain(chain)
    return RieszResult(P, S, complex(center), float(radius), n,
                       idem, annih, red, nil, pole, rank, ratio, "float64")


# -- closed-form Laurent data, float64 to 90 digits -------------------------------


def _center(ctx, b, center):
    """Companion eigenvalue near center, refined as the root 1/lam of sum b_m w^m."""
    return 1 / newton_root(ctx, b, 1 / ctx.mpc(center))


def _closed_form(ctx, b, dvec, center):
    """Laurent data at a simple leading eigenvalue in closed form.

    With companion eigenvectors v_i = lam^{M-1-i} (right) and the backward
    recurrence of _left_vector (left), both balanced, P = v nu^T / (nu^T v)
    and S = (A - lam + P)^{-1} - P (Kato I §5).  S is built column by
    column as the solution of (A - lam) x = (I - P) e_j with nu^T x = 0:
    the subdiagonal rows give x up to a multiple of v, the pairing fixes
    the multiple.  Every defect and the nilpotent chain are measured on
    the result through the rank-one form of P, so the whole route is
    O(M^2).  All arithmetic runs in ctx: mpmath.fp for float64, mpmath.mp
    at the caller's working precision otherwise.  Returns (P, S,
    idempotency, annihilation and reduced-identity defects, nilpotent
    ratio, pole order, refined center), or None when the pairing nu^T v
    vanishes (the leading eigenvalue is not simple).
    """
    M = len(b) - 1
    bc = [ctx.mpf(float(x)) for x in b]
    d = [ctx.mpf(float(x)) for x in dvec]
    lam = _center(ctx, bc, center)
    # balanced companion A = T^{-1} C T: first row a0, subdiagonal sub[i]
    a0 = [-bc[k + 1] * d[k] / d[0] for k in range(M)]
    sub = [None] + [d[i - 1] / d[i] for i in range(1, M)]
    v = [lam ** (M - 1 - i) / d[i] for i in range(M)]
    nu = [x * d[i] for i, x in enumerate(_left_vector(bc, lam))]

    def dot(x, y):
        return ctx.fsum(xi * yi for xi, yi in zip(x, y))

    def norm(x):
        return ctx.sqrt(ctx.fsum(abs(xi) ** 2 for xi in x))

    def shifted(x):
        """(A - lam) x, using the companion sparsity."""
        return [dot(a0, x) - lam * x[0]] + [sub[i] * x[i - 1] - lam * x[i]
                                            for i in range(1, M)]

    pairing = dot(nu, v)
    if abs(pairing) <= M * ctx.eps * norm(nu) * norm(v):
        return None
    u = [vi / pairing for vi in v]  # P = u nu^T
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
    idem = abs(dot(nu, u) - 1)  # ||P^2 - P|| / ||P|| for P = u nu^T
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
    # D = (A - lam) P = g nu^T, so D^q = g (nu^T g)^{q-1} nu^T
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


def leading_projection(ks: KSMatrix, spec: Spectrum = None,
                       rtol=1e-10) -> RieszResult:
    """Laurent data of the operator matrix at its leading eigenvalue.

    The leading eigenvalue is a simple pole of the resolvent: its residue
    is the rank-one Riesz projection P and its holomorphic part the
    reduced resolvent S, both in closed form (_closed_form).  The one
    formula runs in float64, then in mpmath at 40, 60 and 90 digits
    (precision "float64"/"mp40"/"mp60"/"mp90"), stopping at the first rung
    whose measured defects are all within rtol in float64 and within
    min(rtol, 1e-12) in mpmath.  No contour is drawn (n_nodes 0); radius
    is the isolating disc, half the gap to the rest of the spectrum.  The
    returned defects are the certified ones, measured at the precision
    that produced P and S.  Raises ContourError naming each rung's failure
    when none certifies.
    """
    from mpmath import fp, mp

    if spec is None:
        spec = spectrum(ks)
    if not math.isfinite(spec.dist_gap) or spec.dist_gap <= 0:
        raise Degenerate("no spectral gap isolates the leading eigenvalue")
    center = spec.lam_c * ks.scale
    radius = 0.5 * spec.dist_gap * ks.scale
    b = scaled_coefficients(ks.coeffs, ks.scale)
    _, dvec = ks.balancing
    # (precision, arithmetic, working digits, certification threshold); the
    # mpmath rungs keep headroom below the target
    rungs = [("float64", fp, contextlib.nullcontext(), rtol)] + [
        (f"mp{dps}", mp, mp.workdps(dps), min(rtol, 1e-12)) for dps in (40, 60, 90)]
    failures = []
    for precision, ctx, digits, tol in rungs:
        try:
            with digits:
                laurent = _closed_form(ctx, b, dvec, center)
        except ArithmeticError as exc:  # float64 overflow on wide boxes
            failures.append(f"{precision}: {type(exc).__name__}: {exc}")
            continue
        if laurent is None:
            failures.append(f"{precision}: the pairing nu^T v vanishes")
            continue
        P, S, idem, annih, red, nil, pole, cen = laurent
        defect = max(idem, annih, red)
        if defect <= tol:
            rank, ratio = _svd_ratio(P)
            return RieszResult(P, S, cen, float(radius), 0,
                               idem, annih, red, nil, pole, rank, ratio,
                               precision)
        failures.append(f"{precision}: defect {defect:.3e} above {tol:g}")
    raise ContourError("leading projection did not certify: " + "; ".join(failures))


@dataclass
class NilpotentResult:
    D: np.ndarray
    pole_order: int
    norms: list  # ||D^q|| for q = 1..pole_order
    threshold: float


def nilpotent_and_pole(mat, lam, P, rel_threshold=1e-8) -> NilpotentResult:
    """Nilpotent part D = (K - lam) P and the resolvent pole order at lam.

    The pole order is the first power q with ||D^q|| <= threshold * ||K||^q;
    a semisimple eigenvalue gives D below threshold immediately (order 1).

    Double precision only.  A projection from an mpmath rung of
    leading_projection can have ||P|| past 1/eps, in which case the float64 product here is
    pure cast noise; the certified nilpotent_ratio and pole_order on the
    RieszResult are authoritative there.
    """
    mat = np.asarray(mat, dtype=complex)
    P = np.asarray(P, dtype=complex)
    D = (mat - lam * np.eye(mat.shape[0])) @ P
    base = np.linalg.norm(mat, 2)
    rank = max(1, int(round(float(np.trace(P).real))))
    norms = []
    power = np.eye(mat.shape[0], dtype=complex)
    for q in range(1, rank + 2):
        power = power @ D
        norms.append(float(np.linalg.norm(power, 2)))
        if norms[-1] <= rel_threshold * base**q:
            return NilpotentResult(D, q, norms, rel_threshold)
    return NilpotentResult(D, rank + 1, norms, rel_threshold)


@dataclass
class PowerReport:
    deltas: np.ndarray
    fitted_ratio: float
    median_ratio: float
    envelope: float
    expected_ratio: float
    n_used: int


def power_convergence(ks: KSMatrix, spec: Spectrum = None, P=None,
                      n_terms=60) -> PowerReport:
    """Decay of ||(K/lam_c)^n - P|| against the subleading ratio.

    Fits log-linear decay on the part of the tail still above the roundoff
    floor and reports both the least-squares rate and the median of
    successive ratios, next to |lam_2 / lam_c|.
    """
    if spec is None:
        spec = spectrum(ks)
    proj = P if P is not None else leading_projection(ks, spec).P
    A = ks.conditioned_matrix().astype(complex) / (spec.lam_c * ks.scale)
    deltas = np.empty(n_terms)
    term = np.eye(ks.M, dtype=complex)
    for n in range(1, n_terms + 1):
        term = term @ A
        deltas[n - 1] = np.linalg.norm(term - proj, 2)
    floor = max(1e-13 * deltas[0], 1e-15)
    mask = deltas > floor
    n_used = int(mask.sum())
    idx = np.arange(1, n_terms + 1)[mask]
    if n_used >= 4:
        half = idx >= idx[len(idx) // 2]  # fit the asymptotic half
        fit = np.polyfit(idx[half], np.log(deltas[mask][half]), 1)
        fitted = float(np.exp(fit[0]))
        envelope = float(np.exp(fit[1]))
        ratios = deltas[mask][1:] / deltas[mask][:-1]
        median = float(np.median(ratios))
    else:
        fitted = median = envelope = float("nan")
    expected = spec.lam2_mod / abs(spec.lam_c) if abs(spec.lam_c) > 0 else float("nan")
    return PowerReport(deltas, fitted, median, envelope, expected, n_used)


# -- leading coefficient of the near-singularity behavior -------------------------


def _neville(ts, vals):
    """Polynomial extrapolation of vals(t) to t = 0; returns (limit, change)."""
    ts = np.asarray(ts, dtype=float)
    n = len(ts)
    tab = list(map(complex, vals))
    last_diag = tab[0]
    change = math.inf
    for j in range(1, n):
        for i in range(n - j):
            tab[i] = (ts[i + j] * tab[i] - ts[i] * tab[i + 1]) / (ts[i + j] - ts[i])
        change = abs(tab[0] - last_diag)
        last_diag = tab[0]
    return last_diag, change


@dataclass
class RayLimit:
    angle: float
    value: complex
    change: float  # last Neville correction, an error proxy


_RAY_ANGLES = (math.pi, 3 * math.pi / 4, -3 * math.pi / 4,
               7 * math.pi / 8, -7 * math.pi / 8)


def ray_limit(fn, z_c, t0, angles=_RAY_ANGLES, n_points=20, ratio=0.65):
    """Directional limits of fn(z) as z -> z_c along sector rays.

    Rays are z = z_c (1 + t e^{i psi}); each is extrapolated to t = 0 by a
    Neville tableau over geometrically shrinking t.  Returns the mean
    limit, the cross-ray spread, and the per-ray records.
    """
    ts = t0 * ratio ** np.arange(n_points)
    rays = []
    for psi in angles:
        pts = z_c * (1.0 + ts * cmath.exp(1j * psi))
        vals = [fn(z) for z in pts]
        limit, change = _neville(ts, vals)
        rays.append(RayLimit(psi, limit, change))
    values = np.array([r.value for r in rays])
    mean = complex(values.mean())
    spread = float(np.max(np.abs(values[:, None] - values[None, :])))
    return mean, spread, rays


@dataclass
class AsymptoticsResult:
    anchors: np.ndarray
    n: int
    z_c: complex
    ray_value: complex
    ray_spread: float
    ray_error: float
    residue_value: complex
    residue_error: float
    agreement: float
    rays: list
    t0: float

    def to_json(self):
        return {
            "n": self.n,
            "z_c": [self.z_c.real, self.z_c.imag],
            "ray_value": [self.ray_value.real, self.ray_value.imag],
            "ray_spread": self.ray_spread,
            "ray_error": self.ray_error,
            "residue_value": [self.residue_value.real, self.residue_value.imag],
            "residue_error": self.residue_error,
            "agreement": self.agreement,
            "t0": self.t0,
            "rays": [{"angle": r.angle,
                      "value": [r.value.real, r.value.imag],
                      "change": r.change} for r in self.rays],
        }


def leading_asymptotics(poly: PartitionPolynomial, anchors, n_points=20,
                        ratio=0.65, angles=_RAY_ANGLES) -> AsymptoticsResult:
    """Limit of rho_n(z) (1 - z/z_c) / z^n at the dominant singularity, two ways.

    Route one extrapolates along rays that stay inside the sector away
    from the outward direction, starting at half the relative distance to
    the nearest competing zero.  Route two is the residue of the simple
    pole,

        -N(z_c) / (z_c^{n+1} Xi'(z_c)),

    with N the truncated numerator at these anchors.  Both routes consume
    the same anchored integrals, so their disagreement isolates
    extrapolation error rather than integral error.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    n = anchors.shape[0]
    sm = smallest_zero(zeros(poly))
    z_c = sm.z_c
    t0 = 0.5 * sm.min_gap
    if not math.isfinite(t0) or t0 <= 0:
        raise Degenerate("no isolated smallest zero to expand around")

    num, num_err = numerator_coefficients(poly, anchors, degree=poly.M)

    def g(z):
        N = sum(c * z**k for k, c in enumerate(num))
        xi, _ = evaluate(poly, z)
        return N / xi * (1.0 - z / z_c) / z**n

    ray_value, spread, rays = ray_limit(g, z_c, t0, angles, n_points, ratio)
    ray_err = max(spread, max(r.change for r in rays))

    dxi = evaluate_derivative(poly, z_c)
    N_c = sum(c * z_c**k for k, c in enumerate(num))  # N(z_c)
    residue = -N_c / (z_c ** (n + 1) * dxi)
    err_num = sum(e * abs(z_c) ** k for k, e in enumerate(num_err))
    residue_err = abs(residue) * 1e-13 + err_num / abs(z_c ** (n + 1) * dxi)
    return AsymptoticsResult(anchors, n, z_c, ray_value, spread, ray_err,
                             residue, residue_err,
                             abs(ray_value - residue), rays, float(t0))


def matrix_leading(ks: KSMatrix, spec: Spectrum = None):
    """Coefficient-space analogue: limit of nu_c(phi(z)) (1 - z/z_c)/z.

    phi(z) = z (I - z K)^{-1} e_1 has a simple pole at z_c = 1/lam_c whose
    strength along the left eigenvector is exactly nu_c(e_1); in finite
    dimensions this is an identity, so it makes a sharp fixture.  Stated
    in the scaled frame, matching the vectors carried by Spectrum.
    """
    if spec is None:
        spec = spectrum(ks)
    if not spec.normalized:
        raise Degenerate("leading eigenpair is numerically defective")
    return complex(spec.left[0])


@dataclass
class CoeffAsymptotics:
    ratios: np.ndarray
    growth_estimate: complex  # limit of t_{k+1}/t_k
    subexp_exponent: float
    fit_rate: float
    n_used: int


def coefficient_asymptotics(coeffs, tail=None) -> CoeffAsymptotics:
    """Growth diagnostics of a coefficient sequence t_k.

    Successive ratios estimate the reciprocal singularity location; the
    three-parameter fit log|t_k| = A + p log k + k log r separates the
    subexponential power p (pole order minus one) from the rate r.
    """
    t = np.asarray(coeffs, dtype=complex)
    nz = np.abs(t) > 0
    if nz.sum() < 6:
        raise InsufficientData("need at least 6 nonzero coefficients")
    k_all = np.arange(len(t))
    k = k_all[nz]
    tv = t[nz]
    ratios = tv[1:] / tv[:-1]
    growth = complex(ratios[-1])
    # fit on the tail half: the model is asymptotic, and small k would
    # otherwise bias the power term
    m = max(6, len(k) // 2) if tail is None else min(tail, len(k))
    sel = k[-m:] >= 1
    kt = k[-m:][sel].astype(float)
    yt = np.log(np.abs(tv[-m:][sel]))
    X = np.column_stack([np.ones_like(kt), np.log(kt), kt])
    sol, *_ = np.linalg.lstsq(X, yt, rcond=None)
    return CoeffAsymptotics(ratios, growth, float(sol[1]), float(np.exp(sol[2])),
                            len(kt))


def spectral_radius_check(ks: KSMatrix, xi, spec: Spectrum = None):
    """Compare the spectral radius against 1/xi.  Reports, never asserts."""
    if spec is None:
        spec = spectrum(ks)
    r = spec.spectral_radius
    return {
        "spectral_radius": r,
        "xi": float(xi),
        "xi_inverse": 1.0 / float(xi),
        "radius_below_inverse_xi": bool(r <= 1.0 / float(xi)),
        "ratio": r * float(xi),
    }
