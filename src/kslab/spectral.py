"""Spectral analysis of the operator matrix.

Eigenvalues are 1/z for the roots z of partition.float_roots, the float64
root stage of zeros' lapack route, so lam_c z_c = 1 to one rounding there.
The leading eigenvalue's Laurent data (projection, reduced resolvent,
nilpotent part) are computed and reported in the balanced frame, where
norm ratios are meaningful.  The resolvent sign convention is

    R(lam) = (K - lam)^(-1),      P = -(1/2 pi i) oint R(lam) dlam.

The leading eigenvalue is a simple pole of R: its residue gives the
rank-one projection and its holomorphic part the reduced resolvent S,
which satisfies PS = SP = 0 and (K - lam_c) S = I - P.  Both come in
closed form from the companion eigenvectors, P = v nu^T / nu^T v and
S = (K - lam + P)^{-1} - P (Kato I §5), and both are rank-structured:
P = u nu^T and S = -v c^T (c masked by the lower triangle) - y nu^T, so
only length-M generators are computed at working precision, in O(M), and
neither matrix is ever formed.  The defects and norms are measured from
the generators; the reduced-identity defect is a triangle bound.  One
formula is evaluated in float64 and, where float64 cannot certify the
projection algebra (companion matrices of clustered zeros are strongly
non-normal), in mpmath at 40, 60 or 90 digits; every rung takes its center
from partition.newton_root, at 53 bits on the float64 rung.  riesz_projection keeps
the dense contour route, P = -(r/N) sum_k R(lam_k) e^{i theta_k} on a
circle of radius r with S the plain node average of R, for general
matrices and as an independent check of the closed form.  The correlation
asymptotics near z_c (leading_asymptotics) evaluate Xi at working precision.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import ContourError, Degenerate, InsufficientData, NumericalError
from .ksop import KSMatrix
from .partition import (_TIE_REL, NumeratorFamily, PartitionPolynomial, fixed_terms,
                        fixed_values, float_roots, newton_root, root_stage_defect,
                        scaled_coefficients, smallest_zero, zeros)

_RTOL = 1e-10  # projection algebra defect that certifies in float64


@dataclass
class Spectrum:
    eigenvalues: np.ndarray  # unscaled, sorted by descending modulus
    lam_c: complex
    lam2_mod: float
    dist_gap: float          # min distance from lam_c to the rest (unscaled)
    is_tie: bool

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


def spectrum(ks: KSMatrix) -> Spectrum:
    """Eigenvalues of the operator matrix, the leading eigenvalue identified.

    The companion's characteristic polynomial is lam^M Xi(1/lam), so its
    eigenvalues are 1/(w scale) for the roots w that partition.float_roots
    gives zeros' lapack route, plus an exact 0 per stripped degree.  Raises
    NumericalError when those roots are not finite and distinct.
    """
    b = scaled_coefficients(ks.coeffs, ks.scale)
    w = float_roots(np.trim_zeros(b, "b"))
    defect = root_stage_defect(w)
    if defect:
        raise NumericalError(f"companion eigenvalues unusable: {defect}")
    # + 0 turns the -0j of 1/(x + 0j), x < 0, back into +0j
    lam = np.append(1 / (w * ks.scale), np.zeros(ks.M - len(w), dtype=complex)) + 0
    order = np.lexsort((lam.imag, lam.real, -np.abs(lam)))
    lam = lam[order]
    lam_c = complex(lam[0])
    rest = lam[1:]
    lam2 = float(np.max(np.abs(rest))) if len(rest) else 0.0
    tie = len(rest) > 0 and (abs(lam_c) - lam2) <= _TIE_REL * abs(lam_c)
    dist = float(np.min(np.abs(rest - lam_c))) if len(rest) else math.inf
    return Spectrum(lam, lam_c, lam2, dist, tie)


@dataclass
class RieszResult:
    P: np.ndarray | None     # dense, on the contour route; the closed form has generators
    S: np.ndarray | None     # reduced resolvent, the holomorphic part of R at center
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
    generators: dict | None = None  # the closed form's complex128 generators of P and S


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


def riesz_projection(mat, center, radius) -> RieszResult:
    """Spectral projection and reduced resolvent by circle trapezoid sums.

    Doubles the node count from 64, up to 1024, until the projection
    algebra certifies at _RTOL; trapezoid sums of analytic integrands
    converge geometrically, so the loop settles fast once the contour
    resolves the spectrum.  Dense float64 route for general matrices, and
    an independent check of the closed form; the operator's leading
    eigenvalue goes through leading_projection instead.
    """
    mat = np.asarray(mat, dtype=complex)
    dim = mat.shape[0]
    if radius <= 0:
        raise ContourError("contour radius must be positive")
    I = np.eye(dim)
    n = 64
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
        if defect <= _RTOL or n >= 1024:
            break
        n *= 2
    if defect > _RTOL:
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
    """Companion eigenvalue near center as a ctx number: 1/w for newton_root's
    root w of sum b_m w^m, at 53 bits for mpmath.fp."""
    from mpmath import fp, mp

    with mp.workprec(53) if ctx is fp else contextlib.nullcontext():
        return ctx.mpc(1 / newton_root(b, 1 / mp.mpc(center)))


def _below(x):
    """Running sums over k < j of x_k, j = 0..len(x)."""
    return list(accumulate(x, initial=0))


def _from(x):
    """Running sums over k >= j of x_k, j = 0..len(x)."""
    return list(accumulate(reversed(x), initial=0))[::-1]


def _closed_form(ctx, b, dvec, center):
    """Laurent data at a simple leading eigenvalue in closed form.

    With companion eigenvectors v_i = lam^{M-1-i} (right) and the backward
    recurrence of _left_vector (left), both balanced, P = v nu^T / (nu^T v)
    and S = (A - lam + P)^{-1} - P (Kato I §5).  Column j of S solves
    (A - lam) x = (I - P) e_j with nu^T x = 0.  On the subdiagonal rows the
    solve of e_j telescopes to -w_j v on rows i >= j, w_j = d_j lam^{j-M}
    (w_0 = 0), so both matrices are rank-structured:

        P = u nu^T,   S_ij = -v_i c_ij - y_i nu_j,
        c_ij = w_j + t_j (i >= j) or t_j (i < j),

    with y the subdiagonal solve of u and t_j = -(w_j sigma_j + nu_j nu^T y)
    / (nu^T v), sigma_j = sum_{i>=j} nu_i v_i.  Only these length-M
    generators are computed in ctx (mpmath.fp for float64, mpmath.mp at the
    caller's working precision otherwise), and every defect is measured
    from them with prefix and suffix sums, so working-precision arithmetic
    is O(M).  The reduced-identity defect is a triangle bound on
    ||(A - lam) S - (I - P)||, which errs high.  The generators are returned
    as complex128 copies; a copy, ||P|| or ||S|| past the float64 range
    raises OverflowError.  Returns (idempotency, annihilation and
    reduced-identity defects, nilpotent ratio, pole order, refined center,
    the copies u, nu of P and v, c, t, y, nu of S), or None when nu^T v
    vanishes (a non-simple eigenvalue).
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
    zero = ctx.mpf(0)

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
    w = [zero] + [d[j] * lam ** (j - M) for j in range(1, M)]
    y = [zero] * M
    for i in range(1, M):
        y[i] = (sub[i] * y[i - 1] - u[i]) / lam
    nu_y = dot(nu, y)
    nv = [ni * vi for ni, vi in zip(nu, v)]
    tau, sigma = _below(nv), _from(nv)
    t = [-(wj * sj + nj * nu_y) / pairing for wj, sj, nj in zip(w, sigma, nu)]
    cl = [wj + tj for wj, tj in zip(w, t)]  # c_ij on i >= j; t_j on i < j

    def copies(a, c):
        """complex128 copies of a 2^k and c 2^-k, k balancing their largest
        entries, so that an outer product in the float64 range has finite
        factors (|v| passes 1e308 at hard rods L = 150)."""
        k = (max(map(ctx.mag, c)) - max(map(ctx.mag, a))) // 2
        s = ctx.mpf(2) ** k
        return (np.array([complex(x * s) for x in a]),
                np.array([complex(x / s) for x in c]))

    uf, nuf = copies(u, nu)
    vf, cf = copies(v, cl + t)
    yf, nus = copies(y, nu)  # S's copy of nu has its own power of 2
    gens = {"P": {"u": uf, "nu": nuf},
            "S": {"v": vf, "c": cf[:M], "t": cf[M:], "y": yf, "nu": nus}}

    nu_norm = norm(nu)
    u_norm = norm(u)
    nP = u_norm * nu_norm
    cl_sq = _below([abs(cj) ** 2 for cj in cl])
    t_sq = _from([abs(tj) ** 2 for tj in t])
    # ||S||_F^2 row by row: row i is -(v_i c_ij + y_i nu_j), c_ij = cl_j to j = i, t_j past
    cl_nu = _below([ctx.conj(cj) * nj for cj, nj in zip(cl, nu)])
    t_nu = _from([ctx.conj(tj) * nj for tj, nj in zip(t, nu)])
    nS = ctx.sqrt(ctx.fsum(abs(vi) ** 2 * (cl_sq[i] + t_sq[i]) + abs(yi) ** 2 * nu_norm ** 2
                           + 2 * ctx.re(ctx.conj(vi) * yi * (cl_nu[i] + t_nu[i]))
                           for i, (vi, yi) in enumerate(zip(v, y), start=1)))
    if not np.isfinite([*uf, *nuf, *vf, *cf, *yf, *nus, float(nP), float(nS)]).all():
        raise OverflowError("a generator, ||P|| or ||S|| leaves the float64 range")
    nu_u = dot(nu, u)
    idem = abs(nu_u - 1)  # ||P^2 - P|| / ||P|| for P = u nu^T
    # -(nu^T S)_j and -(S u)_i
    nuS = [sj * cj + pj * tj + nu_y * nj
           for sj, pj, cj, tj, nj in zip(sigma, tau, cl, t, nu)]
    cl_u = _below([cj * uj for cj, uj in zip(cl, u)])
    t_u = _from([tj * uj for tj, uj in zip(t, u)])
    Su = [vi * (lo + hi + wi * ui) + yi * nu_u
          for vi, yi, lo, hi, wi, ui in zip(v, y, cl_u, t_u, w, u)]
    annih = max(norm(nuS) * u_norm, norm(Su) * nu_norm) / nP / nS
    # rows i >= 1 of (A - lam) S - (I - P) are -c_{i-1,j} e_i - nu_j f_i + delta_ij h_i
    # with e, f the residuals of the v and y recurrences; bounded by the
    # triangle inequality.  Row 0 is taken entry by entry.
    e = [sub[i] * v[i - 1] - lam * v[i] for i in range(1, M)]
    f = [sub[i] * y[i - 1] - lam * y[i] - u[i] for i in range(1, M)]
    h = [lam * v[i] * w[i] - 1 for i in range(1, M)]
    masked = ctx.sqrt(ctx.fsum(abs(ei) ** 2 * (cl_sq[i] + t_sq[i])
                               for i, ei in enumerate(e, start=1)))
    lower = masked + norm(f) * nu_norm + norm(h)
    a0v = [ak * vk for ak, vk in zip(a0, v)]
    beta, alpha = _below(a0v), _from(a0v)
    lv0, off = lam * v[0], u[0] - dot(a0, y)
    row0 = [lv0 * t[j] - cl[j] * alpha[j] - t[j] * beta[j] + off * nu[j]
            for j in range(M)]
    row0[0] -= 1
    I_minus_P = ctx.sqrt(M - 2 * ctx.re(nu_u) + nP ** 2)
    red = ctx.sqrt(norm(row0) ** 2 + lower ** 2) / max(ctx.mpf(1), I_minus_P)
    # D = (A - lam) P = g nu^T, so D^q = g (nu^T g)^{q-1} nu^T
    g = shifted(u)
    nA = norm(a0 + sub[1:])
    nD = norm(g) * nu_norm
    ratio = abs(dot(nu, g))
    chain = [nD * ratio ** (q - 1) / nA**q for q in range(1, 4)]
    pole = _pole_from_chain(chain)

    return float(idem), float(annih), float(red), float(chain[0]), pole, complex(lam), gens


def leading_projection(ks: KSMatrix, spec: Spectrum) -> RieszResult:
    """Laurent data of the operator matrix at its leading eigenvalue.

    The leading eigenvalue is a simple pole of the resolvent: its residue
    is the rank-one Riesz projection P and its holomorphic part the
    reduced resolvent S, both in closed form (_closed_form) as generators.
    The one formula runs in float64, then in mpmath at 40, 60 and 90 digits
    (precision "float64"/"mp40"/"mp60"/"mp90"), stopping at the first rung
    whose measured defects are all within _RTOL in float64 and within
    1e-12 in mpmath.  No contour is drawn (n_nodes 0); radius is the
    isolating disc, half the gap to the rest of the spectrum.  The
    returned defects are the certified ones, measured at the precision
    that produced the generators.  Raises ContourError naming each rung's
    failure when none certifies.
    """
    from mpmath import fp, mp

    if not math.isfinite(spec.dist_gap) or spec.dist_gap <= 0:
        raise Degenerate("no spectral gap isolates the leading eigenvalue")
    center = spec.lam_c * ks.scale
    radius = 0.5 * spec.dist_gap * ks.scale
    b = scaled_coefficients(ks.coeffs, ks.scale)
    dvec = ks.balancing[2]
    # (precision, arithmetic, working digits, certification threshold); the
    # mpmath rungs keep headroom below the target
    rungs = [("float64", fp, contextlib.nullcontext(), _RTOL)] + [
        (f"mp{dps}", mp, mp.workdps(dps), 1e-12) for dps in (40, 60, 90)]
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
        idem, annih, red, nil, pole, cen, gens = laurent
        defect = max(idem, annih, red)
        if defect <= tol:  # P = u nu^T: rank one, no second singular value
            return RieszResult(None, None, cen, float(radius), 0,
                               idem, annih, red, nil, pole, 1, 0.0, precision, gens)
        failures.append(f"{precision}: defect {defect:.3e} above {tol:g}")
    raise ContourError("leading projection did not certify: " + "; ".join(failures))


@dataclass
class PowerReport:
    fitted_ratio: float
    median_ratio: float
    expected_ratio: float
    n_used: int


def power_convergence(ks: KSMatrix, spec: Spectrum, P, n_terms=60) -> PowerReport:
    """Decay of ||((K/lam_c)^n - P) X||_F against the subleading ratio.

    P is given by its generators {"u", "nu"}, P X = u (nu^T X), for four unit
    complex probes X from np.random.default_rng(0); K acts through the
    balanced companion's first row and subdiagonal, O(M) per power.  Fits
    log-linear decay on the tail above the roundoff floor and reports the
    closed-form least-squares rate and the median of successive ratios,
    next to |lam_2 / lam_c|.
    """
    (row, sub, _), lam = ks.balancing, spec.lam_c * ks.scale
    row, sub = row[:, None] / lam, sub[:, None] / lam
    X = np.random.default_rng(0).standard_normal((ks.M, 8)).view(complex)
    D = np.empty((n_terms + 1, ks.M, 4), dtype=complex)  # (K/lam_c)^n X, n = 0..n_terms
    D[0] = X / np.linalg.norm(X, axis=0)
    PX = P["u"][:, None] * np.einsum("j,jk->k", P["nu"], D[0])  # not matmul: BLAS adds to peak RSS
    for n in range(n_terms):
        D[n + 1, 0], D[n + 1, 1:] = (row * D[n]).sum(axis=0), sub * D[n, :-1]
    deltas = np.linalg.norm(D[1:] - PX, axis=(1, 2))
    mask = deltas > max(1e-13 * deltas[0], 1e-15)  # the roundoff floor
    n_used = int(mask.sum())
    idx = np.arange(1, n_terms + 1)[mask]
    if n_used >= 4:
        half = idx >= idx[len(idx) // 2]  # fit the asymptotic half
        x, y = idx[half] - idx[half].mean(), np.log(deltas[mask][half])
        fitted = float(np.exp((x * (y - y.mean())).sum() / (x * x).sum()))
        ratios = np.sort(deltas[mask][1:] / deltas[mask][:-1])
        median = float((ratios[(n_used - 2) // 2] + ratios[(n_used - 1) // 2]) / 2)
    else:
        fitted = median = float("nan")
    expected = spec.lam2_mod / abs(spec.lam_c) if abs(spec.lam_c) > 0 else float("nan")
    return PowerReport(fitted, median, expected, n_used)


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


def ray_limit(fn, z_c, t0):
    """Directional limits of fn(z) as z -> z_c along sector rays.

    Rays are z = z_c (1 + t e^{i psi}), psi in _RAY_ANGLES; each is
    extrapolated to t = 0 by a Neville tableau over t = t0 0.65^k,
    k = 0..19.  Returns the mean limit, the cross-ray spread, and the
    per-ray records.
    """
    ts = t0 * 0.65 ** np.arange(20)
    rays = []
    for psi in _RAY_ANGLES:
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


def leading_asymptotics(poly: PartitionPolynomial, anchors) -> AsymptoticsResult:
    """Limit of rho_n(z) (1 - z/z_c) / z^n at the dominant singularity, two ways.

    Route one extrapolates along rays that stay inside the sector away
    from the outward direction, starting at half the relative distance to
    the nearest competing zero.  Route two is the residue of the simple
    pole,

        -N(z_c) / (z_c^{n+1} Xi'(z_c)),

    with N the NumeratorFamily row at these anchors.  Xi and Xi' come from
    fixed_values on mp_scaled_coeffs at the zeros' certified digits, so the
    routes share Xi and their disagreement isolates extrapolation error.
    N is summed in float64; both bounds add its error, the integrals' plus
    (deg + 2) eps sum_k |N_k| |z_c|^k, over |z_c^{n+1} Xi'(z_c)|, which is
    as large as the limit where N(z_c) cancels.
    """
    from mpmath import mp

    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    n = anchors.shape[0]
    zs = zeros(poly)
    sm = smallest_zero(zs)
    z_c = sm.z_c
    t0 = 0.5 * sm.min_gap
    if not math.isfinite(t0) or t0 <= 0:
        raise Degenerate("no isolated smallest zero to expand around")

    fam = NumeratorFamily(poly)
    num, num_err = fam(n, anchors[None])[0], fam.last_error[0]
    with mp.workdps(zs.digits):  # Xi(z) and Xi'(z) are p(z/s) and p'(z/s)/s
        b, _ = poly.mp_scaled_coeffs()
        terms, s = fixed_terms(b), mp.mpf(poly.scale)

        def g(z):
            N = sum(c * z**k for k, c in enumerate(num))
            xi = fixed_values(terms, mp.mpc(z) / s, second=False)[0]
            return complex(N / xi) * (1.0 - z / z_c) / z**n

        ray_value, spread, rays = ray_limit(g, z_c, t0)
        dxi = fixed_values(terms, mp.mpc(z_c) / s, second=False)[1] / s
    lead = z_c ** (n + 1) * complex(dxi)
    residue = -sum(c * z_c**k for k, c in enumerate(num)) / lead  # -N(z_c) / lead
    size = sum(abs(c) * abs(z_c) ** k for k, c in enumerate(num))
    err_num = (sum(e * abs(z_c) ** k for k, e in enumerate(num_err))
               + (len(num) + 1) * np.finfo(float).eps * size) / abs(lead)
    ray_err = max(spread, max(r.change for r in rays)) + err_num
    return AsymptoticsResult(anchors, n, z_c, ray_value, spread, ray_err, residue, err_num,
                             abs(ray_value - residue), rays, float(t0))


@dataclass
class CoeffAsymptotics:
    growth_estimate: complex  # limit of t_{k+1}/t_k
    subexp_exponent: float
    fit_rate: float
    n_used: int


def coefficient_asymptotics(coeffs) -> CoeffAsymptotics:
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
    m = max(6, len(k) // 2)
    sel = k[-m:] >= 1
    kt = k[-m:][sel].astype(float)
    yt = np.log(np.abs(tv[-m:][sel]))
    X = np.column_stack([np.ones_like(kt), np.log(kt), kt])
    sol, *_ = np.linalg.lstsq(X, yt, rcond=None)
    return CoeffAsymptotics(growth, float(sol[1]), float(np.exp(sol[2])), len(kt))

