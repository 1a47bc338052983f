"""The integral-equation operator: matrix realization and residual checks.

Coefficient space.  On families whose level-m member is a constant times
the bare Boltzmann weight, the operator shifts coefficients down one level
while the lowest level picks up the linear constraint that ties the family
to the partition coefficients.  That action is the M x M companion matrix

    first row  (-c_1, ..., -c_M),   subdiagonal 1,

whose characteristic polynomial is lambda^M * Xi(1/lambda): eigenvalues
are exactly the reciprocals of the partition zeros.  This matrix is the
computational core; it is exact given the coefficients.

Function space.  The operator's direct form,

    (K phi)(x_1..x_n) = e^{-W} * sum_m (1/m!) *
        integral of prod_k f(x_1 - y_k) * phi(x'_2..x'_n, y_1..y_m) dy,

is implemented as a verifier only, with panel quadrature whose panels are
aligned to the contact lattice of the anchors.  The kernel vanishes beyond
the interaction range, so the y-integrals live on a short interval around
x_1; for hard rods every integrand is then piecewise polynomial on the
panels, and a family that declares its degree (panel_degree) gets the Gauss
node counts exact for it, capped by the order.  The nested panel nodes of
the ordered sector come from integrals.ordered_sector, the builder that
also integrates the anchored integrals the numerator family is made of,
here run on the windows of all the probes at once.  For a family that
vanishes on hard-core overlap, no panel is built where two rods overlap.
K acts on each entry of a family whose rows are arrays (phi.row_shape).
Both sides of the residual come from partition.NumeratorFamily, whose rows
do not depend on the batch they come in: the left side of each level is
one family call over all its probes, and the right side one batched
application over all the probes, with one family call for the m = 0 term,
one nest pass per rule and one family call per chunk of rows for a
quadrature term, and one per replicate for a sampled term.  Each probe's sum runs over its own rows in the order
a probe on its own would sum them, so batching moves no bit.

Truncation bookkeeping, fixed here once and used by the residual check:
times Xi_M, the truncated equations rho = z (delta + K rho) hold power by
power in z, as the z-free identity N^(M)_n[k] = delta_(n1) c_(k-1) +
(K N^(M-1))_n[k-1], k = 1..M, between numerator coefficients at degree M
and at degree M - 1 fed to the operator: with exact integrals its residual
is zero to rounding at every truncation.  The gap to the infinite system's
level-1 constant 1 (the genuine truncation tail) is reported separately.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .integrals import (_BLOCK, _SOBOL_REPLICATES, Box, contact_lattice, contact_lattice_rows,
                        ordered_sector, sobol_replicates)
from .partition import (NumeratorFamily, PartitionPolynomial, _gamma, evaluate,
                        smallest_pick, zeros)
from .potentials import PairPotential

_SOBOL_SAMPLES = 1 << 12
_ORDER_CAP = 1024  # Gauss nodes per panel: leggauss takes 0.2 s at 1024, 1 s at 2048
_CHUNK = _BLOCK // 128  # entries (cuts, next-level rows) at which a batch of probes splits
# dgebal's guards: sfmin1 = DLAMCH('S') / DLAMCH('P') = 2^-1022 / 2^-52, sfmin2 = 2 sfmin1
_SFMIN1, _SFMIN2, _SFMAX2 = 2.0**-970, 2.0**-969, 2.0**969


def _doublings(x, y, step=1, strict=True):
    """How many k >= 0 have x 2^(step k) < y (<= y unless strict), for x, y > 0."""
    (mx, ex), (my, ey) = math.frexp(x), math.frexp(y)
    t = ey - ex  # x 2^j < y for j < t, and at j = t as the mantissas compare
    return 0 if t < 0 else -(-t // step) + (t % step == 0 and (mx < my if strict else mx <= my))


def _guarded(k, big, small):
    """k doublings of big and halvings of small, or as many as keep big below sfmax2 and
    small above sfmin2 (dgebal's guards); both hold throughout if they hold at step k - 1."""
    if k and not (big * 2.0 ** (k - 1) < _SFMAX2 and _SFMIN2 * 2.0 ** (k - 1) < small):
        k = min(k, _doublings(big, _SFMAX2), _doublings(_SFMIN2, small))
    return k


class KSMatrix:
    """Companion realization at truncation M of poly: first row -c_1..-c_M, subdiagonal 1."""

    def __init__(self, poly: PartitionPolynomial):
        self.poly, self.scale, self.M = poly, poly.scale, poly.M

    @functools.cached_property
    def balancing(self):
        """(first row, subdiagonal, diagonal d) of D^{-1} C D, D = diag(d), once per matrix.

        C is the companion on b_m = c_m scale^m, whose eigenvalues are scale
        times the unscaled ones.  Balancing flattens the concave coefficient
        profile of larger boxes, which no geometric rescale can; projections
        and norm ratios are reported in this frame.  d is LAPACK dgebal's job
        'S' diagonal (Parlett & Reinsch, Numer. Math. 13, 1969), bit for bit
        scipy's matrix_balance(C, permute=False): radix-2 sweeps, 2-norms with
        the diagonal, factor 0.95, the sfmin/sfmax guards, each power of 2
        from frexp.  A column of C holds two entries, a row past the first one.
        """
        b, M = self.poly.scaled_coeffs(), self.M
        row, sub, d = (-b[1:]).tolist(), [0.0] + [1.0] * (M - 1) + [0.0], [1.0] * M
        rescaled = True
        while rescaled:
            rescaled = False
            for i in range(M):
                c, ca = math.hypot(row[i], sub[i + 1]), max(abs(row[i]), abs(sub[i + 1]))
                r, ra = (abs(sub[i]),) * 2 if i else (math.hypot(*row), max(map(abs, row)))
                if c == 0 or r == 0:
                    continue
                # dgebal doubles c while c < r / 2, else halves it while c / 2 >= r (c 2^k
                # against r 2^-k): one loop runs, its count read off the exponents
                s = c + r
                k = (_guarded(_doublings(c, r / 2, 2), max(1.0, c, ca), min(r / 2, ra))
                     or -_guarded(_doublings(r, c / 2, 2, strict=False), max(r, ra),
                                  min(1.0, c / 2, ca)))
                f, c, r = 2.0**k, c * 2.0**k, r / 2.0**k
                if (c + r >= 0.95 * s or (f < 1 and d[i] < 1 and f * d[i] <= _SFMIN1)
                        or (f > 1 and d[i] > 1 and d[i] >= 2.0**970 / f)):
                    continue
                d[i], g, rescaled = d[i] * f, 1 / f, True
                if i:
                    sub[i] *= g
                else:
                    row = [x * g for x in row]
                row[i], sub[i + 1] = row[i] * f, sub[i + 1] * f
        out = np.array(row), np.array(sub[1:M]), np.array(d)
        for x in out:
            x.flags.writeable = False
        return out

    def to_json(self):
        return {
            "M": self.M,
            "first_row": [float(v) for v in -self.poly.coeffs[1:]],  # unscaled: -c_1..-c_M
            "scale": self.scale,
        }


def build_ks_matrix(poly: PartitionPolynomial) -> KSMatrix:
    """Companion matrix of the truncated operator from a partition polynomial; its
    entries b_m = c_m scale^m are float64, so NumericalError past that range."""
    if poly.M < 1:
        raise ConfigError("need M >= 1 to build the operator matrix")
    poly.scaled_coeffs()
    return KSMatrix(poly)


# -- anchored-function families -------------------------------------------------


class CallableFamily:
    """Wrap a user function (level, configs) -> values as a family.

    Set vanishes_on_overlap only for functions that are zero whenever two
    arguments come closer than the hard core; it unlocks a packing cutoff
    in the operator quadrature that is wrong for anything else.
    """

    def __init__(self, fn, vanishes_on_overlap=False):
        self.fn = fn
        self.vanishes_on_overlap = vanishes_on_overlap

    def __call__(self, level, configs):
        return np.asarray(self.fn(level, np.asarray(configs, dtype=float)), dtype=complex)


# -- direct application by quadrature -------------------------------------------


def _kernel_window(p: PairPotential, box: Box, x1):
    """(lo, hi) around first anchors x1, clipped at the walls (empty if hi <= lo), or None."""
    r = p.interaction_range
    if r <= 0:
        return None
    return np.maximum(0.0, x1 - r), np.minimum(box.extents[0], x1 + r)


def _sector_nodes(p, box, x1, rest, nodes, kmax, prune=False):
    """Chunks (rows (R, m), weights, owner) of the ordered sectors y_1 <= ... <= y_m in
    the kernel windows of probes x1 (P,) with other anchors rest (P, n - 1).

    integrals.ordered_sector with nodes[k - 1] nodes per panel at level k,
    m = len(nodes), cut at each probe's contact lattice inside its window
    (offsets k*a, k >= 2, never cut it).  prune keeps just the rows
    where a family that vanishes on hard-core overlap is nonzero, bit for
    bit and in order.  Chunks of several probes stay within _CHUNK rows.
    """
    window = _kernel_window(p, box, x1)
    if window is None:
        return
    lo, hi = window
    a, m = p.interaction_range, len(nodes)
    if prune:  # m rods overlap in a window of width (m - 1) * a or less: no rows
        hi = np.where((m - 1) * a < hi - lo, hi, lo)
    if not np.any(hi > lo):
        return
    static = contact_lattice_rows(box.extents[0], a, kmax, np.column_stack([rest, x1]))
    inside = (static > lo[:, None]) & (static < hi[:, None])
    static = np.sort(np.where(inside, static, hi[:, None]), axis=1)
    for rows, weights, owner in ordered_sector(
            lo, hi, static[:, : inside.sum(axis=1).max()], a, nodes, gap=a if prune else 0.0,
            exclude=rest if prune else None, budget=math.inf, split=_CHUNK):
        if rows.shape[1] == m and len(rows):
            yield rows, weights, owner


def _per_row(x, vals):
    """Per-row x (R,) shaped to broadcast against family values vals (R, ...)."""
    return x.reshape(x.shape + (1,) * (vals.ndim - 1))


def _row_zeros(phi, count):
    """Complex value and real error accumulators of shape (count,) + phi.row_shape."""
    shape = (count,) + getattr(phi, "row_shape", ())
    return np.zeros(shape, dtype=complex), np.zeros(shape)


def _term_quadrature(p, box, phi, n, x1, rest, nodes, kmax, prune):
    """One m-term of the operator sum (without the e^{-W} prefactor) and its carried
    error per probe (and row entry), over first anchors x1 (P,) and the rest (P, n - 1).
    The m = 0 term (no nodes) is one family call at every probe's other anchors;
    a term m = len(nodes) >= 1 makes one family call per chunk of its nest's rows."""
    m = len(nodes)
    if m == 0:  # the family at the other anchors
        val = phi(n - 1, rest[:, :, None])
        return val, np.zeros(val.shape) + getattr(phi, "last_error", 0.0)
    val, carried = _row_zeros(phi, len(x1))
    # ordered sector times m! cancels the 1/m! prefactor
    for ys, ws, probe in _sector_nodes(p, box, x1, rest, nodes, kmax, prune):
        # np.prod's order over the m factors, a column at a time rather than a row
        kern = functools.reduce(np.multiply, p.mayer_f(np.abs(ys - x1[probe, None])).T)
        vals = phi(n - 1 + m, np.concatenate([rest[probe], ys], axis=1)[:, :, None])
        wk = ws * kern
        werr = _per_row(np.abs(wk), vals) * getattr(phi, "last_error", 0.0)
        # each probe's sum over its own rows, as a batch of one sums them
        ends = [0, *((probe[1:] != probe[:-1]).nonzero()[0] + 1).tolist(), len(probe)]
        for s, e in zip(ends[:-1], ends[1:]):
            val[probe[s]], carried[probe[s]] = np.dot(wk[s:e], vals[s:e]), werr[s:e].sum(axis=0)
    return val, carried


def _panel_nodes(phi, n, m, order, inner_order, kmax):
    """Gauss nodes per level, (fine, coarse), of the m-term's nest at level n: the order
    rule, or, where phi.panel_degree(n - 1 + m) = d declares a polynomial of total
    degree d on each cell of the cuts, floor((d + m - k) / 2) + 1 at level k (each
    inner integral over a cut-dependent limit adds a degree) and one more, capped by
    the order rule.  The lattice must reach the breakpoints, offsets to (d + 1) a
    shifted by the m - 1 inner cuts y + a: kmax >= d + m."""
    fine = [order] + [inner_order] * (m - 1)
    coarse = [max(4, order // 2)] + [max(6, inner_order - 3)] * (m - 1)
    d = phi.panel_degree(n - 1 + m) if hasattr(phi, "panel_degree") else None
    if d is None or kmax < d + m:
        return fine, coarse
    exact = [max(1, (d + m - k) // 2 + 1) for k in range(1, m + 1)]
    return [min(f, e + 1) for f, e in zip(fine, exact)], [min(c, e) for c, e in zip(coarse, exact)]


def _term_sampled(p, box, phi, n, x1, rest, m, seed):
    """One m-term and its error per probe and row entry from one replicate-sampled
    pass: every probe averages over the same Sobol points, mapped onto its window,
    with one family call per replicate over all the probes' points."""
    val, err = _row_zeros(phi, len(x1))
    window = _kernel_window(p, box, x1)
    if window is None:
        return val, err
    live = np.flatnonzero(window[1] > window[0])
    lo, width = window[0][live], (window[1] - window[0])[live]
    x1, rest, level = x1[live], rest[live], n - 1 + m
    scale = np.array([w**m for w in width.tolist()])  # Python's pow, as a batch of one had

    def estimate(u):  # one family call over every live probe's copy of the points
        ys = (lo[:, None, None] + width[:, None, None] * u).reshape(-1, m)
        kern = np.prod(p.mayer_f(np.abs(ys - np.repeat(x1, len(u))[:, None])), axis=1)
        configs = np.concatenate([np.repeat(rest, len(u), axis=0), ys], axis=1)
        vals = phi(level, configs[:, :, None])
        kern = _per_row(kern, vals)
        carried = np.abs(kern) * getattr(phi, "last_error", 0.0)
        means = np.stack([kern * vals, carried]).reshape((2, len(live), -1) + vals.shape[1:])
        return means.mean(axis=2) * _per_row(scale, vals)

    mean, spread = sobol_replicates(m, _SOBOL_SAMPLES, seed, _SOBOL_REPLICATES, estimate)
    fac = math.factorial(m)
    val[live] = (mean[0].view(float) / fac).view(mean.dtype)  # part by part, as complex / int
    err[live] = (spread[0] + mean[1].real) / fac
    return val, err


def apply_ks_function(p: PairPotential, box: Box, phi, n, anchors, M, order=64, seed=42):
    """(K phi) at a batch of anchor configurations (P, n, dim), summed over m = 0..M-n.

    Returns values and error bounds of shape (P,) plus phi.row_shape, the
    trailing axes of a family whose rows are arrays (K acts on each entry);
    one configuration (n, dim) is a batch of one and gives one row, scalars
    for a family of numbers.  For n = 1 the sum starts at m = 1: the
    empty-product constant term of the first equation is the caller's to
    add.  phi is a family callable (level, configs) -> values; order caps
    the Gauss nodes per panel, which phi.panel_degree can make exact
    (_panel_nodes).  The bound covers quadrature (order refinement),
    sampling (replicate spread) and the per-row errors a family leaves in
    phi.last_error.  Each term is built for all probes with e^{-W} != 0 at
    once, and each probe's rows are summed as a batch of one sums them: no
    value depends on the batch.
    """
    if box.dimension != 1:
        raise ConfigError(f"the operator application is one-dimensional; the box has "
                          f"{box.dimension} axes")
    anchors = np.asarray(anchors, dtype=float)
    single = anchors.ndim < 3
    batch = np.atleast_2d(anchors)[None] if single else anchors
    if batch.shape[1] != n:
        raise ConfigError("anchor count does not match the level n")
    eW = p.cross_weights(batch)
    live = np.flatnonzero(eW != 0.0)
    x1, rest = batch[live, 0, 0], batch[live, 1:, 0]

    kmax = min(M + 1, 12)
    inner_order = max(8, min(order, M + n + 4))
    total, err = _row_zeros(phi, len(live))
    # the kernel does not keep the y's apart: only a family that dies on
    # overlaps licenses pruning, and it zeroes every term past two kernel
    # coordinates (a window spans two rod diameters).  Other families' terms
    # past two are sampled (nested panels are combinatorial) with their spread
    pruned = p.family == "hardcore" and getattr(phi, "vanishes_on_overlap", False)
    for m in range(0 if n > 1 else 1, M - n + 1):
        if m >= 3 and not pruned:
            val, e = _term_sampled(p, box, phi, n, x1, rest, m, seed + m)
            total, err = total + val, err + e
            continue
        nodes = _panel_nodes(phi, n, m, order, inner_order, kmax) if m else ([], [])
        fine, carried = _term_quadrature(p, box, phi, n, x1, rest, nodes[0], kmax, pruned)
        err += carried
        if m >= 1:
            coarse, _ = _term_quadrature(p, box, phi, n, x1, rest, nodes[1], kmax, pruned)
            d = fine - coarse  # np.hypot rounds |.| as Python's abs does; np.abs may not
            err += 2.0 * np.hypot(d.real, d.imag) + 1e-15 * np.hypot(fine.real, fine.imag)
        total += fine
    value, bound = _row_zeros(phi, len(batch))
    weight = _per_row(eW[live], total)
    value[live], bound[live] = weight * total, weight * err
    if not single:
        return value, bound
    return (value[0], bound[0]) if value.ndim > 1 else (complex(value[0]), float(bound[0]))


# -- residual of the full system --------------------------------------------------


@dataclass
class LevelResidual:
    n: int
    sup_residual: float
    error_bound: float
    truncation_gap: float  # what the infinite system's level-1 constant 1 would add
    n_probes: int
    sup_rho: float
    coefficient_residual: float  # worst residual of the z-free identity, over k and probes
    coefficient_bound: float


@dataclass
class KSResidualReport:
    z: complex
    M: int
    order: int
    levels: list

    @property
    def sup_residual(self):
        return max(l.sup_residual for l in self.levels)

    @property
    def error_bound(self):
        return max(l.error_bound for l in self.levels)

    def to_json(self):
        return {
            "z": [self.z.real, self.z.imag],
            "M": self.M,
            "strategy": "quadrature",  # the one route and constant, kept so payloads diff
            "order": self.order,
            "constant_term": "consistent",
            "sup_residual": self.sup_residual,
            "error_bound": self.error_bound,
            "levels": [
                {
                    "n": l.n,
                    "sup_residual": l.sup_residual,
                    "error_bound": l.error_bound,
                    "truncation_gap": l.truncation_gap,
                    "n_probes": l.n_probes,
                    "sup_rho": l.sup_rho,
                    "coefficient_residual": l.coefficient_residual,
                    "coefficient_bound": l.coefficient_bound,
                }
                for l in self.levels
            ],
        }


def probe_anchor_sets(box: Box, p: PairPotential, n, count=64):
    """Deterministic probe configurations for level n.

    Level 1 walks a uniform grid densified near the contact lattice; higher
    levels pair a coarser grid of first anchors with fixed admissible
    companion offsets (and one overlapping companion, which must give a
    zero row on both sides of the equation).
    """
    L = box.extents[0]
    a = p.interaction_range
    base = [(i + 0.5) * L / count for i in range(count)]
    if a > 0:
        for bp in contact_lattice(L, a, 3):
            for off in (-0.03 * a, 0.03 * a):
                q = bp + off
                if 0 < q < L:
                    base.append(q)
    base = sorted(base)
    if n == 1:
        return [np.array([[x]]) for x in base]
    step = max(1.2 * a, 0.15 * L) if a > 0 else 0.2 * L
    coarse = base[:: max(1, len(base) // 8)]
    sets = []
    for x in coarse:
        offs = [x + j * step for j in range(1, n)]
        if offs and offs[-1] < L:
            sets.append(np.array([[x]] + [[o] for o in offs]))
    if a > 0 and n == 2:
        x = L / 2.0
        sets.append(np.array([[x], [min(L, x + 0.4 * a)]]))  # overlapping pair
    return sets


def ks_residual(poly: PartitionPolynomial, z, n_max, order=64, count=64,
                seed=42) -> KSResidualReport:
    """Residual of the truncated integral-equation system at activity z.

    Each level checks the z-free identity of the module docstring at its
    probes and reports the worst coefficient residual R_k and bound B_k: the
    integrals' errors, the operator's bound, two roundings of the difference
    and, at level 1, c_(k-1)'s table error and float64 rounding.  The residual
    at z is derived, r = sum_k z^k R_k / Xi_M(z), with bound sum_k |z|^k B_k /
    |Xi_M| plus the sum's rounding and |r| times Xi's relative error.
    truncation_gap is |z| |c_M z^M / Xi_M|, what the constant 1 in place of
    Xi_(M-1) / Xi_M would add at level 1.
    """
    p, box = poly.potential, poly.box
    M = poly.M
    if box.dimension != 1:
        raise ConfigError(f"the residual check is one-dimensional; the box has "
                          f"{box.dimension} axes")
    if not cmath.isfinite(z):
        raise ConfigError(f"activity z = {z} is not finite")
    if n_max < 1 or n_max > M - 1:
        raise ConfigError("need 1 <= n_max <= M-1")
    if order < 2:
        raise ConfigError(f"quadrature order {order} is below 2")
    if order > _ORDER_CAP:
        raise ConfigError(f"quadrature order {order} is above the cap of {_ORDER_CAP}")
    if count < 1:
        raise ConfigError(f"probe count {count} is below 1")
    z_c = smallest_pick(zeros(poly))  # its certificate is never printed here
    if abs(z) >= abs(z_c):
        raise ConfigError(f"|z| = {abs(z)} is not below the smallest zero modulus {abs(z_c)}")

    numerators, fed = NumeratorFamily(poly), NumeratorFamily(poly, degree=M - 1)
    xi, cond = evaluate(poly, z)
    xi_rel = (np.polyval(poly.coeff_errors[::-1], abs(z)) + _gamma(M + 1) * cond) / abs(xi)
    trunc_gap = abs(z) * abs(poly.coeffs[-1] * z**M / xi)
    zpow = complex(z) ** np.arange(1, M + 1)  # powers k = 1..M; N_n[0] = 0 for n >= 1
    azpow = np.abs(zpow)
    c = poly.coeffs[:M]
    # c_m = exp(log|Z_m| - lgamma(m + 1)), where a closed form's m log(free) rounds
    # twice: hard rods at L = 20 reach 0.72 of this bound
    c_err = poly.coeff_errors[:M] + np.array(
        [2 * (abs(e.log_value) + math.lgamma(e.m + 1) + 1) * 2.0**-53 * abs(cm) if e.sign
         else 0.0 for e, cm in zip(poly.table.entries, c.tolist())])

    levels = []
    for n in range(1, n_max + 1):
        probes = probe_anchor_sets(box, p, n, count=count)
        if not probes:
            raise ConfigError(f"no probe configuration fits level {n} in the box; "
                              f"lower n_max or raise the probe count")
        lhs = numerators(n, np.array(probes))[:, 1:]
        ops, op_errs = apply_ks_function(p, box, fed, n, np.array(probes), M, order=order,
                                         seed=seed)
        rhs = ops + c if n == 1 else ops
        res = lhs - rhs
        bound = (numerators.last_error[:, 1:] + op_errs + (c_err if n == 1 else 0.0)
                 + _gamma(2) * (np.abs(lhs) + np.abs(rhs)))
        r = (res * zpow).sum(axis=1) / xi
        r_bound = ((bound * azpow).sum(axis=1) + _gamma(2 * M + 1)
                   * (np.abs(res) * azpow).sum(axis=1)) / abs(xi) + np.abs(r) * xi_rel
        rho = (lhs * zpow).sum(axis=1) / xi
        levels.append(LevelResidual(
            n, float(np.abs(r).max()), float(r_bound.max()), trunc_gap if n == 1 else 0.0,
            len(probes), float(np.abs(rho).max()), float(np.abs(res).max()),
            float(bound.max())))
    return KSResidualReport(complex(z), M, order, levels)
