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
panels and the quadrature is exact to rounding.  The nested panel nodes of
the ordered sector come from integrals.ordered_sector, the builder that
also integrates the anchored integrals the correlation family is made of,
here run on one window.  For a family that vanishes on hard-core overlap,
no panel is built where two rods overlap.  The correlations on both sides
come from partition.CorrelationFamily, re-exported here: the left side of
each level is one family call over all its probes.

Truncation bookkeeping, fixed here once and used by the residual check:
with the degree-M family on the left, the exact finite-truncation identity
feeds the operator the degree-(M-1) family and, at level 1, replaces the
inhomogeneous constant 1 by Xi_{M-1}/Xi_M.  With exact integrals the
residual of that discrete system is zero to rounding at every truncation;
the gap to the constant-1 form (the genuine truncation tail) is reported
separately.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError
from .integrals import (Box, contact_lattice, contact_lattice_rows, ordered_sector,
                        sobol_replicates)
from .partition import (CorrelationFamily, PartitionPolynomial, scaled_coefficients,
                        smallest_zero, zeros)
from .potentials import PairPotential

_SOBOL_SAMPLES = 1 << 12


@dataclass
class KSMatrix:
    """Companion realization of the operator at truncation M."""

    matrix: np.ndarray  # unscaled, first row -c_1..-c_M, subdiagonal 1
    scale: float
    coeffs: np.ndarray  # c_0..c_M of the underlying polynomial

    @property
    def M(self):
        return self.matrix.shape[0]

    def scaled_matrix(self):
        """Similarity-equivalent companion built on b_m = c_m * scale^m.

        Its eigenvalues are scale times the unscaled ones; eigensolvers run
        on this better-conditioned variant and divide out the scale.
        Raises NumericalError when b leaves the float64 range.
        """
        b = scaled_coefficients(self.coeffs, self.scale)
        out = np.zeros_like(self.matrix)
        out[0, :] = -b[1:]
        out[1:, :-1] = np.eye(self.M - 1)
        return out

    @functools.cached_property
    def balancing(self):
        """(balanced scaled companion, read-only; balancing diagonal), once per matrix.

        From hard rods L = 70 on scipy's balancer warns of an invalid cast
        while its diagonal stays finite and positive, which is checked here.
        """
        from scipy.linalg import matrix_balance

        with np.errstate(invalid="ignore"):
            out, T = matrix_balance(self.scaled_matrix(), permute=False)
        d = np.diag(T)
        if not np.all(np.isfinite(d) & (d > 0)):
            raise NumericalError("diagonal balancing of the companion left the float64 range")
        out.flags.writeable = False
        return out, d

    def conditioned_matrix(self):
        """Balanced scaled companion for resolvent work.

        A single geometric rescale cannot flatten the concave coefficient
        profile of larger boxes; diagonal balancing can, and contour
        integrals of the resolvent need it.  Same eigenvalues (times scale);
        projections and norm ratios are reported in this frame.
        """
        return self.balancing[0]

    def to_json(self):
        return {
            "M": self.M,
            "first_row": [float(v) for v in self.matrix[0]],
            "scale": self.scale,
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
        return path


def build_ks_matrix(poly: PartitionPolynomial, scale=None) -> KSMatrix:
    """Companion matrix of the truncated operator from a partition polynomial."""
    if poly.M < 1:
        raise ConfigError("need M >= 1 to build the operator matrix")
    c = poly.coeffs
    M = poly.M
    mat = np.zeros((M, M))
    mat[0, :] = -c[1:]
    mat[1:, :-1] = np.eye(M - 1)
    return KSMatrix(mat, poly.scale if scale is None else float(scale), c.copy())


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
    r = p.interaction_range
    if r <= 0:
        return None
    lo = max(0.0, x1 - r)
    hi = min(box.extents[0], x1 + r)
    if hi - lo <= 0:
        return None
    return lo, hi


def _static_breaks(p, box, anchors_1d, kmax):
    return contact_lattice_rows(box.extents[0], p.interaction_range, kmax, anchors_1d[None])[0]


def _ordered_nodes(p, box, x1, rest_coords, m, order, inner_order, kmax, prune=False):
    """Node rows and weights for the ordered sector y_1 <= ... <= y_m in the window.

    integrals.ordered_sector on the kernel window, with `order` nodes per
    panel at level 1 and `inner_order` below, cut at the anchors' contact
    lattice (anchors included).  Offsets y + k*a with k >= 2 never cut the
    window, which lies inside [x1 - a, x1 + a].  prune drops the panels on
    which a family that vanishes on hard-core overlap is zero; the rows
    left are the unpruned nonzero rows, bit for bit and in order.
    """
    window = _kernel_window(p, box, x1)
    if window is None:
        return np.empty((0, m)), np.empty(0)
    a = p.interaction_range
    static = _static_breaks(p, box, np.append(rest_coords, x1), kmax)[None]
    *_, (rows, weights, _) = ordered_sector(
        np.array(window[:1]), np.array(window[1:]), static, a, [order] + [inner_order] * (m - 1),
        gap=a if prune else 0.0, exclude=rest_coords[None] if prune else None, budget=math.inf)
    return rows, weights


def _term_quadrature(p, box, phi, n, x1, rest, m, order, inner_order, kmax):
    """One m-term of the operator sum (without the e^{-W} prefactor) and its carried error."""
    if m == 0:
        val = complex(phi(n - 1, rest.reshape(1, n - 1, 1))[0])
        return val, float(np.sum(getattr(phi, "last_error", 0.0)))
    # ordered sector times m! cancels the 1/m! prefactor
    # the kernel itself does not exclude the y's from each other; only a
    # family that dies on overlaps justifies the packing cutoff and pruning
    prune = p.family == "hardcore" and getattr(phi, "vanishes_on_overlap", False)
    if prune:
        window = _kernel_window(p, box, x1)
        if window is None or (m - 1) * p.a >= window[1] - window[0]:
            return 0.0 + 0.0j, 0.0
    ys, ws = _ordered_nodes(p, box, x1, rest, m, order, inner_order, kmax, prune=prune)
    if len(ws) == 0:
        return 0.0 + 0.0j, 0.0
    kern = np.prod(p.mayer_f(np.abs(ys - x1)), axis=1)
    level = n - 1 + m
    configs = np.concatenate(
        [np.broadcast_to(rest, (len(ws), n - 1)), ys], axis=1
    ).reshape(-1, level, 1)
    vals = phi(level, configs)
    wk = ws * kern
    return complex(np.dot(wk, vals)), float(np.sum(np.abs(wk) * getattr(phi, "last_error", 0.0)))


def _term_sampled(p, box, phi, n, x1, rest, m, seed):
    window = _kernel_window(p, box, x1)
    if window is None:
        return 0.0 + 0.0j, 0.0
    lo, hi = window
    level = n - 1 + m

    def estimate(u):
        ys = lo + (hi - lo) * u
        kern = np.prod(p.mayer_f(np.abs(ys - x1)), axis=1)
        configs = np.concatenate(
            [np.broadcast_to(rest, (len(ys), n - 1)), ys], axis=1
        ).reshape(-1, level, 1)
        vals = phi(level, configs)
        carried = np.abs(kern) * getattr(phi, "last_error", 0.0)
        return np.array([np.mean(kern * vals), np.mean(carried)]) * (hi - lo) ** m

    mean, spread = sobol_replicates(m, _SOBOL_SAMPLES, seed, 8, estimate)
    fac = math.factorial(m)
    return complex(mean[0]) / fac, (float(spread[0]) + mean[1].real) / fac


def apply_ks_function(p: PairPotential, box: Box, phi, n, anchors, M,
                      strategy="quadrature", order=64, seed=42):
    """(K phi) at one anchor configuration, summed over m = 0..M-n.

    For n = 1 the sum starts at m = 1: the empty-product constant term of
    the first equation is the caller's to add.  phi is a family callable
    (level, configs) -> values.  Returns (value, error_bound); the bound
    covers quadrature (order refinement) or sampling (replicate spread) and
    the per-row errors a family leaves in phi.last_error.
    """
    if box.dimension != 1 and strategy == "quadrature":
        raise ConfigError("quadrature application is one-dimensional; use sampling")
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    if anchors.shape[0] != n:
        raise ConfigError("anchor count does not match the level n")
    x1 = float(anchors[0, 0])
    rest = anchors[1:, 0].copy()

    if n == 1:
        eW = 1.0
        m_start = 1
    else:
        _, eW = p.cross_energy(anchors[0], anchors[1:])
        m_start = 0
        if eW == 0.0:
            return 0.0 + 0.0j, 0.0

    kmax = min(M + 1, 12)
    inner_order = max(8, min(order, M + n + 4))
    total = 0.0 + 0.0j
    err = 0.0
    # families that die on overlaps zero every term past two kernel
    # coordinates (the window holds at most two rod diameters); for any
    # other family those terms exist but nested panel quadrature over them
    # is combinatorial, so they go to the replicate-sampled route and
    # carry its spread in the bound
    packing_pruned = p.family == "hardcore" and getattr(
        phi, "vanishes_on_overlap", False
    )
    for m in range(m_start, M - n + 1):
        sample_term = (strategy == "sampling" or (m >= 3 and not packing_pruned))
        if sample_term and m >= 1:
            val, e = _term_sampled(p, box, phi, n, x1, rest, m, seed + m)
            total += val
            err += e
            continue
        fine, carried = _term_quadrature(p, box, phi, n, x1, rest, m, order, inner_order, kmax)
        err += carried
        if m >= 1:
            coarse, _ = _term_quadrature(p, box, phi, n, x1, rest, m,
                                         max(4, order // 2), max(6, inner_order - 3), kmax)
            err += 2.0 * abs(fine - coarse) + 1e-15 * abs(fine)
        total += fine
    return eW * total, eW * err


# -- residual of the full system --------------------------------------------------


@dataclass
class LevelResidual:
    n: int
    sup_residual: float
    error_bound: float
    truncation_gap: float  # |consistent constant - 1| contribution at this level
    n_probes: int
    sup_rho: float


@dataclass
class KSResidualReport:
    z: complex
    M: int
    strategy: str
    order: int
    constant_term: str
    levels: list
    probe_spacing: str = "uniform plus contact offsets"

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
            "strategy": self.strategy,
            "order": self.order,
            "constant_term": self.constant_term,
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


def ks_residual(poly: PartitionPolynomial, z, n_max, strategy="quadrature",
                order=64, count=64, constant_term="consistent", seed=42) -> KSResidualReport:
    """Residual of the truncated integral-equation system at activity z.

    The left side is the correlation family at degree M; the operator is
    fed the degree-(M-1) family, which is the exact discrete pairing.  With
    constant_term="consistent" the level-1 inhomogeneity is Xi_{M-1}/Xi_M
    (exact at finite M, default); "unit" uses the constant 1 of the
    infinite system, appropriate for families given in closed form.
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
    if count < 1:
        raise ConfigError(f"probe count {count} is below 1")
    z_c = smallest_zero(zeros(poly)).z_c
    if abs(z) >= abs(z_c):
        raise ConfigError(f"|z| = {abs(z)} is not below the smallest zero modulus {abs(z_c)}")

    rho = CorrelationFamily(poly, z)
    fam = CorrelationFamily(poly, z, degree=M - 1)
    xi_lower = complex(np.polyval(poly.coeffs[:-1][::-1], z))
    const = xi_lower / rho.xi if constant_term == "consistent" else 1.0
    trunc_gap = abs(z) * abs(xi_lower / rho.xi - 1.0)

    levels = []
    for n in range(1, n_max + 1):
        sup_r = sup_b = 0.0
        probes = probe_anchor_sets(box, p, n, count=count)
        if not probes:
            raise ConfigError(f"no probe configuration fits level {n} in the box; "
                              f"lower n_max or raise the probe count")
        lhs = rho(n, np.array(probes))
        for anchors, value, error in zip(probes, lhs, rho.last_error):
            op, op_err = apply_ks_function(p, box, fam, n, anchors, M,
                                           strategy=strategy, order=order, seed=seed)
            rhs = z * (const + op) if n == 1 else z * op
            sup_r = max(sup_r, abs(value - rhs))
            sup_b = max(sup_b, error + abs(z) * op_err)
        sup_rho = max(abs(value) for value in lhs)
        sup_b = max(sup_b, 1e-15 * (abs(z) + sup_rho))  # roundoff floor
        levels.append(LevelResidual(n, sup_r, sup_b, trunc_gap if n == 1 else 0.0,
                                    len(probes), sup_rho))
    return KSResidualReport(complex(z), M, strategy, order, constant_term, levels)


# -- weighted sup norm of coefficient families -------------------------------------


def dxi_norm(a, xi, p: PairPotential = None, box: Box = None, seed=11, n_probe=200):
    """Weighted norm sup_m |a_m| xi^{-m} esssup exp(-beta U) at truncation M.

    a holds the level constants a_1..a_M.  For nonnegative potentials the
    ess-sup factor is exactly 1; otherwise it is estimated on a seeded
    probe grid of configurations per level.
    """
    a = np.asarray(a, dtype=float)
    M = len(a)
    if xi <= 0:
        raise ConfigError("xi must be positive")
    if p is None or p.is_positive:
        factors = np.ones(M)
    else:
        rng = np.random.default_rng(seed)
        ext = np.asarray(box.extents)
        factors = np.empty(M)
        for m in range(1, M + 1):
            best = 0.0
            pts = rng.uniform(0.0, 1.0, size=(n_probe, m, box.dimension)) * ext
            w = p.weights_many(pts)
            best = float(w.max()) if len(w) else 1.0
            factors[m - 1] = max(best, 1.0 if m == 1 else best)
    m_idx = np.arange(1, M + 1)
    return float(np.max(np.abs(a) * xi ** (-m_idx.astype(float)) * factors))
