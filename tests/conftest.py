"""Shared fixture builders for the test suite."""

import math

import numpy as np
import pytest

from kslab.integrals import Box, IntegralTable, ZEntry, build_table, panel_rule
from kslab.partition import assemble, scaled_coefficients
from kslab.potentials import PairPotential
from kslab.slog import SLog


def make_tonks(L, M=None, a=1.0):
    """Hard rods on a segment, exact table, default truncation past packing."""
    p = PairPotential.hardcore(a)
    if M is None:
        M = int(math.floor(L / a)) + 1
    return assemble(build_table(p, Box((float(L),)), M))


def make_ideal(V=1.0, M=8):
    p = PairPotential.ideal(dimension=1)
    return assemble(build_table(p, Box((float(V),)), M))


def poly_from_coeffs(c, scale=None):
    """Partition polynomial with prescribed coefficients c_0..c_M.

    Entries are tagged synthetic so the exact-coefficient rebuild stays
    off and the plain float64 pipeline is what gets exercised.
    """
    c = np.asarray(c, dtype=float)
    p = PairPotential.hardcore(1.0)
    box = Box((float(len(c)),))
    entries = [
        ZEntry(m, SLog.from_value(c[m] * math.factorial(m)), 0.0, "synthetic")
        for m in range(len(c))
    ]
    table = IntegralTable(p, box, len(c) - 1, entries)
    return assemble(table, scale=scale)


def companion(ks):
    """ks's companion on b_m = c_m scale^m as a dense matrix: first row -b_1..-b_M,
    subdiagonal 1."""
    b = scaled_coefficients(ks.coeffs, ks.scale)
    out = np.eye(ks.M, k=-1)
    out[0] = -b[1:]
    return out


def balanced(ks):
    """The balanced companion as a dense matrix, from ks.balancing's first row and
    subdiagonal."""
    row, sub, _ = ks.balancing
    out = np.diag(sub, -1)
    out[0] = row
    return out


def dense_laurent(gens):
    """Dense P = u nu^T and S = -v c^T (c_ij = c_j on i >= j, t_j above) - y nu^T from
    the closed form's generators."""
    g = gens["S"]
    masked = np.where(np.tri(len(g["v"]), dtype=bool), g["c"], g["t"])
    return (np.outer(gens["P"]["u"], gens["P"]["nu"]),
            -g["v"][:, None] * masked - np.outer(g["y"], g["nu"]))


def rel_err(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


@pytest.fixture(scope="session")
def tonks5():
    return make_tonks(5.0)


def _compositions(total, parts):
    """All tuples of nonnegative ints of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def hardrod_composition_sum(L, a, anchors, m):
    """Reference hard-rod A_m of anchor rows (nc, n): every way of spreading
    m labeled rods over the gaps.

    Each distribution (k_0..k_n) contributes the multinomial m!/prod k_i!
    times the per-gap free volumes (g_i - (k_i - 1)a)_+^k_i; rows with
    overlapping anchors are zero.
    """
    nc, n = anchors.shape
    srt = np.sort(anchors, axis=1)
    gaps = np.full((nc, 1), L)
    if n:
        gaps = np.concatenate([srt[:, :1] - a, np.diff(srt, axis=1) - 2.0 * a,
                               L - srt[:, -1:] - a], axis=1)
    out = np.zeros(nc)
    for comp in _compositions(m, n + 1):
        coef = math.factorial(m)
        term = np.ones(nc)
        for k, g in zip(comp, gaps.T):
            coef //= math.factorial(k)
            term = term * np.where(g - (k - 1) * a > 0.0, g - (k - 1) * a, 0.0) ** k
        out += coef * term
    out[(np.diff(srt, axis=1) < a).any(axis=1)] = 0.0
    return out


def sector_reference(p, L, anchors, j):
    """Reference A_j / j! at 1-D anchor coordinates, by depth-first recursion.

    The sector 0 < y_1 < ... < y_j < L, one panel_rule per placed prefix,
    cut at the walls' and anchors' offsets c*a (c <= j + 1), at the anchors
    and at y + c*a (c = 1, 2, 3) of every coordinate already placed, with
    j + 1 Gauss nodes per panel.  For a piecewise-constant pair weight the
    inner integrals are polynomials of degree below 2(j + 1) on those
    panels, so the sum is exact up to rounding.  The last coordinate's
    nodes are weighed in one p.weights_many call per prefix.
    """
    anchors = [float(x) for x in anchors]
    a = p.interaction_range
    static = [c * a for c in range(1, j + 2)] + [L - c * a for c in range(1, j + 2)]
    static += [x + c * a for x in anchors for c in range(-j - 1, j + 2)]

    def rec(prefix, wacc):
        cuts = static + [y + c * a for y in prefix for c in (1, 2, 3)]
        ys, ws = panel_rule(prefix[-1] if prefix else 0.0, L, cuts, j + 1)
        if len(prefix) == j - 1:
            configs = [anchors + prefix + [y] for y in ys]
            w = p.weights_many(np.array(configs).reshape(len(ys), -1, 1))
            return wacc * float(np.dot(ws, w))
        return sum(rec(prefix + [y], wacc * wt) for y, wt in zip(ys, ws))

    if j == 0:
        return float(p.weights_many(np.array(anchors).reshape(1, -1, 1))[0])
    return rec([], 1.0)
