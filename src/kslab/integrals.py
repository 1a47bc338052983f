"""Configuration integrals over a box: exact, quadrature, and sampled routes.

The central objects are the canonical integrals

    Z_m = integral over Lambda^m of exp(-beta * U(y_1..y_m)) dy

and their anchored variants A_m with n points held fixed, which
anchored_series returns for all orders and a batch of anchor sets at once.
Three methods are implemented: "exact" (closed forms: ideal gas in any
dimension, hard rods on a segment, both plain and anchored),
"quadrature" (tensorized panel Gauss-Legendre for the tables, and the
ordered-sector nest for one-dimensional anchored integrals, both capped in
total dimension), and "sampling" (scrambled Sobol averages with replicate
standard errors).  The Sobol points are generated here in numpy from the
Joe-Kuo direction numbers that scipy ships, with scipy's linear matrix
scramble and digital shift, and equal those of scipy's Sobol engine bit for
bit.  Only the table file is read, found through scipy's import spec; no
scipy module is ever loaded (scipy.stats alone takes over a second).

The table quadrature gives every particle the same node set, so its
tensor sum over all N^m node tuples is contracted pairwise: one N x N
matrix of pair Boltzmann factors, its separations broadcast from the node
coordinates by potentials.separations, and prefixes extended one particle
at a time in bounded blocks, closed by a quadratic form.  No m-particle
configuration is ever materialised.  The nest (ordered_sector) builds the
ordered sector y_1 < ... < y_j level by level for a batch of anchor rows,
each level's sum being one order; it also gives ksop its kernel windows.

Boxes have per-axis extents with coordinates in [0, extent]; particles are
points (rod centers in one dimension) and there is no wall potential, so
the box only truncates the integration domain.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import logging
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, NumericalError, UseSampling
from .potentials import PairPotential, separations

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
DIMENSION_CAP = 6  # quadrature refuses beyond nu*m axes
_POINT_BUDGET = 400_000  # tensor nodes per integral, nest rows per anchor row and level
_BLOCK = 1 << 18  # elements per working array of the tensor contraction and sampling
_SOBOL_BITS = 30  # digits per Sobol coordinate, scipy's default
_SOBOL_MAXDIM = 21201  # coordinates in the Joe-Kuo table
_TABLE_SAMPLES = 1 << 16  # Sobol points per sampled table entry
_SOBOL_REPLICATES = 8  # independently scrambled blocks behind each sampled mean and error


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with coordinates in [0, extent] along each axis."""

    extents: tuple

    def __post_init__(self):
        ext = tuple(float(e) for e in np.atleast_1d(self.extents))
        if not all(0.0 < e < math.inf for e in ext):
            raise ConfigError(f"box extents must be positive and finite, got {ext}")
        object.__setattr__(self, "extents", ext)

    @property
    def dimension(self):
        return len(self.extents)

    @property
    def volume(self):
        return math.prod(self.extents)

    def contains(self, points):
        """Whether each configuration (..., n, dim), or one point, is inside; NaN is not."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ok = (pts >= 0.0) & (pts <= self.extents)
        return np.full(pts.shape[:-2], True) if ok.all() else np.all(ok, axis=(-2, -1))

    def to_json(self):
        return list(self.extents)


# -- closed forms ------------------------------------------------------------


def _free_length(p, box, m, num):
    """free with Z_m = free^m in the arithmetic num (float or mpmath.mpf), or
    None without a closed form: 1 for Z_0, the volume V for the ideal gas
    and every m = 1, L - (m-1)a for hard rods on a segment."""
    if m == 0:
        return num(1)
    if p.family == "ideal" or m == 1:
        return num(box.volume)
    if p.family == "hardcore" and box.dimension == 1:
        return num(box.extents[0]) - (m - 1) * num(p.a)
    return None


def exact_log_Z(p, box, m):
    """log Z_m for the closed-form routes (_free_length), or None; -inf once
    the rods no longer fit."""
    free = _free_length(p, box, m, float)
    if free is None:
        return None
    return m * math.log(free) if free > 0.0 else float("-inf")


def exact_mp_Z(p, box, m):
    """Z_m of the closed-form routes under the caller's mpmath working
    precision, or None.  For a wide hard-rod box the smallest zero is so
    ill-conditioned that the double rounding of the coefficients alone
    moves it in the third decimal, so root finding cannot re-use the
    float64 table.
    """
    import mpmath as mp

    free = _free_length(p, box, m, mp.mpf)
    if free is None:
        return None
    return free**m if free > 0 else mp.mpf(0)


def hardrod_anchored_series(L, a, anchors, jmax):
    """A_j / j! for j = 0..jmax and a batch of hard-rod anchor rows, exactly.

    anchors has shape (nc, n) (n may be 0); returns shape (nc, jmax + 1).
    A_j(x_1..x_n), the integral over [0,L]^j of exp(-beta*U(x, y)) dy, is
    the free volume of j labeled rods among the fixed ones.  Sorting the
    anchors splits [0, L] into n+1 gaps, and the rods in a gap of length g
    only see each other (Tonks, Phys. Rev. 50, 955, 1936), so the
    generating function sum_j A_j t^j / j! is the product over the gaps of
    sum_k (g - (k-1)a)_+^k t^k / k!.  One truncated Cauchy product gives
    every order at once; rows with overlapping anchors are zero.  Each step
    is a 1-D run over rows; product order j sums s_j + out_1 s_(j-1) + ... +
    out_j left to right.  pow runs only for k >= 2 on positive free lengths
    (the rest is exact), gathered into one run, and k! divides only k >= 2.
    Ascending rows skip the sort.
    """
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    nc, n = anchors.shape
    if jmax < 0:
        raise ValueError("the order must be >= 0")
    step = anchors[:, 1:] - anchors[:, :-1]
    if n > 1 and not (step >= 0.0).all():
        anchors = np.sort(anchors, axis=1)
        step = anchors[:, 1:] - anchors[:, :-1]
    # gap lengths available to free rod centers; with no anchors, the box
    gaps = np.full((1, nc), float(L))
    if n:
        gaps = np.concatenate([anchors.T[:1] - a, step.T - 2.0 * a, L - anchors.T[-1:] - a])
    free = np.empty((jmax, len(gaps), nc))  # order k = 1..jmax
    for k in range(1, jmax + 1):
        np.subtract(gaps, (k - 1) * a, out=free[k - 1])
    np.maximum(free, 0.0, out=free)
    # a full exponent array keeps numpy's general pow: an exponent repeated
    # with stride 0 takes a fast path that squares, and rounds differently;
    # a masked pow gives the same bits as this gathered one, at many times the cost
    high = free[1:]
    pos = high > 0.0
    expo = np.arange(2.0, jmax + 1).repeat(pos.sum(axis=(1, 2)))
    high[pos] = np.power(high[pos], expo)
    high /= np.array([math.factorial(k) for k in range(2, jmax + 1)], dtype=float)[:, None, None]
    out = np.concatenate([np.ones((1, nc)), free[:, 0]])
    for g in range(1, len(gaps)):
        s = free[:, g]  # s[j - 1] is order j of gap g
        for j in range(jmax, 0, -1):  # descending: s_j and the old out_j are last read here
            for i in range(1, j):
                s[j - 1] += out[i] * s[j - i - 1]
            np.add(s[j - 1], out[j], out=out[j])
    if n >= 2:  # a column at a time: numpy reduces a short row axis one call per row
        out[:, np.logical_or.reduce([d < a for d in step.T])] = 0.0
    return out.T


# -- panel Gauss quadrature ---------------------------------------------------


@functools.lru_cache(maxsize=64)
def gauss_legendre(order):
    """Gauss-Legendre nodes and weights on [-1, 1], cached by order.

    The arrays are shared by every caller and therefore read-only.
    """
    x, w = leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_rule(lo, hi, breakpoints, order):
    """Gauss-Legendre nodes/weights on [lo, hi] split at interior breakpoints."""
    cuts = sorted({lo, hi} | {b for b in breakpoints if lo < b < hi})
    base_x, base_w = gauss_legendre(max(2, int(order)))
    nodes, weights = [], []
    for left, right in zip(cuts[:-1], cuts[1:]):
        half = 0.5 * (right - left)
        nodes.append(half * (base_x + 1.0) + left)
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


def contact_lattice(extent, a, kmax):
    """Sorted axis breakpoints in (0, extent) where hard-core and step weights switch:
    offsets k*a (1 <= k <= kmax) from the walls."""
    return contact_lattice_rows(extent, a, kmax, np.empty((1, 0)))[0].tolist()


def contact_lattice_rows(extent, a, kmax, anchors):
    """contact_lattice per anchor row (nc, n), the walls taken as anchors 0 and extent:
    each row sorted, padded with extent, as narrow as the longest row.  A point
    within 1e-13 * extent of its predecessor is a rounding twin and drops out."""
    if a <= 0:
        return np.empty((len(anchors), 0))
    nc = len(anchors)
    ends = np.concatenate([np.zeros((nc, 1)), anchors, np.full((nc, 1), extent)], axis=1)
    pts = (ends[:, :, None] + np.arange(-kmax, kmax + 1) * a).reshape(nc, -1)
    pts = np.sort(np.where((pts > 0.0) & (pts < extent), pts, extent), axis=1)
    pts[:, 1:][pts[:, 1:] - pts[:, :-1] <= 1e-13 * extent] = extent  # twins
    pts.sort(axis=1)
    return pts[:, : (pts < extent).sum(axis=1).max()]


def ordered_sector(lo, hi, static, a, nodes, gap=0.0, exclude=None, budget=_POINT_BUDGET,
                   split=_POINT_BUDGET):
    """Gauss nodes of the ordered sectors lo <= y_1 <= ... <= y_k <= hi, level by level.

    One sector per owner b, cut at static[b] (points outside the range drop
    out) and at y + a of every coordinate placed, nodes[k-1] Gauss-Legendre
    nodes per panel at level k.  Yields (rows (R, k), weights, owner) for
    k = 1..len(nodes), each owner's rows of a level in one yield, depth-first
    with panel_rule's arithmetic, and the owners of a yield ascending.
    gap starts each coordinate at y + gap and exclude[b] skips panels within
    a of its entries (hard-core pruning).  A batch splits in two by owner
    before its cuts or next level pass split entries; a lone owner stops
    before a level of more than budget rows.
    """
    nb = len(hi)
    stack = [(np.empty((nb, 0)), np.ones(nb), lo, np.arange(nb))]
    while stack:
        rows, wacc, left, owner = stack.pop()
        if rows.shape[1] == len(nodes):
            continue
        top = hi[owner, None]
        x, w = gauss_legendre(nodes[rows.shape[1]])
        several = len(owner) and owner[0] != owner[-1]
        over = several and len(rows) * (static.shape[1] + rows.shape[1]) > split
        if not over:  # each prefix row's sorted cuts; points outside (left, hi) collapse onto hi
            cand = np.concatenate([static[owner], rows + a], axis=1)
            cand = np.where((cand > left[:, None]) & (cand < top), cand, top)
            cand.sort(axis=1)
            cuts = np.concatenate([left[:, None], cand, top], axis=1)
            live = cuts[:, 1:] > cuts[:, :-1]
            if exclude is not None:
                for r in exclude[owner].T:
                    live &= (cuts[:, :-1] < (r - a)[:, None]) | (cuts[:, 1:] > (r + a)[:, None])
            idx = np.nonzero(live)[0]
            over = len(idx) * len(x) > (split if several else budget)
        if over:
            if several:
                mid = np.searchsorted(owner, (owner[0] + owner[-1] + 1) // 2)
                state = (rows, wacc, left, owner)
                stack += [tuple(v[mid:] for v in state), tuple(v[:mid] for v in state)]
            continue
        panel_lo = cuts[:, :-1][live]
        half = 0.5 * (cuts[:, 1:][live] - panel_lo)
        y = (half[:, None] * (x + 1.0) + panel_lo[:, None]).reshape(-1)
        wacc = (wacc[idx, None] * (half[:, None] * w)).reshape(-1)
        rep = np.repeat(idx, len(x))
        rows, owner = np.concatenate([rows[rep], y[:, None]], axis=1), owner[rep]
        yield rows, wacc, owner
        stack.append((rows, wacc, y + gap, owner))


def _pair_matrix(p, X):
    """Boltzmann factors e(|X_i - X_j|) between all pairs of nodes, (N, N)."""
    N = len(X)
    E = np.empty((N, N))
    rows = max(1, _BLOCK // (N * X.shape[1]))
    for s in range(0, N, rows):
        E[s : s + rows] = p.boltzmann(separations(X[s : s + rows, None], X[None]))
    return E


def _contract(E, W, R, k):
    """Sum over k more particles placed on the nodes, given live prefixes.

    Prefix p carries its weight W[p] and, in R[p, j], the weight of the
    next particle at node j: the node's own weight times its Boltzmann
    factors with every particle of the prefix.  The last two particles
    close as the quadratic form R E R^T; earlier levels extend each prefix
    by one node, a block of prefixes at a time so that
    no working array exceeds _BLOCK elements (or one N x N slab), and drop
    extensions of weight zero (hard-core overlaps).
    """
    if k == 2:
        return float(W @ np.einsum("pj,pj->p", R @ E, R))
    N = len(E)
    rows = max(1, _BLOCK // (N * N))
    total = 0.0
    for s in range(0, len(W), rows):
        Wn = (W[s : s + rows, None] * R[s : s + rows]).reshape(-1)
        Rn = (R[s : s + rows, None, :] * E).reshape(-1, N)
        live = Wn != 0.0
        total += _contract(E, Wn[live], Rn[live], k - 1)
    return total


def _tensor_eval(p, box, m, order, breaks_per_axis):
    """Tensor quadrature of the Boltzmann weight of m free particles.

    Every particle ranges over the same node set X (the product of the
    per-axis panel rules) with weights w, so the tensor sum over all
    m-tuples of nodes,

        sum_{i_1..i_m} prod_k w_{i_k} prod_{k<l} E[i_k, i_l],

    is contracted pairwise from the single N x N Boltzmann matrix E.  Only
    the order of summation differs from evaluating the weight of each of
    the N^m configurations.
    """
    axes = [panel_rule(0.0, ext, breaks_per_axis[d], order)
            for d, ext in enumerate(box.extents)]
    grids = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
    X = np.stack([g.reshape(-1) for g in grids], axis=-1)  # (N, dim)
    w = functools.reduce(np.multiply.outer, [ax[1] for ax in axes]).reshape(-1)
    if m == 1:
        return float(w.sum())
    return _contract(_pair_matrix(p, X), np.ones(1), w[None, :], m)


def _axis_budget(box, m, order, npanels):
    dim_total = box.dimension * m
    per_axis_cap = max(2, int(_POINT_BUDGET ** (1.0 / dim_total)))
    return max(2, min(int(order), per_axis_cap // max(1, npanels) or 2))


def _ladder_orders(o_fine):
    """Refinement window below o_fine, distinct, finest first.

    Mixes near-unit steps (one of them odd) with a descent to a quarter
    of the order.  The near-unit steps shift the aliasing phase of a
    kinked integrand against the node pattern, exposing oscillation; the
    deep rung exposes a common slowly decaying bias that every level in a
    narrow window would share.
    """
    raw = (o_fine, 3 * o_fine // 4, o_fine // 2 + 1, o_fine // 2, o_fine // 4)
    return list(dict.fromkeys(max(2, o) for o in raw))


def _refinement_error(vals):
    """Error estimate for the finest level of an order-refinement window.

    Panel quadrature of an integrand whose kink crosses panels diagonally
    converges below first order, non-monotonically, and with a one-signed
    bias that persists across whole stretches of orders.  Adjacent levels
    therefore agree while sharing the bias, which rules out every
    two-point difference and rate-extrapolation estimate.  The reported
    error is the full spread of a window reaching down to a quarter of
    the order, tripled: over that span the bias itself decays enough to
    enter the spread, and no rate claim is made at all.  A window with a
    single distinct level reports the value itself, since no refinement
    information means no convergence claim.
    """
    if len(vals) == 1:
        return abs(vals[0])
    return 3.0 * (max(vals) - min(vals)) + 1e-14 * abs(vals[0])


def quadrature_Z(p: PairPotential, box: Box, m, order=16):
    """Tensor panel quadrature of Z_m with an order-refinement error estimate.

    Returns (value, error_bound).  Raises UseSampling when nu*m exceeds the
    dimension cap; the error bound is the tripled spread of a four-order
    refinement window, which stays honest for the discontinuous hard-core
    integrands this has to face (see _refinement_error).
    """
    dim_total = box.dimension * m
    if m == 0:
        return 1.0, 0.0
    if dim_total > DIMENSION_CAP:
        raise UseSampling(f"nu*m = {dim_total} exceeds quadrature cap {DIMENSION_CAP}")
    if m == 1:
        return box.volume, 0.0
    rng_a = p.interaction_range
    breaks = []
    for ext in box.extents:
        breaks.append(contact_lattice(ext, rng_a, min(m, 4)) if rng_a > 0 else [])
    npanels = max(len(b) + 1 for b in breaks)
    orders = _ladder_orders(_axis_budget(box, m, order, npanels))
    vals = [_tensor_eval(p, box, m, o, breaks) for o in orders]
    return vals[0], _refinement_error(vals)


def _npy_columns(fh, rows, ncols):
    """Leading rows of the first ncols columns of a column-major int64 .npy stream.

    Reads the header, then each column's first rows entries, skipping the
    rest of the column; nothing past the last wanted entry is read.
    """
    version = np.lib.format.read_magic(fh)
    read_header = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}.get(version)
    shape, fortran, dtype = read_header(fh) if read_header else ((), False, None)
    if dtype != np.int64 or not (len(shape) == 1 or fortran and len(shape) == 2):
        raise NumericalError(f"Sobol table {fh.name}: expected column-major int64")
    rows = min(rows, shape[0])
    cols = []
    for c in range(ncols):
        if c:
            fh.seek(8 * (shape[0] - rows), 1)
        cols.append(np.frombuffer(fh.read(8 * rows), dtype))
    return np.stack(cols, axis=1)


def _sobol_table(dim):
    """(poly, vinit) rows 0..dim-1 of the Joe-Kuo table (SIAM J. Sci. Comput. 30, 2008).

    Streamed from scipy's deflated npz.  vinit is stored column by column
    and only its first s columns are read, s the highest polynomial degree
    among the rows, because the recurrence of sobol_directions overwrites
    every later one.  For a few dozen coordinates that inflates well under
    a tenth of the 3 MB file.
    """
    scipy = importlib.util.find_spec("scipy")  # locates the package without importing it
    path = Path(scipy.submodule_search_locations[0]) / "stats" / "_sobol_direction_numbers.npz"
    with zipfile.ZipFile(path) as zf:
        with zf.open("poly.npy") as fh:
            poly = _npy_columns(fh, dim, 1)[:, 0]
        with zf.open("vinit.npy") as fh:
            vinit = _npy_columns(fh, dim, max(1, int(poly.max()).bit_length() - 1))
    return poly, vinit


@functools.lru_cache(maxsize=16)
def sobol_directions(dim):
    """Direction numbers of the first dim Sobol coordinates, (dim, 30) uint32.

    Entry (d, j) is v_j 2^(29-j).  Coordinate 0 has v_j = 1; coordinate d
    takes its first s initial numbers from the table, s the degree of its
    primitive polynomial with coefficients a_1..a_s (a_s = 1), and extends
    them by the Bratley-Fox recurrence v_j = v_{j-s} ^ XOR_k a_k 2^k v_{j-k}.
    Shared by every caller and therefore read-only.
    """
    poly, vinit = _sobol_table(dim)
    deg = np.array([int(a).bit_length() - 1 for a in poly])
    v = np.zeros((dim, _SOBOL_BITS), dtype=np.int64)
    v[:, : vinit.shape[1]] = vinit
    v[0] = 1
    for s in np.unique(deg[1:]):
        rows = np.flatnonzero(deg == s)
        taps = (poly[rows, None] >> (s - np.arange(1, s + 1))) & 1  # a_1..a_s
        blk = v[rows]
        for j in range(s, _SOBOL_BITS):
            blk[:, j] = blk[:, j - s]
            for k in range(1, s + 1):
                blk[:, j] ^= taps[:, k - 1] * (blk[:, j - k] << k)
        v[rows] = blk
    v = (v << (_SOBOL_BITS - 1 - np.arange(_SOBOL_BITS))).astype(np.uint32)
    v.setflags(write=False)
    return v


def scrambled_sobol(dim, k, seed_seq):
    """The first 2^k scrambled Sobol points in [0, 1)^dim, shape (2^k, dim).

    The same float64 array as scipy's Sobol engine gives for d=dim,
    scramble=True, seed=default_rng(seed_seq) and random_base2(k).  The
    scramble draws from seed_seq's next spawned child, first the digital
    shift, then one random lower-triangular binary matrix with unit
    diagonal per coordinate, which multiplies each direction number's bit
    vector (most significant bit first) over GF(2).  Points follow in
    Gray-code order: block b of the doubling below is the previous block
    reversed and XORed with the scrambled v_b.
    """
    if not 1 <= dim <= _SOBOL_MAXDIM:
        raise ConfigError(f"Sobol dimension {dim} is outside 1..{_SOBOL_MAXDIM}")
    if not 0 <= k <= _SOBOL_BITS:
        raise ConfigError(f"2^{k} Sobol points: k is outside 0..{_SOBOL_BITS}")
    rng = np.random.default_rng(seed_seq.spawn(1)[0])
    msb = np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)  # bit of column i
    shift = rng.integers(2, size=(dim, _SOBOL_BITS), dtype=np.uint32) @ (1 << msb[::-1])
    ltm = np.tril(rng.integers(2, size=(dim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, np.arange(_SOBOL_BITS), np.arange(_SOBOL_BITS)] = 1
    bits = (sobol_directions(dim)[:, :, None] >> msb) & 1
    sv = ((bits @ ltm.transpose(0, 2, 1)) & 1) @ (1 << msb)
    q = shift[None, :]
    for b in range(k):
        q = np.concatenate([q, q[::-1] ^ sv[:, b]])
    return q * 2.0**-_SOBOL_BITS


def sobol_replicates(dim, n_samples, seed, replicates, estimate):
    """Mean and standard error of a sample mean over scrambled Sobol replicates.

    The n_samples points are split into `replicates` independently
    scrambled Sobol blocks of 2^k points in [0, 1)^dim (scrambled_sobol),
    scrambled from SeedSequence(seed).spawn(replicates); estimate maps one
    block to its sample mean, a number or an array of them.  Returns the
    mean of the replicate means and its standard error,
    std(ddof=1)/sqrt(replicates), entry by entry.  Deterministic for a
    given seed.
    """
    k = max(1, math.ceil(math.log2(max(2, n_samples // replicates))))
    means = np.stack([estimate(scrambled_sobol(dim, k, ss))
                      for ss in np.random.SeedSequence(seed).spawn(replicates)], axis=-1)
    return means.mean(axis=-1), means.std(ddof=1, axis=-1) / math.sqrt(replicates)


def sampled_Z(p: PairPotential, box: Box, m, seed=42):
    """Scrambled-Sobol estimate of Z_m with a replicate standard error: the
    anchor-free case of _sobol_mean.

    Deterministic for a given seed.  The _TABLE_SAMPLES points are split
    into independently scrambled replicates; the reported error is the
    standard error of the replicate means.
    """
    if m == 0:
        return 1.0, 0.0
    if p.family == "ideal":
        return box.volume**m, 0.0
    mean, err = _sobol_mean(p, box, np.empty((1, 0, box.dimension)), m, _TABLE_SAMPLES, seed)
    return float(mean[0]), float(err[0])


# -- anchored integrals --------------------------------------------------------


def anchored_series(p: PairPotential, box: Box, anchors, jmax):
    """A_j / j! and its error bound for j = 0..jmax over a batch of anchor rows.

    anchors (nc, n, dim), n >= 0, gives (S, E) of shape (nc, jmax + 1).
    Closed forms for the ideal gas and hard rods on a segment; otherwise
    one nest pass in one dimension (_sector_series), and Sobol for the
    orders it does not reach (_sobol_mean).  Rows outside the box are zero.
    """
    anchors = np.asarray(anchors, dtype=float)
    if anchors.ndim != 3 or anchors.shape[2] != box.dimension:
        raise ConfigError("anchor dimension does not match the box")
    inside = box.contains(anchors)
    whole = inside.all()  # then the rows are the anchors, with no masked copy
    rows = anchors if whole else anchors[inside]
    S, E = np.zeros((2, len(anchors), max(jmax + 1, 0)))
    if jmax < 0 or not len(rows):
        return S, E
    Sn, En = (S, E) if whole else np.zeros((2, len(rows), jmax + 1))
    if p.family == "ideal":
        Sn[:] = [box.volume**j / math.factorial(j) for j in range(jmax + 1)]
    elif p.family == "hardcore" and box.dimension == 1:
        Sn = hardrod_anchored_series(box.extents[0], p.a, rows[:, :, 0], jmax)
    else:
        depth = np.zeros(len(rows), dtype=int)
        if box.dimension == 1:
            Sn, count, depth = _sector_series(p, box, rows, jmax)
            En = np.finfo(float).eps * count * Sn  # exact up to rounding
            if p.family == "custom":  # smooth pieces, not polynomials
                finer, _, deeper = _sector_series(p, box, rows, jmax, extra=1)
                En, depth = En + np.abs(finer - Sn), np.minimum(depth, deeper)
        Sn[:, 0] = p.weights_many(rows)
        for j in range(depth.min() + 1, jmax + 1):
            late = depth < j
            Sn[late, j], En[late, j] = np.divide(_sobol_mean(p, box, rows[late], j),
                                                 math.factorial(j))
    if whole:
        return Sn, En
    S[inside], E[inside] = Sn, En
    return S, E


def _sector_series(p, box, anchors, jmax, extra=0):
    """A_j / j!, j = 1..jmax, for 1-D anchor rows (nc, n, 1) from one nest pass.

    Cut at the contact lattice and at y_i + a, a piecewise-constant weight
    leaves polynomials of degree j - k in y_k, so ceil((depth - k + 1) / 2)
    (+ extra) nodes at level k are exact up to depth = min(jmax, DIMENSION_CAP).
    Returns S, the rows behind each entry and the order each row reached.
    """
    nc, L, a = len(anchors), box.extents[0], p.interaction_range
    depth = min(jmax, DIMENSION_CAP)
    static = contact_lattice_rows(L, a, depth, anchors[:, :, 0])
    nodes = [(depth - k + 1) // 2 + extra for k in range(depth)]
    S, count = np.zeros((2, nc, jmax + 1))
    reached = np.zeros(nc, dtype=int)
    for rows, w, owner in ordered_sector(np.zeros(nc), np.full(nc, L), static, a, nodes):
        k = rows.shape[1]
        configs = np.concatenate([anchors[owner], rows[:, :, None]], axis=1)
        S[:, k] += np.bincount(owner, w * p.weights_many(configs), minlength=nc)
        count[:, k] += np.bincount(owner, minlength=nc)
        reached[owner] = k
    return S, count, reached


def nest_is_exact(n, jmax):
    """Whether _sector_series takes A_1..A_jmax of any n anchors from its nest: jmax <=
    DIMENSION_CAP, and its deepest level, at most prod_k nodes_k (S + k + 1) rows of
    an anchor row over S <= (n + 2)(2 jmax + 1) lattice points, fits the point budget."""
    static = (n + 2) * (2 * jmax + 1)
    rows = math.prod((jmax - k + 1) // 2 * (static + k + 1) for k in range(jmax))
    return jmax <= DIMENSION_CAP and rows <= _POINT_BUDGET


def _sobol_mean(p, box, anchors, m, n_samples=1 << 14, seed=42):
    """A_m and its error for anchor rows (nc, n, dim), n >= 0, from n_samples
    Sobol points shared by every row (sobol_replicates)."""
    nc, n, dim = anchors.shape
    ext = np.tile(box.extents, m)

    def estimate(u):
        configs = (u * ext).reshape(-1, m, dim)
        means = []
        for b in np.array_split(anchors, min(nc, 1 + nc * len(u) * (n + m) ** 2 // _BLOCK)):
            full = np.concatenate([np.broadcast_to(b[:, None], (len(b), len(u), n, dim)),
                                   np.broadcast_to(configs, (len(b),) + configs.shape)], axis=2)
            means.append(p.weights_many(full.reshape(-1, n + m, dim)).reshape(len(b), -1).mean(1))
        return np.concatenate(means)

    mean, err = sobol_replicates(dim * m, n_samples, seed, _SOBOL_REPLICATES, estimate)
    return box.volume**m * mean, box.volume**m * err


def anchored_integral(p: PairPotential, box: Box, anchors, m):
    """A_m(anchors) and its error bound for n fixed points (n, dim): column m of
    anchored_series times m!.  Anchors outside the box give zero."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    if anchors.size == 0:
        anchors = anchors.reshape(0, box.dimension)
    S, E = np.multiply(anchored_series(p, box, anchors[None], m), math.factorial(m))
    return float(S[0, m]), float(E[0, m])


# -- integral tables with a JSON cache ----------------------------------------


@dataclass
class ZEntry:
    """Z_m as the cache file records it: sign (-1, 0, +1) and log|Z_m| (-inf at
    sign 0), which past the float64 range Z_m needs, with its error bound and
    method.  Every other form of the coefficient is derived from this one."""

    m: int
    sign: int
    log_value: float
    error: float
    method: str

    @property
    def value(self):
        """Z_m as a float: 0.0 at sign 0, +-inf past the float64 range."""
        return signed_exp(self.sign, self.log_value)


def signed_exp(sign, log_mag):
    """sign * exp(log_mag): 0.0 at sign 0, +-inf past the float64 range."""
    if sign == 0:
        return 0.0
    try:
        return sign * math.exp(log_mag)
    except OverflowError:
        return sign * math.inf


@dataclass
class IntegralTable:
    """Z_m for m = 0..M over one box and potential, with provenance per entry."""

    potential: PairPotential
    box: Box
    M: int
    entries: list = field(default_factory=list)
    built_with: dict = field(default_factory=dict)

    @property
    def fingerprint(self):
        return table_fingerprint(self.potential, self.box)

    def to_json(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "potential": self.potential.to_config(),
            "box": self.box.to_json(),
            "M": self.M,
            "built_with": self.built_with,
            "entries": [
                {
                    "m": e.m,
                    "log_value": None if e.sign == 0 else e.log_value,
                    "sign": e.sign,
                    "error": e.error,
                    "method": e.method,
                }
                for e in self.entries
            ],
        }

    def save(self, path):
        payload = json.dumps(self.to_json(), sort_keys=True)
        # atomic write so a concurrent reader never sees a torn file
        d = os.path.dirname(os.path.abspath(path))
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path


def table_fingerprint(p: PairPotential, box: Box):
    blob = json.dumps({"potential": p.to_config(), "box": box.to_json()}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def cache_path(cache_dir, p: PairPotential, box: Box):
    return os.path.join(cache_dir, f"table_{table_fingerprint(p, box)[:24]}.json")


def load_table(path, p: PairPotential, box: Box):
    """Load a cached table; return None (with a warning) on any corruption."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"schema_version {raw.get('schema_version')!r}")
        if raw["fingerprint"] != table_fingerprint(p, box):
            raise ValueError("fingerprint mismatch")
        entries = []
        for e in sorted(raw["entries"], key=lambda d: d["m"]):
            lm = -math.inf if e["log_value"] is None else float(e["log_value"])
            err = float(e["error"])
            # sign -1, 0 or +1, and 0 exactly when log_value is null; NaN fails the bounds
            if (e["sign"] not in (-1, 0, 1) or (e["sign"] == 0) != (lm == -math.inf)
                    or not (0.0 <= err < math.inf and lm < math.inf)):
                raise ValueError(f"entry {e} is not a valid record")
            entries.append(ZEntry(int(e["m"]), int(e["sign"]), lm, err, e["method"]))
        if [e.m for e in entries] != list(range(len(entries))):
            raise ValueError("entry indices are not 0..M")
        M = int(raw["M"])
        if M != len(entries) - 1:
            raise ValueError("M does not match entry count")
        return IntegralTable(p, box, M, entries, raw.get("built_with", {}))
    except FileNotFoundError:
        return None
    except Exception as exc:  # corrupt cache: rebuild, never crash
        log.warning("ignoring corrupt table cache %s (%s); rebuilding", path, exc)
        return None


def cached_table(cache_dir, p: PairPotential, box: Box, M, order=16, seed=42):
    """(table, stored): the cache file as loaded (None if missing or corrupt),
    and trimmed to M if it covers M and was built with these settings."""
    built_with = {"order": order, "n_samples": _TABLE_SAMPLES, "seed": seed}
    stored = load_table(cache_path(cache_dir, p, box), p, box)
    if stored is None or stored.M < M or stored.built_with != built_with:
        return None, stored
    if stored.M == M:
        return stored, stored
    return IntegralTable(p, box, M, stored.entries[: M + 1], built_with), stored


def build_table(p: PairPotential, box: Box, M, order=16, seed=42, cache_dir=None,
                force=False) -> IntegralTable:
    """Z_0..Z_M with the best available method per entry, using the cache.

    Method preference is exact > quadrature > sampling.  A cached file is
    reused, trimmed to M, when it covers M and was built with the same
    order and seed (cached_table); a corrupt or stale cache file is
    rebuilt in place with a warning.
    """
    built_with = {"order": order, "n_samples": _TABLE_SAMPLES, "seed": seed}
    if cache_dir and not force:
        cached, _ = cached_table(cache_dir, p, box, M, order, seed)
        if cached is not None:
            return cached

    entries = []
    for m in range(M + 1):
        log_z = exact_log_Z(p, box, m)
        if log_z is not None:
            entries.append(ZEntry(m, int(log_z > -math.inf), log_z, 0.0, "exact"))
            continue
        try:
            val, err = quadrature_Z(p, box, m, order=order)
            method = "quadrature"
        except UseSampling:
            val, err = sampled_Z(p, box, m, seed=seed)
            method = "sampling"
        sign = int(math.copysign(1.0, val)) if val else 0
        entries.append(ZEntry(m, sign, math.log(abs(val)) if val else -math.inf, err, method))

    table = IntegralTable(p, box, M, entries, built_with)
    if cache_dir:
        table.save(cache_path(cache_dir, p, box))
    return table
