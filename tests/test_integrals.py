import io
import json
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kslab import integrals
from kslab.errors import ConfigError, NumericalError
from kslab.integrals import (DIMENSION_CAP, Box, anchored_integral, anchored_series,
                             build_table, cache_path, cached_table, contact_lattice,
                             free_length, hardrod_anchored_series, load_table, panel_rule,
                             quadrature_Z, scrambled_sobol, sobol_directions)
from kslab.partition import assemble
from kslab.potentials import PairPotential

from conftest import hardrod_composition_sum, sector_reference


def test_hardrod_table_exact():
    p = PairPotential.hardcore(1.0)
    t = build_table(p, Box((5.0,)), 6)
    assert [e.m for e in t.entries] == list(range(7))
    for e in t.entries:
        assert e.method == "exact" and e.error == 0.0
        free = 5.0 - (e.m - 1) * 1.0
        want = free**e.m if (e.m == 0 or free > 0) else 0.0
        assert e.value == pytest.approx(want, rel=1e-14, abs=1e-300)
    # packing limit: six rods of length 1 do not fit strictly inside 5
    assert t.entries[6].sign == 0


def test_ideal_table_exact():
    t = build_table(PairPotential.ideal(), Box((3.0,)), 5)
    for e in t.entries:
        assert e.method == "exact"
        assert e.value == pytest.approx(3.0**e.m, rel=1e-14)


def test_exact_mp_matches_float_route():
    # the exact closed form, rounded at 50 digits, against the float64 table
    p = PairPotential.hardcore(1.0)
    box = Box((5.0,))
    poly = assemble(build_table(p, box, 6))
    with mp.workdps(50):
        for m, cm in enumerate(poly.mp_coefficients()):
            zm = cm * mp.factorial(m)
            free = 5.0 - (m - 1)
            want = free**m if (m == 0 or free > 0) else 0.0
            assert abs(float(zm) - want) <= 1e-12 * max(1.0, want)
        # no closed form for the step family
        assert free_length(PairPotential.step(0.5, 1.0), box, 2, Fraction) is None


def test_step_quadrature_against_closed_form():
    # Z_2 for a finite step has an elementary closed form
    L, a, eps, beta = 5.0, 0.8, 1.2, 1.0
    t = build_table(PairPotential.step(a, eps, beta=beta), Box((L,)), 2, order=24)
    e2 = t.entries[2]
    assert e2.method == "quadrature"
    closed = L**2 - (1.0 - math.exp(-beta * eps)) * (2 * a * L - a * a)
    assert abs(e2.value - closed) <= e2.error + 1e-12 * closed


@settings(max_examples=25, deadline=None)
@given(
    L=st.floats(2.0, 8.0),
    a=st.floats(0.1, 1.5),
    eps=st.floats(0.1, 3.0),
    beta=st.floats(0.5, 2.0),
)
def test_step_z2_error_bound_honest(L, a, eps, beta):
    t = build_table(PairPotential.step(a, eps, beta=beta), Box((L,)), 2, order=16)
    e2 = t.entries[2]
    closed = L**2 - (1.0 - math.exp(-beta * eps)) * (2 * a * L - a * a)
    assert abs(e2.value - closed) <= e2.error + 1e-10 * closed


def test_step_z2_error_bound_slow_rate_regression():
    # diagonal kink off the panel grid: convergence well below first order,
    # where a fixed multiple of one refinement difference used to undershoot
    L, a, eps, beta = 3.46875, 0.4921875, 1.0, 1.0
    t = build_table(PairPotential.step(a, eps, beta=beta), Box((L,)), 2, order=16)
    e2 = t.entries[2]
    closed = L**2 - (1.0 - math.exp(-beta * eps)) * (2 * a * L - a * a)
    assert abs(e2.value - closed) <= e2.error + 1e-10 * closed


def test_two_dimensional_method_ladder():
    # quadrature while the total dimension fits, sampling past the cap
    p = PairPotential.hardcore(0.7, dimension=2)
    t = build_table(p, Box((3.0, 3.0)), 4, order=8)
    methods = {e.m: e.method for e in t.entries}
    assert methods[0] == "exact" and methods[1] == "exact"
    assert methods[2] == "quadrature" and methods[3] == "quadrature"
    assert methods[4] == "sampling"
    for e in t.entries:
        assert np.isfinite(e.error)


def test_sampling_reproducible():
    p = PairPotential.hardcore(0.7, dimension=2)
    t1 = build_table(p, Box((3.0, 3.0)), 4, order=8, seed=7)
    t2 = build_table(p, Box((3.0, 3.0)), 4, order=8, seed=7)
    assert t1.entries[4].value == t2.entries[4].value


@pytest.mark.parametrize("seed", [0, 42, 2**40 + 3])
def test_scrambled_sobol_matches_scipy(seed):
    # every dimension 1..40 and every k = 0..16 (k = dim mod 17), each from
    # two spawned children: the same float64 array as scipy's engine
    from scipy.stats import qmc

    for dim in range(1, 41):
        k = dim % 17
        for child in range(2):
            ref = qmc.Sobol(d=dim, scramble=True, seed=np.random.default_rng(
                np.random.SeedSequence(seed).spawn(2)[child])).random_base2(k)
            got = scrambled_sobol(dim, k, np.random.SeedSequence(seed).spawn(2)[child])
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (dim, k, child)


def test_sobol_directions_match_scipy_table():
    from scipy.stats import qmc
    from scipy.stats._sobol import _initialize_v

    dim = qmc.Sobol.MAXDIM
    ref = np.zeros((dim, 30), dtype=np.uint32)
    _initialize_v(ref, dim=dim, bits=30)
    got = sobol_directions(dim)
    assert got.dtype == np.uint32 and np.array_equal(got, ref)
    assert not got.flags.writeable


def _npy_stream(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    buf.seek(0)
    buf.name = "table.npy"
    return buf


def test_sobol_table_reader_reads_column_prefixes():
    # the direction-number reader takes leading rows of leading columns of a
    # column-major int64 array and refuses any other layout
    arr = np.asfortranarray(np.arange(60, dtype=np.int64).reshape(12, 5))
    got = integrals._npy_columns(_npy_stream(arr), 4, 3)
    assert np.array_equal(got, arr[:4, :3])
    assert np.array_equal(integrals._npy_columns(_npy_stream(arr[:, 0].copy()), 20, 1),
                          arr[:, :1])
    for bad in (np.ascontiguousarray(arr), arr.astype(np.int32)):
        with pytest.raises(NumericalError):
            integrals._npy_columns(_npy_stream(bad), 4, 3)


def test_scrambled_sobol_limits():
    ss = np.random.SeedSequence(1)
    for dim, k in [(0, 3), (21202, 0), (2, -1), (2, 31)]:
        with pytest.raises(ConfigError):
            scrambled_sobol(dim, k, ss)


def test_cache_round_trip(tmp_path):
    p = PairPotential.hardcore(1.0)
    box = Box((5.0,))
    t = build_table(p, box, 6, cache_dir=str(tmp_path))
    path = cache_path(str(tmp_path), p, box)
    loaded = load_table(path, p, box)
    assert loaded is not None and loaded.M == 6
    # the entry is the cache record, so it reads back bit for bit
    for a, b in zip(t.entries, loaded.entries):
        assert (a.m, a.sign, a.log_value, a.error, a.method) == (
            b.m, b.sign, b.log_value, b.error, b.method)
    assert t.entries[6].sign == 0  # the null log_value of an empty entry round-trips
    # a step table with quadrature entries writes back the document it read
    step, sbox = PairPotential.step(1.0, 1.0), Box((3.0,))
    st = build_table(step, sbox, 3, cache_dir=str(tmp_path))
    assert "quadrature" in {e.method for e in st.entries}
    assert load_table(cache_path(str(tmp_path), step, sbox), step, sbox).to_json() == st.to_json()
    # a different potential must not collide
    other = cache_path(str(tmp_path), PairPotential.hardcore(0.9), box)
    assert other != path


def _hardrod_A(L, a, rows, m):
    """A_m of a batch of hard-rod anchor rows: series column m times m!."""
    return hardrod_anchored_series(L, a, rows, m)[:, m] * math.factorial(m)


def test_anchored_hardrod_batch_identities():
    # permutation invariance and the m=0 normalization
    L, a = 5.0, 1.0
    rows = np.array([[1.0, 3.2], [3.2, 1.0]])
    A1 = _hardrod_A(L, a, rows, 2)
    assert A1[0] == pytest.approx(A1[1], rel=1e-14)
    A0 = _hardrod_A(L, a, rows, 0)
    assert np.all(A0 == 1.0)
    # overlapping anchors kill the whole integrand
    bad = _hardrod_A(L, a, np.array([[1.0, 1.4]]), 1)
    assert bad[0] == 0.0


def _hardrod_series_per_row_layout(L, a, anchors, jmax):
    """The hard-rod gap series as it was first written, laid out (row, gap, order)
    with free**k over every k: the bitwise reference for hardrod_anchored_series."""
    anchors = np.atleast_2d(np.asarray(anchors, dtype=float))
    nc, n = anchors.shape
    srt = np.sort(anchors, axis=1)
    gaps = np.full((nc, 1), float(L))
    if n:
        gaps = np.concatenate([srt[:, :1] - a, np.diff(srt, axis=1) - 2.0 * a,
                               L - srt[:, -1:] - a], axis=1)
    k = np.arange(jmax + 1)
    free = np.maximum(gaps[:, :, None] - (k - 1) * a, 0.0)
    series = free**k / np.array([math.factorial(i) for i in k], dtype=float)
    out = series[:, 0]
    for s in series.transpose(1, 0, 2)[1:]:
        prod = np.zeros_like(out)
        for i in k:
            prod[:, i:] += out[:, i, None] * s[:, : jmax + 1 - i]
        out = prod
    if n >= 2:
        out[(np.diff(srt, axis=1) < a).any(axis=1)] = 0.0
    return out


def test_hardrod_series_bitwise_equal_to_row_layout():
    # the (order, gap, row) layout, pow only for k >= 2 on one gathered run
    # and the skipped sort of ascending rows change no bit: random rows,
    # anchors on the contact lattice and a hair off it, overlapping rows,
    # the rows sorted, single rows, n = 0..3 and every jmax to 8
    rng = np.random.default_rng(17)
    checked = 0
    for L, a in ((5.0, 1.0), (7.3, 0.37), (20.0, 1.0)):
        lattice = np.concatenate([np.arange(0.0, L + a / 2, a), L - np.arange(0.0, L + a / 2, a)])
        for n in range(4):
            rows = rng.uniform(0.0, L, size=(600, n))
            rows[:150] = rng.choice(lattice, size=(150, n))
            rows[150:250] = (np.round(rows[150:250] / a) * a
                             + rng.choice([-1e-16, 0.0, 1e-15], size=(100, n)))
            if n >= 2:
                rows[250:300, 1] = rows[250:300, 0] + 0.5 * a  # overlapping anchors
            for jmax in range(9):
                singles = [rows[i : i + 1] for i in range(0, 600, 50)]
                for batch in (rows, np.sort(rows, axis=1), *singles):
                    want = _hardrod_series_per_row_layout(L, a, batch, jmax)
                    got = hardrod_anchored_series(L, a, batch, jmax)
                    assert got.shape == want.shape
                    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                                          want.view(np.int64))
                    checked += 1
    assert checked == 3 * 4 * 9 * 14


def test_anchored_series_matches_composition_sum():
    rng = np.random.default_rng(5)
    for L, a in ((5.0, 1.0), (7.3, 0.37)):
        for n in range(4):
            rows = rng.uniform(0.0, L, size=(200, n))
            if n >= 2:
                rows[:20, 1] = rows[:20, 0] + 0.5 * a  # overlapping anchors
            series = hardrod_anchored_series(L, a, rows, 8)
            assert series.shape == (200, 9)
            for j in range(9):
                want = hardrod_composition_sum(L, a, rows, j)
                # atol 0: a zero of the reference must be an exact zero
                np.testing.assert_allclose(series[:, j] * math.factorial(j), want,
                                           rtol=1e-14, atol=0.0)
                np.testing.assert_allclose(_hardrod_A(L, a, rows, j), want,
                                           rtol=1e-14, atol=0.0)
            if n >= 2:
                assert np.all(series[:20] == 0.0)
            assert np.count_nonzero(series[:, 1:]) > 0


def _sobol_branch(p, box, anchors, m):
    """A_m and its error for one anchor row (n, dim), as the Sobol branch of
    anchored_integral computed them before the series took every order:
    2^11 scrambled Sobol points in each of 8 replicates (seed 42) over
    [0, extent]^m, the anchors prepended to every configuration."""
    ext = np.tile(box.extents, m)
    means = []
    for ss in np.random.SeedSequence(42).spawn(8):
        configs = (scrambled_sobol(box.dimension * m, 11, ss) * ext).reshape(-1, m, box.dimension)
        anc = np.broadcast_to(anchors, (len(configs),) + anchors.shape)
        means.append(float(p.weights_many(np.concatenate([anc, configs], axis=1)).mean()))
    means = np.asarray(means)
    vol = box.volume**m
    return vol * float(means.mean()), vol * float(means.std(ddof=1) / math.sqrt(8))


def test_anchored_series_matches_single_orders():
    # row i, column j of the batch is A_j(row i) / j! with its error bound,
    # on every route, against references that bypass the series: V^j for the
    # ideal gas, the composition sum for hard rods, the recursive sector sum
    # for the 1-D step and, bit for bit, the Sobol branch in two dimensions;
    # a row with a coordinate outside the box or a NaN is zero at every order
    cases = [(PairPotential.step(0.8, 1.3), Box((2.5,)), 3),
             (PairPotential.hardcore(0.7), Box((2.5,)), 3),
             (PairPotential.ideal(), Box((2.5,)), 3),
             (PairPotential.step(0.8, 1.3, dimension=2), Box((2.0, 1.5)), 2),
             (PairPotential.hardcore(0.7, dimension=2), Box((3.0, 3.0)), 3)]
    rng = np.random.default_rng(9)
    for p, box, jmax in cases:
        ext = np.array(box.extents)
        for n in range(3):
            rows = rng.uniform(0.0, 1.0, size=(3, n, box.dimension)) * ext
            if n:
                outside = np.repeat(rows[:1], 3, axis=0)
                outside[0, -1, 0] = -0.1
                outside[1, 0, -1] = ext[-1] + 0.1
                outside[2, 0, 0] = np.nan
                rows = np.concatenate([rows, outside])
            inside = np.all((rows >= 0.0) & (rows <= ext), axis=(1, 2))
            S, E = anchored_series(p, box, rows, jmax)
            assert S.shape == E.shape == (len(rows), jmax + 1)
            for row, ok, s, e in zip(rows, inside, S, E):
                for j in range(jmax + 1):
                    fac = math.factorial(j)
                    if not ok:
                        want, err, rtol = 0.0, 0.0, 0.0
                    elif p.family == "ideal":
                        want, err, rtol = 2.5**j, 0.0, 0.0
                    elif p.family == "hardcore" and box.dimension == 1:
                        want = hardrod_composition_sum(2.5, 0.7, row[None, :, 0], j)[0]
                        err, rtol = 0.0, 1e-14
                    elif box.dimension == 1:
                        # exact on the nest: the error is a rounding floor that
                        # covers the distance to the reference
                        want, rtol = sector_reference(p, 2.5, row[:, 0], j) * fac, 1e-12
                        assert e[j] <= 1e-12 * s[j], (p.family, n, j)
                        assert abs(s[j] - want / fac) <= e[j] + 1e-15 * s[j], (n, j)
                        err = e[j] * fac
                    elif j == 0:
                        want, err, rtol = p.weights_many(row[None])[0], 0.0, 0.0
                    else:
                        want, err = _sobol_branch(p, box, row, j)
                        rtol = 0.0
                    assert abs(s[j] - want / fac) <= rtol * abs(s[j]), (p.family, n, j)
                    assert abs(e[j] - err / fac) <= 1e-15 * e[j], (p.family, n, j)
            if n == 0:
                # with no anchors, A_j is Z_j
                for j in range(2, jmax + 1):
                    zq, zerr = quadrature_Z(p, box, j, order=8)
                    fac = math.factorial(j)
                    assert abs(S[0, j] * fac - zq) <= (E[0, j] * fac + zerr) + 1e-12 * zq


def test_sector_nest_matches_hardrod_gap_series():
    # the ordered-sector nest knows nothing of Tonks' gap factorization: on
    # hard rods it must reproduce the gap series, exact zeros included
    rng = np.random.default_rng(4)
    for a in (1.0, 0.37, 0.7):
        for L in (2.5, 5.0):
            p, box = PairPotential.hardcore(a), Box((L,))
            for n in range(3):
                rows = rng.uniform(0.0, L, size=(6, n, 1))
                if n == 2:
                    rows[:2, 1] = rows[:2, 0] + 0.5 * a  # overlapping anchors
                S, _, reached = integrals._sector_series(p, box, rows, 4)
                S, want = S[:, 1:], hardrod_anchored_series(L, a, rows[:, :, 0], 4)[:, 1:]
                assert np.all(reached == 4)
                assert np.array_equal(S == 0.0, want == 0.0), (a, L, n)
                np.testing.assert_allclose(S, want, rtol=1e-12, atol=0.0)


def test_step_first_order_closed_form():
    # A_1 of the step: the anchors' own weight times the length of each
    # stretch of the box times e^{-beta eps} per anchor within reach
    p, L = PairPotential.step(0.8, 1.3, beta=1.5), 3.0
    for x in map(np.array, ([], [0.5], [2.9], [0.5, 1.1], [0.4, 2.5])):
        cuts = np.unique(np.clip(np.concatenate([[0.0, L], x - 0.8, x + 0.8]), 0.0, L))
        mids = 0.5 * (cuts[1:] + cuts[:-1])
        near = (np.abs(mids[:, None] - x[None, :]) < 0.8).sum(axis=1)
        own = p.weights_many(x.reshape(1, -1, 1))[0]
        want = own * np.sum(np.diff(cuts) * np.exp(-1.5 * 1.3 * near))
        S, E = anchored_series(p, Box((L,)), x.reshape(1, -1, 1), 1)
        assert abs(S[0, 1] - want) <= 1e-14 * want and E[0, 1] <= 1e-14 * want


def test_step_nest_moves_by_rounding_with_more_nodes():
    # one more Gauss node on every panel of every level changes no entry:
    # the nest is exact for a piecewise-constant weight
    rng = np.random.default_rng(6)
    for L in (3.0, 4.0):
        p, box = PairPotential.step(0.8, 1.3), Box((L,))
        for n in range(3):
            rows = rng.uniform(0.0, L, size=(3, n, 1))
            S, _, reached = integrals._sector_series(p, box, rows, 4)
            finer, _, _ = integrals._sector_series(p, box, rows, 4, extra=1)
            assert np.all(reached == 4) and np.all(S[:, 1:] > 0.0)
            assert np.all(np.abs(finer - S) <= 1e-12 * S), (L, n)


def test_sobol_blocks_give_each_row_the_branch():
    # rows weighed in several blocks (here 3 at order 6, and one row of 16
    # points, more pairs than one block holds) keep the Sobol branch's
    # numbers bit for bit
    p, box = PairPotential.step(0.8, 1.3, dimension=2), Box((2.0, 1.5))
    rows = np.random.default_rng(3).uniform(0.0, 1.0, size=(4, 10, 2)) * np.array(box.extents)
    for batch, m in ((rows[:, :2], 6), (rows[:1], 6)):
        S, E = anchored_series(p, box, batch, m)
        for row, s, e in zip(batch, S, E):
            A, err = _sobol_branch(p, box, row, m)
            assert s[m] == A / 720 and e[m] == err / 720


def test_box_contains_single_point_and_batches():
    box = Box((2.0, 1.0))
    assert box.contains([1.0, 0.5]) and not box.contains([1.0, 1.5])
    assert box.contains([[[1.0, 0.5]], [[np.nan, 0.5]]]).tolist() == [True, False]


def test_anchored_integral_routes_and_agrees():
    p = PairPotential.hardcore(1.0)
    box = Box((5.0,))
    anchors = np.array([[1.0], [3.2]])
    exact, err0 = anchored_integral(p, box, anchors, 1)
    assert err0 == 0.0
    # the same core, 1e-12 wider, as a custom table takes the numeric route
    core = PairPotential.custom([0.0, 1.0, 1.0 + 1e-12], [math.inf, math.inf, 0.0])
    quad, err1 = anchored_integral(core, box, anchors, 1)
    assert abs(quad - exact) <= err1 + 1e-9 * abs(exact)


def _reference_tensor_eval(p, box, m, order, breaks_per_axis):
    """Tensor quadrature by weighing every configuration of the full mesh.

    One panel rule per particle and axis, the N^m-point meshgrid of all of
    them, and p.weights_many on every configuration: the same sum as
    integrals._tensor_eval, in configuration order.
    """
    axes = [panel_rule(0.0, ext, breaks_per_axis[d], order)
            for _ in range(m) for d, ext in enumerate(box.extents)]
    mesh = np.meshgrid(*[ax[0] for ax in axes], indexing="ij")
    pts = np.stack([g.reshape(-1) for g in mesh], axis=-1)
    wmesh = np.meshgrid(*[ax[1] for ax in axes], indexing="ij")
    wts = np.prod(np.stack([g.reshape(-1) for g in wmesh], axis=-1), axis=-1)
    configs = pts.reshape(-1, m, box.dimension)
    return float(np.dot(wts, p.weights_many(configs)))


def _core_table():
    # +inf core up to r = 0.5, an attractive well, zero from r = 1
    return [0.0, 0.5, 0.55, 1.0], [math.inf, math.inf, -0.5, 0.0]


def _potentials(dim):
    r, phi = _core_table()
    return [PairPotential.step(0.8, 1.3, dimension=dim),
            PairPotential.hardcore(0.7, dimension=dim),
            PairPotential.custom(r, phi, dimension=dim)]


_BOXES = {1: Box((2.5,)), 2: Box((2.0, 1.5))}
_REFERENCE_CONFIGS = 250_000  # largest mesh the reference is asked to weigh


@pytest.mark.parametrize("dim", [1, 2])
def test_tensor_contraction_matches_configuration_sum(dim):
    # orders 2, 4 and 12 and every m up to the dimension cap; a combination
    # is skipped when the reference's mesh would exceed _REFERENCE_CONFIGS
    # configurations, and the tally at the end checks that every m and
    # every order still ran
    box = _BOXES[dim]
    checked = set()
    for p in _potentials(dim):
        breaks = [contact_lattice(ext, p.interaction_range, 1) for ext in box.extents]
        for m in range(1, DIMENSION_CAP // dim + 1):
            for order in (2, 4, 12):
                n_nodes = math.prod(len(panel_rule(0.0, ext, b, order)[0])
                                    for ext, b in zip(box.extents, breaks))
                if n_nodes**m > _REFERENCE_CONFIGS:
                    continue
                got = integrals._tensor_eval(p, box, m, order, breaks)
                want = _reference_tensor_eval(p, box, m, order, breaks)
                assert abs(got - want) <= 1e-12 * abs(want), (p.family, m, order)
                checked.add((m, order))
    assert {c[0] for c in checked} == set(range(1, DIMENSION_CAP // dim + 1))
    assert {c[1] for c in checked} == {2, 4, 12}


def test_contact_lattice_merges_rounding_twins():
    # 0.8 from the wall at 0 and 4 - 4 * 0.8 from the wall at 4 differ only
    # by rounding; a sliver panel between them would carry its own subtree
    pts = contact_lattice(4.0, 0.8, 4)
    assert np.all(np.diff(pts) > 1e-13 * 4.0)
    assert len(pts) == 4


def test_quadrature_routes_match_configuration_sum(monkeypatch):
    # values and refinement errors through quadrature_Z
    cases = []
    for p in _potentials(1):
        cases += [(p, Box((2.5,)), m, 8) for m in (2, 3, 4)]
    for p in _potentials(2):
        cases.append((p, Box((2.0, 1.5)), 2, 4))

    def route(p, box, m, order):
        return quadrature_Z(p, box, m, order=order)

    got = [route(*c) for c in cases]
    monkeypatch.setattr(integrals, "_tensor_eval", _reference_tensor_eval)
    want = [route(*c) for c in cases]
    for c, (v, e), (rv, re) in zip(cases, got, want):
        assert abs(v - rv) <= 1e-12 * abs(rv), c
        assert abs(e - re) <= 1e-12 * abs(re), c


def test_disk_z3_quadrature_memory_is_bounded():
    # 196 nodes per particle: summing configuration by configuration holds
    # 196^3 = 7.5M configurations at once, 1.4 GB
    p = PairPotential.hardcore(0.7, dimension=2)
    tracemalloc.start()
    try:
        value, error = quadrature_Z(p, Box((3.0, 3.0)), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value > 0.0 and np.isfinite(error)
    assert peak < 256 * 2**20


# -- the table cache: reuse, trimming, rejection -----------------------------------


def _no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the table was rebuilt")

    monkeypatch.setattr(integrals, "quadrature_Z", refuse)


def test_cache_is_reused_only_with_the_same_build_settings(tmp_path, monkeypatch):
    p, box, cache = PairPotential.step(1.0, 1.0), Box((3.0,)), str(tmp_path)
    build_table(p, box, 3, order=16, cache_dir=cache)
    # an order-8 request rebuilds, and its table replaces the cache
    t8 = build_table(p, box, 3, order=8, cache_dir=cache)
    assert t8.built_with == {"order": 8, "n_samples": 1 << 16, "seed": 42}
    assert t8.entries == build_table(p, box, 3, order=8).entries
    assert load_table(cache_path(cache, p, box), p, box).built_with["order"] == 8
    t8_seed = build_table(p, box, 3, order=8, seed=7, cache_dir=cache)
    assert t8_seed.built_with["seed"] == 7
    # the same settings read the file back
    _no_quadrature(monkeypatch)
    again = build_table(p, box, 3, order=8, seed=7, cache_dir=cache)
    assert again.entries == t8_seed.entries and again.built_with == t8_seed.built_with


def test_cache_trims_a_larger_table(tmp_path, monkeypatch):
    p, box, cache = PairPotential.step(1.0, 1.0), Box((3.0,)), str(tmp_path)
    full = build_table(p, box, 4, cache_dir=cache)
    _no_quadrature(monkeypatch)
    part = build_table(p, box, 2, cache_dir=cache)
    assert part.M == 2 and part.entries == full.entries[:3]
    assert part.built_with == full.built_with
    assert load_table(cache_path(cache, p, box), p, box).M == 4  # the file keeps M = 4


def test_cache_in_the_indented_layout_still_loads(tmp_path, monkeypatch):
    # caches were written with json.dumps(indent=1) before they went to one line
    p, box, cache = PairPotential.step(1.0, 1.0), Box((3.0,)), str(tmp_path)
    built = build_table(p, box, 3, cache_dir=cache)
    path = cache_path(cache, p, box)
    with open(path) as fh:
        text = fh.read()
    assert "\n" not in text
    with open(path, "w") as fh:
        fh.write(json.dumps(json.loads(text), indent=1, sort_keys=True))
    _no_quadrature(monkeypatch)
    loaded, stored = cached_table(cache, p, box, 3)
    assert loaded is stored and loaded.entries == built.entries
    assert loaded.built_with == built.built_with


def _spoil(raw, text, defect):
    if defect == "schema":
        raw["schema_version"] = 99
    elif defect == "fingerprint":
        raw["fingerprint"] = "0" * 64
    elif defect == "indices":
        raw["entries"][1]["m"] = 7
    elif defect == "M":
        raw["M"] = 5
    elif defect == "nan":
        raw["entries"][2]["log_value"] = float("nan")
    elif defect == "negative-error":
        raw["entries"][2]["error"] = -5.0
    elif defect == "sign-7":
        raw["entries"][2]["sign"] = 7
    elif defect == "sign-0-with-log":
        raw["entries"][2]["sign"] = 0
    elif defect == "sign-1-with-null":
        raw["entries"][2]["log_value"] = None
    else:
        return text[: len(text) // 2]
    return json.dumps(raw)


@pytest.mark.parametrize("defect", ["schema", "fingerprint", "indices", "M", "nan", "json",
                                    "negative-error", "sign-7", "sign-0-with-log",
                                    "sign-1-with-null"])
def test_rejected_cache_is_rebuilt_with_a_warning(tmp_path, caplog, defect):
    p, box, cache = PairPotential.step(1.0, 1.0), Box((3.0,)), str(tmp_path)
    built = build_table(p, box, 3, cache_dir=cache)
    path = cache_path(cache, p, box)
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(_spoil(json.loads(text), text, defect))
    with caplog.at_level("WARNING", logger="kslab.integrals"):
        assert load_table(path, p, box) is None
        rebuilt = build_table(p, box, 3, cache_dir=cache)
    assert sum("ignoring corrupt table cache" in r.message for r in caplog.records) == 2
    assert rebuilt.entries == built.entries
    assert load_table(path, p, box).entries == built.entries  # the file is whole again
