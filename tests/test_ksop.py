"""Companion realization and direct application of the truncated operator."""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from kslab import ksop
from kslab.errors import ConfigError
from kslab.integrals import (DIMENSION_CAP, Box, _sector_series, build_table,
                             contact_lattice_rows, gauss_legendre, nest_is_exact, ordered_sector,
                             panel_rule, sobol_replicates)
from kslab.ksop import (
    CallableFamily,
    _kernel_window,
    _panel_nodes,
    _sector_nodes,
    _term_sampled,
    apply_ks_function,
    build_ks_matrix,
    ks_residual,
    probe_anchor_sets,
)
from kslab.partition import (NumeratorFamily, _gamma, assemble, correlation, evaluate,
                             smallest_zero, zeros)
from kslab.potentials import PairPotential

from conftest import balanced, companion, make_ideal, make_tonks, poly_from_coeffs


def test_companion_layout(tonks5):
    ks = build_ks_matrix(tonks5)
    assert ks.M == 6
    np.testing.assert_allclose(ks.to_json()["first_row"], -tonks5.coeffs[1:])
    A = companion(ks)
    np.testing.assert_allclose(A[0], -tonks5.coeffs[1:] * ks.scale ** np.arange(1, 7))
    np.testing.assert_allclose(A[1:, :-1], np.eye(5))
    np.testing.assert_allclose(A[1:, -1], 0.0)


def test_eigenvalues_are_reciprocal_zeros(tonks5):
    # degree drops to 5 (Z_6 = 0), so one eigenvalue is exactly zero and
    # the rest must be 1/z_i for the five partition zeros
    ks = build_ks_matrix(tonks5)
    lam = np.linalg.eigvals(companion(ks)) / ks.scale
    lam = sorted((l for l in lam if abs(l) > 1e-12), key=lambda w: (w.real, w.imag))
    want = sorted((1.0 / z for z in zeros(tonks5).zeros),
                  key=lambda w: (w.real, w.imag))
    assert len(lam) == len(want) == 5
    for g, w in zip(lam, want):
        assert abs(g - w) <= 1e-10 * abs(w)


def test_scaled_and_conditioned_are_similar(tonks5):
    ks = build_ks_matrix(tonks5)
    a = np.sort_complex(np.linalg.eigvals(companion(ks)))
    b = np.sort_complex(np.linalg.eigvals(balanced(ks)))
    np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12)


_BALANCING_BOXES = {
    "rods-L2-160": lambda: [make_tonks(float(L)) for L in range(2, 161)],
    "ideal-M6-M8": lambda: [make_ideal(M=6), make_ideal(M=8)],
    "step-L5": lambda: [assemble(build_table(PairPotential.step(1.0, 1.0), Box((5.0,)), 6))],
    "disks-L3": lambda: [assemble(build_table(PairPotential.hardcore(0.7, dimension=2),
                                              Box((3.0, 3.0)), 4, seed=1))],
}


@pytest.mark.parametrize("box", sorted(_BALANCING_BOXES))
def test_balancing_is_lapack_dgebal_bit_for_bit(box):
    # the diagonal, the balanced first row and the subdiagonal against
    # scipy.linalg.matrix_balance on the dense companion
    from scipy.linalg import matrix_balance

    for poly in _BALANCING_BOXES[box]():
        ks = build_ks_matrix(poly)
        row, sub, d = ks.balancing
        with np.errstate(invalid="ignore"):  # scipy warns of a cast from L = 70 on
            B, T = matrix_balance(companion(ks), permute=False)
        assert np.diag(T).tobytes() == d.tobytes(), ks.M
        assert B[0].tobytes() == row.tobytes(), ks.M
        assert np.diagonal(B, -1).tobytes() == sub.tobytes(), ks.M


def test_to_json_and_save(tonks5):
    ks = build_ks_matrix(tonks5)
    doc = ks.to_json()
    assert set(doc) == {"M", "first_row", "scale"}


def test_build_requires_degree(tonks5):
    with pytest.raises(ConfigError):
        build_ks_matrix(poly_from_coeffs([2.0]))


def test_ideal_power_family_is_exact_fixed_point():
    # for the free gas the kernel vanishes, so phi_n = z^n solves the full
    # system at every truncation; the application must reproduce it to
    # rounding, not merely to quadrature accuracy
    p = PairPotential.ideal(beta=1.0, dimension=1)
    box = Box((1.0,))
    anchors_full = np.array([[0.2], [0.45], [0.7], [0.95]])
    worst = 0.0
    for z in (0.1, 0.3, 0.2 + 0.1j):
        fam = CallableFamily(lambda lvl, cfg, z=z: np.full(cfg.shape[0], z**lvl))
        for M in (4, 8):
            for n in range(1, 5):
                val, err = apply_ks_function(p, box, fam, n,
                                             anchors_full[:n], M, order=16)
                rhs = z * (1.0 + val) if n == 1 else z * val
                worst = max(worst, abs(z**n - rhs))
    assert worst <= 1e-12


def test_constant_family_keeps_every_kernel_term():
    # the packing cutoff is only for families that vanish on overlaps; a
    # constant family keeps all m terms, with the exact value known by hand
    p = PairPotential.hardcore(1.0)
    box = Box((5.0,))
    fam = CallableFamily(lambda lvl, cfg: np.full(cfg.shape[0], 0.3**lvl))
    anch = np.array([[1.2], [2.6]])  # window [0.2, 2.2], length 2
    exact = 0.3 - 2 * 0.3**2 + 4 * 0.3**3 / 2 - 8 * 0.3**4 / 6 + 16 * 0.3**5 / 24
    q, qe = apply_ks_function(p, box, fam, 2, anch, 6, order=32)
    assert abs(q - exact) <= qe + 1e-12
    # its m = 3 and 4 terms are the sampled ones; each one on its own
    for m in (3, 4):
        s, se = _term_sampled(p, box, fam, 2, np.array([1.2]), np.array([[2.6]]), m, 3 + m)
        assert abs(s[0] - (-2) ** m * 0.3 ** (1 + m) / math.factorial(m)) <= 3 * se[0] + 1e-12


def test_sampling_spread_is_reported():
    # a family that varies across the kernel window must come back with a
    # strictly positive replicate spread
    p = PairPotential.step(0.8, 1.3, beta=1.0)
    box = Box((5.0,))
    fam = CallableFamily(lambda lvl, cfg: cfg.sum(axis=(1, 2)))
    val, err = _term_sampled(p, box, fam, 2, np.array([1.2]), np.array([[2.6]]), 3, 7)
    assert err[0] > 0.0


def test_family_rows_match_correlation_on_a_step_table():
    # a step table carries nonzero coeff_errors, so the bound of each row's
    # correlation N / Xi must hold the table error of Xi exactly as
    # partition.correlation counts it, besides the row's integral errors
    poly = assemble(build_table(PairPotential.step(1.0, 1.0), Box((5.0,)), 6))
    assert np.any(poly.coeff_errors > 0)
    z, degree = 0.15 + 0.05j, 5
    fam = NumeratorFamily(poly, degree=degree)
    rows = np.array([[[0.4], [2.1]], [[1.7], [3.6]], [[2.5], [4.9]]])
    numerators = fam(2, rows)
    xi, cond = evaluate(poly, z)
    xi_err = np.polyval(poly.coeff_errors[::-1], abs(z)) + _gamma(poly.M + 1) * cond
    zpow = z ** np.arange(degree + 1)
    for row, N, E in zip(rows, numerators, fam.last_error):
        value = N @ zpow / xi
        error = (E @ abs(zpow) + _gamma(degree) * (N @ abs(zpow)) + abs(value) * xi_err) / abs(xi)
        want = correlation(poly, z, row, degree)
        assert abs(value - want.value) <= 1e-12 * abs(want.value)
        assert abs(error - want.error) <= 1e-12 * want.error


def test_overlapping_anchor_pair_zeroes_both_sides(tonks5):
    fam = NumeratorFamily(tonks5, degree=5)
    anch = np.array([[2.5], [2.9]])  # closer than the rod diameter
    val, err = apply_ks_function(tonks5.potential, tonks5.box, fam, 2, anch, 6)
    assert val.shape == err.shape == (6,)
    assert not val.any() and not err.any()


def test_residual_consistent_vs_unit_constant():
    # with c_M != 0 the finite-M inhomogeneity differs from 1: the residual
    # takes the consistent constant, and the infinite system's constant 1
    # would add the level-1 truncation gap
    poly = make_tonks(5.0, M=4)
    rep_c = ks_residual(poly, 0.2, 1, order=24, count=8)
    gap = rep_c.levels[0].truncation_gap
    assert gap > 1e-8
    assert rep_c.sup_residual <= rep_c.error_bound
    assert gap > 10 * rep_c.sup_residual


@pytest.mark.parametrize("z", [0.2, -0.3, -0.41])
def test_truncation_gap_is_zero_where_c_M_vanishes(tonks5, z):
    # Z_6 = 0 at L = 5, so Xi_5 = Xi_6 and the level-1 constant is exactly 1;
    # the ratio of the two Horner sums it replaced read 2.8e-14 at z = -0.41
    rep = ks_residual(tonks5, z, 1, order=16, count=4)
    assert rep.levels[0].truncation_gap == 0.0


@pytest.mark.parametrize("z", [0.1, 0.5, 0.2 + 0.3j])
def test_truncation_gap_of_the_free_gas_matches_the_ratio_form(z):
    # |z| |Xi_{M-1} / Xi_M - 1| at 50 digits; the float64 ratio of the two
    # Horner sums cancels to 1.7e-4 relative at z = 0.1
    poly = make_ideal(M=8)
    rep = ks_residual(poly, z, 1, order=16, count=4)
    with mp.workdps(50):
        c = [mp.mpf(float(x)) for x in poly.coeffs[::-1]]
        want = float(abs(z) * abs(mp.polyval(c[1:], z) / mp.polyval(c, z) - 1))
    assert rep.levels[0].truncation_gap == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("rods", [True, False])
def test_residual_bound_covers_rounding_up_to_the_smallest_zero(rods, tonks5):
    # the bound carries the float64 rounding of the numerator sum and of Xi:
    # without it hard rods L = 5 read sup 2.2e-15 against a bound of 1.2e-15
    # at z = -0.3 and 2.5e-7 against 5.6e-8 at z_c (1 - 1e-8), and the free
    # gas at M = 8 missed it 23x at delta = 0.1 (8 probes fit its unit box up
    # to level 4).  The hard rods run on the node counts exact for their
    # degree, which order 64 only caps
    poly, n_max, order, count = (tonks5, 5, 64, 32) if rods else (make_ideal(M=8), 4, 16, 8)
    z_c = smallest_zero(zeros(poly)).z_c
    ray = [z_c * (1.0 - 10.0 ** -k) for k in range(1, 9)]
    for z in ([-0.3, -0.35, -0.4, -0.41] if rods else []) + ray:
        rep = ks_residual(poly, z, n_max, order=order, count=count)
        for lv in rep.levels:
            assert lv.sup_residual <= lv.error_bound, (z, lv.n)


@pytest.mark.parametrize("rods", [True, False])
def test_residual_bound_tracks_the_residual_up_to_the_smallest_zero(rods, tonks5):
    # the residual at z and its bound share the one division by Xi_M(z), so
    # bound / sup stays put as z nears z_c: from delta = 1e-1 to 1e-8 it read
    # 7.8-8.0 on hard rods L = 5 and 25-32 on the free gas at M = 8.  The
    # bound of rho = N / Xi grew as 1 / delta^2 (51 -> 4.8e8, 530 -> 8.1e9)
    poly, n_max, order, count = (tonks5, 5, 64, 32) if rods else (make_ideal(M=8), 4, 16, 8)
    z_c = smallest_zero(zeros(poly)).z_c
    ratios = []
    for k in range(1, 9):
        rep = ks_residual(poly, z_c * (1.0 - 10.0**-k), n_max, order=order, count=count)
        for lv in rep.levels:
            assert lv.sup_residual <= lv.error_bound, (k, lv.n)
        ratios.append(rep.error_bound / rep.sup_residual)
    assert max(ratios) <= 10 * min(ratios), ratios


@pytest.mark.parametrize("box", ["rods-L5", "rods-L10", "rods-L20", "gas-M6", "gas-M8", "step"])
def test_coefficient_residuals_lie_within_their_bounds(box):
    # the z-free identity N^(M)_n[k] = delta_(n1) c_(k-1) + (K N^(M-1))_n[k-1]
    # at levels 1-2.  At L = 20 the level-1 bound needs the float64 rounding
    # of c_(k-1) itself: without it the worst residual 6.4e-11 exceeds it
    poly = {
        "rods-L5": lambda: make_tonks(5.0, M=6),
        "rods-L10": lambda: make_tonks(10.0, M=11),
        "rods-L20": lambda: make_tonks(20.0, M=21),
        "gas-M6": lambda: make_ideal(M=6),
        "gas-M8": lambda: make_ideal(M=8),
        "step": lambda: assemble(build_table(PairPotential.step(0.8, 1.3), Box((4.0,)), 4,
                                             order=12)),
    }[box]()
    rep = ks_residual(poly, 0.1, 2, order=16, count=16)
    for lv in rep.levels:
        assert lv.coefficient_residual <= lv.coefficient_bound, lv.n
        assert math.isfinite(lv.coefficient_bound)
    doc = rep.to_json()["levels"]
    assert [d["coefficient_residual"] for d in doc] == [lv.coefficient_residual
                                                       for lv in rep.levels]


def test_residual_report_shape(tonks5):
    rep = ks_residual(tonks5, 0.2, 2, order=24, count=8)
    assert [lv.n for lv in rep.levels] == [1, 2]
    assert rep.sup_residual <= rep.error_bound
    doc = rep.to_json()
    assert doc["M"] == 6 and len(doc["levels"]) == 2


def test_residual_preconditions(tonks5):
    with pytest.raises(ConfigError):
        ks_residual(tonks5, 0.2, 6)  # n_max must stay below M
    with pytest.raises(ConfigError):
        ks_residual(tonks5, 0.9, 1)  # outside the zero-free disk


def test_zero_check_reads_the_pick_without_its_certificate(tonks5, monkeypatch):
    # |z| = |z_c| is refused with smallest_zero's modulus: on hard rods z_c
    # lies on the negative axis, on the free gas at M = 8 the smallest zeros
    # are a conjugate pair.  The check makes no working-precision evaluation
    # of Xi, as the certificate does, refused or not
    from kslab import partition

    kernel = []
    real = partition.fixed_horner

    def counted(*args, **kwargs):
        kernel.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(partition, "fixed_horner", counted)
    for poly, conjugate_pair in ((tonks5, False), (make_ideal(M=8), True)):
        z_c = partition.smallest_zero(zeros(poly)).z_c
        assert kernel and (z_c.imag != 0.0) == conjugate_pair
        kernel.clear()
        for z in (z_c, abs(z_c), 1j * abs(z_c)):
            with pytest.raises(ConfigError) as err:
                ks_residual(poly, z, 1, order=8, count=4)
            assert f"smallest zero modulus {abs(z_c)}" in str(err.value)
        assert ks_residual(poly, 0.5 * z_c, 1, order=8, count=4).levels
        assert not kernel


def test_apply_preconditions():
    p = PairPotential.hardcore(1.0, dimension=2)
    fam = CallableFamily(lambda lvl, cfg: np.zeros(cfg.shape[0]))
    with pytest.raises(ConfigError):
        apply_ks_function(p, Box((3.0, 3.0)), fam, 1, np.array([[0.5, 0.5]]), 4)
    with pytest.raises(ConfigError):
        apply_ks_function(PairPotential.hardcore(1.0), Box((5.0,)), fam, 2,
                          np.array([[0.5]]), 4)


def test_probe_sets_deterministic_and_admissible():
    p = PairPotential.hardcore(1.0)
    box = Box((5.0,))
    a = probe_anchor_sets(box, p, 2, count=16)
    b = probe_anchor_sets(box, p, 2, count=16)
    assert len(a) == len(b) > 0
    for s, t in zip(a, b):
        np.testing.assert_array_equal(s, t)
    # by design one deliberately overlapping pair is included
    assert any(abs(s[0, 0] - s[1, 0]) < p.a for s in a)
    singles = probe_anchor_sets(box, p, 1, count=16)
    assert all(0.0 < s[0, 0] < 5.0 for s in singles)


def _recursive_nodes(p, box, x1, rest_coords, m, order, inner_order, kmax):
    """Reference: the nested panel rule built by depth-first recursion."""
    window = _kernel_window(p, box, x1)
    if window is None:
        return np.empty((0, m)), np.empty(0)
    lo, hi = window
    r = p.interaction_range
    anchor_pts = np.append(rest_coords, x1)
    pts = sorted(set(contact_lattice_rows(box.extents[0], r, kmax, anchor_pts[None])[0])
                 | {float(c) for c in anchor_pts if 0.0 < c < box.extents[0]})
    # rounding twins merge as in contact_lattice_rows
    static = [c for i, c in enumerate(pts)
              if i == 0 or c - pts[i - 1] > 1e-13 * box.extents[0]]
    rows, weights = [], []

    def rec(level, y_prev, prefix, wacc):
        left = lo if level == 1 else y_prev
        if left >= hi:
            return
        dyn = [y + k * r for y in prefix for k in (1, 2, 3)]
        nodes, ws = panel_rule(left, hi, static + dyn, order if level == 1 else inner_order)
        for nd, w in zip(nodes, ws):
            if level == m:
                rows.append(prefix + [nd])
                weights.append(wacc * w)
            else:
                rec(level + 1, nd, prefix + [nd], wacc * w)

    rec(1, lo, [], 1.0)
    return np.asarray(rows).reshape(-1, m), np.asarray(weights)


def _one_probe_nodes(p, box, x1, rest_coords, m, order, inner_order, kmax, prune=False):
    """Node rows and weights of one probe: _sector_nodes of a batch of one."""
    chunks = _sector_nodes(p, box, np.array([float(x1)]), np.reshape(rest_coords, (1, -1)),
                           [order] + [inner_order] * (m - 1), kmax, prune)
    return next(chunks, (np.empty((0, m)), np.empty(0)))[:2]


def test_ordered_nodes_match_recursive_reference():
    potentials = [PairPotential.hardcore(1.0), PairPotential.hardcore(0.37),
                  PairPotential.step(0.8, 1.3)]
    checked = 0
    for p in potentials:
        a = p.interaction_range
        for L in (2.0, 5.0, 7.3):
            box = Box((L,))
            x1 = 0.45 * L
            # the last anchor sits exactly on the window's upper edge
            anchor_sets = [np.empty(0), np.array([0.1 * L]), np.array([0.8 * L, x1 + a])]
            # m = 3 only at small orders and one kmax, to keep the reference cheap
            cases = [(m, order, inner, kmax)
                     for m, order, inner in ((1, 64, 12), (2, 24, 11), (2, 5, 8), (2, 3, 5))
                     for kmax in (3, 12)] + [(3, 5, 3, 3)]
            for rest in anchor_sets:
                for m, order, inner, kmax in cases:
                    got = _one_probe_nodes(p, box, x1, rest, m, order, inner, kmax)
                    want = _recursive_nodes(p, box, x1, rest, m, order, inner, kmax)
                    assert got[0].shape == want[0].shape
                    assert got[1].shape == want[1].shape
                    assert np.array_equal(got[0], want[0])
                    assert np.array_equal(got[1], want[1])
                    checked += len(want[1]) > 0
    assert checked == 3 * 3 * 3 * 9
    rows, weights = _one_probe_nodes(PairPotential.ideal(), Box((5.0,)), 2.0,
                                     np.array([3.0]), 2, 16, 8, 3)
    assert rows.shape == (0, 2) and weights.shape == (0,)


def test_pruned_nodes_are_the_nonzero_rows():
    # for a family that vanishes on hard-core overlap, pruning keeps exactly
    # the unpruned rows at which the family is nonzero, bit for bit and in
    # order, and every row it drops is a zero of the family
    checked = dropped = 0
    for a in (1.0, 0.37):
        for L in (2.0, 5.0, 7.3):
            p, box = PairPotential.hardcore(a), Box((L,))
            fam = NumeratorFamily(make_tonks(L, a=a))
            x1 = 0.45 * L
            # x1 + 0.6a lies inside the kernel window
            anchor_sets = [np.empty(0), np.array([0.1 * L]), np.array([x1 + 0.6 * a]),
                           np.array([0.1 * L, x1 + 0.6 * a])]
            for rest in anchor_sets:
                for m, order, inner in ((1, 64, 12), (2, 24, 11), (2, 5, 8)):
                    args = (p, box, x1, rest, m, order, inner, 3)
                    rows, weights = _one_probe_nodes(*args)
                    prows, pweights = _one_probe_nodes(*args, prune=True)
                    configs = np.concatenate(
                        [np.broadcast_to(rest, (len(rows), len(rest))), rows], axis=1)
                    vals = fam(len(rest) + m, configs.reshape(len(rows), -1, 1))
                    nonzero = vals.any(axis=1)
                    assert np.array_equal(prows, rows[nonzero])
                    assert np.array_equal(pweights, weights[nonzero])
                    kept = {tuple(r) for r in prows}
                    gone = np.array([tuple(r) not in kept for r in rows], dtype=bool)
                    assert np.all(vals[gone] == 0)
                    checked += len(pweights) > 0
                    dropped += gone.sum()
    # 45 of the 72 cases keep rows: an anchor inside the window leaves room
    # for one y only, and so does the anchor at 0.2 when L = 2, a = 1, where
    # the pair of anchors leaves room for none
    assert checked == 45 and dropped > 0


def test_workload_residual_feeds_only_live_rows(monkeypatch, tmp_path):
    # the hard-rod residual of the benchmark's residual workload hands the
    # operator's family 2,890 node rows, and the left side's family its 47
    # probe rows.  The overlap rows, zeros of the family, are not built, and
    # the nest takes the node counts exact for the family's degree: at
    # --order 64 on every panel it built 111,942 rows
    from kslab.cli import main

    rows = []
    real = NumeratorFamily.__call__

    def counting(self, level, configs):
        rows.append(len(configs))
        return real(self, level, configs)

    monkeypatch.setattr(NumeratorFamily, "__call__", counting)
    assert main(["residual", "--L", "5", "--M", "6", "--z", "0.2", "--n-max", "2",
                 "--order", "64", "--probes", "32", "--out", str(tmp_path / "r.json")]) == 0
    assert sum(rows) == 2_890 + 47


def test_residual_series_calls(monkeypatch, tmp_path):
    # the left side of the workload's hard-rod residual takes every order of
    # all its probes from one family call per level: 2 calls (one per probe
    # would be 47) and no nest pass.  Every family call, left side or
    # operator, is one series call, and on the step command every series
    # call is one pass of the ordered-sector nest for its whole batch of rows
    from kslab import integrals, partition
    from kslab.cli import main

    calls = {"left": 0, "family": 0, "series": 0, "nest": 0}
    series, nest = partition.anchored_series, integrals._sector_series
    family = NumeratorFamily.__call__

    def counted_series(*args, **kwargs):
        calls["series"] += 1
        return series(*args, **kwargs)

    def counted(*args, **kwargs):
        calls["nest"] += 1
        return nest(*args, **kwargs)

    def family_call(self, level, configs):
        # the left side's family keeps degree M, the operator's M - 1
        calls["left" if self.degree == self.poly.M else "family"] += 1
        return family(self, level, configs)

    monkeypatch.setattr(partition, "anchored_series", counted_series)
    monkeypatch.setattr(integrals, "_sector_series", counted)
    monkeypatch.setattr(NumeratorFamily, "__call__", family_call)
    out = str(tmp_path / "r.json")
    assert main(["residual", "--L", "5", "--M", "6", "--z", "0.2", "--n-max", "2",
                 "--order", "64", "--probes", "32", "--out", out]) == 0
    assert calls["left"] == 2 and calls["nest"] == 0
    assert calls["series"] == calls["left"] + calls["family"]
    calls.update(left=0, family=0, series=0, nest=0)
    assert main(["residual", "--potential", "step", "--a", "0.8", "--epsilon", "1.3",
                 "--L", "3", "--M", "3", "--z", "0.1", "--n-max", "1", "--order", "4",
                 "--probes", "1", "--out", out]) == 0
    assert calls["left"] == 1 and calls["family"] > 0
    assert calls["nest"] == calls["series"] == calls["left"] + calls["family"]


def test_step_residual_command(tmp_path):
    # the positive step potential through the whole residual check: every
    # anchored integral of both sides comes from the ordered-sector nest
    from kslab.cli import main

    out = tmp_path / "r.json"
    assert main(["residual", "--potential", "step", "--a", "0.8", "--epsilon", "1.3",
                 "--L", "4", "--M", "4", "--z", "0.1", "--n-max", "1", "--order", "12",
                 "--probes", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())["residual"]
    assert doc["sup_residual"] <= doc["error_bound"]
    for level in doc["levels"]:
        assert math.isfinite(level["error_bound"])
        assert level["sup_residual"] <= level["error_bound"]


def test_family_integral_error_enters_the_operator_bound(monkeypatch):
    # an error delta on every A_j / j! the family reads reaches the level-1
    # bound through the m = 1 term at least as |z| * sum |w kern| * delta
    # |z| / |Xi|, where sum |w kern| = (1 - e^{-beta eps}) * the window,
    # and every window is at least a long
    from kslab import partition
    from kslab.partition import assemble, evaluate
    from kslab.integrals import build_table

    p, z, delta = PairPotential.step(0.8, 1.3), 0.1, 1.0
    poly = assemble(build_table(p, Box((4.0,)), 4, order=12))
    plain = ks_residual(poly, z, 1, order=12, count=1).error_bound
    series = partition.anchored_series

    def inflated(*args):
        S, E = series(*args)
        return S, E + delta

    monkeypatch.setattr(partition, "anchored_series", inflated)
    raised = ks_residual(poly, z, 1, order=12, count=1).error_bound
    xi = abs(evaluate(poly, z)[0])
    carried = z * (1.0 - math.exp(-1.3)) * 0.8 * delta * z / xi
    assert raised - plain >= carried


def test_gauss_legendre_rule_is_shared_read_only():
    x, w = gauss_legendre(7)
    assert gauss_legendre(7)[0] is x
    np.testing.assert_allclose(w.sum(), 2.0, rtol=1e-15)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


# -- the batched application against the loop over probes it replaced ---------------


def _column(x, vals):
    """x (R,) against a family's values (R,) or rows (R, K)."""
    return x[:, None] if vals.ndim > 1 else x


def _reference_term_quadrature(p, box, phi, n, x1, rest, nodes, kmax):
    """One probe's m-term by its own nest pass, nodes[k - 1] per panel at level k,
    and its own family call: a number, or an array for a family of rows."""
    m = len(nodes)
    if m == 0:
        val = phi(n - 1, rest.reshape(1, n - 1, 1))[0] + 0.0j
        return val, np.sum(getattr(phi, "last_error", 0.0), axis=0) + 0.0
    prune = p.family == "hardcore" and getattr(phi, "vanishes_on_overlap", False)
    r = p.interaction_range
    lo, hi = max(0.0, x1 - r), min(box.extents[0], x1 + r)
    if r <= 0 or hi - lo <= 0 or (prune and (m - 1) * p.a >= hi - lo):
        return 0.0 + 0.0j, 0.0
    static = contact_lattice_rows(box.extents[0], r, kmax, np.append(rest, x1)[None])
    *_, (ys, ws, _) = ordered_sector(
        np.array([lo]), np.array([hi]), static, r, nodes, gap=r if prune else 0.0,
        exclude=rest[None] if prune else None, budget=math.inf)
    if len(ws) == 0:
        return 0.0 + 0.0j, 0.0
    kern = np.prod(p.mayer_f(np.abs(ys - x1)), axis=1)
    configs = np.concatenate([np.broadcast_to(rest, (len(ws), n - 1)), ys], axis=1)
    vals = phi(n - 1 + m, configs.reshape(-1, n - 1 + m, 1))
    wk = ws * kern
    carried = _column(np.abs(wk), vals) * getattr(phi, "last_error", 0.0)
    return np.dot(wk, vals) + 0.0j, np.sum(carried, axis=0)


def _reference_term_sampled(p, box, phi, n, x1, rest, m, seed):
    """One probe's replicate-sampled m-term by its own Sobol pass."""
    r = p.interaction_range
    lo, hi = max(0.0, x1 - r), min(box.extents[0], x1 + r)
    if r <= 0 or hi - lo <= 0:
        return 0.0 + 0.0j, 0.0
    level = n - 1 + m

    def estimate(u):
        ys = lo + (hi - lo) * u
        kern = np.prod(p.mayer_f(np.abs(ys - x1)), axis=1)
        configs = np.concatenate([np.broadcast_to(rest, (len(ys), n - 1)), ys], axis=1)
        vals = phi(level, configs.reshape(-1, level, 1))
        kern = _column(kern, vals)
        carried = np.abs(kern) * getattr(phi, "last_error", 0.0)
        return np.array([np.mean(kern * vals, axis=0), np.mean(carried, axis=0)]) * (hi - lo) ** m

    mean, spread = sobol_replicates(m, 1 << 12, seed, 8, estimate)
    fac = math.factorial(m)
    if mean.ndim > 1:  # rows of real entries
        return mean[0] / fac + 0.0j, (spread[0] + mean[1].real) / fac
    return complex(mean[0]) / fac, (float(spread[0]) + mean[1].real) / fac


def _reference_apply(p, box, phi, n, anchors, M, order=64, seed=42):
    """(K phi) at one anchor configuration, one probe at a time, as the
    operator was applied before its terms were batched over probes, with the
    operator's own node counts per level (_panel_nodes)."""
    x1, rest = float(anchors[0, 0]), anchors[1:, 0].copy()
    eW = 1.0
    if n > 1:
        eW = float(p.cross_weights(anchors[None])[0])
        if eW == 0.0:
            return 0.0 + 0.0j, 0.0
    kmax, inner_order = min(M + 1, 12), max(8, min(order, M + n + 4))
    pruned = p.family == "hardcore" and getattr(phi, "vanishes_on_overlap", False)
    total, err = 0.0 + 0.0j, 0.0
    for m in range(0 if n > 1 else 1, M - n + 1):
        if m >= 3 and not pruned:
            val, e = _reference_term_sampled(p, box, phi, n, x1, rest, m, seed + m)
            total, err = total + val, err + e
            continue
        nodes = _panel_nodes(phi, n, m, order, inner_order, kmax) if m else ([], [])
        fine, carried = _reference_term_quadrature(p, box, phi, n, x1, rest, nodes[0], kmax)
        err += carried
        if m >= 1:
            coarse, _ = _reference_term_quadrature(p, box, phi, n, x1, rest, nodes[1], kmax)
            d = fine - coarse
            err += 2.0 * np.hypot(d.real, d.imag) + 1e-15 * np.hypot(fine.real, fine.imag)
        total += fine
    return eW * total, eW * err


def _assert_batch_matches_reference(p, box, phi, n, probes, M, **kwargs):
    values, bounds = apply_ks_function(p, box, phi, n, probes, M, **kwargs)
    want = [_reference_apply(p, box, phi, n, anchors, M, **kwargs) for anchors in probes]
    shape = (len(probes),) + getattr(phi, "row_shape", ())
    want_values = np.array([np.broadcast_to(v, shape[1:]) for v, _ in want])
    want_bounds = np.array([np.broadcast_to(b, shape[1:]) for _, b in want])
    assert values.shape == bounds.shape == shape
    assert np.array_equal(values.view(np.int64), want_values.view(np.int64))
    assert np.array_equal(bounds.view(np.int64), want_bounds.view(np.int64))
    # a configuration on its own is a batch of one and gives the same scalars,
    # or the same row
    one = apply_ks_function(p, box, phi, n, probes[0], M, **kwargs)
    if len(shape) > 1:
        assert np.array_equal(one[0].view(np.int64), values[0].view(np.int64))
        assert np.array_equal(one[1].view(np.int64), bounds[0].view(np.int64))
        return values
    assert type(one[0]) is complex and type(one[1]) is float
    assert one == (values[0], bounds[0])
    return values


def test_batched_application_matches_probe_loop_on_hard_rods(tonks5):
    # pruned hard rods on the probe sets of the residual check, plus windows
    # clipped at both walls; level 2 holds the overlapping pair (e^{-W} = 0)
    # and level 3 the m = 0 term at two anchors
    p, box = tonks5.potential, tonks5.box
    fam = NumeratorFamily(tonks5, degree=5)
    walls = {1: [[[0.05]], [[4.98]]], 2: [[[0.1], [2.0]], [[4.95], [1.0]]],
             3: [[[0.2], [1.5], [3.9]], [[4.9], [0.5], [2.5]]]}
    for n in (1, 2, 3):
        probes = np.array(probe_anchor_sets(box, p, n, count=12) + walls[n])
        values = _assert_batch_matches_reference(p, box, fam, n, probes, 6, order=24)
        if n == 2:
            assert not values[-3].any()  # the overlapping pair
    # more probes than one chunk holds at the default order
    probes = np.array(probe_anchor_sets(box, p, 1, count=32))
    _assert_batch_matches_reference(p, box, fam, 1, probes, 6)


def test_batched_application_matches_probe_loop_off_hard_rods():
    box = Box((5.0,))
    step = PairPotential.step(0.8, 1.3)
    smooth = CallableFamily(lambda lvl, cfg: (0.3 + 0.1j) ** lvl * np.cos(cfg.sum(axis=(1, 2))))
    probes2 = np.array([[[0.3], [2.0]], [[2.5], [4.1]], [[4.7], [1.2]], [[2.0], [2.5]]])
    # the free gas: no kernel window, only the m = 0 term survives
    ideal = PairPotential.ideal()
    gas = NumeratorFamily(make_ideal(5.0, M=6), degree=5)
    _assert_batch_matches_reference(ideal, box, gas, 2, probes2, 6, order=16)
    # the step with a family that does not vanish on overlap: m >= 3 sampled,
    # over windows of many widths
    x = np.linspace(0.02, 4.97, 23)
    singles = x[:, None, None]
    pairs = np.stack([x, (x + 1.9) % 5.0], axis=1)[:, :, None]
    _assert_batch_matches_reference(step, box, smooth, 1, singles, 5, order=12)
    # quadrature alone, where the refinement terms make up the whole bound
    _assert_batch_matches_reference(step, box, smooth, 1, singles, 3, order=12)
    _assert_batch_matches_reference(step, box, smooth, 2, pairs, 6, order=12)
    _assert_batch_matches_reference(step, box, smooth, 2, pairs, 5, seed=3)  # m = 3 sampled
    # a step correlation family carries a per-row error into the bound
    poly = assemble(build_table(step, Box((4.0,)), 4, order=12))
    fam = NumeratorFamily(poly, degree=3)
    _assert_batch_matches_reference(step, poly.box, fam, 1, np.array([[[0.5]], [[3.7]]]), 4,
                                    order=12)


# -- node counts exact for the family's degree ------------------------------------------


def _order_rule_application(*args, **kwargs):
    """apply_ks_function with the exact-degree rule bypassed in its helper."""
    real = ksop._panel_nodes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ksop, "_panel_nodes", lambda phi, *rest: real(None, *rest))
        return apply_ks_function(*args, **kwargs)


@pytest.mark.parametrize("L, M", [(5.0, 6), (10.0, 11)])
@pytest.mark.parametrize("z", [0.2, -0.3, 0.3 + 0.2j])
def test_exact_degree_rule_gives_the_order_64_sums(L, M, z):
    # hard-rod correlations are polynomials between the cuts, so the node
    # counts exact for their degree give the order-64 sums to rounding, and
    # each side's bound covers the gap
    poly = make_tonks(L, M=M)
    p, box = poly.potential, poly.box
    fam = NumeratorFamily(poly, degree=M - 1)
    zpow = z ** np.arange(M)
    fine, coarse = _panel_nodes(fam, 1, 2, 64, M + 5, M + 1)
    assert fine == [c + 1 for c in coarse] and fine[0] < M
    for n in (1, 2, 3):
        probes = np.array(probe_anchor_sets(box, p, n, count=8))
        value, bound = apply_ks_function(p, box, fam, n, probes, M)
        ref, ref_bound = _order_rule_application(p, box, fam, n, probes, M)
        # K applied to the numerators summed at z: Xi times K applied to rho
        gap = np.abs((value - ref) @ zpow)
        assert gap.max() <= 1e-13 * np.abs(ref @ zpow).max()
        assert np.all(gap <= bound @ abs(zpow)) and np.all(gap <= ref_bound @ abs(zpow))


def test_understated_degree_is_caught_by_the_refinement_term(tonks5):
    # a family that declares d - 2 gets too few coarse nodes; the fine rule,
    # one node more per level, is then exact, and 2 |fine - coarse| shows the
    # coarse rule's miss in the bound
    class Understated(NumeratorFamily):
        def panel_degree(self, level):
            return super().panel_degree(level) - 2

    p, box = tonks5.potential, tonks5.box
    honest, fam = NumeratorFamily(tonks5, degree=5), Understated(tonks5, degree=5)
    zpow = 0.2 ** np.arange(6)  # the numerators summed at z = 0.2
    for n in (1, 2):
        probes = np.array(probe_anchor_sets(box, p, n, count=8))
        value, bound = apply_ks_function(p, box, fam, n, probes, 6)
        ref, _ = _order_rule_application(p, box, fam, n, probes, 6)
        assert np.all(np.abs((value - ref) @ zpow) <= bound @ zpow)
        assert bound.max() > 1e3 * apply_ks_function(p, box, honest, n, probes, 6)[1].max()


def test_families_outside_the_rule_keep_the_order_rule_bit_for_bit():
    # a callable declares no degree.  At hard rods M = 14 the lattice stops at
    # kmax = 12: it does not reach offset (d + 1) a = 13 a of the m = 1 term,
    # nor the m = 2 term's breakpoint at 12 a shifted by its inner cut y + a
    def same(*args, **kwargs):
        got, want = apply_ks_function(*args, **kwargs), _order_rule_application(*args, **kwargs)
        for g, w in zip(got, want):
            assert np.array_equal(np.asarray(g).view(np.int64), np.asarray(w).view(np.int64))

    smooth = CallableFamily(lambda lvl, cfg: (0.3 + 0.1j) ** lvl * np.cos(cfg.sum(axis=(1, 2))))
    pairs = np.array([[[0.3], [2.0]], [[2.5], [4.1]], [[4.7], [1.2]]])
    same(PairPotential.step(0.8, 1.3), Box((5.0,)), smooth, 2, pairs, 6, order=12)
    rods = make_tonks(14.0, M=14)
    fam = NumeratorFamily(rods, degree=13)
    for m in (1, 2):
        assert _panel_nodes(fam, 1, m, 64, 19, 12) == _panel_nodes(None, 1, m, 64, 19, 12)
    assert _panel_nodes(fam, 2, 1, 64, 20, 12) != _panel_nodes(None, 2, 1, 64, 20, 12)
    probes = np.array(probe_anchor_sets(rods.box, rods.potential, 1, count=8))
    same(rods.potential, rods.box, fam, 1, probes, 14, order=24)


def test_step_family_declares_its_degree_only_where_the_nest_gives_every_column():
    # three anchors spread at L = 12 stop the step nest at order 3 of 4, at
    # the point budget: nest_is_exact refuses that pair, and each pair it
    # admits reaches its order.  Where the step family declares its degree,
    # the exact counts give the order-rule sums to rounding
    step = PairPotential.step(0.8, 1.3)
    anchors = np.array([[[6.0], [6.37], [6.74]]])
    assert _sector_series(step, Box((12.0,)), anchors, 4)[2][0] == 3
    assert not nest_is_exact(3, 4)
    for n in (1, 2, 3):
        for jmax in filter(lambda j: nest_is_exact(n, j), range(DIMENSION_CAP + 1)):
            assert _sector_series(step, Box((12.0,)), anchors[:, :n], jmax)[2][0] == jmax
    poly = assemble(build_table(step, Box((4.0,)), 4, order=12))
    fam = NumeratorFamily(poly, degree=3)
    assert [fam.panel_degree(level) for level in (1, 2, 3)] == [2, 1, 0]
    probes = np.array(probe_anchor_sets(poly.box, step, 1, count=4))
    value, bound = apply_ks_function(step, poly.box, fam, 1, probes, 4, order=12)
    ref, ref_bound = _order_rule_application(step, poly.box, fam, 1, probes, 4, order=12)
    gap = np.abs(value - ref)
    assert gap.max() <= 1e-13 * np.abs(ref).max()
    assert np.all(gap <= bound) and np.all(gap <= ref_bound)
