import math

import numpy as np
import pytest

from kslab.errors import ConfigError
from kslab.potentials import PairPotential, regularity_C, separations


def test_config_round_trip():
    for p in (
        PairPotential.ideal(beta=2.0, dimension=3),
        PairPotential.hardcore(0.7, beta=1.5, dimension=2),
        PairPotential.step(1.2, 0.8, beta=0.5, dimension=1),
    ):
        q = PairPotential.from_config(p.to_config())
        assert q.family == p.family
        assert q.a == p.a and q.epsilon == p.epsilon
        assert q.beta == p.beta and q.dimension == p.dimension


def test_custom_from_config_needs_table():
    with pytest.raises(ConfigError):
        PairPotential.from_config({"family": "custom"})
    cfg = {"family": "custom", "r_values": [0.5, 1.0, 2.0],
           "phi_values": [3.0, 1.0, 0.0]}
    p = PairPotential.from_config(cfg)
    assert p.family == "custom"


def test_validation_errors():
    with pytest.raises(ConfigError):
        PairPotential.hardcore(-1.0)
    with pytest.raises(ConfigError):
        PairPotential.hardcore(1.0, beta=0.0)
    with pytest.raises(ConfigError):
        PairPotential.ideal(dimension=0)
    with pytest.raises(ConfigError):
        PairPotential.step(1.0, -0.5)
    with pytest.raises(ConfigError):
        PairPotential.from_config({"a": 1.0})
    # custom table radii must increase
    with pytest.raises(ConfigError):
        PairPotential.custom([1.0, 0.5], [0.0, 1.0])


def test_regularity_closed_forms():
    assert regularity_C(PairPotential.ideal()) == (0.0, 0.0)
    C, err = regularity_C(PairPotential.hardcore(1.0))
    assert err == 0.0 and C == pytest.approx(2.0, rel=1e-14)
    C2, _ = regularity_C(PairPotential.hardcore(0.7, dimension=2))
    assert C2 == pytest.approx(math.pi * 0.49, rel=1e-12)
    C3, _ = regularity_C(PairPotential.hardcore(0.5, dimension=3))
    assert C3 == pytest.approx(4.0 / 3.0 * math.pi * 0.125, rel=1e-12)
    beta, a, eps = 1.0, 0.8, 1.2
    Cs, _ = regularity_C(PairPotential.step(a, eps, beta=beta))
    assert Cs == pytest.approx((1.0 - math.exp(-beta * eps)) * 2 * a, rel=1e-12)


def test_regularity_custom_matches_step():
    # a tabulated copy of the finite step must integrate to the same C
    beta, a, eps = 1.0, 0.8, 1.2
    r = np.array([1e-6, a - 1e-9, a, 2 * a])
    phi = np.array([eps, eps, 0.0, 0.0])
    C, err = regularity_C(PairPotential.custom(r, phi, beta=beta))
    want = (1.0 - math.exp(-beta * eps)) * 2 * a
    assert abs(C - want) <= max(1e-6, 10 * err)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("r, phi", [
    ([0.2, 0.5, 1.0, 1.5], [5.0, 2.0, 0.5, 0.0]),   # soft repulsion
    ([0.3, 0.8, 1.2, 2.0], [3.0, -0.5, -0.2, 0.0]),  # phi changes sign inside a panel
    ([0.1, 0.6, 1.0], [40.0, 1.0, 0.0]),             # a steep first panel
])
def test_regularity_custom_matches_adaptive_quadrature(r, phi, dim):
    # the panel rules against quad's adaptive radial integral, within the two bounds
    from scipy import integrate

    p = PairPotential.custom(np.array(r), np.array(phi), beta=2.0, dimension=dim)
    C, err = regularity_C(p)
    val, qerr = integrate.quad(lambda x: abs(p.mayer_f(x)) * x ** (dim - 1), 0.0, r[-1],
                               points=r[:-1], limit=200)
    want = val * 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    assert abs(C - want) <= max(err + want / val * qerr, 1e-13 * want)


def test_weights_vectorized_consistent():
    p = PairPotential.hardcore(1.0)
    pts = np.array([[[0.1], [0.5]], [[0.1], [1.6]]])  # overlapping, free
    w = p.weights_many(pts)
    assert w[0] == 0.0 and w[1] == 1.0


# -- the pair-separation kernel against the gathered-difference formula ---------


def _reference_separations(u, v):
    """The formula every call site used before separations: the (..., dim)
    difference array, squared and reduced over its last axis."""
    return np.sqrt(((u - v) ** 2).sum(axis=-1))


def _reference_weights_many(p, configs):
    nc, n, _ = configs.shape
    if n < 2:
        return np.ones(nc)
    iu = np.triu_indices(n, k=1)
    seps = _reference_separations(configs[:, iu[0], :], configs[:, iu[1], :])
    if p.family == "ideal":
        return np.ones(nc)
    if p.family == "hardcore":
        return np.where((seps < p.a).any(axis=1), 0.0, 1.0)
    phi = p.evaluate_phi(seps)
    bad = np.isinf(phi).any(axis=1)
    U = np.where(bad, 0.0, phi.sum(axis=1))
    out = np.exp(-p.beta * U)
    out[bad] = 0.0
    return out


def _reference_energy(p, seps):
    if seps.size == 0:
        return 0.0, 1.0
    phi = np.asarray(p.evaluate_phi(seps), dtype=float)
    if np.any(np.isinf(phi)):
        return float("inf"), 0.0
    U = float(phi.sum())
    return U, math.exp(-p.beta * U)


def _planted_points(rng, shape, a):
    """Uniform points in [0, 3]^dim, with a pair exactly a apart along axis 0
    and a coincident pair planted in every configuration that has room."""
    x = rng.uniform(0.0, 3.0, shape)
    if shape[-2] >= 3:
        x[..., 1, :] = x[..., 0, :]
        x[..., 2, :] = x[..., 0, :]
        x[..., 2, 0] += a
    return x


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["ideal", "hardcore", "step", "custom"])
def test_separation_kernel_matches_gathered_differences(family, dim, monkeypatch):
    # every call site gives the same bits as the formula it replaced, at
    # separations exactly equal to a and 0, for single configurations (whose
    # pair sum numpy reduces pairwise from 8 pairs on) and for batches (one
    # pair after another)
    from kslab import integrals

    a = 1.0
    p = {"ideal": PairPotential.ideal(beta=1.3, dimension=dim),
         "hardcore": PairPotential.hardcore(a, beta=1.3, dimension=dim),
         "step": PairPotential.step(a, 0.7, beta=1.3, dimension=dim),
         "custom": PairPotential.custom([0.0, 0.4, 0.7, 1.0], [2.0, 0.9, -0.3, 0.0],
                                        beta=1.3, dimension=dim)}[family]
    rng = np.random.default_rng(17 + dim)
    for n in range(9):
        for nc in (1, 5, 300):
            configs = _planted_points(rng, (nc, n, dim), a)
            got = p.weights_many(configs)
            assert np.array_equal(got, _reference_weights_many(p, configs))
            u, v = configs[:, :, None], configs[:, None]
            assert np.array_equal(separations(u, v), _reference_separations(u, v))
        if n:  # the cross weights of the last batch, row by row
            want = [_reference_energy(p, _reference_separations(c[1:], c[0][None, :]))[1]
                    for c in configs]
            assert np.array_equal(p.cross_weights(configs), want)
    X = _planted_points(rng, (40, dim), a)
    X[3] = X[7]
    want = p.boltzmann(_reference_separations(X[:, None, :], X[None, :, :]))
    assert np.array_equal(integrals._pair_matrix(p, X), want)
    monkeypatch.setattr(integrals, "_BLOCK", 40 * dim)  # one row per block
    assert np.array_equal(integrals._pair_matrix(p, X), want)


def test_separations_of_single_points_and_mismatched_coordinates():
    # a single point counts as one row; points of different dimension are
    # refused rather than compared on their common axes
    got = separations(np.array([0.0, 3.0]), np.array([4.0, 0.0]))
    assert got.shape == (1,) and got[0] == 5.0
    assert np.array_equal(separations(np.zeros((4, 2)), np.array([3.0, 4.0])), np.full(4, 5.0))
    with pytest.raises(ValueError):
        separations(np.zeros((4, 2)), np.zeros((4, 3)))
