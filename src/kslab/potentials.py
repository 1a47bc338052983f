"""Pair potentials and energies of finite point configurations.

Four families are implemented: an ideal (non-interacting) gas, a hard core
of diameter a, a positive step of height epsilon on (0, a), and a custom
tabulated potential used to exercise the stable-regular code paths in
tests.  Energies are always reported together with the Boltzmann weight
exp(-beta * U) so that hard-core overlaps never travel through exp(+inf):
an overlapping pair short-circuits to weight 0.

Every pair separation |x_i - x_j| in kslab (batched weights, energies, the
quadrature's pair matrix) comes from one kernel, _root_sum_squares: through
separations for broadcast arrays, and from per-axis gathers in weights_many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NotRegular

FAMILIES = ("ideal", "hardcore", "step", "custom")


def separations(u, v):
    """|u - v| over the last (coordinate) axis, for arrays of points.

    u and v share the last axis, dim, and their leading axes broadcast
    together into the result's; a single point (1-D) counts as one row, so
    the result is at least 1-D.  Equal bit for bit to the square root of
    ((u - v)**2).sum(-1), without the (..., dim) difference array or a
    reduction over its short last axis (see _root_sum_squares).
    """
    u, v = np.atleast_2d(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    if u.shape[-1] != v.shape[-1]:
        raise ValueError(f"points of {u.shape[-1]} and {v.shape[-1]} coordinates")
    return _root_sum_squares(u[..., k] - v[..., k] for k in range(u.shape[-1]))


def _root_sum_squares(diffs):
    """sqrt(d_0^2 + d_1^2 + ...) of the per-axis difference arrays diffs yields.

    Each d, a fresh array the caller gives up, is squared and added in place,
    left to right as numpy's add.reduce sums a last axis shorter than 8.
    """
    for k, d in enumerate(diffs):
        d *= d
        if k:
            sq += d
        else:
            sq = d
    return np.sqrt(sq, out=sq)


def _pair_differences(configs, i, j):
    """x_i - x_j over the pairs (i, j) of configs (nc, n, dim): per axis, one
    (nc, pairs) gather from the axis's (nc, n) view, subtracted in place.

    numpy lays a gather out pair-major, so each array is column-major, and
    weights_many's row sums add a row's pairs one after another; a row-major
    array of 8 or more pairs would be summed pairwise, into other bits.
    """
    for x in configs.transpose(2, 0, 1):
        d = x[:, i]
        d -= x[:, j]
        yield d


# ball volume and sphere surface in nu dimensions
def _ball_volume(radius, dim):
    return math.pi ** (dim / 2.0) * radius**dim / math.gamma(dim / 2.0 + 1.0)


def _sphere_surface(dim):
    # measure of the unit sphere S^{dim-1}; equals 2 for dim == 1
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass
class PairPotential:
    """Radial pair potential with inverse temperature folded in.

    Parameters
    ----------
    family : str
        One of "ideal", "hardcore", "step", "custom".
    a : float
        Core (or step) range.  Unused for "ideal".
    epsilon : float
        Step height, "step" family only.
    beta : float
        Inverse temperature used by every weight computed here.
    dimension : int
        Spatial dimension nu of the points the potential acts on.
    table : (r, phi) arrays
        Knots for the "custom" family; linear interpolation between knots,
        zero beyond the last knot.
    """

    family: str
    a: float = 1.0
    epsilon: float = 0.0
    beta: float = 1.0
    dimension: int = 1
    table: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown potential family {self.family!r}")
        if not 0 < self.beta < math.inf:
            raise ConfigError(f"beta must be positive and finite, got {self.beta}")
        if not math.isfinite(self.a) or math.isnan(self.epsilon):
            raise ConfigError("range a must be finite and step height epsilon not NaN")
        if self.dimension < 1:
            raise ConfigError("dimension must be >= 1")
        if self.family in ("hardcore", "step") and self.a <= 0:
            raise ConfigError("range a must be positive")
        if self.family == "step" and self.epsilon < 0:
            raise ConfigError("step height epsilon must be >= 0")
        if self.family == "custom":
            if self.table is None:
                raise ConfigError("custom potential needs a (r, phi) table")
            r, phi = (np.asarray(v, dtype=float) for v in self.table)
            if r.ndim != 1 or r.shape != phi.shape or len(r) < 2:
                raise ConfigError("custom table must be two 1-d arrays of equal length >= 2")
            if not np.all(np.diff(r) > 0):
                raise ConfigError("custom table radii must be strictly increasing")
            if np.isnan(phi).any():
                raise ConfigError("custom table values phi must not be NaN")
            object.__setattr__(self, "table", (r, phi))

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def ideal(beta=1.0, dimension=1):
        return PairPotential("ideal", a=0.0, beta=beta, dimension=dimension)

    @staticmethod
    def hardcore(a, beta=1.0, dimension=1):
        return PairPotential("hardcore", a=a, beta=beta, dimension=dimension)

    @staticmethod
    def step(a, epsilon, beta=1.0, dimension=1):
        return PairPotential("step", a=a, epsilon=epsilon, beta=beta, dimension=dimension)

    @staticmethod
    def custom(r, phi, beta=1.0, dimension=1):
        return PairPotential("custom", a=float(np.max(r)), beta=beta,
                             dimension=dimension, table=(r, phi))

    @staticmethod
    def from_config(cfg: dict) -> "PairPotential":
        """Build from the structured config mapping (keys: family, a, epsilon, beta, dimension)."""
        if "family" not in cfg:
            raise ConfigError("potential config needs a 'family' key")
        try:
            dim = float(cfg.get("dimension", 1))
            kwargs = dict(family=cfg["family"], a=float(cfg.get("a", 1.0)),
                          epsilon=float(cfg.get("epsilon", 0.0)),
                          beta=float(cfg.get("beta", 1.0)), dimension=int(dim))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"potential config values must be numbers: {exc}") from None
        if kwargs["dimension"] != dim:
            raise ConfigError(f"potential config dimension must be an integer, got {dim:g}")
        if cfg["family"] == "custom":
            try:
                kwargs["table"] = (cfg["r_values"], cfg["phi_values"])
            except KeyError as exc:
                raise ConfigError("custom potential config needs r_values and phi_values") from exc
        return PairPotential(**kwargs)

    def to_config(self) -> dict:
        cfg = {
            "family": self.family,
            "a": self.a,
            "epsilon": self.epsilon,
            "beta": self.beta,
            "dimension": self.dimension,
        }
        if self.family == "custom":
            r, phi = self.table
            cfg["r_values"] = [float(v) for v in r]
            cfg["phi_values"] = [float(v) for v in phi]
        return cfg

    # -- pointwise evaluation ------------------------------------------------

    def evaluate_phi(self, r):
        """Potential value at separation r (scalar or array).  May be +inf."""
        r = np.asarray(r, dtype=float)
        if np.any(r < 0):
            raise ValueError("separations must be >= 0")
        if self.family == "ideal":
            out = np.zeros_like(r)
        elif self.family == "hardcore":
            out = np.where(r < self.a, np.inf, 0.0)
        elif self.family == "step":
            out = np.where(r < self.a, self.epsilon, 0.0)
        else:
            rk, pk = self.table
            out = np.interp(r, rk, pk, left=pk[0], right=0.0)
        return out if out.ndim else float(out)

    def boltzmann(self, r):
        """exp(-beta*phi(r)) without evaluating exp at +inf."""
        r = np.asarray(r, dtype=float)
        if self.family == "ideal":
            out = np.ones_like(r)
        elif self.family == "hardcore":
            out = np.where(r < self.a, 0.0, 1.0)
        else:
            phi = np.asarray(self.evaluate_phi(r), dtype=float)
            out = np.zeros_like(phi)
            finite = np.isfinite(phi)
            out[finite] = np.exp(-self.beta * phi[finite])
        return out if out.ndim else float(out)

    def mayer_f(self, r):
        """Mayer function exp(-beta*phi(r)) - 1."""
        b = np.asarray(self.boltzmann(r), dtype=float)
        out = b - 1.0
        return out if out.ndim else float(out)

    @property
    def interaction_range(self):
        """Radius beyond which the Mayer function vanishes identically (inf if none)."""
        if self.family == "ideal":
            return 0.0
        if self.family in ("hardcore", "step"):
            return self.a
        r, phi = self.table
        nz = np.nonzero(phi)[0]
        return float(r[nz[-1] + 1]) if len(nz) and nz[-1] + 1 < len(r) else float(r[-1])

    @property
    def has_hard_core(self):
        if self.family == "hardcore":
            return True
        if self.family == "custom":
            return bool(np.any(~np.isfinite(self.table[1])))
        return False

    @property
    def is_positive(self):
        if self.family in ("ideal", "hardcore", "step"):
            return True
        return bool(np.all(self.table[1] >= 0))

    # -- configuration energies ----------------------------------------------

    def cross_weights(self, configs):
        """exp(-beta * W) per configuration (nc, n, dim), W the energy between its
        first point and the others: 1 for n = 1, 0 where W is infinite.

        W comes from the cross pairs alone, so it stays well-defined even when
        the others overlap among themselves; each row sums its pairs as a
        one-row array would, and the exponential is math.exp, row by row.
        """
        configs = np.asarray(configs, dtype=float)
        phi = np.asarray(self.evaluate_phi(separations(configs[:, 1:], configs[:, :1])),
                         dtype=float)
        return np.array([0.0 if hit else math.exp(-self.beta * W) for hit, W
                         in zip(np.isinf(phi).any(axis=1).tolist(), phi.sum(axis=1).tolist())])

    def weights_many(self, configs):
        """Vectorized exp(-beta*U) over an array of configurations.

        configs has shape (nc, n, dim); returns shape (nc,).  The ideal gas
        returns before any arithmetic; otherwise the i < j pair separations
        come from _pair_differences, gathered axis by axis.
        """
        configs = np.asarray(configs, dtype=float)
        nc, n, _ = configs.shape
        if n < 2 or self.family == "ideal":
            return np.ones(nc)
        i, j = np.triu_indices(n, k=1)
        seps = _root_sum_squares(_pair_differences(configs, i, j))
        if self.family == "hardcore":
            return np.where((seps < self.a).any(axis=1), 0.0, 1.0)
        phi = self.evaluate_phi(seps)
        bad = np.isinf(phi).any(axis=1)
        U = np.where(bad, 0.0, phi.sum(axis=1))
        out = np.exp(-self.beta * U)
        out[bad] = 0.0
        return out


# -- regularity ------------------------------------------------------------


def regularity_C(p: PairPotential):
    """Integral of |exp(-beta*phi) - 1| over space, with an error bound.

    Closed forms exist for the named families (the integrand is an
    indicator times a constant).  The custom family's phi is linear between
    knots and flat below the first, so the radial integrand |f| r^(dim-1)
    is smooth on each knot panel cut where phi changes sign: panel
    Gauss-Legendre at 32 and 16 nodes, their difference the error bound.
    Returns (C, error_bound).
    """
    dim = p.dimension
    if p.family == "ideal":
        return 0.0, 0.0
    if p.family == "hardcore":
        return _ball_volume(p.a, dim), 0.0
    if p.family == "step":
        return (1.0 - math.exp(-p.beta * p.epsilon)) * _ball_volume(p.a, dim), 0.0

    from .integrals import panel_rule  # integrals imports this module

    r, phi = p.table
    if not np.all(np.isfinite(phi)):
        raise NotRegular("custom table contains non-finite potential values")
    lo, hi, sign = phi[:-1], phi[1:], phi[:-1] * phi[1:] < 0
    cuts = [*r, *(r[:-1] + np.diff(r) * lo / np.where(sign, lo - hi, 1.0))[sign]]
    fine, coarse = (float(np.dot(w, np.abs(p.mayer_f(x)) * x ** (dim - 1)))
                    for x, w in (panel_rule(0.0, float(r[-1]), cuts, n) for n in (32, 16)))
    if not np.isfinite(fine):
        raise NotRegular("radial quadrature of |f| diverged")
    s = _sphere_surface(dim)
    return s * fine, s * abs(fine - coarse)
