"""Exactly solvable one-dimensional reference models.

Hard rods on a segment (the Tonks gas) and the ideal gas.  These provide
independent values for everything the numerical pipeline computes: the
pressure from the transcendental equation w*exp(a*w) = z, the density
from its derivative, and thermodynamic-limit series coefficients in closed
form.  Nothing in here touches the quadrature or matrix machinery, which
is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchError

_PRESSURE_TOL = 1e-13  # relative residual of the pressure root
_NEWTON_STEPS = 100  # iteration cap of each pressure solve


@dataclass(frozen=True)
class TonksModel:
    """Hard rods of diameter a on a line, thermodynamic limit."""

    a: float = 1.0

    @property
    def branch_point(self):
        """Activity at which the pressure equation folds: -1/(e*a)."""
        return -1.0 / (math.e * self.a)

    @property
    def cluster_radius(self):
        """Radius of the activity series of pressure and density: 1/(e*a)."""
        return 1.0 / (math.e * self.a)

    def pressure(self, z):
        """beta*p solving (beta*p) * exp(a*beta*p) = z on the principal branch.

        Positive activities are solved in logarithmic form, where Newton
        converges globally and overflow cannot occur however large z is;
        negative ones by safeguarded Newton on the bracket [-1/a, 0].
        Requires z >= -1/(e*a); the relative residual of the returned
        root is at most _PRESSURE_TOL.
        """
        a = self.a
        if z < self.branch_point:
            raise BranchError(
                f"activity {z} lies beyond the branch point {self.branch_point}",
                z=z, branch_point=self.branch_point,
            )
        if z == 0.0:
            return 0.0
        if z > 0.0:
            # with u = a*w the equation reads log(u) + u = log(a*z);
            # the left side is increasing and concave in u, so Newton
            # brackets itself after one step from any positive start
            x = a * z
            lx = math.log(x)
            u = math.log1p(x)
            for _ in range(_NEWTON_STEPS):
                step = (math.log(u) + u - lx) / (1.0 / u + 1.0)
                u -= step
                if abs(step) <= 1e-16 * (1.0 + abs(u)):
                    break
            resid = abs(math.log(u) + u - lx) / (1.0 + abs(lx) + u)
            if resid > _PRESSURE_TOL:
                raise BranchError(
                    f"pressure solve stalled at residual {resid}", z=z
                )
            return u / a

        def g(w):
            return w * math.exp(a * w) - z

        # -1/(e*a) <= z < 0: the root lies on the bracket [-1/a, 0]
        lo, hi = -1.0 / a, 0.0
        w = z  # exact at leading order for small |z|
        if not (lo <= w <= hi):
            w = 0.5 * (lo + hi)
        for _ in range(_NEWTON_STEPS):
            gv = g(w)
            if gv > 0:
                hi = w
            else:
                lo = w
            dg = (1.0 + a * w) * math.exp(a * w)
            step_ok = dg > 0.0
            if step_ok:
                w_new = w - gv / dg
            if not step_ok or not (lo < w_new < hi):
                w_new = 0.5 * (lo + hi)
            if abs(w_new - w) <= 1e-16 * (1.0 + abs(w)):
                w = w_new
                break
            w = w_new
        resid = abs(w * math.exp(a * w) - z) / (abs(z) + abs(w) + 1e-300)
        if resid > _PRESSURE_TOL:
            raise BranchError(f"pressure solve stalled at residual {resid}", z=z)
        return w

    def density(self, z):
        """rho_1(z) = beta*p / (1 + a*beta*p); always below 1/a."""
        w = self.pressure(z)
        return w / (1.0 + self.a * w)

    def pressure_series(self, N):
        """Activity series of beta*p: (-1)^(k-1) k^(k-1) a^(k-1) / k!, k = 1..N."""
        return np.array(
            [(-1.0) ** (k - 1) * k ** (k - 1) * self.a ** (k - 1) / math.factorial(k)
             for k in range(1, N + 1)]
        )

    def density_series(self, N):
        """Activity series of rho_1: (-1)^(k-1) k^k a^(k-1) / k!, k = 1..N."""
        return np.array(
            [(-1.0) ** (k - 1) * k**k * self.a ** (k - 1) / math.factorial(k)
             for k in range(1, N + 1)]
        )

    @property
    def virial_radius(self):
        return 1.0 / self.a


@dataclass(frozen=True)
class IdealModel:
    """Non-interacting gas: Xi = exp(z*V), no zeros, rho_n = z^n."""

    volume: float = 1.0

    @property
    def cluster_radius(self):
        return float("inf")

