"""Exactly solvable one-dimensional reference models.

Hard rods on a segment (the Tonks gas) and the ideal gas.  These provide
independent values for everything the numerical pipeline computes: the
pressure from the transcendental equation w*exp(a*w) = z, which Lambert's
W solves, the density from its derivative, and thermodynamic-limit series
coefficients in closed form.  Nothing in here touches the quadrature or
matrix machinery, which is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchError


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
        """beta*p solving (beta*p) * exp(a*beta*p) = z on the principal branch:
        W(a*z)/a with Lambert's W (Corless et al., Adv. Comput. Math. 5, 1996).

        Requires z >= -1/(e*a).  mpmath's W, unlike scipy's, stays finite at
        the float next to the branch point -1/e.
        """
        from mpmath import mp

        if z < self.branch_point:
            raise BranchError(
                f"activity {z} lies beyond the branch point {self.branch_point}",
                z=z, branch_point=self.branch_point,
            )
        return float(mp.lambertw(self.a * z).real) / self.a

    def density(self, z):
        """rho_1(z) = beta*p / (1 + a*beta*p); below 1/a, infinite at the branch point."""
        w = self.pressure(z)
        if 1.0 + self.a * w <= 0.0:
            raise BranchError(f"the density diverges at the branch point {self.branch_point}",
                              z=z, branch_point=self.branch_point)
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

