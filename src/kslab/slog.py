"""Signed log-magnitude scalars.

Configuration integrals grow factorially with particle number, so tables
keep every value as (sign, log|value|) next to the raw float.  The raw
float is used whenever it is representable; the log form is authoritative
for storage and for ratios that would overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SLog:
    """A real number stored as sign and natural log of its magnitude."""

    sign: int  # -1, 0, +1
    log_mag: float  # log|x|; -inf when sign == 0

    @staticmethod
    def from_value(x: float) -> "SLog":
        if x == 0.0:
            return SLog(0, float("-inf"))
        return SLog(1 if x > 0 else -1, math.log(abs(x)))

    @staticmethod
    def from_log(sign: int, log_mag: float) -> "SLog":
        if sign == 0 or log_mag == float("-inf"):
            return SLog(0, float("-inf"))
        return SLog(1 if sign > 0 else -1, float(log_mag))

    @property
    def value(self) -> float:
        """Raw float; overflows to +-inf when the magnitude is not representable."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_mag)
        except OverflowError:
            return self.sign * float("inf")

    def scaled(self, factor_log: float) -> "SLog":
        """Multiply by exp(factor_log) without leaving log space."""
        if self.sign == 0:
            return self
        return SLog(self.sign, self.log_mag + factor_log)
