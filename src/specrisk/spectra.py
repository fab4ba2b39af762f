"""Risk-aversion weight functions (spectra) on the unit interval.

A spectrum is a nonnegative, nondecreasing weight function integrating to 1;
averaging a quantile function against it yields a spectral risk measure.
Both spectra here expose closed-form integrals over probability segments so
step quantile functions integrate exactly, the (1-u)-weighted moments the
asymptotic-variance plug-in needs, and the two whole-interval moments that
give the spectral risk measure of a parametric quantile in closed form:
``log_moment`` for -ln(1-u) (shifted exponential) and ``power_moment(s)``
for (1-u)^(-s) (Pareto I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = ["ExponentialSpectrum", "ExpectedShortfallSpectrum"]


@dataclass(frozen=True)
class ExponentialSpectrum:
    """Exponential risk-aversion spectrum with coefficient ``k``.

    phi(u) = k exp(-k (1-u)) / (1 - exp(-k)) for k > 0.  Larger ``k`` shifts
    weight toward high quantiles.  ``k = 0`` denotes the uniform limit
    phi(u) = 1 (the weight function of the plain mean), which the closed
    forms below would hit 0/0 on.
    """

    k: float

    def __post_init__(self) -> None:
        if self.k < 0 or not np.isfinite(self.k):
            raise ValueError(f"risk-aversion coefficient must be >= 0, got {self.k}")

    @property
    def is_uniform_limit(self) -> bool:
        return self.k == 0.0

    def phi(self, u):
        """Weight density at level ``u``."""
        u = np.asarray(u, dtype=float)
        if self.is_uniform_limit:
            out = np.ones_like(u)
        else:
            out = self.k * np.exp(-self.k * (1.0 - u)) / -np.expm1(-self.k)
        return float(out) if out.ndim == 0 else out

    def segment_integral(self, a, b):
        """Integral of phi over [a, b], exact in closed form."""
        a, b = _check_segment(a, b)
        if self.is_uniform_limit:
            out = b - a
        else:
            out = (np.exp(-self.k * (1.0 - b)) - np.exp(-self.k * (1.0 - a))) / -np.expm1(-self.k)
        return float(out) if out.ndim == 0 else out

    def decay_integral(self, a, b):
        """Integral of (1-u) phi(u) over [a, b]."""
        a, b = _check_segment(a, b)
        if self.is_uniform_limit:
            out = ((1.0 - a) ** 2 - (1.0 - b) ** 2) / 2.0
        else:
            k = self.k
            anti = lambda s: (s + 1.0 / k) * np.exp(-k * s)
            out = (anti(1.0 - b) - anti(1.0 - a)) / -np.expm1(-k)
        return float(out) if out.ndim == 0 else out

    def log_moment(self) -> float:
        """Integral of phi(u) (-ln(1-u)) over [0, 1]: Ein(k) / (1 - e^-k)."""
        if self.is_uniform_limit:
            return 1.0
        return _ein(self.k) / -math.expm1(-self.k)

    def power_moment(self, s: float) -> float:
        """Integral of phi(u) (1-u)^(-s) over [0, 1], for 0 <= s < 1.

        Equals k^s Gamma(1-s) P(1-s, k) / (1 - e^-k), with P the regularized
        lower incomplete gamma function (Abramowitz & Stegun 6.5.1).
        """
        _check_power(s)
        if self.is_uniform_limit:
            return 1.0 / (1.0 - s)
        k = self.k
        return k**s * special.gamma(1.0 - s) * special.gammainc(1.0 - s, k) / -math.expm1(-k)

    def describe(self) -> str:
        return f"exponential(k={self.k:g})"


@dataclass(frozen=True)
class ExpectedShortfallSpectrum:
    """Indicator spectrum phi(u) = 1{u >= p} / (1-p): the expected-shortfall weights."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"tail level must lie in [0, 1), got {self.p}")

    def phi(self, u):
        u = np.asarray(u, dtype=float)
        out = np.where(u >= self.p, 1.0 / (1.0 - self.p), 0.0)
        return float(out) if out.ndim == 0 else out

    def segment_integral(self, a, b):
        a, b = _check_segment(a, b)
        lo = np.maximum(a, self.p)
        out = np.maximum(b - lo, 0.0) / (1.0 - self.p)
        return float(out) if out.ndim == 0 else out

    def decay_integral(self, a, b):
        a, b = _check_segment(a, b)
        lo = np.maximum(a, self.p)
        hi = np.maximum(b, lo)
        out = ((1.0 - lo) ** 2 - (1.0 - hi) ** 2) / (2.0 * (1.0 - self.p))
        return float(out) if out.ndim == 0 else out

    def log_moment(self) -> float:
        """Integral of phi(u) (-ln(1-u)) over [0, 1]: 1 - ln(1-p)."""
        return 1.0 - math.log1p(-self.p)

    def power_moment(self, s: float) -> float:
        """Integral of phi(u) (1-u)^(-s) over [0, 1]: (1-p)^(-s) / (1-s), for 0 <= s < 1."""
        _check_power(s)
        return (1.0 - self.p) ** -s / (1.0 - s)

    def describe(self) -> str:
        return f"expected-shortfall(p={self.p:g})"


def _ein(k: float) -> float:
    """Ein(k) = integral of (1 - e^-t)/t over [0, k] = gamma + ln k + E1(k) (A&S 5.1.39).

    For k <= 1 the three terms of the second form nearly cancel (about 1e-3
    relative error at k = 1e-12), so there Ein comes from its alternating
    series sum_j (-1)^(j+1) k^j / (j j!), whose terms fall below 1e-20 by
    j = 20.
    """
    if k > 1.0:
        return float(np.euler_gamma + math.log(k) + special.exp1(k))
    total, term = 0.0, 1.0
    for j in range(1, 21):
        term *= -k / j  # (-1)^j k^j / j!
        total -= term / j
    return total


def _check_power(s: float) -> None:
    if not 0.0 <= s < 1.0:
        raise ValueError(f"power moment needs 0 <= s < 1, got {s}")


def _check_segment(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a < 0.0) or np.any(b > 1.0) or np.any(a > b):
        raise ValueError("segment bounds must satisfy 0 <= a <= b <= 1")
    return a, b
