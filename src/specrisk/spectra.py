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
from functools import cached_property

import numpy as np
import scipy

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

    @cached_property
    def _norm(self) -> float:
        # 1 - e^-k, the mass of k e^(-k(1-u)) on [0, 1]
        return float(-np.expm1(-self.k))

    def phi(self, u):
        """Weight density at level ``u``."""
        if isinstance(u, float):
            # quad's callback: the array path's numpy routines, without the arrays
            # (and without the property call of is_uniform_limit)
            if self.k == 0.0:
                return 1.0
            return self.k * float(np.exp(-self.k * (1.0 - u))) / self._norm
        u = np.asarray(u, dtype=float)
        if self.is_uniform_limit:
            out = np.ones_like(u)
        else:
            out = self.k * np.exp(-self.k * (1.0 - u)) / self._norm
        return float(out) if out.ndim == 0 else out

    def segment_integral(self, a, b):
        """Integral of phi over [a, b], exact in closed form."""
        a, b = _check_segment(a, b)
        if self.is_uniform_limit:
            out = b - a
        else:
            out = (np.exp(-self.k * (1.0 - b)) - np.exp(-self.k * (1.0 - a))) / self._norm
        return float(out) if out.ndim == 0 else out

    def segment_masses(self, edges):
        """Integral of phi over each segment between consecutive ``edges`` along the last axis.

        Equal bit for bit to ``segment_integral(edges[..., :-1], edges[..., 1:])``,
        but neighbouring segments share their ends, so each edge costs one exp
        instead of two.
        """
        edges = _check_edges(edges)
        tails = 1.0 - edges
        # in place: one more array of the edges' size would be paged in
        # afresh whenever it is large
        return self._masses(edges, tails, out=tails)

    def _masses(self, edges: np.ndarray, tails: np.ndarray, out=None) -> np.ndarray:
        """``segment_masses`` of checked float ``edges``, given ``tails`` = 1 - edges.

        The exponentials are formed in ``out``, a new array by default, which
        may be ``tails`` itself.
        """
        if self.is_uniform_limit or edges.shape[-1] < 2:
            # b - a; with no segment, no exp of an edge that bounds none
            return np.diff(edges)
        ends = np.multiply(tails, -self.k, out=out)
        np.exp(ends, out=ends)
        masses = np.diff(ends)
        masses /= self._norm
        return masses

    def decay_integral(self, a, b):
        """Integral of (1-u) phi(u) over [a, b]."""
        a, b = _check_segment(a, b)
        if self.is_uniform_limit:
            out = ((1.0 - a) ** 2 - (1.0 - b) ** 2) / 2.0
        else:
            k = self.k
            anti = lambda s: (s + 1.0 / k) * np.exp(-k * s)
            out = (anti(1.0 - b) - anti(1.0 - a)) / self._norm
        return float(out) if out.ndim == 0 else out

    def log_moment(self) -> float:
        """Integral of phi(u) (-ln(1-u)) over [0, 1]: Ein(k) / (1 - e^-k)."""
        if self.is_uniform_limit:
            return 1.0
        return _ein(self.k) / -math.expm1(-self.k)

    def power_moment(self, s):
        """Integral of phi(u) (1-u)^(-s) over [0, 1], for 0 <= s < 1 (NaN for a NaN s).

        Equals k^s Gamma(1-s) P(1-s, k) / (1 - e^-k), with P the regularized
        lower incomplete gamma function (Abramowitz & Stegun 6.5.1).
        """
        s = _check_power(s)
        if self.is_uniform_limit:
            out = 1.0 / (1.0 - s)
        else:
            k = self.k
            out = (
                _pow(k, s) * scipy.special.gamma(1.0 - s) * scipy.special.gammainc(1.0 - s, k)
            ) / -math.expm1(-k)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ExpectedShortfallSpectrum:
    """Indicator spectrum phi(u) = 1{u >= p} / (1-p): the expected-shortfall weights."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"tail level must lie in [0, 1), got {self.p}")

    def phi(self, u):
        if isinstance(u, float):
            return 1.0 / (1.0 - self.p) if u >= self.p else 0.0
        u = np.asarray(u, dtype=float)
        out = np.where(u >= self.p, 1.0 / (1.0 - self.p), 0.0)
        return float(out) if out.ndim == 0 else out

    def segment_integral(self, a, b):
        a, b = _check_segment(a, b)
        lo = np.maximum(a, self.p)
        out = np.maximum(b - lo, 0.0) / (1.0 - self.p)
        return float(out) if out.ndim == 0 else out

    def segment_masses(self, edges):
        """Integral of phi over each segment between consecutive ``edges`` along the last axis."""
        return self._masses(_check_edges(edges), None)

    def _masses(self, edges: np.ndarray, tails, out=None) -> np.ndarray:
        """``segment_masses`` of checked float ``edges``; ``tails`` and ``out`` are not used."""
        lo = np.maximum(edges[..., :-1], self.p)
        return np.maximum(edges[..., 1:] - lo, 0.0) / (1.0 - self.p)

    def decay_integral(self, a, b):
        a, b = _check_segment(a, b)
        lo = np.maximum(a, self.p)
        hi = np.maximum(b, lo)
        out = ((1.0 - lo) ** 2 - (1.0 - hi) ** 2) / (2.0 * (1.0 - self.p))
        return float(out) if out.ndim == 0 else out

    def log_moment(self) -> float:
        """Integral of phi(u) (-ln(1-u)) over [0, 1]: 1 - ln(1-p)."""
        return 1.0 - math.log1p(-self.p)

    def power_moment(self, s):
        """Integral of phi(u) (1-u)^(-s) over [0, 1]: (1-p)^(-s) / (1-s), for 0 <= s < 1."""
        s = _check_power(s)
        out = _pow(1.0 - self.p, -s) / (1.0 - s)
        return float(out) if out.ndim == 0 else out


def _ein(k: float) -> float:
    """Ein(k) = integral of (1 - e^-t)/t over [0, k] = gamma + ln k + E1(k) (A&S 5.1.39).

    For k <= 1 the three terms of the second form nearly cancel (about 1e-3
    relative error at k = 1e-12), so there Ein comes from its alternating
    series sum_j (-1)^(j+1) k^j / (j j!), whose terms fall below 1e-20 by
    j = 20.
    """
    if k > 1.0:
        return float(np.euler_gamma + math.log(k) + scipy.special.exp1(k))
    total, term = 0.0, 1.0
    for j in range(1, 21):
        term *= -k / j  # (-1)^j k^j / j!
        total -= term / j
    return total


def _check_power(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if ((s < 0.0) | (s >= 1.0)).any():  # NaN passes, and gives NaN
        raise ValueError(f"power moment needs 0 <= s < 1, got {s}")
    return s


def _pow(base: float, s: np.ndarray) -> np.ndarray:
    # C pow per element, as a Python float's ** does: numpy's vectorised power
    # runs SIMD code on some CPUs that differs from it in the last bit (about
    # 5% of exponents on an AVX-512 host), so estimates would depend on the CPU
    return np.array([base**v for v in s.ravel().tolist()]).reshape(s.shape)


_SEGMENT_BOUNDS = "segment bounds must satisfy 0 <= a <= b <= 1"


def _check_segment(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # written so that a NaN bound fails
    if not (np.all(a >= 0.0) and np.all(b <= 1.0) and np.all(a <= b)):
        raise ValueError(_SEGMENT_BOUNDS)
    return a, b


def _check_edges(edges) -> np.ndarray:
    """``edges`` as floats, checked as the segments between neighbours along the last axis.

    Rising edges bound every segment by their first and last values, so one
    comparison of neighbours and two of the ends do the work of
    ``_check_segment``; with fewer than two edges there is no segment to check.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.shape[-1] > 1 and not (
        np.all(edges[..., :-1] <= edges[..., 1:])
        and np.all(edges[..., 0] >= 0.0)
        and np.all(edges[..., -1] <= 1.0)
    ):
        raise ValueError(_SEGMENT_BOUNDS)
    return edges
