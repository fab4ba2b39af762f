"""Spectral risk measure estimators for LTRC loss samples.

Five estimators share one interface: ``prepare(sample)`` does the
k-independent work once, ``evaluate(ctx, spectrum)`` integrates against a
spectrum, and calling the estimator does both.  ``prod`` is the
product-limit plug-in; ``emp`` integrates the raw empirical quantiles;
``kernel`` smooths the product-limit quantile function; ``ml`` and ``pm``
fit the parametric window law by maximum likelihood or percentile matching
and take the closed-form spectral risk measure of the fitted law.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import EstimationError
from .ltrc import LtrcSample, PlFit, QuantileFunction, SortedSample, fit_pl, pl_quantile
from .severity import ModelFamily, WindowScheme

__all__ = [
    "srm_from_quantile",
    "srm_from_sorted",
    "estimate_prod",
    "estimate_emp",
    "fit_ml_parameter",
    "fit_pm_parameter",
    "parametric_srm",
    "ProdEstimator",
    "EmpEstimator",
    "KernelEstimator",
    "MlEstimator",
    "PmEstimator",
    "EstimateReport",
    "build_estimator",
    "ESTIMATOR_NAMES",
]


def srm_from_quantile(q: QuantileFunction, spectrum) -> float:
    """Exact spectral integral of a step quantile function.

    Each constant segment contributes value times the closed-form spectrum
    mass of the segment, so the only numerical error is float rounding.
    """
    weights = spectrum.segment_integral(q.segment_lo, q.segment_hi)
    return float(np.sum(q.values * weights))


def srm_from_sorted(values_sorted: np.ndarray, spectrum) -> float:
    """Spectral integral of the empirical quantile function of sorted data."""
    n = values_sorted.size
    grid = np.arange(n + 1) / n
    weights = spectrum.segment_integral(grid[:-1], grid[1:])
    return float(np.sum(values_sorted * weights))


def estimate_prod(sample: LtrcSample, spectrum) -> float:
    """Product-limit plug-in estimate of the spectral risk measure."""
    return srm_from_quantile(pl_quantile(fit_pl(sample)), spectrum)


def estimate_emp(sample: LtrcSample, spectrum) -> float:
    """Empirical (order-statistic) estimate, ignoring truncation/censoring."""
    return srm_from_sorted(np.sort(sample.y), spectrum)


# ---------------------------------------------------------------------------
# kernel-smoothed quantile estimator


@dataclass(frozen=True)
class KernelQuantileSmoother:
    """Convolution of a step quantile function with a scaled Epanechnikov kernel.

    The convolution window is clipped to [0, 1] without boundary correction,
    so the smoother loses kernel mass near both endpoints; that behaviour is
    part of the estimator being reproduced.

    With G the antiderivative of the kernel, clipped to +-1/2 outside the
    window, the segment sum telescopes over the knots x_j (the segment
    boundaries inside (0, 1)) with the jumps d_j = v_{j-1} - v_j:

        v_last G((1 - t)/h) - v_0 G(-t/h) + sum_j d_j G((x_j - t)/h).

    Knots at or beyond t +- h add +-1/2 times a prefix sum of the jumps.  The
    knots inside the window add a cubic in (x_j - t)/h, summed from prefix
    sums of d u^m (m = 0..3) with u = (x - c)/h about the anchor c = a h,
    a = round(t/h).  Each anchor holds the knots within 1.5h of it, so
    |u| <= 1.5 and |t - c| <= h/2 bound the cancellation at any h, where
    moments about one global centre lose it at small h.  Anchors exist only
    near knots; a window without knots needs none.

    Cost: the constructor does all set-up, O(n) numpy work plus a small
    numpy step per anchor (about 1/h + 5 anchors, at most 5 per knot).  A
    call is two bisections and a few float operations, O(log n).
    Accuracy: within about 1e-14 max|v| of summing every segment directly,
    which the tests check at 1e-13 max|v| for h from 1e-6 to 2.
    """

    q: QuantileFunction
    h: float

    def __post_init__(self) -> None:
        h = self.h
        values = self.q.values
        knots = self.q.segment_lo[1:]
        jumps = values[:-1] - values[1:]
        anchors = np.unique(np.rint(knots / h).astype(np.int64)[:, None] + np.arange(-2, 3))
        centres = anchors * h
        # the slack covers float rounding of t +- h and a h, a few ulps of 1
        reach = 1.5 * h + 1e-12
        starts = np.searchsorted(knots, centres - reach, side="left")
        ends = np.searchsorted(knots, centres + reach, side="right")
        offsets = {}
        blocks = [np.zeros((4, 0))]  # keeps the concatenation valid without knots
        base = 0
        for a, c, s, e in zip(anchors.tolist(), centres.tolist(), starts.tolist(), ends.tolist()):
            u = (knots[s:e] - c) / h
            d = jumps[s:e]
            block = np.zeros((4, e - s + 1))
            np.cumsum([d, d * u, d * u * u, d * u * u * u], axis=1, out=block[:, 1:])
            blocks.append(block)
            offsets[a] = base - s
            base += e - s + 1
        set_ = object.__setattr__
        set_(self, "_knots", knots.tolist())
        set_(self, "_jump_sums", np.concatenate(([0.0], np.cumsum(jumps))).tolist())
        set_(self, "_offsets", offsets)
        set_(self, "_moments", tuple(np.concatenate(blocks, axis=1).tolist()))
        set_(self, "_ends", (float(values[0]), float(values[-1])))

    def __call__(self, t: float) -> float:
        h = self.h
        knots = self._knots
        lo = bisect_right(knots, t - h)
        hi = bisect_left(knots, t + h, lo)
        v_first, v_last = self._ends
        sums = self._jump_sums
        total = v_last * _clipped_g((1.0 - t) / h) - v_first * _clipped_g(-t / h)
        total += 0.5 * (sums[-1] - sums[hi] - sums[lo])
        if lo < hi:
            a = round(t / h)
            z = (t - a * h) / h
            off = self._offsets[a]
            i, j = off + lo, off + hi
            p0, p1, p2, p3 = self._moments
            m0, m1, m2, m3 = p0[j] - p0[i], p1[j] - p1[i], p2[j] - p2[i], p3[j] - p3[i]
            # sum of d G(u - z) with G(w) = 0.75w - 0.25w^3, expanded in z
            total += 0.75 * (m1 - z * m0) - 0.25 * (
                m3 - 3.0 * z * m2 + 3.0 * z * z * m1 - z * z * z * m0
            )
        return total


def _clipped_g(v: float) -> float:
    # 0.75v - 0.25v^3: hits exactly +-0.5 at +-1, so a full window has unit mass
    v = min(1.0, max(-1.0, v))
    return 0.75 * v - 0.25 * v * v * v


# ---------------------------------------------------------------------------
# parametric window-law estimators


def _order_statistic_index(n: int, p: float) -> int:
    """Clamped ceiling index for the [np] order-statistic convention."""
    return min(n, max(1, math.ceil(n * p)))


def fit_ml_parameter(sample: LtrcSample, scheme: WindowScheme, family: ModelFamily) -> float:
    """Closed-form censored-likelihood fit of theta (exponential) or alpha (Pareto).

    Works on fixed-window data: uncensored observations sit inside (d, u)
    and censored ones at the limit.
    """
    d, u = scheme.deductible, scheme.limit
    x = sample.y
    interior = sample.delta == 1
    n_cens = int(np.count_nonzero(~interior))
    n_int = int(np.count_nonzero(interior))
    if family is ModelFamily.SHIFTED_EXPONENTIAL:
        if n_int == 0:
            raise EstimationError("no uncensored observations inside the window")
        numer = float(np.sum(x[interior] - d)) + (u - d) * n_cens
        return numer / n_int
    denom = float(np.sum(np.log(x[interior] / d)))
    if math.isfinite(u):
        denom += math.log(u / d) * n_cens
    if denom <= 0.0:
        raise EstimationError("degenerate window sample: zero log-spacing denominator")
    return n_int / denom


def fit_pm_parameter(
    sample: LtrcSample, scheme: WindowScheme, family: ModelFamily, p1: float = 0.5
) -> float:
    """Percentile-matching fit of theta (exponential) or alpha (Pareto).

    The exponential display inverts the truncated-percentile identity with
    the deductible as the anchor: theta = (d - x_(ceil(n p1))) / log(1 - p1).
    """
    if not 0.0 < p1 < 1.0:
        raise ValueError("p1 must lie in (0, 1)")
    d = scheme.deductible
    n = len(sample)
    x_p1 = float(np.sort(sample.y)[_order_statistic_index(n, p1) - 1])
    if x_p1 == d:
        raise EstimationError("matched percentile equals the deductible")
    if family is ModelFamily.SHIFTED_EXPONENTIAL:
        theta = (d - x_p1) / math.log1p(-p1)
        if theta <= 0:
            raise EstimationError(f"percentile matching produced theta = {theta:.4g} <= 0")
        return theta
    alpha = math.log1p(-p1) / math.log(d / x_p1)
    if alpha <= 0:
        raise EstimationError(f"percentile matching produced alpha = {alpha:.4g} <= 0")
    return alpha


def parametric_srm(family: ModelFamily, x0: float, param: float, spectrum) -> float:
    """Spectral risk measure of a fitted shifted-exponential or Pareto I law.

    The quantile x0 - theta ln(1-u), or x0 (1-u)^(-1/alpha), integrates
    against the spectrum in closed form through its log or power moment.
    """
    if family is ModelFamily.SHIFTED_EXPONENTIAL:
        return x0 + param * spectrum.log_moment()
    if param <= 1.0:
        raise EstimationError(f"tail index {param:.4g} <= 1: the spectral integral diverges")
    return x0 * spectrum.power_moment(1.0 / param)


# ---------------------------------------------------------------------------
# uniform estimator objects (used by the bootstrap, the MC harness and the CLI)


class SrmEstimator:
    """Base of the five estimators: ``prepare`` once per sample, ``evaluate`` per spectrum."""

    name: str

    def prepare(self, sample: LtrcSample):
        raise NotImplementedError

    def evaluate(self, ctx, spectrum) -> float:
        raise NotImplementedError

    def __call__(self, sample: LtrcSample, spectrum) -> float:
        return self.evaluate(self.prepare(sample), spectrum)


@dataclass(frozen=True)
class ProdEstimator(SrmEstimator):
    name: str = "prod"

    def prepare(self, sample: LtrcSample) -> PlFit:
        return PlFit.from_sample(sample)

    def evaluate(self, ctx: PlFit, spectrum) -> float:
        return srm_from_quantile(ctx.quantile, spectrum)

    def replicate_levels(self, sorted_sample: SortedSample, weights: np.ndarray):
        """Quantile values and, per row of ``weights``, the CDF level reached at each."""
        return sorted_sample.y[sorted_sample.starts], sorted_sample.pl_cdf(weights)


@dataclass(frozen=True)
class EmpEstimator(SrmEstimator):
    name: str = "emp"

    def prepare(self, sample: LtrcSample):
        return np.sort(sample.y)

    def evaluate(self, ctx, spectrum) -> float:
        return srm_from_sorted(ctx, spectrum)

    def replicate_levels(self, sorted_sample: SortedSample, weights: np.ndarray):
        """Sorted values and, per row of ``weights``, the empirical level reached at each."""
        n = sorted_sample.y.size
        return sorted_sample.y, np.cumsum(weights[:, sorted_sample.order], axis=1) / n


@dataclass(frozen=True)
class KernelEstimator(SrmEstimator):
    """Kernel-quantile estimate: smooth the product-limit inverse, then integrate."""

    h: float = 0.4
    name: str = "kernel"

    def __post_init__(self) -> None:
        if self.h <= 0:
            raise ValueError("bandwidth must be strictly positive")

    def prepare(self, sample: LtrcSample) -> KernelQuantileSmoother:
        return KernelQuantileSmoother(q=pl_quantile(fit_pl(sample)), h=self.h)

    def evaluate(self, ctx: KernelQuantileSmoother, spectrum) -> float:
        pts = [p for p in (ctx.h, 1.0 - ctx.h) if 0.0 < p < 1.0]
        value, _ = integrate.quad(
            lambda u: float(spectrum.phi(u)) * ctx(u),
            0.0,
            1.0,
            points=pts or None,
            limit=200,
            epsabs=1e-12,
            epsrel=1e-8,
        )
        return float(value)


@dataclass(frozen=True)
class MlEstimator(SrmEstimator):
    """Maximum-likelihood parametric estimate of the spectral risk measure."""

    scheme: WindowScheme
    family: ModelFamily
    x0: float
    name: str = "ml"

    def prepare(self, sample: LtrcSample):
        return fit_ml_parameter(sample, self.scheme, self.family)

    def evaluate(self, ctx, spectrum) -> float:
        return parametric_srm(self.family, self.x0, ctx, spectrum)


@dataclass(frozen=True)
class PmEstimator(SrmEstimator):
    """Percentile-matching parametric estimate of the spectral risk measure."""

    scheme: WindowScheme
    family: ModelFamily
    x0: float
    p1: float = 0.5
    name: str = "pm"

    def prepare(self, sample: LtrcSample):
        return fit_pm_parameter(sample, self.scheme, self.family, self.p1)

    def evaluate(self, ctx, spectrum) -> float:
        return parametric_srm(self.family, self.x0, ctx, spectrum)


ESTIMATOR_NAMES = ("prod", "emp", "kernel", "ml", "pm")


def build_estimator(
    name: str,
    scheme: WindowScheme | None = None,
    family: ModelFamily | None = None,
    x0: float | None = None,
    p1: float = 0.5,
) -> SrmEstimator:
    """Construct an estimator by CLI-facing name."""
    if name == "prod":
        return ProdEstimator()
    if name == "emp":
        return EmpEstimator()
    if name == "kernel":
        return KernelEstimator()
    if name in ("ml", "pm"):
        if scheme is None or family is None or x0 is None:
            raise ValueError(f"estimator {name!r} needs a window scheme, family and x0")
        if name == "ml":
            return MlEstimator(scheme=scheme, family=family, x0=x0)
        return PmEstimator(scheme=scheme, family=family, x0=x0, p1=p1)
    raise ValueError(f"unknown estimator {name!r}; valid names: {', '.join(ESTIMATOR_NAMES)}")


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate with optional uncertainty for one estimator and spectrum."""

    estimator: str
    k: float | None
    point: float
    std_error: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    ci_level: float | None = None
    n_effective: int = 0
    replicates_used: int = 0
    replicate_failures: int = 0
