"""Spectral risk measure estimators for LTRC loss samples.

Five estimators share one interface: ``prepare(sample)`` does the
k-independent work once, ``evaluate(ctx, spectrum)`` integrates against a
spectrum, and calling the estimator does both; ``replicates`` estimates
bootstrap replicates from integer weights.  ``prod`` is the
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
import scipy

from .errors import EstimationError
from .ltrc import LtrcSample, QuantileFunction, SortedSample, StepDistribution, _prefix_sums, fit_pl
from .severity import ModelFamily, WindowScheme
from .spectra import _check_edges

__all__ = [
    "srm_from_edges",
    "srm_from_quantile",
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


def srm_from_edges(values: np.ndarray, edges: np.ndarray, spectra) -> np.ndarray:
    """Spectral integrals of the step function ``values`` on the segments between ``edges``.

    ``values[..., j]`` holds on (edges[..., j], edges[..., j+1]], and the sum
    along the last axis weights it by the closed-form spectrum mass of that
    segment, so the only numerical error is float rounding.  The result has
    one leading row per spectrum.  The edges are checked, and 1 - edges
    formed, once for all spectra.  They are summed in C order, where np.sum
    along a row adds pairwise; in Fortran order its rounding would depend on
    the row count.
    """
    edges = np.ascontiguousarray(_check_edges(edges))
    tails = 1.0 - edges
    return np.array([np.sum(values * spec._masses(edges, tails), axis=-1) for spec in spectra])


def srm_from_quantile(q: QuantileFunction, spectrum) -> float:
    """Exact spectral integral of a step quantile function."""
    return float(srm_from_edges(q.values, q.edges, (spectrum,))[0])


def estimate_prod(sample: LtrcSample, spectrum) -> float:
    """Product-limit plug-in estimate of the spectral risk measure."""
    return srm_from_quantile(fit_pl(sample).quantile, spectrum)


def estimate_emp(sample: LtrcSample, spectrum) -> float:
    """Empirical (order-statistic) estimate, ignoring truncation/censoring."""
    return EmpEstimator()(sample, spectrum)


# ---------------------------------------------------------------------------
# kernel-smoothed quantile estimator

# bandwidth of the Epanechnikov kernel on the probability scale
KERNEL_BANDWIDTH = 0.4


@dataclass(frozen=True)
class KernelQuantileSmoother:
    """Convolution of a step quantile function with a scaled Epanechnikov kernel.

    The window t +- h, h = ``KERNEL_BANDWIDTH``, is clipped to [0, 1] without
    boundary correction, so the smoother loses kernel mass near both
    endpoints; that behaviour is part of the estimator being reproduced.

    With G the antiderivative of the kernel, clipped to +-1/2 outside the
    window, the segment sum telescopes over the knots x_j (the segment
    boundaries inside (0, 1)) with the jumps d_j = v_{j-1} - v_j:

        v_last G((1 - t)/h) - v_0 G(-t/h) + sum_j d_j G((x_j - t)/h).

    Knots at or beyond t +- h add +-1/2 times a prefix sum of the jumps.  The
    knots inside the window add a cubic in (x_j - t)/h, summed from prefix
    sums of d u^m (m = 0..3) with u = (x - 1/2)/h about the centre 1/2.  At
    h = 0.4, |u| and |z| = |t - 1/2|/h stay at or below 1.25 on [0, 1], so
    expanding the cubic in z cancels at most a few digits.

    The constructor does O(n) numpy set-up; a call is two bisections and a
    few float operations.  The tests hold it within 1e-13 max|v| of summing
    every segment directly.

    A call also stores its value by level.  A value depends on the level
    alone, and ``quad`` bisects the same break points for every spectrum, so
    the integrals of one sample at several k meet the same levels again and
    read them from the table.  The table lives as long as the smoother.
    """

    q: QuantileFunction

    def __post_init__(self) -> None:
        values = self.q.values
        knots = self.q.edges[1:-1]
        d = values[:-1] - values[1:]
        u = (knots - 0.5) / KERNEL_BANDWIDTH
        moments = np.zeros((4, knots.size + 1))
        np.cumsum([d, d * u, d * u * u, d * u * u * u], axis=1, out=moments[:, 1:])
        set_ = object.__setattr__
        set_(self, "_knots", knots.tolist())
        set_(self, "_moments", tuple(moments.tolist()))
        set_(self, "_ends", (float(values[0]), float(values[-1])))
        set_(self, "_table", {})

    def __call__(self, t: float) -> float:
        table = self._table
        total = table.get(t)
        if total is not None:
            return total
        h = KERNEL_BANDWIDTH
        knots = self._knots
        lo = bisect_right(knots, t - h)
        hi = bisect_left(knots, t + h, lo)
        v_first, v_last = self._ends
        p0, p1, p2, p3 = self._moments
        # G(v) = 0.75v - 0.25v^3 clipped to |v| <= 1 at both ends of [0, 1]: it hits
        # exactly +-0.5 at +-1, so a full window has unit mass
        right = min(1.0, max(-1.0, (1.0 - t) / h))
        left = min(1.0, max(-1.0, -t / h))
        total = v_last * (0.75 * right - 0.25 * right * right * right) - v_first * (
            0.75 * left - 0.25 * left * left * left
        )
        total += 0.5 * (p0[-1] - p0[hi] - p0[lo])
        if lo < hi:
            z = (t - 0.5) / h
            m0, m1, m2, m3 = p0[hi] - p0[lo], p1[hi] - p1[lo], p2[hi] - p2[lo], p3[hi] - p3[lo]
            # sum of d G(u - z) with G(w) = 0.75w - 0.25w^3, expanded in z
            total += 0.75 * (m1 - z * m0) - 0.25 * (
                m3 - 3.0 * z * m2 + 3.0 * z * z * m1 - z * z * z * m0
            )
        table[t] = total
        return total


# ---------------------------------------------------------------------------
# parametric window-law estimators


def _ml_fit(y, delta, weights: np.ndarray, scheme: WindowScheme, family: ModelFamily) -> np.ndarray:
    """Censored-likelihood fit per row of integer ``weights`` on (y, delta); NaN where it fails.

    With g(x) = x - d (exponential) or ln(x/d) (Pareto), the exposure sums
    w g(y) over uncensored points and w g(u) over points at a finite limit
    u.  With m the uncensored weight, theta = exposure / m and alpha =
    m / exposure.
    """
    d, u = scheme.deductible, scheme.limit
    exponential = family is ModelFamily.SHIFTED_EXPONENTIAL
    interior = delta == 1
    g = (lambda x: x - d) if exponential else (lambda x: np.log(x / d))
    exposure = np.sum(weights * np.where(interior, g(y), 0.0), axis=1)
    if math.isfinite(u):
        exposure += g(u) * np.sum(weights * ~interior, axis=1)
    m = np.sum(weights * interior, axis=1)
    numer, denom = (exposure, m) if exponential else (m, exposure)
    return np.where(denom > 0, numer / np.where(denom > 0, denom, 1), np.nan)


def fit_ml_parameter(sample: LtrcSample, scheme: WindowScheme, family: ModelFamily) -> float:
    """Closed-form censored-likelihood fit of theta (exponential) or alpha (Pareto).

    Works on fixed-window data: uncensored observations sit inside (d, u)
    and censored ones at the limit.
    """
    param = float(_ml_fit(sample.y, sample.delta, np.ones((1, len(sample))), scheme, family)[0])
    if math.isnan(param):
        if family is ModelFamily.SHIFTED_EXPONENTIAL:
            raise EstimationError("no uncensored observations inside the window")
        raise EstimationError("degenerate window sample: zero log-spacing denominator")
    return param


def _pm_fit(y_sorted: np.ndarray, weights: np.ndarray, d: float, family: ModelFamily, p1: float):
    """Matched percentile and unchecked fit per row of integer weights aligned with ``y_sorted``."""
    n = y_sorted.size
    rank = min(n, max(1, math.ceil(n * p1)))
    # the rank-th order statistic sits where the cumulative weight first reaches the rank
    x_p1 = y_sorted[np.sum(np.cumsum(weights, axis=1) < rank, axis=1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        if family is ModelFamily.SHIFTED_EXPONENTIAL:
            return x_p1, (d - x_p1) / math.log1p(-p1)
        return x_p1, math.log1p(-p1) / np.log(d / x_p1)


def fit_pm_parameter(
    sample: LtrcSample, scheme: WindowScheme, family: ModelFamily, p1: float = 0.5
) -> float:
    """Percentile-matching fit of theta (exponential) or alpha (Pareto).

    The exponential display inverts the truncated-percentile identity at
    the deductible: theta = (d - x_(ceil(n p1))) / log(1 - p1).
    """
    if not 0.0 < p1 < 1.0:
        raise ValueError("p1 must lie in (0, 1)")
    d = scheme.deductible
    ones = np.ones((1, len(sample)), dtype=np.int64)
    y_sorted = SortedSample.from_sample(sample).y
    x_p1, param = (float(v[0]) for v in _pm_fit(y_sorted, ones, d, family, p1))
    if x_p1 == d:
        raise EstimationError("matched percentile equals the deductible")
    if not param > 0:
        name = "theta" if family is ModelFamily.SHIFTED_EXPONENTIAL else "alpha"
        raise EstimationError(f"percentile matching produced {name} = {param:.4g} <= 0")
    return param


def parametric_srm(family: ModelFamily, x0: float, param, spectrum):
    """Spectral risk measure of a fitted shifted-exponential or Pareto I law, per parameter.

    The quantile x0 - theta ln(1-u), or x0 (1-u)^(-1/alpha), integrates
    against the spectrum in closed form through its log or power moment.
    ``param`` is a number or an array; the result is NaN where it is NaN and,
    for Pareto, where alpha <= 1 makes the integral diverge.
    """
    param = np.asarray(param, dtype=float)
    if family is ModelFamily.SHIFTED_EXPONENTIAL:
        out = x0 + param * spectrum.log_moment()
    else:
        out = x0 * spectrum.power_moment(1.0 / np.where(param > 1.0, param, np.nan))
    return float(out) if np.ndim(out) == 0 else out


def _finite_srm(family: ModelFamily, x0: float, param: float, spectrum) -> float:
    value = parametric_srm(family, x0, param, spectrum)
    if math.isnan(value):
        raise EstimationError(f"tail index {param:.4g} <= 1: the spectral integral diverges")
    return value


# ---------------------------------------------------------------------------
# uniform estimator objects (used by the bootstrap, the MC harness and the CLI)


class SrmEstimator:
    """Base of the five estimators: ``prepare`` once per sample, ``evaluate`` per spectrum."""

    name: str

    def prepare(self, sample: LtrcSample):
        raise NotImplementedError

    def evaluate(self, ctx, spectrum) -> float:
        raise NotImplementedError

    def replicates(self, sorted_sample: SortedSample, weights: np.ndarray, spectra) -> np.ndarray:
        """Estimates of the resamples that hold sorted observation i ``weights[b, i]`` times.

        ``weights`` is a C-ordered integer array in the order of
        ``sorted_sample``.  One row per spectrum, one column per resample b;
        NaN where one fails.
        """
        raise NotImplementedError

    def __call__(self, sample: LtrcSample, spectrum) -> float:
        return self.evaluate(self.prepare(sample), spectrum)


class ProdEstimator(SrmEstimator):
    name = "prod"

    def prepare(self, sample: LtrcSample) -> StepDistribution:
        return fit_pl(sample)

    def evaluate(self, ctx: StepDistribution, spectrum) -> float:
        return srm_from_quantile(ctx.quantile, spectrum)

    def replicates(self, sorted_sample: SortedSample, weights: np.ndarray, spectra) -> np.ndarray:
        levels = sorted_sample.pl_cdf(weights)
        edges = np.concatenate((np.zeros((levels.shape[0], 1)), levels), axis=1)
        return srm_from_edges(sorted_sample.y[sorted_sample.starts], edges, spectra)


class EmpEstimator(SrmEstimator):
    name = "emp"

    def prepare(self, sample: LtrcSample) -> QuantileFunction:
        n = len(sample)
        return QuantileFunction(np.arange(n + 1) / n, SortedSample.from_sample(sample).y)

    def evaluate(self, ctx: QuantileFunction, spectrum) -> float:
        return srm_from_quantile(ctx, spectrum)

    def replicates(self, sorted_sample: SortedSample, weights: np.ndarray, spectra) -> np.ndarray:
        edges = _prefix_sums(weights) / sorted_sample.y.size
        return srm_from_edges(sorted_sample.y, edges, spectra)


class KernelEstimator(SrmEstimator):
    """Kernel-quantile estimate: smooth the product-limit inverse, then integrate."""

    name = "kernel"

    def prepare(self, sample: LtrcSample) -> KernelQuantileSmoother:
        return KernelQuantileSmoother(fit_pl(sample).quantile)

    def evaluate(self, ctx: KernelQuantileSmoother, spectrum) -> float:
        phi, smooth = spectrum.phi, ctx.__call__
        value, _ = scipy.integrate.quad(
            lambda u: phi(u) * smooth(u),
            0.0,
            1.0,
            points=[KERNEL_BANDWIDTH, 1.0 - KERNEL_BANDWIDTH],
            limit=200,
            epsabs=1e-12,
            epsrel=1e-8,
        )
        return float(value)

    def replicates(self, sorted_sample: SortedSample, weights: np.ndarray, spectra) -> np.ndarray:
        # one smoother at a time, so that one table is alive at a time
        x = sorted_sample.y[sorted_sample.starts]
        out = np.empty((len(spectra), weights.shape[0]))
        for b, cdf in enumerate(sorted_sample.pl_cdf(weights)):
            ctx = KernelQuantileSmoother(StepDistribution(x, cdf).quantile)
            out[:, b] = [self.evaluate(ctx, spec) for spec in spectra]
        return out


@dataclass(frozen=True)
class MlEstimator(SrmEstimator):
    """Maximum-likelihood parametric estimate of the spectral risk measure."""

    scheme: WindowScheme
    family: ModelFamily
    x0: float
    name = "ml"

    def prepare(self, sample: LtrcSample):
        return fit_ml_parameter(sample, self.scheme, self.family)

    def evaluate(self, ctx, spectrum) -> float:
        return _finite_srm(self.family, self.x0, ctx, spectrum)

    def replicates(self, sorted_sample: SortedSample, weights: np.ndarray, spectra) -> np.ndarray:
        params = _ml_fit(sorted_sample.y, sorted_sample.delta, weights, self.scheme, self.family)
        return np.array([parametric_srm(self.family, self.x0, params, spec) for spec in spectra])


@dataclass(frozen=True)
class PmEstimator(SrmEstimator):
    """Percentile-matching parametric estimate of the spectral risk measure."""

    scheme: WindowScheme
    family: ModelFamily
    x0: float
    p1: float = 0.5
    name = "pm"

    def prepare(self, sample: LtrcSample):
        return fit_pm_parameter(sample, self.scheme, self.family, self.p1)

    def evaluate(self, ctx, spectrum) -> float:
        return _finite_srm(self.family, self.x0, ctx, spectrum)

    def replicates(self, sorted_sample: SortedSample, weights: np.ndarray, spectra) -> np.ndarray:
        s, d = sorted_sample, self.scheme.deductible
        _, params = _pm_fit(s.y, weights, d, self.family, self.p1)
        # a percentile at the deductible gives theta = -0 or alpha = -inf, refused here too
        params = np.where(params > 0, params, np.nan)
        return np.array([parametric_srm(self.family, self.x0, params, spec) for spec in spectra])


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
    n_effective: int
    point: float
    std_error: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    ci_level: float | None = None
    replicates_used: int = 0
    replicate_failures: int = 0
