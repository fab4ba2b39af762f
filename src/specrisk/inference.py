"""Asymptotic and bootstrap inference for the product-limit SRM estimator.

The asymptotic variance is evaluated by plugging the fitted product-limit
quantities into the limiting covariance functional of the estimator: the
covariance kernel of the underlying empirical process at levels (u, v) is
the risk-weighted uncensored-mass integral up to the lower of the two
levels, and the density in the denominators is replaced by an Epanechnikov
smoothing of the fitted distribution.  With step-function ingredients every
piece integrates in closed form, so the double integral reduces to an exact
double sum over quantile segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import BootstrapError, SingularDensityError
from .estimators import EstimateReport, ProdEstimator, SrmEstimator
from .ltrc import LtrcSample, SortedSample, fit_pl
from .rng import replicate_indices

__all__ = [
    "estimate_sigma2",
    "EdgeworthDiagnostics",
    "edgeworth_diagnostics",
    "edgeworth_cdf",
    "BootstrapPlan",
    "bootstrap_ci",
    "bootstrap_ci_many",
    "asymptotic_ci",
]


# a smoothed density below this inside the clipped range is refused
DENSITY_FLOOR = 1e-12
# the probability square of the variance integral is clipped to
# [VARIANCE_CLIP, 1 - VARIANCE_CLIP]: its 1/density factors blow up at the edges
VARIANCE_CLIP = 1e-3
# floats in the largest temporary of one block (of bootstrap replicates, or of
# density points); larger blocks page-fault their temporaries in afresh
_REPLICATE_BLOCK_CELLS = 1 << 14


def estimate_sigma2(sample: LtrcSample, spectrum) -> float:
    """Plug-in estimate of the asymptotic variance of the PL-based SRM estimate.

    Returns the variance of the sqrt(n)-normalized estimator.  The density
    is smoothed with bandwidth n^(-1/5) * IQR / 1.349.  Degenerate
    single-atom fits return 0.  Raises
    :class:`~specrisk.errors.SingularDensityError` when the smoothed density
    falls below the floor inside the clipped integration range.  It reads
    the sort and the product-limit fit kept on the sample, so a sample
    analysed before is not sorted or fitted again.

    The covariance kernel is evaluated at the lower of the two levels, the
    form that reduces to the classical L-statistic variance without
    truncation or censoring.
    """
    fit = fit_pl(sample)
    n = len(sample)
    q = fit.quantile
    if q.values.size < 2:
        return 0.0
    s = SortedSample.from_sample(sample)
    unc = s.delta == 1
    y_unc, risk_unc = s.y[unc], s.risk[unc]

    # cumulative risk-weighted uncensored mass G(w) = (1/n) sum C_n^{-2},
    # evaluated at the quantile segment values
    g_steps = (n / risk_unc.astype(float)) ** 2 / n
    g_cum = np.cumsum(g_steps)
    seg_g = np.concatenate(([0.0], g_cum))[
        np.searchsorted(y_unc, q.values, side="right")
    ]

    iqr = float(q(0.75) - q(0.25))
    if iqr == 0.0:
        iqr = float(q.values[-1] - q.values[0])
    if iqr == 0.0:
        return 0.0
    h = n ** (-0.2) * iqr / 1.349
    f_hat = _epanechnikov_density(fit, q.values, h)

    lo = np.maximum(q.edges[:-1], VARIANCE_CLIP)
    hi = np.minimum(q.edges[1:], 1.0 - VARIANCE_CLIP)
    live = hi > lo
    if not np.any(live):
        return 0.0
    lo, hi = lo[live], hi[live]
    f_live, g_live = f_hat[live], seg_g[live]
    if np.any(f_live < DENSITY_FLOOR):
        raise SingularDensityError(
            f"density estimate below {DENSITY_FLOOR:g} inside the "
            f"clipped range (bandwidth {h:g})"
        )

    a = spectrum.decay_integral(lo, hi) / f_live
    suffix = np.concatenate((np.cumsum(a[::-1])[::-1][1:], [0.0]))
    # every term is a product of nonnegative factors, so the sum is >= 0
    return float(np.sum(g_live * a * (a + 2.0 * suffix)))


def _epanechnikov_density(dist, at: np.ndarray, h: float) -> np.ndarray:
    """Kernel smoothing of a step distribution's jumps, evaluated at ``at``.

    The kernel vanishes beyond +-h and is quadratic in the point x, so the
    sum over the knots of the open window (x - h, x + h) comes from prefix
    sums of moments (Fan & Marron 1994), taken once over the knots.  The
    knots fall into cells of width 2h, and each knot's moments w, w u and
    w u^2 take u = (k - c)/h about its cell's centre c, so |u| <= 1.  A
    window, found by two ``searchsorted`` calls, meets at most two cells (a
    third only by rounding) and splits into pieces inside one cell each.  A
    piece sums to (1 - z^2) S0 + 2z S1 - S2 with z = (x - c)/h and |z| <= 2,
    so the cancellation stays small.  The prefix sums carry their rounding
    errors (TwoSum), so a piece's sums are accurate to its own mass rather
    than to the total.  The points go through in blocks, and a value does
    not depend on the block it falls in.  The cost is O(knots + points log
    knots) in time and O(knots + one block) in memory.
    """
    jumps = dist.jumps()
    knots = dist.knots
    m = knots.size
    cell = np.floor((knots - knots[0]) / (2.0 * h))
    centre = knots[0] + (cell + 0.5) * (2.0 * h)
    u = (knots - centre) / h
    prefix, carry = _compensated_prefix_sums(np.stack((jumps, jumps * u, jumps * u * u)))
    # one past the last knot of each knot's cell, and m for the end itself
    first = np.concatenate(([True], cell[1:] != cell[:-1]))
    stops = np.append(np.flatnonzero(first)[1:], m)
    cell_end = np.append(stops[np.cumsum(first) - 1], m)
    centre = np.append(centre, 0.0)  # read only by empty pieces at the end

    out = np.empty(at.size)
    # the largest temporaries of a block are the gathers of the three prefix
    # sums, and of their error sums, at the piece bounds: 9 floats a point
    # each, 12 in a rare block that has a third piece
    points = max(1, _REPLICATE_BLOCK_CELLS // 9)
    for start in range(0, at.size, points):
        x = at[start : start + points]
        # the kernel is zero at |x - k| = h, so each window is open
        lo = np.searchsorted(knots, x - h, side="right")
        hi = np.searchsorted(knots, x + h, side="left")
        cut = np.minimum(cell_end[lo], hi)
        cut2 = np.minimum(cell_end[cut], hi)
        # a third piece arises only by rounding, and an empty one adds exact zeros
        bounds = np.stack((lo, cut, cut2, hi) if np.any(cut2 < hi) else (lo, cut, hi))
        ends = np.take(prefix, bounds, axis=1)
        errs = np.take(carry, bounds, axis=1)
        s0, s1, s2 = (ends[:, 1:] - ends[:, :-1]) + (errs[:, 1:] - errs[:, :-1])
        z = (x - centre[bounds[:-1]]) / h
        out[start : start + points] = (
            0.75 * np.sum((1.0 - z * z) * s0 + 2.0 * z * s1 - s2, axis=0) / h
        )
    return out


def _compensated_prefix_sums(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of each row, with a leading zero column, and sums of their rounding errors.

    ``np.cumsum`` adds sequentially, and TwoSum recovers the exact error of
    each addition; the second array sums those errors.  A difference of two
    prefix sums plus the difference of their error sums is then accurate to
    the terms between them, not to the total.
    """
    k, m = rows.shape
    prefix, carry = np.zeros((k, m + 1)), np.zeros((k, m + 1))
    np.cumsum(rows, axis=1, out=prefix[:, 1:])
    before, after = prefix[:, :-1], prefix[:, 1:]
    added = after - before
    np.cumsum((before - (after - added)) + (rows - added), axis=1, out=carry[:, 1:])
    return prefix, carry


@dataclass(frozen=True)
class EdgeworthDiagnostics:
    """Plug-in ingredients of the second-order normal refinement at one level.

    ``sigma01_sq`` integrates the risk-weighted uncensored mass up to the
    fitted quantile of ``level``; ``kappa3`` is the skewness coefficient
    built from the same mass with a cubed risk weight; ``sigma0_sq`` is the
    full-range analogue and ``sigma1_sq`` the (1-level)^2-scaled variant.
    ``edgeworth_cdf`` reads neither; acceptance criterion 8 builds and reads both.
    """

    sigma01_sq: float
    kappa3: float
    sigma0_sq: float
    sigma1_sq: float
    n: int
    level: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.sigma01_sq < 0:
            raise ValueError("sigma01_sq must be nonnegative")


def edgeworth_diagnostics(sample: LtrcSample, level: float) -> EdgeworthDiagnostics:
    """Evaluate the expansion ingredients on a sample at one level."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    n = len(sample)
    s = SortedSample.from_sample(sample)
    bound = fit_pl(sample).quantile(level)
    if bound >= s.y[-1]:
        raise ValueError(
            f"fitted quantile at level {level} reaches the largest observation; "
            "the expansion ingredients are not defined there"
        )
    unc = s.delta == 1
    c_inv = n / s.risk[unc].astype(float)  # 1 / C_n at uncensored points
    in_range = s.y[unc] <= bound
    sigma01_sq = float(np.sum(c_inv[in_range] ** 2)) / n
    i3 = float(np.sum(c_inv[in_range] ** 3)) / n
    sigma0_sq = float(np.sum(c_inv**2)) / n
    if sigma01_sq == 0.0:
        kappa3 = 0.0
    else:
        sigma01 = math.sqrt(sigma01_sq)
        kappa3 = (-7.5 * sigma01_sq**2 + i3) / sigma01**3
    return EdgeworthDiagnostics(
        sigma01_sq=sigma01_sq,
        kappa3=kappa3,
        sigma0_sq=sigma0_sq,
        sigma1_sq=(1.0 - level) ** 2 * sigma01_sq,
        n=n,
        level=level,
    )


def edgeworth_cdf(diag: EdgeworthDiagnostics, y):
    """Second-order refined normal CDF approximation at ``y``.

    Phi(y) minus n^{-1/2} phi(y) [kappa3/6 (y^2 - 1) + sigma01/2]; the
    correction vanishes in the tails and the whole expression converges to
    the standard normal CDF at rate n^{-1/2}.
    """
    y_arr = np.asarray(y, dtype=float)
    # the floats of scipy.stats.norm.cdf and .pdf, without loading scipy.stats
    base = scipy.special.ndtr(y_arr)
    dens = np.exp(-(y_arr**2) / 2.0) / np.sqrt(2 * np.pi)
    sigma01 = math.sqrt(diag.sigma01_sq)
    finite = np.isfinite(y_arr)
    bracket = np.zeros_like(y_arr)
    np.multiply(y_arr, y_arr, out=bracket, where=finite)
    bracket = np.where(finite, diag.kappa3 / 6.0 * (bracket - 1.0) + sigma01 / 2.0, 0.0)
    out = base - diag.n ** (-0.5) * dens * bracket
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class BootstrapPlan:
    """Resampling plan: replicate count, stream seed and interval level."""

    replicates: int = 1000
    seed: int = 0
    ci_level: float = 0.90

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError("replicates must be at least 1")
        if self.replicates > 1 << 32:
            raise ValueError("replicates must be at most 2**32, one 32-bit stream key each")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.ci_level < 1.0:
            raise ValueError("ci_level must lie in (0, 1)")


MIN_REPLICATES_FOR_CI = 50
MAX_FAILURE_FRACTION = 0.10


def bootstrap_ci(
    sample: LtrcSample,
    estimator: SrmEstimator,
    spectrum,
    plan: BootstrapPlan,
) -> EstimateReport:
    """Percentile bootstrap interval at one spectrum: see :func:`bootstrap_ci_many`."""
    return bootstrap_ci_many(sample, (estimator,), (spectrum,), plan)[0]


def bootstrap_ci_many(
    sample: LtrcSample,
    estimators,
    spectra,
    plan: BootstrapPlan,
) -> list[EstimateReport]:
    """Percentile bootstrap intervals for several estimators at several spectra.

    Observations are resampled as whole (y, t, delta) triples, each
    replicate from a stream derived from ``(plan.seed, replicate index)``,
    and every estimator estimates each replicate once for every spectrum,
    see :func:`_weighted_replicates`.  All point estimates come first, and
    reports run estimator by estimator, then spectrum by spectrum; each
    equals that of :func:`bootstrap_ci` at its estimator and spectrum.
    Replicates that fail are dropped and counted; more than 10% drops
    refuses the interval.  Intervals are order statistics of the replicates.
    """
    estimators, spectra = tuple(estimators), tuple(spectra)
    n = len(sample)

    # point estimates on the original sample: failures propagate
    contexts = [estimator.prepare(sample) for estimator in estimators]
    points = [[e.evaluate(ctx, spec) for spec in spectra] for e, ctx in zip(estimators, contexts)]
    estimates = _weighted_replicates(sample, estimators, spectra, plan)

    reports = []
    for estimator, est_points, est_reps in zip(estimators, points, estimates):
        for spectrum, point, row in zip(spectra, est_points, est_reps):
            reps = np.sort(row[~np.isnan(row)])
            used = reps.size
            failures = plan.replicates - used
            if failures > MAX_FAILURE_FRACTION * plan.replicates:
                raise BootstrapError(
                    f"{failures}/{plan.replicates} bootstrap replicates failed "
                    f"for {estimator.name!r}; interval refused"
                )
            std_error = float(np.std(reps, ddof=1)) if used >= 2 else None
            ci_low = ci_high = None
            if used >= MIN_REPLICATES_FOR_CI:
                alpha = 1.0 - plan.ci_level
                ci_low = _order_statistic(reps, alpha / 2.0)
                ci_high = _order_statistic(reps, 1.0 - alpha / 2.0)
            reports.append(
                EstimateReport(
                    estimator=estimator.name,
                    k=getattr(spectrum, "k", None),
                    point=point,
                    std_error=std_error,
                    ci_low=ci_low,
                    ci_high=ci_high,
                    ci_level=plan.ci_level if ci_low is not None else None,
                    n_effective=n,
                    replicates_used=used,
                    replicate_failures=failures,
                )
            )
    return reports


def _weighted_replicates(sample: LtrcSample, estimators, spectra, plan: BootstrapPlan) -> np.ndarray:
    """Replicate estimates without building a resample: [estimator, spectrum, replicate].

    Replicate b holds the observation at sorted position i ``w_bi`` times,
    the count of i among the sorted positions (ranks) of its indices.  Each
    block of weight rows is drawn once, and every ``estimator.replicates``
    turns it into estimates on the once-sorted sample, NaN where a
    replicate fails.  A value does not depend on the block it falls in.
    """
    n = len(sample)
    sorted_sample = SortedSample.from_sample(sample)
    out = np.empty((len(estimators), len(spectra), plan.replicates))
    rows = max(1, _REPLICATE_BLOCK_CELLS // n)
    for start in range(0, plan.replicates, rows):
        stop = min(start + rows, plan.replicates)
        pos = sorted_sample.rank[replicate_indices(plan.seed, start, stop, n)]
        pos += n * np.arange(stop - start)[:, None]
        weights = np.bincount(pos.ravel(), minlength=pos.size).reshape(pos.shape)
        for e, estimator in enumerate(estimators):
            out[e, :, start:stop] = estimator.replicates(sorted_sample, weights, spectra)
    return out


def _order_statistic(sorted_values: np.ndarray, q: float) -> float:
    """Generalized-inverse sample quantile (an order statistic)."""
    m = sorted_values.size
    idx = min(m - 1, max(0, math.ceil(q * m) - 1))
    return float(sorted_values[idx])


def asymptotic_ci(sample: LtrcSample, spectrum, level: float = 0.90) -> EstimateReport:
    """Normal-limit interval: point +- z_{(1+level)/2} * sigma_hat / sqrt(n).

    Point and variance share the fit kept on ``sample``, which
    ``estimate_sigma2`` makes on the sample's first analysis.
    """
    if not 0.0 <= level < 1.0:
        raise ValueError("level must lie in [0, 1)")
    n = len(sample)
    sigma2 = estimate_sigma2(sample, spectrum)
    # estimate_sigma2 has fitted the sample: read the kept fit, not fit_pl again
    point = ProdEstimator().evaluate(sample._fit, spectrum)
    # ndtri is the float that scipy.stats.norm.ppf returns, without loading scipy.stats
    half = float(scipy.special.ndtri(0.5 * (1.0 + level))) * math.sqrt(sigma2 / n)
    return EstimateReport(
        estimator="prod",
        k=getattr(spectrum, "k", None),
        point=point,
        std_error=math.sqrt(sigma2 / n),
        ci_low=float(point - half),
        ci_high=float(point + half),
        ci_level=level,
        n_effective=n,
    )
