"""Product-limit estimation for left-truncated right-censored (LTRC) samples.

An LTRC observation is a triple ``(y, t, delta)``: the recorded loss ``y``
(possibly capped by a policy limit), the truncation value ``t`` under which
the loss entered the data at all, and the censoring indicator ``delta``
(1 if the loss was observed exactly, 0 if it was capped).  The product-limit
estimator recovers the loss distribution from such triples by multiplying
one-step survival factors over risk sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Sequence

import numpy as np

__all__ = [
    "LtrcSample",
    "StepDistribution",
    "QuantileFunction",
    "SortedSample",
    "PlFit",
    "fit_pl",
    "pl_quantile",
    "EXACT_PRODUCT_LIMIT",
]

# Above this sample size the survival product is accumulated in log space
# (max relative error ~n*eps < 1e-12 at the sizes that path serves); at or
# below it the product is carried as an exact rational.
EXACT_PRODUCT_LIMIT = 10_000


class LtrcSample:
    """An LTRC sample held as aligned, write-locked numpy arrays."""

    __slots__ = ("y", "t", "delta")

    def __init__(self, y: Sequence[float], t: Sequence[float], delta: Sequence[int]):
        y_arr = np.array(y, dtype=float)
        t_arr = np.array(t, dtype=float)
        d_arr = np.array(delta, dtype=np.int8)
        if y_arr.ndim != 1 or y_arr.size == 0:
            raise ValueError("sample must contain at least one observation")
        if y_arr.shape != t_arr.shape or y_arr.shape != d_arr.shape:
            raise ValueError("y, t and delta must have equal length")
        if not np.all(np.isfinite(y_arr)):
            raise ValueError("observed values must be finite")
        if not np.all((d_arr == 0) | (d_arr == 1)):
            raise ValueError("delta entries must be 0 or 1")
        if not np.all(t_arr <= y_arr):
            bad = int(np.argmax(t_arr > y_arr))
            raise ValueError(f"observation {bad}: truncation value exceeds observed value")
        for arr in (y_arr, t_arr, d_arr):
            arr.flags.writeable = False
        object.__setattr__(self, "y", y_arr)
        object.__setattr__(self, "t", t_arr)
        object.__setattr__(self, "delta", d_arr)

    @classmethod
    def from_complete_data(cls, values: Sequence[float]) -> "LtrcSample":
        """Wrap fully observed data: no truncation, no censoring."""
        values = np.asarray(values, dtype=float)
        return cls(values, np.full(values.shape, -np.inf), np.ones(values.shape, dtype=np.int8))

    def __len__(self) -> int:
        return self.y.size

    def sorted_order(self) -> np.ndarray:
        """Indices sorting by y, uncensored before censored at equal y."""
        return np.lexsort((-self.delta, self.y))


@dataclass(frozen=True)
class StepDistribution:
    """A right-continuous nondecreasing step CDF.

    ``values[j]`` is the CDF value at and immediately after ``knots[j]``;
    before the first knot the CDF is 0.  When the fit was
    carried in exact rational arithmetic, ``exact_values[j]`` is the same
    value as a pair of coprime ints ``(num, den)`` meaning num/den, and
    ``values[j]`` is its correctly rounded float.
    """

    knots: np.ndarray
    values: np.ndarray
    exact_values: tuple[tuple[int, int], ...] | None = None
    zero_factor_count: int = 0
    n: int = 0

    def __post_init__(self) -> None:
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)
        if knots.size == 0:
            raise ValueError("a step distribution needs at least one knot")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        if np.any(np.diff(values) < 0) or values[0] < 0.0:
            raise ValueError("CDF values must be nondecreasing")
        if values[-1] != 1.0 or np.any(values > 1.0):
            raise ValueError("CDF values must lie in [0, 1] and reach 1 at the last knot")

    def cdf(self, x):
        """Evaluate the CDF at scalar or array ``x``."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.knots, x, side="right")
        padded = np.concatenate(([0.0], self.values))
        out = padded[idx]
        return float(out) if out.ndim == 0 else out

    def cdf_exact(self, x: float) -> Fraction:
        """Exact CDF value at ``x``; requires an exactly fitted distribution."""
        if self.exact_values is None:
            raise ValueError("distribution was not fitted in exact arithmetic")
        idx = int(np.searchsorted(self.knots, x, side="right"))
        if idx == 0:
            return Fraction(0)
        return Fraction(*self.exact_values[idx - 1])

    def jumps(self) -> np.ndarray:
        """Probability mass at each knot."""
        return np.diff(self.values, prepend=0.0)


@dataclass(frozen=True)
class QuantileFunction:
    """Generalized inverse of a :class:`StepDistribution`.

    The function is constant on each probability segment
    ``(segment_lo[j], segment_hi[j]]`` with value ``values[j]``; it is defined
    on (0, 1] and ``segment_hi[-1] == 1``.
    """

    segment_lo: np.ndarray
    segment_hi: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.segment_lo, dtype=float)
        hi = np.asarray(self.segment_hi, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "segment_lo", lo)
        object.__setattr__(self, "segment_hi", hi)
        object.__setattr__(self, "values", vals)
        if not (lo.size == hi.size == vals.size > 0):
            raise ValueError("segment arrays must be nonempty and aligned")
        if lo[0] != 0.0 or hi[-1] != 1.0:
            raise ValueError("segments must cover (0, 1]")
        if np.any(lo >= hi) or np.any(hi[:-1] != lo[1:]):
            raise ValueError("segments must be increasing and contiguous")
        if np.any(np.diff(vals) < 0):
            raise ValueError("quantile values must be nondecreasing")

    def __call__(self, p):
        p_arr = np.asarray(p, dtype=float)
        if np.any(p_arr <= 0.0) or np.any(p_arr > 1.0):
            raise ValueError("quantile levels must lie in (0, 1]")
        idx = np.searchsorted(self.segment_hi, p_arr, side="left")
        out = self.values[idx]
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SortedSample:
    """An LTRC sample sorted once, for product-limit fits under integer weights.

    A bootstrap resample is the original sample with integer weights: the
    number of times each observation was drawn.  The risk set of a weighted
    sample at a sorted y_i is a weighted count,
    R(i) = sum_j w_j 1{t_j <= y_i} - sum_j w_j 1{y_j < y_i}, so it comes from
    cumulative weight sums at positions that depend on the sample alone and
    are found here once.  With unit weights, R(i) = entered[i] - passed[i].
    """

    order: np.ndarray  # original index at each sorted position
    y: np.ndarray  # y in sorted order: by y, uncensored first on ties
    delta: np.ndarray
    starts: np.ndarray  # first sorted position of each run of equal y
    t_order: np.ndarray  # original indices by increasing t
    entered: np.ndarray  # #{t_j <= y_i} at each sorted position
    passed: np.ndarray  # #{y_j < y_i} at each sorted position

    @classmethod
    def from_sample(cls, sample: LtrcSample) -> "SortedSample":
        order = sample.sorted_order()
        ys = sample.y[order]
        # tied t need no order: prefix sums are read only past the last of a tie
        t_order = np.argsort(sample.t)
        return cls(
            order=order,
            y=ys,
            delta=sample.delta[order],
            starts=np.flatnonzero(np.concatenate(([True], ys[1:] != ys[:-1]))),
            t_order=t_order,
            entered=np.searchsorted(sample.t[t_order], ys, side="right"),
            passed=np.searchsorted(ys, ys, side="left"),
        )

    def pl_cdf(self, weights: np.ndarray) -> np.ndarray:
        """Product-limit CDF at each run of equal y, one row per row of ``weights``.

        ``weights`` is a (rows, n) integer array indexed like the original
        sample.  Each row is fitted as the sample that holds observation j
        ``weights[row, j]`` times, in the log-space convention of ``fit_pl``.
        """
        w_sorted = weights[:, self.order]
        risk = (
            _prefix_sums(weights[:, self.t_order])[:, self.entered]
            - _prefix_sums(w_sorted)[:, self.passed]
        )
        return _log_space_cdf(self.delta, risk, self.starts, w_sorted)


def _prefix_sums(w: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums with a leading zero column: out[:, m] = sum of w[:, :m]."""
    out = np.zeros((w.shape[0], w.shape[1] + 1), dtype=w.dtype)
    np.cumsum(w, axis=1, out=out[:, 1:])
    return out


def fit_pl(sample: LtrcSample | SortedSample) -> StepDistribution:
    """Fit the product-limit CDF of an LTRC sample.

    The estimate multiplies, over uncensored observations with value <= x,
    the factors (R-1)/R where R counts observations whose (t, y) interval
    covers that value; the CDF is forced to 1 at and beyond the largest y.
    Ties in y are swept uncensored-first, and tied uncensored points each
    contribute their own factor at the shared risk-set count.

    Sample size alone picks the arithmetic: the survival product is an
    exact rational for samples up to ``EXACT_PRODUCT_LIMIT`` observations
    and is carried in log space above.  A factor can be exactly zero before
    the largest y (risk set of size one at an uncensored point); the fit
    then absorbs all remaining mass at that knot and reports the event in
    ``zero_factor_count``.  Given a sample's :class:`SortedSample`, it
    fits without sorting again.
    """
    s = sample if isinstance(sample, SortedSample) else SortedSample.from_sample(sample)
    n = s.y.size
    exact = n <= EXACT_PRODUCT_LIMIT

    ys, ds, starts = s.y, s.delta, s.starts
    # risk-set size at each sorted y; >= 1 always
    risk = s.entered - s.passed
    zero_factors = int(np.count_nonzero((ds == 1) & (risk == 1) & (ys < ys[-1])))

    if exact:
        vals_exact = _exact_cdf(ds, risk, starts)
        vals = np.array([num / den for num, den in vals_exact])
    else:
        vals = _log_space_cdf(ds, risk[None, :], starts, np.ones((1, n), dtype=np.int64))[0]

    # keep only knots that add mass, i.e. exceed every earlier value; the last
    # group (y_max) always has value 1
    keep = np.concatenate(([True], vals[1:] > np.maximum.accumulate(vals)[:-1]))

    return StepDistribution(
        knots=ys[starts][keep],
        values=vals[keep],
        exact_values=tuple(compress(vals_exact, keep)) if exact else None,
        zero_factor_count=zero_factors,
        n=n,
    )


def _exact_cdf(ds: np.ndarray, risk: np.ndarray, starts: np.ndarray) -> list[tuple[int, int]]:
    """CDF value at each run of equal sorted y, as a coprime pair (num, den).

    The survival product num/den is kept in lowest terms: each factor
    (R-1)/R is cross-reduced against it by two gcds, as ``Fraction``
    multiplication does.  The CDF value (den - num)/den then has coprime
    terms, and int true division rounds it correctly.  A run reads the
    product after its last uncensored point (a run without one carries the
    previous value); the run of the largest y has value 1.
    """
    unc = ds == 1
    # number of uncensored points up to the end of each run
    reads = np.cumsum(unc)[np.concatenate((starts[1:], [ds.size])) - 1]
    surv = [(1, 1)]
    num = den = 1
    for r in risk[unc].tolist():
        g1 = math.gcd(num, r)
        g2 = math.gcd(r - 1, den)
        num = (num // g1) * ((r - 1) // g2)
        den = (den // g2) * (r // g1)
        surv.append((num, den))
    vals = [(den - num, den) for num, den in map(surv.__getitem__, reads[:-1].tolist())]
    vals.append((1, 1))
    return vals


def _log_space_cdf(
    ds: np.ndarray, risk: np.ndarray, starts: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """CDF value at each run of equal sorted y, from the survival product in log space.

    Each row of the (rows, n) arrays ``risk`` and ``weights`` is one
    weighting of the sorted sample; a plain fit is one row of unit weights.
    An uncensored point of weight w adds w * log(1 - 1/R), for its w tied
    copies at the shared risk set R, and a point of weight 0 adds nothing.
    ``np.cumsum`` adds sequentially in sorted order, and adding the zero
    terms of censored points leaves a float sum unchanged, so with unit
    weights every partial sum is the float an observation-by-observation
    loop would reach.  Once a factor is zero (a risk set of one at a present
    uncensored point) the CDF is 1 from that group on, as it is from the
    group of the largest present y on.
    """
    unc = ds == 1
    present = weights > 0
    # log(1 - 1/r) for every risk-set size r >= 2; sizes 0 (absent points)
    # and 1 (zero factors, handled below) add 0
    log_factor = np.zeros(int(risk.max()) + 1)
    log_factor[2:] = np.log1p(-1.0 / np.arange(2, log_factor.size))
    terms = np.where(unc, weights * log_factor[risk], 0.0)
    ends = np.concatenate((starts[1:], [ds.size])) - 1
    vals = -np.expm1(np.cumsum(terms, axis=1)[:, ends])
    hit_zero = np.cumsum(unc & present & (risk == 1), axis=1)[:, ends] > 0
    vals[hit_zero] = 1.0
    last_present = ds.size - 1 - np.argmax(present[:, ::-1], axis=1)
    last_group = np.searchsorted(starts, last_present, side="right") - 1
    vals[np.arange(starts.size) >= last_group[:, None]] = 1.0
    return vals


def pl_quantile(dist: StepDistribution) -> QuantileFunction:
    """Generalized inverse q(p) = inf{x : F(x) >= p} of a step CDF."""
    mass = dist.jumps()
    keep = mass > 0
    hi = dist.values[keep]
    x = dist.knots[keep]
    lo = np.concatenate(([0.0], hi[:-1]))
    return QuantileFunction(segment_lo=lo, segment_hi=hi, values=x)


@dataclass(frozen=True)
class PlFit:
    """A sample's product-limit fit with the sorted sample it was fitted on.

    ``risk`` is the risk-set count entered - passed at each sorted point, at
    least 1 as every observation is in its own risk set.  The asymptotic
    inference takes a ``PlFit`` in place of a sample, so an analysis fits once.
    """

    sorted_sample: SortedSample
    risk: np.ndarray
    dist: StepDistribution
    quantile: QuantileFunction

    @classmethod
    def from_sample(cls, sample: LtrcSample) -> "PlFit":
        s = SortedSample.from_sample(sample)
        dist = fit_pl(s)
        return cls(sorted_sample=s, risk=s.entered - s.passed, dist=dist, quantile=pl_quantile(dist))
