"""Product-limit estimation for left-truncated right-censored (LTRC) samples.

An LTRC observation is a triple ``(y, t, delta)``: the recorded loss ``y``
(possibly capped by a policy limit), the truncation value ``t`` under which
the loss entered the data at all, and the censoring indicator ``delta``
(1 if the loss was observed exactly, 0 if it was capped).  The product-limit
estimator recovers the loss distribution from such triples by multiplying
one-step survival factors over risk sets.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "LtrcSample",
    "StepDistribution",
    "QuantileFunction",
    "SortedSample",
    "fit_pl",
    "pl_quantile",
]


class LtrcSample:
    """An LTRC sample held as aligned, write-locked numpy arrays.

    Its attributes cannot be assigned or deleted, as with a frozen dataclass.
    The sample's first sort (:meth:`SortedSample.from_sample`) and first
    product-limit fit (:func:`fit_pl`) are kept on it and returned again.
    Both derive from ``(y, t, delta)`` alone and are write-locked, and a
    pickled or copied sample starts without them.
    """

    __slots__ = ("y", "t", "delta", "_sorted", "_fit")

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
        nan_t = np.isnan(t_arr)
        if nan_t.any():
            raise ValueError(f"observation {int(nan_t.argmax())}: truncation value is NaN")
        if not np.all(t_arr <= y_arr):
            bad = int(np.argmax(t_arr > y_arr))
            raise ValueError(f"observation {bad}: truncation value exceeds observed value")
        for arr in (y_arr, t_arr, d_arr):
            arr.flags.writeable = False
        object.__setattr__(self, "y", y_arr)
        object.__setattr__(self, "t", t_arr)
        object.__setattr__(self, "delta", d_arr)
        object.__setattr__(self, "_sorted", None)
        object.__setattr__(self, "_fit", None)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through the constructor, which validates and write-locks again
        return LtrcSample, (self.y, self.t, self.delta)

    @classmethod
    def from_complete_data(cls, values: Sequence[float]) -> "LtrcSample":
        """Wrap fully observed data: no truncation, no censoring."""
        values = np.asarray(values, dtype=float)
        return cls(values, np.full(values.shape, -np.inf), np.ones(values.shape, dtype=np.int8))

    def __len__(self) -> int:
        return self.y.size

    def sorted_order(self) -> np.ndarray:
        """Indices sorting by y; at equal y, uncensored first, then by original index."""
        return np.lexsort((-self.delta, self.y))


@dataclass(frozen=True)
class StepDistribution:
    """A right-continuous nondecreasing step CDF.

    ``values[j]`` is the CDF value at and immediately after ``knots[j]``;
    before the first knot the CDF is 0.  A fit records its sample size ``n``
    and its count of zero factors; a distribution built by hand has 0 for both.
    """

    knots: np.ndarray
    values: np.ndarray
    zero_factor_count: int = 0
    n: int = 0

    # Not a field and always None: no fit holds exact values.  The benchmark's
    # tracer reads it to count exact fits until that counter is dropped
    # (ROADMAP item 7).
    exact_values = None

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

    @cached_property
    def quantile(self) -> QuantileFunction:
        """The generalized inverse :func:`pl_quantile`, computed on first use."""
        return pl_quantile(self)

    def jumps(self) -> np.ndarray:
        """Probability mass at each knot."""
        return np.diff(self.values, prepend=0.0)


@dataclass(frozen=True)
class QuantileFunction:
    """A nondecreasing step quantile function on (0, 1].

    The function takes the value ``values[j]`` on the probability segment
    ``(edges[j], edges[j+1]]``; ``edges`` rises strictly from 0 to 1 and is
    one element longer than ``values``.
    """

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", vals)
        if not (vals.ndim == 1 and vals.size > 0 and edges.shape == (vals.size + 1,)):
            raise ValueError("edges must be one element longer than a nonempty values array")
        if edges[0] != 0.0 or edges[-1] != 1.0:
            raise ValueError("edges must run from 0 to 1")
        if not np.all(np.diff(edges) > 0):  # written so that NaN fails too
            raise ValueError("edges must be strictly increasing")
        if np.any(np.diff(vals) < 0):
            raise ValueError("quantile values must be nondecreasing")

    def __call__(self, p):
        p_arr = np.asarray(p, dtype=float)
        if not np.all((p_arr > 0.0) & (p_arr <= 1.0)):  # written so that NaN fails too
            raise ValueError("quantile levels must lie in (0, 1]")
        out = self.values[np.searchsorted(self.edges, p_arr, side="left") - 1]
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SortedSample:
    """An LTRC sample sorted once, for product-limit fits under integer weights.

    A bootstrap resample is the original sample with integer weights: the
    number of times each observation was drawn, held at its sorted position
    (``rank`` maps an original index to it).  The risk set of a weighted
    sample at a sorted y_i is a weighted count,
    R(i) = sum_j w_j 1{t_j <= y_i} - sum_j w_j 1{y_j < y_i}, so it comes from
    cumulative weight sums at positions that depend on the sample alone and
    are found here once.  With unit weights, R(i) = entered[i] - passed[i],
    held as ``risk``.
    """

    rank: np.ndarray  # sorted position of each original index
    y: np.ndarray  # y in sorted order: by y, uncensored first on ties
    delta: np.ndarray
    starts: np.ndarray  # first sorted position of each run of equal y
    t_order: np.ndarray  # sorted positions by increasing t
    entered: np.ndarray  # #{t_j <= y_i} at each sorted position
    passed: np.ndarray  # #{y_j < y_i} at each sorted position
    risk: np.ndarray  # entered - passed: risk-set size at each sorted position, >= 1

    @classmethod
    def from_sample(cls, sample: LtrcSample) -> "SortedSample":
        """The sample sorted, built on first use and then kept on the sample."""
        if sample._sorted is not None:
            return sample._sorted
        order = sample.sorted_order()
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        ys = sample.y[order]
        # tied t need no order: prefix sums are read only past the last of a tie
        by_t = np.argsort(sample.t)
        entered = np.searchsorted(sample.t[by_t], ys, side="right")
        first = np.concatenate(([True], ys[1:] != ys[:-1]))
        starts = np.flatnonzero(first)
        passed = starts[np.cumsum(first) - 1]  # the start of each position's run
        arrays = dict(
            rank=rank,
            y=ys,
            delta=sample.delta[order],
            starts=starts,
            t_order=rank[by_t],
            entered=entered,
            passed=passed,
            risk=entered - passed,
        )
        for arr in arrays.values():
            arr.flags.writeable = False
        sorted_sample = cls(**arrays)
        object.__setattr__(sample, "_sorted", sorted_sample)
        return sorted_sample

    def pl_cdf(self, weights: np.ndarray) -> np.ndarray:
        """Product-limit CDF at each run of equal y, one row per row of ``weights``.

        ``weights`` is a (rows, n) integer array in sorted order:
        ``weights[row, i]`` is how many times the row's sample holds the
        observation at sorted position i.  Each row is fitted as that sample,
        in the log-space convention of ``fit_pl``.
        """
        risk = (
            _prefix_sums(weights[:, self.t_order])[:, self.entered]
            - _prefix_sums(weights)[:, self.passed]
        )
        return _log_space_cdf(self.delta, risk, self.starts, weights)


def _prefix_sums(w: np.ndarray) -> np.ndarray:
    """Row-wise cumulative sums with a leading zero column: out[:, m] = sum of w[:, :m]."""
    out = np.zeros((w.shape[0], w.shape[1] + 1), dtype=w.dtype)
    np.cumsum(w, axis=1, out=out[:, 1:])
    return out


def fit_pl(sample: LtrcSample) -> StepDistribution:
    """Fit the product-limit CDF of an LTRC sample.

    The estimate multiplies, over uncensored observations with value <= x,
    the factors (R-1)/R where R counts observations whose (t, y) interval
    covers that value; the CDF is forced to 1 at and beyond the largest y.
    Ties in y are swept uncensored-first, and tied uncensored points each
    contribute their own factor at the shared risk-set count.

    The survival product is summed in log space, except on the leading run:
    the uncensored points before the first tie, censored point or late
    entry.  Its risk sets drop by one from R_0, so after c of its points the
    factors telescope to F = c/R_0, one correctly rounded division, and
    complete data give exactly j/n.  A factor can be exactly zero before
    the largest y (risk set of size one at an uncensored point); the fit
    then absorbs all remaining mass at that knot and reports the event in
    ``zero_factor_count``.

    A sample's first fit is kept on the sample, with its ``knots`` and
    ``values`` write-locked, and every later call returns that same fit.
    """
    if sample._fit is not None:
        return sample._fit
    s = SortedSample.from_sample(sample)
    n = s.y.size
    ys, ds, starts, risk = s.y, s.delta, s.starts, s.risk
    unc = ds == 1
    zero_factors = int(np.count_nonzero(unc & (risk == 1) & (ys < ys[-1])))

    vals = _log_space_cdf(ds, risk[None, :], starts, np.ones((1, n), dtype=np.int64))[0]
    in_run = unc & (risk + np.arange(n) == risk[0])
    run = n if in_run.all() else int(in_run.argmin())
    # uncensored points read by each group but the last; a prefix reads the run
    unc_read = unc.cumsum()[starts[1:] - 1]
    lead = int(unc_read.searchsorted(run, side="right"))
    vals[:lead] = unc_read[:lead] / risk[0]

    # keep only knots that add mass, i.e. exceed every earlier value; the last
    # group (y_max) always has value 1
    keep = np.concatenate(([True], vals[1:] > np.maximum.accumulate(vals)[:-1]))

    fit = StepDistribution(
        knots=ys[starts][keep],
        values=vals[keep],
        zero_factor_count=zero_factors,
        n=n,
    )
    fit.knots.flags.writeable = False
    fit.values.flags.writeable = False
    object.__setattr__(sample, "_fit", fit)
    return fit


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
    keep = dist.jumps() > 0
    return QuantileFunction(np.concatenate(([0.0], dist.values[keep])), dist.knots[keep])
