"""Parametric severity laws, window transforms and synthetic LTRC generators.

Ground-up losses follow either a shifted exponential or a Pareto I law.
Recorded data passes through a deductible/limit window: fixed thresholds
reproduce the classic conditional construction min(X, u) | X > d, while the
random-truncation mode draws a truncation variable per loss and keeps the
pairs with t <= y, which is what makes the full ground-up law recoverable by
the product-limit estimator.
"""

from __future__ import annotations

import enum
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy

from .errors import CalibrationError, GenerationError, NumericalError
from .ltrc import LtrcSample
from .rng import derive_rng

__all__ = [
    "ModelFamily",
    "SeverityModel",
    "TruncationLaw",
    "WindowScheme",
    "DependentModelConfig",
    "ground_up_quantile",
    "window_quantile",
    "sample_ltrc_iid",
    "sample_ltrc_dependent",
    "sample_dependent_marginal",
    "dependent_censoring_fraction",
    "calibrate_truncation_location",
    "theoretical_srm",
]


class ModelFamily(str, enum.Enum):
    SHIFTED_EXPONENTIAL = "shifted-exponential"
    PARETO_I = "pareto-i"


@dataclass(frozen=True)
class SeverityModel:
    """Ground-up severity law.

    For the shifted exponential, ``x0`` is the location and ``theta`` the
    scale; for Pareto I, ``x0`` is the scale and ``alpha`` the shape.  The
    support starts at ``x0`` in both cases.
    """

    family: ModelFamily
    x0: float
    theta: float | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        # written so that NaN fails too
        if not self.x0 > 0:
            raise ValueError("x0 must be strictly positive")
        if self.family is ModelFamily.SHIFTED_EXPONENTIAL:
            if self.theta is None or not self.theta > 0:
                raise ValueError("shifted exponential requires theta > 0")
        elif self.family is ModelFamily.PARETO_I:
            if self.alpha is None or not self.alpha > 0:
                raise ValueError("Pareto I requires alpha > 0")
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown family {self.family!r}")

    @classmethod
    def shifted_exponential(cls, x0: float, theta: float) -> "SeverityModel":
        return cls(ModelFamily.SHIFTED_EXPONENTIAL, x0=x0, theta=theta)

    @classmethod
    def pareto_i(cls, x0: float, alpha: float) -> "SeverityModel":
        return cls(ModelFamily.PARETO_I, x0=x0, alpha=alpha)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        x_safe = np.maximum(x, self.x0)  # below-support values are masked to 0
        if self.family is ModelFamily.SHIFTED_EXPONENTIAL:
            out = -np.expm1(-(x_safe - self.x0) / self.theta)
        else:
            out = 1.0 - (self.x0 / x_safe) ** self.alpha
        out = np.where(x <= self.x0, 0.0, out)
        return float(out) if out.ndim == 0 else out


def ground_up_quantile(model: SeverityModel, p):
    """Quantile of the ground-up law; defined for p in [0, 1)."""
    if isinstance(p, float):
        # quad's callback, without the arrays.  It calls the array path's
        # routines, not math's: np.log1p, and for Pareto the C pow that
        # np.float64 ** runs, as Python's float ** does (np.power may take
        # SIMD code that differs in the last bit)
        if not 0.0 <= p < 1.0:
            raise ValueError("quantile level must lie in [0, 1)")
        if model.family is ModelFamily.SHIFTED_EXPONENTIAL:
            return model.x0 - model.theta * float(np.log1p(-p))
        try:
            return model.x0 * (1.0 - p) ** (-1.0 / model.alpha)
        except OverflowError:  # the array path gives inf
            return math.inf
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr >= 0.0) & (p_arr < 1.0)):  # written so that NaN fails too
        raise ValueError("quantile level must lie in [0, 1)")
    if model.family is ModelFamily.SHIFTED_EXPONENTIAL:
        out = model.x0 - model.theta * np.log1p(-p_arr)
    else:
        out = model.x0 * (1.0 - p_arr) ** (-1.0 / model.alpha)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TruncationLaw:
    """Uniform law of the random truncation variable on (a, b)."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError("uniform truncation law needs a < b")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.a, self.b, size)

    def describe(self) -> str:
        return f"uniform({self.a:g},{self.b:g})"


@dataclass(frozen=True)
class WindowScheme:
    """Deductible/limit window applied to ground-up losses.

    Without a ``truncation_law`` the window has fixed thresholds: every
    observation carries t = deductible and is censored at the limit.  With
    one it is a random-truncation window: the truncation value is drawn from
    the law per loss, censoring still happens at the limit, and only pairs
    with t <= y are retained.
    """

    deductible: float
    limit: float
    truncation_law: TruncationLaw | None = None

    def __post_init__(self) -> None:
        if not self.deductible < self.limit:
            raise ValueError("deductible must be below the policy limit")

    @classmethod
    def fixed(cls, deductible: float, limit: float) -> "WindowScheme":
        return cls(deductible=deductible, limit=limit)

    @classmethod
    def random_truncation(cls, law: TruncationLaw, limit: float) -> "WindowScheme":
        return cls(deductible=0.0, limit=limit, truncation_law=law)


def window_quantile(model: SeverityModel, scheme: WindowScheme, p):
    """Quantile of the fixed-window law min(X, u) | X > d; defined on [0, 1]."""
    d, u = scheme.deductible, scheme.limit
    if not d > model.x0:
        raise ValueError("deductible must exceed the support left endpoint")
    if isinstance(p, float):
        # quad's callback, with ground_up_quantile's routines
        if not 0.0 <= p <= 1.0:
            raise ValueError("quantile level must lie in [0, 1]")
        branch = window_branch_point(model, scheme)
        if not p < branch:
            return float(u)
        if model.family is ModelFamily.SHIFTED_EXPONENTIAL:
            return d - model.theta * float(np.log1p(-p))
        try:
            return d * (1.0 - p) ** (-1.0 / model.alpha)
        except OverflowError:  # the array path gives inf
            return math.inf
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr >= 0.0) & (p_arr <= 1.0)):  # written so that NaN fails too
        raise ValueError("quantile level must lie in [0, 1]")
    branch = window_branch_point(model, scheme)
    if model.family is ModelFamily.SHIFTED_EXPONENTIAL:
        body = d - model.theta * np.log1p(-np.minimum(p_arr, branch))
    else:
        body = d * (1.0 - np.minimum(p_arr, branch)) ** (-1.0 / model.alpha)
    out = np.where(p_arr < branch, body, u)
    return float(out) if out.ndim == 0 else out


def window_branch_point(model: SeverityModel, scheme: WindowScheme) -> float:
    """Probability level at which the window quantile hits the limit."""
    d, u = scheme.deductible, scheme.limit
    if not math.isfinite(u):
        return 1.0
    if model.family is ModelFamily.SHIFTED_EXPONENTIAL:
        return -math.expm1(-(u - d) / model.theta)
    return 1.0 - (d / u) ** model.alpha


# both samplers abort when fewer than this share of their draws is kept
ACCEPTANCE_FLOOR = 1e-6


def _retained(n: int, oversample: int, draw) -> tuple[np.ndarray, ...]:
    """The first ``n`` retained draws, one array per column that ``draw(m)`` keeps.

    Each batch draws ``oversample`` times the shortfall, at least 256.
    Aborts when the first 10 000 draws keep nothing, or when the draws pass
    the count that the acceptance floor allows for ``n`` observations.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    batches = []
    got = drawn = 0
    while got < n:
        m = max(256, oversample * (n - got))
        batches.append(draw(m))
        got += batches[-1][0].size
        drawn += m
        if drawn >= 10_000 and got == 0:
            raise GenerationError(f"no acceptances in {drawn} draws")
        if drawn > max(10_000.0, n / ACCEPTANCE_FLOOR):
            raise GenerationError(
                f"acceptance rate {got / drawn:.3g} too low to produce {n} observations"
            )
    return tuple(np.concatenate(column)[:n] for column in zip(*batches))


def sample_ltrc_iid(model: SeverityModel, scheme: WindowScheme, n: int, seed: int) -> LtrcSample:
    """Draw exactly ``n`` LTRC observations from the windowed severity law.

    A fixed window rejects ground-up draws at or below the deductible and
    caps at the limit; a random-truncation window draws a truncation value
    per loss and keeps pairs with t <= y.  Deterministic given ``seed``.  Aborts when the
    acceptance probability falls below ``ACCEPTANCE_FLOOR``.
    """
    rng = derive_rng(seed)
    u_cap = scheme.limit
    law = scheme.truncation_law

    if law is None:
        accept_prob = 1.0 - float(model.cdf(scheme.deductible))
        if accept_prob < ACCEPTANCE_FLOOR:
            raise GenerationError(
                f"acceptance probability {accept_prob:.3g} below floor {ACCEPTANCE_FLOOR:.3g} "
                f"(deductible {scheme.deductible:g} too deep in the tail)"
            )

    def draw(m: int) -> tuple[np.ndarray, np.ndarray]:
        x = ground_up_quantile(model, rng.random(m))
        y = np.minimum(x, u_cap)
        if law is None:
            keep = x > scheme.deductible
            return y[keep], np.full(int(keep.sum()), float(scheme.deductible))
        t = law.sample(rng, m)
        keep = t <= y
        return y[keep], t[keep]

    y, t = _retained(n, 2, draw)
    return LtrcSample(y, t, (y < u_cap).astype(np.int8))


@dataclass(frozen=True)
class DependentModelConfig:
    """Configuration of the dependent (serially correlated) generator.

    The covariate chain is an AR(1) with coefficient ``rho`` and innovation
    scale 0.5; losses and censoring values are noisy sinusoids of the
    covariate with amplitudes ``phi1``..``phi3``; truncation values are
    Normal(mu, 1).  ``phi2`` controls the unconditional censoring fraction
    P(X > S) = 1 - Phi(0.5 phi2 / sqrt(phi1^2 + phi3^2)).
    """

    rho: float = 0.1
    phi1: float = 0.3
    phi2: float = 1.087
    phi3: float = 0.3
    mu: float = 0.0

    def __post_init__(self) -> None:
        if not abs(self.rho) < 1:
            raise ValueError("|rho| must be below 1")
        # written so that NaN fails too
        if not all(0 < phi < math.inf for phi in (self.phi1, self.phi2, self.phi3)):
            raise ValueError("phi1, phi2, phi3 must be strictly positive and finite")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")

    def with_mu(self, mu: float) -> "DependentModelConfig":
        return replace(self, mu=mu)


def dependent_censoring_fraction(phi1: float, phi2: float, phi3: float) -> float:
    """Unconditional censoring probability P(X > S) of the dependent model."""
    # ndtr(-x) is the float that scipy.stats.norm.sf(x) returns, without loading scipy.stats
    return float(scipy.special.ndtr(-(0.5 * phi2 / math.hypot(phi1, phi3))))


def _ar1(e: np.ndarray, rho: float, x1_prev: float | None) -> np.ndarray:
    """The chain x1_i = rho x1_(i-1) + 0.5 e_i that continues from ``x1_prev`` (from 0 if None).

    These are the operations of scipy's ``lfilter([0.5], [1, -rho], e,
    zi=[rho * x1_prev])`` in its order, zero tap 0 * e_i included, so every
    value is lfilter's float, sign of zero included.
    """
    a1 = -rho
    z = 0.0 if x1_prev is None else rho * x1_prev
    out = e.tolist()
    for i, x in enumerate(out):
        y = z + 0.5 * x
        z = x * 0.0 - y * a1
        out[i] = y
    return np.array(out)


def _dependent_batch(cfg: DependentModelConfig, rng: np.random.Generator, m: int, x1_prev):
    """One batch of the dependent chain; returns (x1, X, S, last x1 state)."""
    e = rng.standard_normal(m)
    x1 = _ar1(e, cfg.rho, x1_prev)
    sin_part = np.sin(np.pi * x1)
    cos_part = 1.0 + 0.3 * np.cos(np.pi * x1)
    x = sin_part + cfg.phi1 * cos_part * rng.standard_normal(m)
    s = sin_part + 0.5 * cfg.phi2 * cos_part + cfg.phi3 * cos_part * rng.standard_normal(m)
    return x1, x, s, float(x1[-1])


def sample_ltrc_dependent(cfg: DependentModelConfig, n: int, seed: int) -> LtrcSample:
    """Draw exactly ``n`` retained observations from the dependent model.

    The covariate chain runs continuously across rejected observations, so
    the retained subsequence inherits its mixing behaviour.  Retention keeps
    triples with t <= y.  Deterministic given ``seed``.
    """
    rng = derive_rng(seed)
    x1_prev = None

    def draw(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        nonlocal x1_prev
        _, x, s, x1_prev = _dependent_batch(cfg, rng, m, x1_prev)
        y = np.minimum(x, s)
        t = cfg.mu + rng.standard_normal(m)
        keep = t <= y
        return y[keep], t[keep], (x <= s)[keep].astype(np.int8)

    return LtrcSample(*_retained(n, 4, draw))


# the dependent design's oracle is drawn, transformed and summed (in
# harness._oracle_srm) this many elements at a time.  A multiple of 64 float64
# elements (512 bytes, eight AVX-512 vectors), so each chunk keeps the vector
# blocks and the tail of one ufunc call over the whole array, and every
# element gets the same float.
ORACLE_CHUNK = 1 << 16


def sample_dependent_marginal(cfg: DependentModelConfig, n_draws: int, seed: int) -> np.ndarray:
    """Draws from the stationary marginal law of the loss variable X.

    Used as the Monte Carlo oracle for theoretical risk-measure values of
    the dependent design.  Equal bit for bit to
    ``sin(pi x1) + phi1 (1 + 0.3 cos(pi x1)) Z``, with ``x1 = sd * normal(n)``
    drawn before ``Z = normal(n)``.  The calling thread allocates every
    array and makes both draws, x1 in ``ORACLE_CHUNK`` pieces of the one
    stream; one helper thread scales each piece of x1 and forms its cosine
    and, in place, its sine while the caller draws on.  Once Z is drawn,
    the caller transforms the pieces the helper has not started and
    combines every piece.  The helper is joined before the function
    returns.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be at least 1")
    rng = derive_rng(seed)
    sd = 0.5 / math.sqrt(1.0 - cfg.rho**2)
    s = np.empty(n_draws)
    cos_part = np.empty(n_draws)
    z = np.empty(n_draws)
    pieces = [slice(a, a + ORACLE_CHUNK) for a in range(0, n_draws, ORACLE_CHUNK)]

    def trig(piece: slice) -> None:
        x = s[piece]
        x *= sd
        x *= np.pi
        np.cos(x, out=cos_part[piece])
        np.sin(x, out=x)

    def combine(piece: slice) -> None:
        c = cos_part[piece]
        c *= 0.3
        c += 1.0
        c *= cfg.phi1
        c *= z[piece]
        s[piece] += c

    with ThreadPoolExecutor(max_workers=1) as helper:
        queued = []
        for piece in pieces:
            rng.standard_normal(out=s[piece])
            queued.append(helper.submit(trig, piece))
        rng.standard_normal(out=z)
        # this thread takes over, from the back, the pieces the helper has
        # not started; one worker runs them in order
        for i in reversed(range(len(pieces))):
            if not queued[i].cancel():
                break
            trig(pieces[i])
            combine(pieces[i])
        for piece, trig_done in zip(pieces, queued):
            if not trig_done.cancelled():
                trig_done.result()
                combine(piece)
    return s


# size of the calibration's common evaluation set, its bisection step cap and
# the interval of mu the bisection starts from
CALIBRATION_DRAWS = 200_000
CALIBRATION_MAX_ITER = 200
CALIBRATION_BRACKET = (-20.0, 20.0)


def calibrate_truncation_location(
    cfg: DependentModelConfig, target_alpha: float, tolerance: float, seed: int
) -> float:
    """Find mu so that the retention probability P(T <= Y) hits ``target_alpha``.

    Uses common random numbers: one fixed evaluation set of
    ``CALIBRATION_DRAWS`` (Y, T0) pairs is drawn once, making the simulated
    rate a monotone nonincreasing step function of mu that bisection can
    cut reliably.
    """
    if not 0.0 < target_alpha < 1.0:
        raise ValueError("target_alpha must lie in (0, 1)")
    rng = derive_rng(seed, "calibration")
    _, x, s, _ = _dependent_batch(cfg, rng, CALIBRATION_DRAWS, None)
    y = np.minimum(x, s)
    t0 = rng.standard_normal(CALIBRATION_DRAWS)

    def rate(mu: float) -> float:
        return float(np.mean(t0 + mu <= y))

    lo, hi = CALIBRATION_BRACKET
    if not (rate(lo) >= target_alpha >= rate(hi)):
        raise CalibrationError(
            f"bracket {CALIBRATION_BRACKET} does not straddle retention rate {target_alpha}"
        )
    for _ in range(CALIBRATION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        r = rate(mid)
        if abs(r - target_alpha) <= tolerance:
            return mid
        if r > target_alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    raise CalibrationError(
        f"bisection failed to reach rate {target_alpha} +- {tolerance}; "
        f"final interval [{lo}, {hi}]"
    )


# adaptive-quadrature settings of theoretical risk-measure values
QUAD_ABS_TOL = 1e-6
QUAD_REL_TOL = 1e-9
QUAD_UPPER_CLIP = 1e-12
QUAD_LIMIT = 400


def theoretical_srm(quantile_fn, spectrum, breakpoints: tuple[float, ...] = ()) -> float:
    """Integrate a quantile function against a spectrum by adaptive quadrature.

    Unbounded quantiles are clipped at level 1 - ``QUAD_UPPER_CLIP``; for the
    laws used here the clipped mass is far below the requested tolerance.
    Known kinks of the quantile function can be passed as ``breakpoints``.
    """
    hi = 1.0 - QUAD_UPPER_CLIP
    top = float(quantile_fn(hi))
    if not np.isfinite(top):
        raise NumericalError(
            f"quantile function is not finite at the clipped level {hi!r}"
        )
    pts = {float(p) for p in breakpoints if 0.0 < p < hi}
    tail_start = getattr(spectrum, "p", None)
    if tail_start is not None and 0.0 < tail_start < hi:
        pts.add(float(tail_start))
    k = getattr(spectrum, "k", 0.0)
    if k and k > 4.0:
        # hint the boundary layer of a sharply concentrated spectrum
        pts.update(1.0 - c / k for c in (1.0, 5.0, 20.0) if 0.0 < 1.0 - c / k < hi)

    def integrand(u: float) -> float:
        return float(spectrum.phi(u)) * float(quantile_fn(u))

    # roundoff near a clipped singular endpoint can stop the extrapolation
    # before the requested tolerance; the reported error bound is checked
    # instead of trusting the warning-free path
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        value, abserr = scipy.integrate.quad(
            integrand,
            0.0,
            hi,
            points=sorted(pts) or None,
            limit=QUAD_LIMIT,
            epsabs=QUAD_ABS_TOL,
            epsrel=QUAD_REL_TOL,
        )
    if not np.isfinite(value):
        raise NumericalError(f"quadrature returned {value!r} (abserr {abserr!r})")
    if abserr > max(100.0 * QUAD_ABS_TOL, 1e-6 * abs(value)):
        raise NumericalError(
            f"quadrature error bound {abserr:.3g} too large for value {value:.6g}"
        )
    return float(value)
