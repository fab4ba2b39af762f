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
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate, signal, stats

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
        # written so that NaN, a config file's value for a missing key, fails too
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

    def mean(self) -> float:
        if self.family is ModelFamily.SHIFTED_EXPONENTIAL:
            return self.x0 + self.theta
        if self.alpha <= 1.0:
            return math.inf
        return self.x0 * self.alpha / (self.alpha - 1.0)


def ground_up_quantile(model: SeverityModel, p):
    """Quantile of the ground-up law; defined for p in [0, 1)."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0.0) or np.any(p_arr >= 1.0):
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
    def random_truncation(
        cls, law: TruncationLaw, limit: float, deductible: float = 0.0
    ) -> "WindowScheme":
        return cls(deductible=deductible, limit=limit, truncation_law=law)


def window_quantile(model: SeverityModel, scheme: WindowScheme, p):
    """Quantile of the fixed-window law min(X, u) | X > d; defined on [0, 1]."""
    d, u = scheme.deductible, scheme.limit
    if not d > model.x0:
        raise ValueError("deductible must exceed the support left endpoint")
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr < 0.0) or np.any(p_arr > 1.0):
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


# how far the phi parameters' censoring fraction may sit from target_censoring_pc
PC_TOLERANCE = 0.005


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
    target_truncation_rate: float | None = None
    target_censoring_pc: float | None = None

    def __post_init__(self) -> None:
        if not abs(self.rho) < 1:
            raise ValueError("|rho| must be below 1")
        if min(self.phi1, self.phi2, self.phi3) <= 0:
            raise ValueError("phi1, phi2, phi3 must be strictly positive")
        for name in ("target_truncation_rate", "target_censoring_pc"):
            rate = getattr(self, name)
            if rate is not None and not 0.0 < rate < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.target_censoring_pc is not None:
            pc = dependent_censoring_fraction(self.phi1, self.phi2, self.phi3)
            if abs(pc - self.target_censoring_pc) > PC_TOLERANCE:
                raise ValueError(
                    f"phi parameters give censoring fraction {pc:.4f}, not the target "
                    f"{self.target_censoring_pc:.4f} (tolerance {PC_TOLERANCE})"
                )

    def with_mu(self, mu: float) -> "DependentModelConfig":
        return replace(self, mu=mu)


def dependent_censoring_fraction(phi1: float, phi2: float, phi3: float) -> float:
    """Unconditional censoring probability P(X > S) of the dependent model."""
    return float(stats.norm.sf(0.5 * phi2 / math.hypot(phi1, phi3)))


def _dependent_batch(cfg: DependentModelConfig, rng: np.random.Generator, m: int, x1_prev):
    """One batch of the dependent chain; returns (x1, X, S, last x1 state)."""
    e = rng.standard_normal(m)
    if x1_prev is None:
        x1 = signal.lfilter([0.5], [1.0, -cfg.rho], e)
    else:
        x1, _ = signal.lfilter([0.5], [1.0, -cfg.rho], e, zi=np.array([cfg.rho * x1_prev]))
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


def sample_dependent_marginal(cfg: DependentModelConfig, n_draws: int, seed: int) -> np.ndarray:
    """Draws from the stationary marginal law of the loss variable X.

    Used as the Monte Carlo oracle for theoretical risk-measure values of
    the dependent design.
    """
    rng = derive_rng(seed)
    sd = 0.5 / math.sqrt(1.0 - cfg.rho**2)
    x1 = sd * rng.standard_normal(n_draws)
    cos_part = 1.0 + 0.3 * np.cos(np.pi * x1)
    return np.sin(np.pi * x1) + cfg.phi1 * cos_part * rng.standard_normal(n_draws)


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
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, abserr = integrate.quad(
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
