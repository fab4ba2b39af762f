"""Key-value configuration files for models, windows and generators.

The format is one ``key = value`` pair per line, ``#`` comments allowed.
Recognized keys: family, x0, theta, alpha, d, u, mode, truncation_lo,
truncation_hi, rho, phi1, phi2, phi3, mu, target_alpha, target_pc.
"""

from __future__ import annotations

from .errors import ClaimsFormatError
from .severity import (
    DependentModelConfig,
    ModelFamily,
    SeverityModel,
    TruncationLaw,
    WindowScheme,
)

__all__ = [
    "load_config",
    "model_from_config",
    "scheme_from_config",
    "dependent_from_config",
]

_WINDOW_KEYS = {"d", "u", "mode", "truncation_lo", "truncation_hi"}
_KNOWN_KEYS = {
    "family",
    "x0",
    "theta",
    "alpha",
    *_WINDOW_KEYS,
    "rho",
    "phi1",
    "phi2",
    "phi3",
    "mu",
    "target_alpha",
    "target_pc",
}

_FAMILY_ALIASES = {
    "exp": ModelFamily.SHIFTED_EXPONENTIAL,
    "exponential": ModelFamily.SHIFTED_EXPONENTIAL,
    "shifted-exponential": ModelFamily.SHIFTED_EXPONENTIAL,
    "pareto": ModelFamily.PARETO_I,
    "pareto-i": ModelFamily.PARETO_I,
}


def load_config(path) -> dict[str, str]:
    """Parse a key = value file; unknown keys are an error."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ClaimsFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _KNOWN_KEYS:
                raise ClaimsFormatError(
                    f"{path}:{lineno}: unknown key {key!r}; known keys: "
                    f"{', '.join(sorted(_KNOWN_KEYS))}"
                )
            out[key] = value
    return out


def model_from_config(cfg: dict[str, str]) -> SeverityModel:
    family = _FAMILY_ALIASES.get(cfg.get("family", "").lower())
    if family is None:
        raise ClaimsFormatError(f"config needs a valid family, got {cfg.get('family')!r}")
    x0 = float(cfg.get("x0", "nan"))
    if family is ModelFamily.SHIFTED_EXPONENTIAL:
        return SeverityModel.shifted_exponential(x0, float(cfg.get("theta", "nan")))
    return SeverityModel.pareto_i(x0, float(cfg.get("alpha", "nan")))


def scheme_from_config(cfg: dict[str, str]) -> WindowScheme | None:
    """The window the config's window keys describe; None if it has none."""
    if not _WINDOW_KEYS & cfg.keys():
        return None
    d = float(cfg.get("d", "0"))
    u = float(cfg.get("u", "inf"))
    mode = cfg.get("mode", "fixed").strip().lower()
    if mode in ("fixed", "fixed-thresholds"):
        return WindowScheme.fixed(d, u)
    if mode in ("random", "random-truncation"):
        law = TruncationLaw.uniform(
            float(cfg.get("truncation_lo", "0")), float(cfg.get("truncation_hi", "nan"))
        )
        return WindowScheme.random_truncation(law, limit=u, deductible=d)
    raise ClaimsFormatError(f"unknown window mode {mode!r}")


def dependent_from_config(cfg: dict[str, str]) -> DependentModelConfig:
    return DependentModelConfig(
        rho=float(cfg.get("rho", "0.1")),
        phi1=float(cfg.get("phi1", "0.3")),
        phi2=float(cfg.get("phi2", "1.087")),
        phi3=float(cfg.get("phi3", "0.3")),
        mu=float(cfg.get("mu", "0")),
        target_truncation_rate=(
            float(cfg["target_alpha"]) if "target_alpha" in cfg else None
        ),
        target_censoring_pc=(float(cfg["target_pc"]) if "target_pc" in cfg else None),
    )
