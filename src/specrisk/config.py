"""Key-value configuration files for models, windows and generators.

The format is one ``key = value`` pair per line, ``#`` comments allowed.
Each command reads its own keys: ``ESTIMATE_KEYS`` (family, x0, theta,
alpha and the window keys d, u, mode, truncation_lo, truncation_hi) for a
claims analysis, ``DEPENDENT_KEYS`` (rho, phi1, phi2, phi3, mu,
target_pc) for the dependent design.
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
    "ESTIMATE_KEYS",
    "DEPENDENT_KEYS",
    "load_config",
    "model_from_config",
    "scheme_from_config",
    "dependent_from_config",
]

_WINDOW_KEYS = frozenset({"d", "u", "mode", "truncation_lo", "truncation_hi"})
ESTIMATE_KEYS = frozenset({"family", "x0", "theta", "alpha"}) | _WINDOW_KEYS
DEPENDENT_KEYS = frozenset({"rho", "phi1", "phi2", "phi3", "mu", "target_pc"})

_FAMILY_ALIASES = {
    "exp": ModelFamily.SHIFTED_EXPONENTIAL,
    "exponential": ModelFamily.SHIFTED_EXPONENTIAL,
    "shifted-exponential": ModelFamily.SHIFTED_EXPONENTIAL,
    "pareto": ModelFamily.PARETO_I,
    "pareto-i": ModelFamily.PARETO_I,
}


def load_config(path, keys: frozenset[str]) -> dict[str, str]:
    """Parse a key = value file; a key outside ``keys`` is an error, as nothing would read it."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ClaimsFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in keys:
                raise ClaimsFormatError(
                    f"{path}:{lineno}: unknown key {key!r}; allowed keys: "
                    f"{', '.join(sorted(keys))}"
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
        law = TruncationLaw(
            float(cfg.get("truncation_lo", "0")), float(cfg.get("truncation_hi", "nan"))
        )
        return WindowScheme.random_truncation(law, limit=u, deductible=d)
    raise ClaimsFormatError(f"unknown window mode {mode!r}")


def dependent_from_config(cfg: dict[str, str]) -> DependentModelConfig:
    """The dependent design from the keys present; an absent key keeps its
    :class:`DependentModelConfig` default.

    Every key names its field, except ``target_pc`` for
    ``target_censoring_pc``.  The run does not solve for mu: it is the
    ``mu`` key, such as a value ``specrisk calibrate`` wrote, or 0.
    """
    fields = {"target_pc": "target_censoring_pc"}
    return DependentModelConfig(**{fields.get(k, k): float(v) for k, v in cfg.items()})
