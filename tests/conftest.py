"""Shared test helpers: independent brute-force oracles and sample factories."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from specrisk import LtrcSample


def pl_cdf_bruteforce(sample: LtrcSample, x: float) -> Fraction:
    """Literal product-limit CDF with exact rational counts.

    Independent of the package implementation: double loop over
    observations, Fraction arithmetic throughout, and the forced value 1 at
    and beyond the largest observation.
    """
    y, t, d = sample.y, sample.t, sample.delta
    n = len(sample)
    if x >= np.max(y):
        return Fraction(1)
    prod = Fraction(1)
    for i in range(n):
        if y[i] <= x and d[i] == 1:
            r = sum(1 for j in range(n) if t[j] <= y[i] <= y[j])
            prod *= Fraction(r - 1, r)
    return 1 - prod


def random_ltrc_sample(rng: np.random.Generator, n: int, tie_prob: float = 0.0) -> LtrcSample:
    """A generic LTRC sample: lognormal-ish losses, random truncation, random caps."""
    x = np.exp(rng.normal(0.0, 0.7, size=3 * n))
    if tie_prob > 0.0:
        x = np.where(rng.random(3 * n) < tie_prob, np.round(x, 1), x)
    s = np.exp(rng.normal(0.6, 0.7, size=3 * n))
    t = rng.uniform(0.0, 1.0, size=3 * n)
    y = np.minimum(x, s)
    keep = t <= y
    y, t, d = y[keep], t[keep], (x <= s)[keep].astype(int)
    if y.size < n:  # pragma: no cover - acceptance region is wide
        return random_ltrc_sample(rng, n, tie_prob)
    return LtrcSample(y[:n], t[:n], d[:n])


@pytest.fixture
def integers_calls(monkeypatch):
    """The ``Generator.integers`` calls of code that builds its generator by name, ``np.random.Generator``."""
    calls = []

    class Counting(np.random.Generator):
        def integers(self, *args, **kwargs):
            calls.append(args)
            return super().integers(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Counting)
    return calls
