"""Block seeding of the bootstrap's replicate streams against one generator per replicate."""

import numpy as np
import pytest

from specrisk.rng import derive_rng, derive_seed, replicate_indices

# 2**200 has seven entropy words, more than SeedSequence's pool of four
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**200, derive_seed(11, "coverage-boot", 50), "claims"]
WINDOWS = [(0, 6), (37, 41), (2**32 - 3, 2**32)]


def _per_replicate(seed, start, stop, n):
    return np.stack([derive_rng(seed, b).integers(0, n, n) for b in range(start, stop)])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("start, stop", WINDOWS)
@pytest.mark.parametrize("n", [1, 2, 3, 50, 1000])
def test_rows_are_the_per_replicate_draws(seed, start, stop, n):
    got = replicate_indices(seed, start, stop, n)
    want = _per_replicate(seed, start, stop, n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_empty_window():
    assert replicate_indices(5, 9, 9, 4).shape == (0, 4)


@pytest.mark.parametrize("start, stop", [(-1, 2), (3, 2), (2**32 - 1, 2**32 + 1)])
def test_window_outside_one_word_is_refused(start, stop):
    with pytest.raises(ValueError, match="one entropy word each"):
        replicate_indices(5, start, stop, 4)
