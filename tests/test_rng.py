"""Block seeding and bounded draws of the bootstrap's replicate streams against one generator per replicate."""

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
@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 51, 999, 1000])
def test_rows_are_the_per_replicate_draws(seed, start, stop, n):
    got = replicate_indices(seed, start, stop, n)
    want = _per_replicate(seed, start, stop, n)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "n, start, stop, redrawn",
    [
        (2**20 + 3, 0, 2, 2),  # (2**32 - n) % n is near n: every row redraws
        (50997, 0, 8, 2),  # about one row in two redraws: a block mixes both paths
        (1000, 0, 200, 0),
    ],
)
def test_rows_numpy_would_redraw_are_drawn_by_numpy(integers_calls, n, start, stop, redrawn):
    got = replicate_indices(0, start, stop, n)
    assert len(integers_calls) == redrawn
    assert np.array_equal(got, _per_replicate(0, start, stop, n))


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
def test_n_outside_one_32_bit_draw_is_refused(n):
    with pytest.raises(ValueError, match="need n in \\[1, 2\\*\\*32\\]"):
        replicate_indices(5, 0, 3, n)


def test_empty_window():
    assert replicate_indices(5, 9, 9, 4).shape == (0, 4)


@pytest.mark.parametrize("start, stop", [(-1, 2), (3, 2), (2**32 - 1, 2**32 + 1)])
def test_window_outside_one_word_is_refused(start, stop):
    with pytest.raises(ValueError, match="one entropy word each"):
        replicate_indices(5, start, stop, 4)
