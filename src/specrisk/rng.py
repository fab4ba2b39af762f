"""Deterministic random-stream derivation.

Every generator in the package draws from a stream keyed by
``(master_seed, *subkeys)``.  Parallel replicates derive their streams from
the master seed and the replicate index alone, so results never depend on
scheduling order or worker count.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _key_to_int(key: int | str) -> int:
    if isinstance(key, str):
        digest = hashlib.blake2s(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    value = int(key)
    if value < 0:
        raise ValueError("seed keys must be non-negative")
    return value


def derive_rng(master_seed: int, *subkeys: int | str) -> np.random.Generator:
    """Return a generator for the stream keyed by (master_seed, \\*subkeys)."""
    entropy = tuple(_key_to_int(k) for k in (master_seed, *subkeys))
    return np.random.default_rng(np.random.SeedSequence(entropy))


# SeedSequence's hash constants and pool size (numpy.random.bit_generator), PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_POOL, _PCG64_MULT = 4, 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """A hash constant and its next ``count`` values, as a uint32 column."""
    return np.array([init * mult**i & _MASK32 for i in range(count + 1)], np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one row per constant: xor with c[i], multiply by c[i + 1]."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_L - y * _MIX_R
    return value ^ (value >> _SHIFT)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(column).generate_state(4, uint64)`` for each column of uint32 words.

    The hash constants advance alike in every column, and the pool words one step
    updates do not read each other, so a step is one operation on uint32 arrays.
    """
    consts = _constants(_INIT_A, _MULT_A, _POOL * max(len(entropy), _POOL))
    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL]
    pool = _hashmix(pool, consts[: _POOL + 1])
    for src in range(_POOL):
        dst, k = [d for d in range(_POOL) if d != src], _POOL + (_POOL - 1) * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + _POOL]))
    for i, word in enumerate(entropy[_POOL:], _POOL):
        pool = _mix(pool, _hashmix(word, consts[_POOL * i : _POOL * (i + 1) + 1]))
    # eight words from the cycled pool, paired low-high into four uint64
    words = _hashmix(np.tile(pool, (2, 1)), _constants(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    return words[0::2] | words[1::2] << 32


def _pcg64_state(s0: int, s1: int, q0: int, q1: int) -> dict:
    """PCG64's state after seeding from the four words ``SeedSequence.generate_state`` gives."""
    # pcg64_set_seed: inc = 2 initseq + 1, then two LCG steps with initstate added between
    inc = ((q0 << 64 | q1) << 1 | 1) & _MASK128
    pcg = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0, "state": {"state": pcg, "inc": inc}}


def replicate_indices(master_seed: int | str, start: int, stop: int, n: int) -> np.ndarray:
    """Rows ``derive_rng(master_seed, b).integers(0, n, n)`` for b in [start, stop), bit for bit.

    The streams are seeded in one vectorised pass over b, and each row sets
    the state of one reused PCG64 and takes its first ``ceil(n/2)`` raw
    words.  numpy draws an index below ``n <= 2**32`` by Lemire's
    multiply-shift on 32-bit halves, the low half of each word first: the
    index is ``u32 * n >> 32``, unless the low 32 bits of that product fall
    below ``(2**32 - n) % n``.  The block takes that step at once, and a
    row where some draw falls below is drawn again with numpy's own
    ``integers`` from its seeded state: about one row in 15 000 at n = 1000,
    one in two million at n = 50.
    """
    if not 0 <= start <= stop <= 1 << 32:
        raise ValueError("replicate indices must lie in [0, 2**32): one entropy word each")
    if not 1 <= n <= 1 << 32:
        raise ValueError("replicate indices need n in [1, 2**32]: one 32-bit draw each")
    seed = _key_to_int(master_seed)
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.array([*words, 0], dtype=np.uint32)[:, None].repeat(stop - start, axis=1)
    entropy[-1] = np.arange(start, stop, dtype=np.uint32)
    seeds = _seed_states(entropy).T.tolist()
    generator = np.random.Generator(np.random.PCG64(0))
    draws = np.empty((stop - start, (n + 1) // 2, 2), dtype=np.uint64)
    for r, row in enumerate(seeds):
        generator.bit_generator.state = _pcg64_state(*row)
        draws[r, :, 0] = generator.bit_generator.random_raw(draws.shape[1])
    # each word's low half is drawn first; shifts, not a uint32 view, keep that order on any byte order
    np.right_shift(draws[..., 0], 32, out=draws[..., 1])
    draws[..., 0] &= _MASK32
    draws = draws.reshape(len(draws), 2 * draws.shape[1])[:, :n]
    draws *= np.uint64(n)
    # each product's low 32 bits, read in place: the first half of a little-endian word, the second of a big-endian one
    low = draws.view(np.uint32)[:, 1 - np.little_endian :: 2]
    redraw = np.flatnonzero(low.min(axis=1) < (2**32 - n) % n)
    draws >>= 32
    out = draws.view(np.int64)  # every index is below 2**32, so its bits read the same as int64
    for r in redraw:
        generator.bit_generator.state = _pcg64_state(*seeds[r])
        out[r] = generator.integers(0, n, n)
    return out


def derive_seed(master_seed: int, *subkeys: int | str) -> int:
    """Collapse (master_seed, \\*subkeys) into a single derived integer seed."""
    entropy = tuple(_key_to_int(k) for k in (master_seed, *subkeys))
    digest = hashlib.blake2s(
        b"\x00".join(str(e).encode("ascii") for e in entropy), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")
