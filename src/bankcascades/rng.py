"""Seed plumbing: every random quantity in the package flows through here.

Trial-level reproducibility works by deriving an independent stream from
``(master_seed, stream_tag, *indices)`` with :class:`numpy.random.SeedSequence`,
so any single network or trial can be regenerated in isolation, in any order,
on any number of workers.

The key reaches the ``SeedSequence`` as a ``uint32`` word array: each
coordinate becomes its little-endian 32-bit words (0 becomes one zero word),
concatenated in order. That is numpy's own rule for turning a tuple of
non-negative ints into entropy, so the streams are bit-identical to
``SeedSequence((master_seed, stream_tag, *indices))`` and have not changed
since v0; building the array directly only skips numpy's slower coercion.

:func:`stream_rngs` seeds a batch of trials at once. The key words of every
trial go through ``SeedSequence``'s entropy mixing and
``generate_state(4, uint64)`` (the four words ``PCG64`` seeds from) in one
``uint32`` numpy pass, one column per key word; trials whose index spans the
same number of words share a pass. Each trial's ``PCG64`` then takes those
words through :class:`_SeedState`, so every generator equals
``stream_rng(master_seed, stream, *indices, trial)``. The pass rests on
numpy's ``SeedSequence`` algorithm, which numpy keeps stable across versions
because published seeds depend on it; ``tests/test_rng.py`` pins every
batched stream to plain ``SeedSequence`` seeding.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stream tags keep draws for different purposes statistically independent
# even when they share (master_seed, z, network, trial) coordinates.
STREAM_NETWORK = 1
STREAM_THETA = 2
STREAM_SHOCKS = 3
STREAM_THRESHOLDS = 4

_WORD_MASK = 0xFFFFFFFF

# numpy's SeedSequence constants: entropy pool of 4 words, the hash used
# while mixing entropy in (A) and while generating state (B), and the mix
# multipliers; every hash and mix ends in a 16-bit xorshift.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def as_generator(seed) -> np.random.Generator:
    """Coerce an int seed, SeedSequence, or Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise ValueError(f"cannot build a random generator from {seed!r}")


def _coordinate(value) -> int:
    value = int(value)
    if value < 0:
        raise ValueError(f"stream key coordinates must be non-negative, got {value}")
    return value


def _key_words(value) -> list[int]:
    """One key coordinate as its little-endian 32-bit words."""
    value = _coordinate(value)
    words = [value & _WORD_MASK]
    value >>= 32
    while value:
        words.append(value & _WORD_MASK)
        value >>= 32
    return words


def stream_seed(master_seed: int, stream: int, *indices: int) -> np.random.SeedSequence:
    """Seed for one purpose-specific stream, keyed by non-negative integer
    coordinates."""
    words = [w for value in (master_seed, stream, *indices) for w in _key_words(value)]
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def stream_rng(master_seed: int, stream: int, *indices: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(stream_seed(master_seed, stream, *indices)))


class _SeedState(ISeedSequence):
    """One stream's ``SeedSequence(...).generate_state(4, np.uint64)``,
    computed in advance: the only request ``PCG64`` makes of its seed. The
    words must be a C-contiguous uint64 array, since ``PCG64`` reads them
    from its buffer."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


def _hasher(init: int, mult: int):
    """SeedSequence's hash over a run of words: xor in the running constant,
    step the constant (times ``mult``), multiply by it, xorshift. A word is
    a Python int or a uint32 array of one word per key."""
    const = init

    def hash_word(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _WORD_MASK
        value = value * const & _WORD_MASK
        return value ^ value >> 16

    return hash_word


def _mix(x, y):
    """SeedSequence's mix of two words, each a Python int or a uint32 array."""
    result = ((_MIX_MULT_L * x & _WORD_MASK) - (_MIX_MULT_R * y & _WORD_MASK)) & _WORD_MASK
    return result ^ result >> 16


def _pcg64_seed_states(columns: list) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, np.uint64)`` for many keys at
    once. ``columns[k]`` is word k of every key: a uint32 array with one
    entry per key, or a Python int when all keys share it, so the words the
    keys share are mixed once. Returns four uint64 words per key, one key a
    row."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(columns[i] if i < len(columns) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for column in columns[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(column))

    # generate_state(4, uint64): 8 uint32 words, cycling over the pool
    hash_out = _hasher(_INIT_B, _MULT_B)
    words = np.array(np.broadcast_arrays(*(hash_out(pool[i % _POOL_SIZE]) for i in range(8))),
                     dtype=np.uint64)
    # numpy joins each pair of uint32 words low word first
    return (words[0::2] | words[1::2] << np.uint64(32)).T


def stream_rngs(master_seed: int, stream: int, *indices: int,
                trials) -> Iterator[np.random.Generator]:
    """Generators for the trials ``t`` in ``trials``, in order, each equal to
    ``stream_rng(master_seed, stream, *indices, t)``.

    Every seed is computed up front, in one pass per trial word count, so a
    bad key raises here; each generator is built as the iterator reaches it.
    """
    prefix = [w for value in (master_seed, stream, *indices) for w in _key_words(value)]
    trials = [int(t) for t in trials]
    if trials:
        _coordinate(min(trials))  # a negative trial raises like any key coordinate
    widths = np.array([(t.bit_length() + 31) // 32 or 1 for t in trials], dtype=np.int64)
    states = np.empty((len(trials), 4), dtype=np.uint64)
    for width in set(widths.tolist()):  # np.unique would import numpy.ma
        positions = np.flatnonzero(widths == width)
        trial_words = [np.array([trials[pos] >> 32 * k & _WORD_MASK for pos in positions],
                                dtype=np.uint32) for k in range(width)]
        states[positions] = _pcg64_seed_states(prefix + trial_words)
    return (np.random.Generator(np.random.PCG64(_SeedState(state))) for state in states)


def normal_from_standard(z: np.ndarray, loc, scale) -> np.ndarray:
    """Turn standard normal draws ``z`` into Normal(loc, scale) draws in place.

    Computes ``loc + scale * z``, the formula ``Generator.normal`` applies to
    each standard normal it draws, so the result is bit-identical to
    ``rng.normal(loc, scale)`` on the same stream, down to the sign of zero.
    ``loc`` and ``scale`` broadcast against ``z``, one row per trial. Like
    ``Generator.normal``, it rejects a negative scale.
    """
    if np.less(scale, 0).any():
        raise ValueError("scale < 0")
    np.multiply(z, scale, out=z)
    np.add(z, loc, out=z)
    return z
