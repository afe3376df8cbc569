"""Deterministic, splittable randomness for all experiments.

Every random quantity in this package is drawn from a stream: a numpy
Generator over a Philox4x64 counter-based bit generator, keyed by
(master_seed, stream_id).  Streams with the same key replay the same sequence
forever; streams with different ids derived from one master seed are
independent for all practical purposes.  Normal variates come from numpy's
ziggurat transform on top of the Philox bit stream, which is a fixed,
documented algorithm with no platform-dependent fast paths, so output files
are reproducible bit for bit.  The key is not kept on the Generator: a trial
records its stream ids in the CSV, under the file's master_seed header.

A stream's Philox key is what numpy's SeedSequence derives from master_seed
as entropy and (stream_id,) as spawn key: derive_stream asks SeedSequence for
it.  stream_keys computes the same keys for a block of consecutive ids at
once, for callers such as the Wiener sampler that draw one stream per path:
it takes the master seed's entropy pool from SeedSequence once (cached),
then runs SeedSequence's hash and mix rounds over the ids' 32-bit words and
its key output step in vectorized uint32 arithmetic.  tests/test_rng.py pins it, key for key, to SeedSequence
and to derive_stream.
"""

from __future__ import annotations

import functools

import numpy as np

# numpy SeedSequence's constants: pool size, hashmix and mix multipliers
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# the largest stream id: stream_keys handles spawn keys of one or two words
MAX_STREAM_ID = 2**64 - 1


class EmptyRequestError(ValueError):
    """Raised when zero random values are requested."""


def derive_stream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Create the deterministic stream for (master_seed, stream_id).

    The key is fed through numpy's SeedSequence (master_seed as entropy,
    stream_id as spawn key) into a Philox4x64 bit generator.  Same inputs
    give the same sequence on every call and every run; drawing from the
    returned Generator advances it, and re-deriving restarts the sequence.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(stream_id),))
    return np.random.Generator(np.random.Philox(seed=ss))


def _hash_consts(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """SeedSequence's hash constants init * mult**t mod 2**32, t from first."""
    return np.array([init * pow(mult, t, 2**32) % 2**32
                     for t in range(first, first + count)], dtype=np.uint32)


@functools.lru_cache(maxsize=64)
def _seed_pool(master_seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pool of every stream of master_seed before its spawn words are
    mixed in, and the hashmix constants those words meet: per word and pool
    word, the one the word is xored with and the one it is multiplied by.

    The pool is SeedSequence(master_seed)'s: a spawned sequence pads its
    entropy with zero words to the pool size, where an unspawned one hashes
    zeros in their place, and both mix their further words the same way.
    Filling the pool takes four hashmix steps and mixing it twelve, and each
    entropy word past the fourth four more, so the spawn words' constants
    start 4 * max(words, 4) steps after INIT_A.
    """
    pool = np.random.SeedSequence(master_seed).pool
    steps = _POOL * max(-(-master_seed.bit_length() // 32), _POOL)
    consts = _hash_consts(_INIT_A, _MULT_A, steps, 2 * _POOL + 1)
    out = (pool, consts[:-1].reshape(2, _POOL), consts[1:].reshape(2, _POOL))
    for table in out:
        table.flags.writeable = False  # shared by every later call
    return out


# generate_state's constants for the four words of a two-uint64 key
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, _POOL + 1)


def _mix_in(mixer: np.ndarray, words: np.ndarray, xor: np.ndarray,
            mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of one spawn word per row, mixed into each of
    the row's pool words (uint32 arithmetic, wrapping like numpy's C)."""
    h = (words[:, None] ^ xor) * mul
    h ^= h >> 16
    mixed = _MIX_L * mixer - _MIX_R * h
    mixed ^= mixed >> 16
    return mixed


def stream_keys(master_seed: int, first_id: int, count: int) -> np.ndarray:
    """The (count, 2) uint64 Philox keys of streams first_id .. first_id+count-1.

    Row i is SeedSequence(master_seed, spawn_key=(first_id+i,))
    .generate_state(2, np.uint64), the key derive_stream(master_seed,
    first_id+i) gives its Philox, bit for bit.  An id below 2**32 is one
    spawn word, a larger one two.  A negative seed or id, an id past
    MAX_STREAM_ID (2**64 - 1, whose spawn key would take a third word) and
    count < 1 are a ValueError.
    """
    master_seed, first_id, count = int(master_seed), int(first_id), int(count)
    if count < 1 or first_id < 0 or first_id + count - 1 > MAX_STREAM_ID:
        raise ValueError(f"stream ids [{first_id}, {first_id + count}) must lie in "
                         f"[0, {MAX_STREAM_ID}] and hold at least one id")
    pool, xors, muls = _seed_pool(master_seed)
    ids = np.uint64(first_id) + np.arange(count, dtype=np.uint64)
    mixer = _mix_in(pool, ids.astype(np.uint32), xors[0], muls[0])
    two = min(max(2**32 - first_id, 0), count)  # ids from 2**32 on have a second word
    if two < count:
        mixer[two:] = _mix_in(mixer[two:], (ids[two:] >> 32).astype(np.uint32),
                              xors[1], muls[1])
    state = (mixer ^ _STATE_CONSTS[:-1]) * _STATE_CONSTS[1:]
    state ^= state >> 16
    # generate_state's little-endian pairing of the four words into two keys
    return state.astype("<u4").view("<u8").astype(np.uint64)


def gaussian_vector(stream: np.random.Generator, length: int) -> np.ndarray:
    """Draw `length` i.i.d. standard normal variates from the stream.

    Raises EmptyRequestError for length < 1.
    """
    if length < 1:
        raise EmptyRequestError(f"requested {length} gaussian values; need at least 1")
    return stream.standard_normal(int(length))


def gaussian_matrix(stream: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Draw a rows-by-cols matrix of i.i.d. standard normals, row-major order.

    Entry (i, j) is the (i*cols + j)-th variate of the stream, so the matrix
    is one contiguous slice of the stream's gaussian sequence.
    """
    if rows < 1 or cols < 1:
        raise EmptyRequestError(f"requested a {rows}x{cols} gaussian matrix")
    return gaussian_vector(stream, rows * cols).reshape(rows, cols)
