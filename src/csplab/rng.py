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
"""

from __future__ import annotations

import numpy as np


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
