"""Deterministic, splittable randomness for all experiments.

Every random quantity in this package is drawn from a RandomStream, which is
a Philox4x64 counter-based generator keyed by (master_seed, stream_id).
Streams with the same key replay the same sequence forever; streams with
different ids derived from one master seed are independent for all practical
purposes.  Normal variates come from numpy's ziggurat transform on top of the
Philox bit stream, which is a fixed, documented algorithm with no
platform-dependent fast paths, so output files are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class EmptyRequestError(ValueError):
    """Raised when zero random values are requested."""


@dataclass
class RandomStream:
    """A single-consumer random stream identified by (master_seed, stream_id).

    The wrapped numpy Generator carries the internal counter; drawing from the
    stream advances it.  Re-deriving the stream restarts the sequence.
    """

    master_seed: int
    stream_id: int
    generator: np.random.Generator = field(repr=False)


def derive_stream(master_seed: int, stream_id: int) -> RandomStream:
    """Create the deterministic stream for (master_seed, stream_id).

    The key is fed through numpy's SeedSequence (master_seed as entropy,
    stream_id as spawn key) into a Philox4x64 bit generator.  Same inputs
    give the same sequence on every call and every run.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(stream_id),))
    return RandomStream(
        master_seed=int(master_seed),
        stream_id=int(stream_id),
        generator=np.random.Generator(np.random.Philox(seed=ss)),
    )


def gaussian_vector(stream: RandomStream, length: int) -> np.ndarray:
    """Draw `length` i.i.d. standard normal variates from the stream.

    Raises EmptyRequestError for length < 1.
    """
    if length < 1:
        raise EmptyRequestError(f"requested {length} gaussian values; need at least 1")
    return stream.generator.standard_normal(int(length))


def gaussian_matrix(stream: RandomStream, rows: int, cols: int) -> np.ndarray:
    """Draw a rows-by-cols matrix of i.i.d. standard normals, row-major order.

    Entry (i, j) is the (i*cols + j)-th variate of the stream, so the matrix
    is one contiguous slice of the stream's gaussian sequence.
    """
    if rows < 1 or cols < 1:
        raise EmptyRequestError(f"requested a {rows}x{cols} gaussian matrix")
    return gaussian_vector(stream, rows * cols).reshape(rows, cols)


@dataclass
class WienerPath:
    """A standard Wiener path on [0,1], discretized into m uniform steps.

    increments[k] = W((k+1)/m) - W(k/m) ~ N(0, 1/m), mutually independent.
    Partial sums give W at the grid points, with W(0) = 0.
    """

    m: int
    increments: np.ndarray

    @property
    def times(self) -> np.ndarray:
        """Grid points 0, 1/m, ..., 1."""
        return np.linspace(0.0, 1.0, self.m + 1)

    @property
    def values(self) -> np.ndarray:
        """W evaluated on the grid; values[0] is exactly 0."""
        out = np.empty(self.m + 1)
        out[0] = 0.0
        np.cumsum(self.increments, out=out[1:])
        return out


def wiener_path(stream: RandomStream, m: int) -> WienerPath:
    """Draw one discretized Wiener path with m uniform steps on [0,1].

    Each increment is N(0, 1/m); increments over disjoint index ranges are
    independent because they come from disjoint stretches of the stream.
    Raises EmptyRequestError for m < 1.
    """
    if m < 1:
        raise EmptyRequestError(f"requested a Wiener path with m={m} steps")
    inc = gaussian_vector(stream, m) * np.sqrt(1.0 / m)
    return WienerPath(m=int(m), increments=inc)


def wiener_increment_matrix(stream: RandomStream, n_paths: int, m: int) -> np.ndarray:
    """Increments of n_paths independent Wiener paths as an (n_paths, m) array.

    Row i holds the increments of path i; rows are independent because they
    occupy disjoint stretches of the stream.  Equivalent in distribution to
    calling wiener_path n_paths times on the same stream, but in one draw,
    which is what the Monte Carlo checks want.
    """
    if n_paths < 1:
        raise EmptyRequestError(f"requested {n_paths} Wiener paths")
    if m < 1:
        raise EmptyRequestError(f"requested Wiener paths with m={m} steps")
    return gaussian_matrix(stream, n_paths, m) * np.sqrt(1.0 / m)
