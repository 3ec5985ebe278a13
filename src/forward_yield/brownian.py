"""Seeded Brownian increment batches with partition-independent sub-seeding."""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import ConfigError
from .grids import TimeGrid

# Paths are generated in fixed-size blocks, each from its own SFC64 stream
# seeded by SeedSequence((seed, purpose, block)).  A path's numbers therefore
# depend only on the seed and the path index, never on how many paths were
# requested, the order blocks are produced in, or the thread count.
_BLOCK = 8192

# Stream purposes.  Distinct purposes never share random numbers.
PURPOSE_INCREMENTS = 0
PURPOSE_RATE_RESIDUALS = 1
PURPOSE_INNER = 2

_MAX_SEED = 2**64

# os.cpu_count() takes microseconds a call, and the nested loop draws streams
# thousands of times per run
_CPUS = os.cpu_count() or 1

_T = TypeVar("_T")
_R = TypeVar("_R")


def thread_cap() -> int:
    """Kernel parallelism cap from FORWARD_YIELD_THREADS (default 1), at
    most the number of cores: each thread holds one block of paths in flight."""
    raw = os.environ.get("FORWARD_YIELD_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"FORWARD_YIELD_THREADS must be a positive integer, got {raw!r}")
    return min(n, _CPUS)


def stream_blocks(n_rows: int) -> list[tuple[int, int]]:
    """(b0, b1) bounds of the _BLOCK-row blocks of the streams that cover
    n_rows rows, in order; only the last can be shorter."""
    return [(b0, min(b0 + _BLOCK, n_rows)) for b0 in range(0, n_rows, _BLOCK)]


def ordered_map(fn: Callable[[_T], _R], items: Iterable[_T]) -> Iterator[_R]:
    """fn over items on up to thread_cap() threads, yielding the results in
    the order of items.  At most thread_cap() calls are in flight, so the
    memory they hold does not grow with the number of items."""
    items = list(items)
    workers = min(thread_cap(), len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for item in items:
            if len(pending) == workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, item))
        while pending:
            yield pending.popleft().result()


def _check_seed(seed: int) -> int:
    if int(seed) != seed or not (0 <= seed < _MAX_SEED):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return int(seed)


def blocked_normals(
    seed: int,
    purpose: int,
    n_rows: int,
    row_shape: tuple[int, ...],
    out: np.ndarray | None = None,
    first_row: int = 0,
) -> np.ndarray:
    """Standard normals of shape (n_rows, *row_shape), row i being row
    first_row + i of the stream (seed, purpose) and depending only on those
    three.  first_row must start a block (a multiple of _BLOCK).  Blocks may
    be filled in parallel; the result is identical for any thread count.
    out, a C-contiguous array of that shape, receives the normals in place
    of a new array."""
    seed = _check_seed(seed)
    if first_row < 0 or first_row % _BLOCK:
        raise ValueError(f"first_row must be a nonnegative multiple of {_BLOCK}, got {first_row}")
    shape = (n_rows,) + tuple(row_shape)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {shape}")

    def fill(span):
        b0, b1 = span
        ss = np.random.SeedSequence(entropy=(seed, purpose, (first_row + b0) // _BLOCK))
        np.random.Generator(np.random.SFC64(ss)).standard_normal(out=out[b0:b1])

    for _ in ordered_map(fill, stream_blocks(n_rows)):
        pass
    return out


def map_blocks(fn: Callable[[BrownianBatch], _R], seed: int, grid: TimeGrid, dim: int, n_paths: int) -> Iterator[_R]:
    """fn of the batch of each block of the seed's streams
    (stream_blocks(n_paths)), in block order.  A block's batch starts at its
    first row, so it holds, bit for bit, those rows of the batch that
    sample_brownian draws for all n_paths.  Blocks run on up to thread_cap()
    threads with at most that many in flight, so the paths held are that
    many blocks, not n_paths rows; fn should return a reduction of its block."""

    def block(span: tuple[int, int]) -> _R:
        b0, b1 = span
        return fn(sample_brownian(seed, grid, dim, b1 - b0, first_row=b0))

    return ordered_map(block, stream_blocks(n_paths))


def substream_seed(seed: int, *tags: int) -> np.random.SeedSequence:
    """Seed for a derived stream (e.g. one inner simulation per outer path)."""
    return np.random.SeedSequence(entropy=(_check_seed(seed),) + tuple(int(t) for t in tags))


@dataclass(frozen=True)
class BrownianBatch:
    """Increments of an n-dimensional Brownian motion on a time grid.

    increments[p, k, :] ~ N(0, h_k I) is W_{t_{k+1}} - W_{t_k} on path p,
    with h_k the grid's k-th step width.
    """

    seed: int
    increments: np.ndarray  # (n_paths, n_steps, dim)
    first_row: int = 0      # the streams' row of path 0, a multiple of _BLOCK

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def dim(self) -> int:
        return self.increments.shape[2]

    def projected_increments(self, direction: np.ndarray) -> np.ndarray:
        """Increments of the scalar Brownian motion direction . W, shape (n_paths, n_steps)."""
        # one (rows * K, dim) product per block of the streams: a stack of
        # (K, dim) products is several times slower, and NumPy routes a
        # one-element product (one row, one step) to a dot routine that rounds
        # otherwise; formed per block, a row gets the same bits in a block's
        # batch as in a batch of all the blocks
        direction = np.asarray(direction, dtype=float)
        out = np.empty(self.increments.shape[:2])
        for b0, b1 in stream_blocks(self.n_paths):
            np.matmul(self.increments[b0:b1].reshape(-1, self.dim), direction, out=out[b0:b1].reshape(-1))
        return out


def sample_brownian(seed: int, grid: TimeGrid, dim: int, n_paths: int, first_row: int = 0) -> BrownianBatch:
    """Draw a seeded batch of independent N(0, h_k) Brownian increments.

    Regeneration with the same seed is bit-exact, and the first m paths of a
    larger batch coincide with the paths of a smaller one.  A batch from
    first_row, a multiple of _BLOCK, holds the paths first_row onward of the
    batch that starts at 0, and its short-rate residuals come from the same
    rows of their stream.
    """
    if dim < 1 or int(dim) != dim:
        raise ValueError(f"dim must be a positive integer, got {dim}")
    if n_paths < 1 or int(n_paths) != n_paths:
        raise ValueError(f"n_paths must be a positive integer, got {n_paths}")
    z = blocked_normals(seed, PURPOSE_INCREMENTS, int(n_paths), (grid.n_steps, int(dim)), first_row=first_row)
    return BrownianBatch(seed=int(seed), increments=_scale_to_widths(z, grid), first_row=first_row)


def _scale_to_widths(z: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Scale standard normals (n, K, dim) in place into N(0, h_k) increments."""
    # scaled through one contiguous row of K * dim factors: a (K, 1) broadcast
    # over the (n, K, dim) array is several times slower
    rows = z.reshape(z.shape[0], -1)
    rows *= np.repeat(np.sqrt(grid.widths), z.shape[2])
    return z
