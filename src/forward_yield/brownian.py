"""Seeded Brownian increment batches with partition-independent sub-seeding."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grids import TimeGrid

# Paths are generated in fixed-size blocks, each from its own counter-based
# (Philox) stream keyed by (seed, purpose, block).  A path's numbers therefore
# depend only on the seed and the path index, never on how many paths were
# requested, the order blocks are produced in, or the thread count.
_BLOCK = 8192

# Stream purposes.  Distinct purposes never share random numbers.
PURPOSE_INCREMENTS = 0
PURPOSE_RATE_RESIDUALS = 1
PURPOSE_INNER = 2

_MAX_SEED = 2**64


def thread_cap() -> int:
    """Kernel parallelism cap from FORWARD_YIELD_THREADS (default 1)."""
    raw = os.environ.get("FORWARD_YIELD_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


def _check_seed(seed: int) -> int:
    if int(seed) != seed or not (0 <= seed < _MAX_SEED):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return int(seed)


def blocked_normals(
    seed: int, purpose: int, n_rows: int, row_shape: tuple[int, ...], keep: int | None = None
) -> np.ndarray:
    """Standard normals of shape (n_rows, *row_shape), row i depending only on
    (seed, purpose, i).  Blocks may be filled in parallel; the result is
    identical for any thread count.

    With keep, each row is still drawn whole but only its first keep entries
    along the leading row axis are stored: the same numbers as in the full
    draw, in (n_rows, keep, *row_shape[1:]) memory."""
    seed = _check_seed(seed)
    row_shape = tuple(row_shape)
    stored = row_shape if keep is None else (keep,) + row_shape[1:]
    out = np.empty((n_rows,) + stored)
    spans = [(b0, min(b0 + _BLOCK, n_rows)) for b0 in range(0, n_rows, _BLOCK)]

    def fill(span):
        b0, b1 = span
        ss = np.random.SeedSequence(entropy=(seed, purpose, b0 // _BLOCK))
        gen = np.random.Generator(np.random.Philox(ss))
        if keep is None:
            gen.standard_normal(out=out[b0:b1])
        else:
            out[b0:b1] = gen.standard_normal((b1 - b0,) + row_shape)[:, :keep]

    workers = thread_cap()
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, spans))
    else:
        for span in spans:
            fill(span)
    return out


def substream_seed(seed: int, *tags: int) -> np.random.SeedSequence:
    """Seed for a derived stream (e.g. one inner simulation per outer path)."""
    return np.random.SeedSequence(entropy=(_check_seed(seed),) + tuple(int(t) for t in tags))


@dataclass(frozen=True)
class BrownianBatch:
    """Increments of an n-dimensional Brownian motion on a uniform grid.

    increments[p, k, :] ~ N(0, dt I) is W_{t_{k+1}} - W_{t_k} on path p.
    """

    seed: int
    grid: TimeGrid
    increments: np.ndarray  # (n_paths, n_steps, dim)

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def dim(self) -> int:
        return self.increments.shape[2]

    def cumulative(self) -> np.ndarray:
        """Brownian path values at grid points, shape (n_paths, n_steps+1, dim)."""
        n, k, d = self.increments.shape
        w = np.zeros((n, k + 1, d))
        np.cumsum(self.increments, axis=1, out=w[:, 1:, :])
        return w

    def projected_increments(self, direction: np.ndarray) -> np.ndarray:
        """Increments of the scalar Brownian motion direction . W, shape (n_paths, n_steps)."""
        direction = np.asarray(direction, dtype=float)
        return self.increments @ direction


def sample_brownian(
    seed: int, grid: TimeGrid, dim: int, n_paths: int, n_steps: int | None = None
) -> BrownianBatch:
    """Draw a seeded batch of i.i.d. N(0, dt) Brownian increments.

    Regeneration with the same seed is bit-exact, and the first m paths of a
    larger batch coincide with the paths of a smaller one.  n_steps keeps
    only the first n_steps increments of each path, on [0, t_{n_steps}]:
    they equal the same steps of the whole grid's batch bit for bit, since
    the whole grid is still drawn, but only the prefix is stored.
    """
    if dim < 1 or int(dim) != dim:
        raise ValueError(f"dim must be a positive integer, got {dim}")
    if n_paths < 1 or int(n_paths) != n_paths:
        raise ValueError(f"n_paths must be a positive integer, got {n_paths}")
    keep = None
    if n_steps is not None and n_steps != grid.n_steps:
        if not (1 <= n_steps < grid.n_steps) or int(n_steps) != n_steps:
            raise ValueError(f"n_steps must be an integer in [1, {grid.n_steps}], got {n_steps}")
        keep = int(n_steps)
    z = blocked_normals(seed, PURPOSE_INCREMENTS, int(n_paths), (grid.n_steps, int(dim)), keep)
    z *= np.sqrt(grid.dt)
    if keep is not None:
        grid = TimeGrid(float(grid.times[keep]), keep)
    return BrownianBatch(seed=int(seed), grid=grid, increments=z)
