import numpy as np
import pytest

from forward_yield import TimeGrid, sample_brownian
from forward_yield.brownian import _BLOCK, PURPOSE_RATE_RESIDUALS, blocked_normals, stream_blocks
from forward_yield.errors import ConfigError


def test_same_seed_reproduces_bit_exact():
    grid = TimeGrid(1.0, 16)
    a = sample_brownian(99, grid, dim=2, n_paths=100)
    b = sample_brownian(99, grid, dim=2, n_paths=100)
    assert np.array_equal(a.increments, b.increments)


def test_distinct_seeds_differ():
    grid = TimeGrid(1.0, 16)
    a = sample_brownian(1, grid, dim=1, n_paths=10)
    b = sample_brownian(2, grid, dim=1, n_paths=10)
    assert not np.array_equal(a.increments, b.increments)


def test_partition_independent_paths():
    # path p of a small batch equals path p of a larger batch
    grid = TimeGrid(1.0, 8)
    small = sample_brownian(4242, grid, dim=2, n_paths=10)
    large = sample_brownian(4242, grid, dim=2, n_paths=20000)
    assert np.array_equal(small.increments, large.increments[:10])


def test_thread_count_does_not_change_results(monkeypatch):
    grid = TimeGrid(1.0, 8)
    base = sample_brownian(7, grid, dim=1, n_paths=30000)
    monkeypatch.setenv("FORWARD_YIELD_THREADS", "4")
    threaded = sample_brownian(7, grid, dim=1, n_paths=30000)
    assert np.array_equal(base.increments, threaded.increments)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blocked_normals_are_the_sfc64_blocks(monkeypatch, threads):
    # each 8192-row block is its own SFC64 stream seeded by (seed, purpose, block)
    monkeypatch.setenv("FORWARD_YIELD_THREADS", threads)
    seed, purpose, rows = 1618, PURPOSE_RATE_RESIDUALS, 8192 + 5
    z = blocked_normals(seed, purpose, rows, (6, 2))
    assert z.shape == (rows, 6, 2)
    for block, (b0, b1) in enumerate([(0, 8192), (8192, rows)]):
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, purpose, block))))
        assert np.array_equal(z[b0:b1], gen.standard_normal((b1 - b0, 6, 2)))
    # the same blocks, written into the middle rows of a larger buffer
    buffer = np.zeros((rows + 3, 6, 2))
    assert blocked_normals(seed, purpose, rows, (6, 2), out=buffer[1 : rows + 1]).base is buffer
    assert np.array_equal(buffer[1 : rows + 1], z)
    assert not buffer[0].any() and not buffer[-2:].any()
    with pytest.raises(ValueError, match="C-contiguous"):
        blocked_normals(seed, purpose, rows, (6, 2), out=buffer[: rows + 1])


def test_prefix_of_whole_grid_is_the_full_batch():
    grid = TimeGrid(1.0, 4)
    assert grid.prefix(4) is grid
    batch = sample_brownian(3, grid.prefix(4), dim=1, n_paths=5)
    assert np.array_equal(batch.increments, sample_brownian(3, grid, dim=1, n_paths=5).increments)


def test_prefix_grid_is_the_first_steps():
    grid = TimeGrid(5.0, 20)
    assert grid.prefix(7) == TimeGrid(grid.times[7], 7)
    assert np.array_equal(grid.prefix(7).times, grid.times[:8])
    # a prefix keeps its parent's dates and widths, each exactly horizon / n_steps,
    # where a uniform grid rebuilt on [0, t_25] rounds its widths 10 / 30 otherwise
    grid = TimeGrid(10.0, 30)
    assert np.array_equal(grid.prefix(25).times, grid.times[:26])
    assert np.all(grid.prefix(25).widths == 10.0 / 30)


@pytest.mark.parametrize("n_steps", [0, 5, -1, 2.5])
def test_rejects_bad_prefix(n_steps):
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError, match="n_steps"):
        grid.prefix(n_steps)


@pytest.mark.parametrize("n_paths", [_BLOCK + 1, 2 * _BLOCK + 1])
def test_projected_increments_of_a_row_do_not_depend_on_the_batch(n_paths):
    # a row's bits are those it has in the batch of its block of the streams,
    # for a direction off the axes, where rounding shows; on a one-step grid a
    # last block of one row is a one-element product, which NumPy routes to a
    # dot routine (seed 2 differs there when the product spans the batch)
    direction = np.array([0.6, 0.8])
    for grid, seed in ((TimeGrid(1.0, 4), 3), (TimeGrid(1.0, 1), 2)):
        whole = sample_brownian(seed, grid, dim=2, n_paths=n_paths).projected_increments(direction)
        assert whole.shape == (n_paths, grid.n_steps)
        for b0, b1 in stream_blocks(n_paths):
            block = sample_brownian(seed, grid, dim=2, n_paths=b1 - b0, first_row=b0)
            assert np.array_equal(whole[b0:b1], block.projected_increments(direction))


def test_increment_variance_within_two_percent():
    # chi-square bound: sd of the variance estimator is sqrt(2/N) relative,
    # so 2% is a >10 sigma band at N = 8e5 samples
    grid = TimeGrid(1.0, 8)
    batch = sample_brownian(2024, grid, dim=1, n_paths=100_000)
    sample_var = np.var(batch.increments)
    assert abs(sample_var / grid.widths[0] - 1.0) < 0.02


def test_mean_within_four_stderr():
    grid = TimeGrid(2.0, 10)
    batch = sample_brownian(31337, grid, dim=2, n_paths=20_000)
    n_samples = batch.n_paths * grid.n_steps
    bound = 4.0 * np.sqrt(grid.widths[0] / n_samples)
    means = batch.increments.mean(axis=(0, 1))
    assert np.all(np.abs(means) < bound)


@pytest.mark.parametrize("dim,n_paths", [(0, 5), (2, 0), (1, -1)])
def test_rejects_bad_shapes(dim, n_paths):
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        sample_brownian(1, grid, dim=dim, n_paths=n_paths)


def test_thread_cap_clamps_to_cpu_count_and_rejects_garbage(monkeypatch):
    # each thread holds a block of paths in flight, so the cap follows the cores
    from forward_yield import brownian
    from forward_yield.brownian import thread_cap

    monkeypatch.setattr(brownian, "_CPUS", 4)
    monkeypatch.delenv("FORWARD_YIELD_THREADS", raising=False)
    assert thread_cap() == 1
    for raw, cap in (("3", 3), ("4", 4), ("7", 4)):
        monkeypatch.setenv("FORWARD_YIELD_THREADS", raw)
        assert thread_cap() == cap
    for raw in ("lots", "2.5", "", "0", "-3"):
        monkeypatch.setenv("FORWARD_YIELD_THREADS", raw)
        with pytest.raises(ConfigError, match="FORWARD_YIELD_THREADS"):
            thread_cap()


def test_rejects_bad_seed():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        sample_brownian(-1, grid, dim=1, n_paths=1)
    with pytest.raises(ValueError):
        sample_brownian(2**64, grid, dim=1, n_paths=1)
