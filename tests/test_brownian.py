import numpy as np
import pytest

from forward_yield import TimeGrid, make_grid, sample_brownian
from forward_yield.brownian import PURPOSE_RATE_RESIDUALS, blocked_normals


def test_same_seed_reproduces_bit_exact():
    grid = make_grid(1.0, 16)
    a = sample_brownian(99, grid, dim=2, n_paths=100)
    b = sample_brownian(99, grid, dim=2, n_paths=100)
    assert np.array_equal(a.increments, b.increments)


def test_distinct_seeds_differ():
    grid = make_grid(1.0, 16)
    a = sample_brownian(1, grid, dim=1, n_paths=10)
    b = sample_brownian(2, grid, dim=1, n_paths=10)
    assert not np.array_equal(a.increments, b.increments)


def test_partition_independent_paths():
    # path p of a small batch equals path p of a larger batch
    grid = make_grid(1.0, 8)
    small = sample_brownian(4242, grid, dim=2, n_paths=10)
    large = sample_brownian(4242, grid, dim=2, n_paths=20000)
    assert np.array_equal(small.increments, large.increments[:10])


def test_thread_count_does_not_change_results(monkeypatch):
    grid = make_grid(1.0, 8)
    base = sample_brownian(7, grid, dim=1, n_paths=30000)
    monkeypatch.setenv("FORWARD_YIELD_THREADS", "4")
    threaded = sample_brownian(7, grid, dim=1, n_paths=30000)
    assert np.array_equal(base.increments, threaded.increments)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_prefix_batch_is_the_full_draw_cut_short(monkeypatch, threads):
    # rows span two 8192-row blocks; the prefix draws each row whole, so its
    # steps are the full draw's bit for bit
    monkeypatch.setenv("FORWARD_YIELD_THREADS", threads)
    grid = make_grid(5.0, 20)
    full = sample_brownian(2718, grid, dim=2, n_paths=8192 + 5)
    prefix = sample_brownian(2718, grid, dim=2, n_paths=8192 + 5, n_steps=7)
    assert prefix.increments.shape == (8192 + 5, 7, 2)
    assert np.array_equal(prefix.increments, full.increments[:, :7, :])
    assert prefix.grid == TimeGrid(grid.times[7], 7)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("keep", [None, 3])
def test_blocked_normals_are_the_philox_blocks(monkeypatch, threads, keep):
    # each 8192-row block is its own Philox stream keyed by (seed, purpose, block)
    monkeypatch.setenv("FORWARD_YIELD_THREADS", threads)
    seed, purpose, rows = 1618, PURPOSE_RATE_RESIDUALS, 8192 + 5
    z = blocked_normals(seed, purpose, rows, (6, 2), keep)
    assert z.shape == (rows, 6 if keep is None else keep, 2)
    for block, (b0, b1) in enumerate([(0, 8192), (8192, rows)]):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, purpose, block))))
        assert np.array_equal(z[b0:b1], gen.standard_normal((b1 - b0, 6, 2))[:, :keep])


def test_prefix_of_whole_grid_is_the_full_batch():
    grid = make_grid(1.0, 4)
    batch = sample_brownian(3, grid, dim=1, n_paths=5, n_steps=4)
    assert batch.grid is grid
    assert np.array_equal(batch.increments, sample_brownian(3, grid, dim=1, n_paths=5).increments)


@pytest.mark.parametrize("n_steps", [0, 5, -1, 2.5])
def test_rejects_bad_prefix(n_steps):
    grid = make_grid(1.0, 4)
    with pytest.raises(ValueError, match="n_steps"):
        sample_brownian(1, grid, dim=1, n_paths=3, n_steps=n_steps)


def test_increment_variance_within_two_percent():
    # chi-square bound: sd of the variance estimator is sqrt(2/N) relative,
    # so 2% is a >10 sigma band at N = 8e5 samples
    grid = make_grid(1.0, 8)
    batch = sample_brownian(2024, grid, dim=1, n_paths=100_000)
    sample_var = np.var(batch.increments)
    assert abs(sample_var / grid.dt - 1.0) < 0.02


def test_mean_within_four_stderr():
    grid = make_grid(2.0, 10)
    batch = sample_brownian(31337, grid, dim=2, n_paths=20_000)
    n_samples = batch.n_paths * grid.n_steps
    bound = 4.0 * np.sqrt(grid.dt / n_samples)
    means = batch.increments.mean(axis=(0, 1))
    assert np.all(np.abs(means) < bound)


def test_cumulative_starts_at_zero():
    grid = make_grid(1.0, 5)
    batch = sample_brownian(5, grid, dim=2, n_paths=3)
    w = batch.cumulative()
    assert w.shape == (3, 6, 2)
    assert np.all(w[:, 0, :] == 0.0)
    assert np.allclose(w[:, -1, :], batch.increments.sum(axis=1))


@pytest.mark.parametrize("dim,n_paths", [(0, 5), (2, 0), (1, -1)])
def test_rejects_bad_shapes(dim, n_paths):
    grid = make_grid(1.0, 4)
    with pytest.raises(ValueError):
        sample_brownian(1, grid, dim=dim, n_paths=n_paths)


def test_thread_cap_parses_garbage_as_one(monkeypatch):
    from forward_yield.brownian import thread_cap

    monkeypatch.delenv("FORWARD_YIELD_THREADS", raising=False)
    assert thread_cap() == 1
    monkeypatch.setenv("FORWARD_YIELD_THREADS", "7")
    assert thread_cap() == 7
    monkeypatch.setenv("FORWARD_YIELD_THREADS", "lots")
    assert thread_cap() == 1
    monkeypatch.setenv("FORWARD_YIELD_THREADS", "-3")
    assert thread_cap() == 1


def test_rejects_bad_seed():
    grid = make_grid(1.0, 4)
    with pytest.raises(ValueError):
        sample_brownian(-1, grid, dim=1, n_paths=1)
    with pytest.raises(ValueError):
        sample_brownian(2**64, grid, dim=1, n_paths=1)
