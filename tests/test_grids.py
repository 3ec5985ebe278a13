import numpy as np
import pytest

from forward_yield import DeterministicFn, make_grid


def test_make_grid_quarter_steps():
    grid = make_grid(1.0, 4)
    assert grid.dt == 0.25
    assert np.allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_make_grid_fine():
    grid = make_grid(50.0, 5000)
    assert grid.dt == pytest.approx(0.01)
    assert grid.times[0] == 0.0
    assert grid.times[-1] == 50.0
    assert np.all(np.diff(grid.times) > 0)


@pytest.mark.parametrize("horizon,n_steps", [(0.0, 10), (-1.0, 10), (1.0, 0), (1.0, -3)])
def test_make_grid_rejects_degenerate(horizon, n_steps):
    with pytest.raises(ValueError):
        make_grid(horizon, n_steps)


def test_index_of_grid_points():
    grid = make_grid(10.0, 40)
    assert grid.index_of(2.5) == 10
    assert grid.index_of(10.0) == 40
    with pytest.raises(ValueError):
        grid.index_of(2.51)


def test_constant_fn_scalar_and_vector():
    f = DeterministicFn.constant(0.3)
    assert f(1.2) == 0.3
    assert f.values(np.array([0.0, 1.0, 2.0])).shape == (3,)

    g = DeterministicFn.constant([0.1, -0.2])
    assert np.allclose(g(5.0), [0.1, -0.2])
    vals = g.values(np.linspace(0, 1, 7))
    assert vals.shape == (7, 2)
    assert np.allclose(vals[3], [0.1, -0.2])


def test_table_fn_left_endpoint_convention():
    f = DeterministicFn.table([0.0, 1.0, 2.0], [10.0, 20.0, 30.0])
    assert f(0.0) == 10.0
    assert f(0.999) == 10.0
    assert f(1.0) == 20.0
    assert f(2.5) == 30.0  # last value extends to the right


def test_table_fn_covers_grid():
    grid = make_grid(2.0, 8)
    f = DeterministicFn.table([0.0, 1.0], np.array([[1.0, 0.0], [0.0, 1.0]]))
    vals = f.values(grid.times[:-1])
    assert vals.shape == (8, 2)
    assert np.allclose(vals[:4], [1.0, 0.0])
    assert np.allclose(vals[4:], [0.0, 1.0])


def test_table_requires_time_zero_start():
    with pytest.raises(ValueError):
        DeterministicFn.table([0.5, 1.0], [1.0, 2.0])


def test_callable_fn_non_vectorized_fallback():
    f = DeterministicFn(lambda t: float(t) ** 2 if np.ndim(t) == 0 else [float(x) ** 2 for x in t])
    assert np.allclose(f.values(np.array([1.0, 2.0, 3.0])), [1.0, 4.0, 9.0])
