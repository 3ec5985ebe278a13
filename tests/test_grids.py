import numpy as np
import pytest

from forward_yield import DeterministicFn, TimeGrid


def test_make_grid_quarter_steps():
    grid = TimeGrid(1, 4)
    assert grid.horizon == 1.0 and isinstance(grid.horizon, float)
    assert grid.widths[0] == 0.25
    assert np.allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_make_grid_fine():
    grid = TimeGrid(50.0, 5000)
    assert grid.widths[0] == pytest.approx(0.01)
    assert grid.times[0] == 0.0
    assert grid.times[-1] == 50.0
    assert np.all(np.diff(grid.times) > 0)


@pytest.mark.parametrize("horizon,n_steps", [(0.0, 10), (-1.0, 10), (1.0, 0), (1.0, -3)])
def test_make_grid_rejects_degenerate(horizon, n_steps):
    with pytest.raises(ValueError):
        TimeGrid(horizon, n_steps)


def test_index_of_grid_points():
    grid = TimeGrid(10.0, 40)
    assert grid.index_of(2.5) == 10
    assert grid.index_of(10.0) == 40
    assert grid.index_of(0.0) == 0
    assert grid.index_of(2.5 * (1.0 + 1e-12)) == 10
    with pytest.raises(ValueError):
        grid.index_of(2.51)
    # the tolerance is relative, so a positive time does not snap onto date 0
    for tiny in (1e-12, 1e-300):
        with pytest.raises(ValueError):
            grid.index_of(tiny)
    assert TimeGrid.of_times([0.0, 1e-12, 1.0]).index_of(1e-12) == 1


def test_uniform_widths_are_the_exact_step():
    # not np.diff(times), whose entries can differ from horizon / n_steps in the last bit
    for horizon, n_steps in ((10.0, 40), (3.7, 13), (50.0, 5000)):
        grid = TimeGrid(horizon, n_steps)
        assert grid.widths.shape == (n_steps,)
        assert np.all(grid.widths == horizon / n_steps)


def test_repr_is_short_where_every_width_is_the_uniform_step():
    # an off-grid time's error prints the grid
    assert repr(TimeGrid(10.0, 40)) == "TimeGrid(horizon=10.0, n_steps=40)"
    assert repr(TimeGrid.of_times([0.0, 1.0, 2.0])) == "TimeGrid(horizon=2.0, n_steps=2)"
    assert repr(TimeGrid.of_times([0.0, 1.0, 3.0])) == "TimeGrid.of_times([0.0, 1.0, 3.0])"
    with pytest.raises(ValueError, match=r"^t=2\.51 is not a grid point of TimeGrid\(horizon=10\.0, n_steps=40\)$"):
        TimeGrid(10.0, 40).index_of(2.51)


def test_grid_on_explicit_times():
    grid = TimeGrid.of_times([0.0, 1.0, 3.0, 5.5])
    assert (grid.n_steps, grid.horizon) == (3, 5.5)
    assert np.array_equal(grid.widths, [1.0, 2.0, 2.5])
    assert [grid.index_of(t) for t in (0.0, 1.0, 3.0, 5.5)] == [0, 1, 2, 3]
    for off_grid in (2.0, 5.6, float("nan")):
        with pytest.raises(ValueError):
            grid.index_of(off_grid)
    for bad in ([0.0], [1.0, 2.0], [0.0, 2.0, 2.0]):
        with pytest.raises(ValueError):
            TimeGrid.of_times(bad)


def test_subgrid_and_window_keep_the_grid_dates():
    grid = TimeGrid(10.0, 40)
    sub = grid.subgrid([0, 4, 8, 20, 40])
    assert np.array_equal(sub.times, grid.times[[0, 4, 8, 20, 40]])
    assert sub.index_of(5.0) == 3
    assert grid.subgrid(range(41)) is grid
    window = sub.window(2, 4)  # [2, 10], shifted to start at 0
    assert np.array_equal(window.times, [0.0, 3.0, 8.0])
    assert np.array_equal(window.widths, sub.widths[2:4])


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
    grid = TimeGrid(2.0, 8)
    f = DeterministicFn.table([0.0, 1.0], np.array([[1.0, 0.0], [0.0, 1.0]]))
    vals = f.values(grid.times[:-1])
    assert vals.shape == (8, 2)
    assert np.allclose(vals[:4], [1.0, 0.0])
    assert np.allclose(vals[4:], [0.0, 1.0])


def test_table_merges_repeated_rows_and_keeps_its_knots():
    times, values = [0.0, 1.0, 2.0, 3.0], [[1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 0.0]]
    f = DeterministicFn.table(times, values)
    assert np.array_equal(f.times, [0.0, 2.0])
    t = np.linspace(0.0, 4.0, 17)
    assert np.array_equal(f.values(t), np.array(values)[np.searchsorted(times, t, side="right") - 1])
    # a constant is the one-knot table, and a callable has no knots
    assert np.array_equal(DeterministicFn.constant(0.3).times, [0.0])
    assert DeterministicFn(np.sin).times is None


def test_table_requires_time_zero_start():
    with pytest.raises(ValueError):
        DeterministicFn.table([0.5, 1.0], [1.0, 2.0])


def test_callable_fn_of_an_array_of_times():
    f = DeterministicFn(lambda t: float(t) ** 2 if np.ndim(t) == 0 else [float(x) ** 2 for x in t])
    assert np.allclose(f.values(np.array([1.0, 2.0, 3.0])), [1.0, 4.0, 9.0])
    # a callable of one time gives one value for an array of times: an error naming its label
    scalar_only = DeterministicFn(lambda t: 0.5, label="scalar_only")
    with pytest.raises(ValueError, match="scalar_only"):
        scalar_only.values(np.array([1.0, 2.0]))
