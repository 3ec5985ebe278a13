"""Time grids and deterministic coefficient functions of time."""

from __future__ import annotations

from typing import Callable, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


class TimeGrid:
    """Time grid 0 = t_0 < t_1 < ... < t_K = horizon with per-step widths.

    TimeGrid(horizon, n_steps) is the uniform grid t_k = k * horizon / n_steps,
    and each of its widths is exactly horizon / n_steps.  TimeGrid.of_times
    builds a grid on explicit dates, such as the dates a run reads.

    Attributes:
        horizon: length of the time interval in years, > 0.
        n_steps: number of steps K, >= 1.
        times: the K+1 dates, read-only.
        widths: the K step widths, read-only.
    """

    __slots__ = ("horizon", "n_steps", "times", "widths", "uniform")

    def __init__(self, horizon: float, n_steps: int) -> None:
        if not (np.isfinite(horizon) and horizon > 0.0):
            raise ValueError(f"horizon must be a positive real, got {horizon}")
        if int(n_steps) != n_steps or n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {n_steps}")
        n_steps, horizon = int(n_steps), float(horizon)
        self._fill(horizon, n_steps, np.linspace(0.0, horizon, n_steps + 1), np.full(n_steps, horizon / n_steps), True)

    @classmethod
    def of_times(cls, times, widths=None) -> "TimeGrid":
        """Grid on explicit dates starting at 0; widths default to np.diff(times)."""
        times = np.array(times, dtype=float)
        if times.ndim != 1 or len(times) < 2 or times[0] != 0.0 or not np.all(np.diff(times) > 0):
            raise ValueError("grid times must start at 0 and increase strictly over at least one step")
        widths = np.diff(times) if widths is None else np.array(widths, dtype=float)
        if widths.shape != (len(times) - 1,) or not np.all(widths > 0):
            raise ValueError("grid widths must be positive, one per step")
        grid = cls.__new__(cls)
        grid._fill(float(times[-1]), len(times) - 1, times, widths, False)
        return grid

    def _fill(self, horizon, n_steps, times, widths, uniform) -> None:
        times.setflags(write=False)
        widths.setflags(write=False)
        for name, value in zip(self.__slots__, (horizon, n_steps, times, widths, uniform)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("TimeGrid is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeGrid):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(self.widths, other.widths)

    def __repr__(self) -> str:
        if self.uniform:
            return f"TimeGrid(horizon={self.horizon}, n_steps={self.n_steps})"
        return f"TimeGrid.of_times({self.times.tolist()})"

    def index_of(self, t: float) -> int:
        """Index k with t_k == t to 1e-9 relative to max(|t|, |t_k|); rejects off-grid and non-finite times."""
        k = int(np.argmin(np.abs(self.times - t)))
        if not (np.isfinite(t) and abs(self.times[k] - t) <= 1e-9 * max(abs(t), abs(self.times[k]))):
            raise ValueError(f"t={t} is not a grid point of {self}")
        return k

    def prefix(self, n_steps: int) -> "TimeGrid":
        """The grid of the first n_steps steps, on [0, t_{n_steps}]; self when n_steps covers it all."""
        if int(n_steps) != n_steps or not (1 <= n_steps <= self.n_steps):
            raise ValueError(f"n_steps must be an integer in [1, {self.n_steps}], got {n_steps}")
        if n_steps == self.n_steps:
            return self
        if self.uniform:
            return TimeGrid(self.times[n_steps], n_steps)
        return self.window(0, n_steps)

    def window(self, k0: int, k1: int) -> "TimeGrid":
        """The steps from t_{k0} to t_{k1}, on dates shifted to start at 0."""
        return TimeGrid.of_times(self.times[k0 : k1 + 1] - self.times[k0], self.widths[k0:k1])

    def subgrid(self, indices) -> "TimeGrid":
        """The grid on the dates t_k, k in indices (increasing, starting at 0);
        self when they are all the dates."""
        indices = np.asarray(indices, dtype=int)
        if len(indices) == self.n_steps + 1:
            return self
        return TimeGrid.of_times(self.times[indices])


class DeterministicFn:
    """Deterministic scalar- or vector-valued coefficient of time.

    Two forms are supported: a piecewise-constant table, whose knots are
    times (a constant is the one-knot table), and a closed-form callable of
    an array of times, whose times are None.  A table takes the
    left-endpoint value on each interval [times[i], times[i+1]), which is
    the non-anticipative convention used by every simulation scheme here.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], label: str = "callable"):
        self._fn = fn
        self.label = label
        self.times: np.ndarray | None = None

    @classmethod
    def constant(cls, value: ArrayLike) -> "DeterministicFn":
        v = np.asarray(value, dtype=float)
        if v.ndim > 1:
            raise ValueError("constant value must be a scalar or 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("constant value must be finite")
        return cls.table([0.0], [v])

    @classmethod
    def table(cls, times: np.ndarray, values: np.ndarray) -> "DeterministicFn":
        """Piecewise-constant function: value[i] on [times[i], times[i+1]);
        a row equal to the one before it is merged into it."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or len(times) < 1:
            raise ValueError("table times must be a non-empty 1-d array")
        if times[0] != 0.0:
            raise ValueError("table must start at t=0 to cover the whole grid")
        # a nan or inf time passes a test of the differences alone
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ValueError("table times must be finite and strictly increasing")
        if values.shape[0] != times.shape[0]:
            raise ValueError("table values must have one row per time")
        keep = np.r_[True, np.any(values[1:] != values[:-1], axis=tuple(range(1, values.ndim)))]
        times, values = times[keep], values[keep]

        def fn(t):
            return values[np.maximum(np.searchsorted(times, t, side="right") - 1, 0)]

        table = cls(fn, label=f"table({len(times)} knots)")
        table.times = times
        return table

    @classmethod
    def zero(cls, dim: int | None = None) -> "DeterministicFn":
        if dim is None:
            return cls.constant(0.0)
        return cls.constant(np.zeros(dim))

    def __call__(self, t: ArrayLike) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(t, dtype=float)), dtype=float)

    def values(self, times: np.ndarray) -> np.ndarray:
        """Evaluate on an array of times; shape (len(times),) or (len(times), dim)."""
        times = np.asarray(times, dtype=float)
        out = self(times)
        if out.shape[: times.ndim] != times.shape:
            raise ValueError(f"{self.label} gave shape {out.shape} on times of shape {times.shape}")
        if not np.all(np.isfinite(out)):
            raise ValueError(f"{self.label} produced non-finite values")
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"DeterministicFn<{self.label}>"

