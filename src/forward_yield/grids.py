"""Uniform time grids and deterministic coefficient functions of time."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * dt on [0, horizon] with n_steps steps.

    Attributes:
        horizon: length of the time interval in years, > 0.
        n_steps: number of uniform steps, >= 1.
    """

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"horizon must be a positive real, got {self.horizon}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        """Grid points t_0 = 0, ..., t_{n_steps} = horizon."""
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def index_of(self, t: float, tol: float = 1e-9) -> int:
        """Index k with t_k == t; rejects off-grid times."""
        k = int(round(t / self.dt))
        if k < 0 or k > self.n_steps or abs(k * self.dt - t) > tol * max(1.0, abs(t)):
            raise ValueError(f"t={t} is not a grid point of {self}")
        return k

    def prefix(self, n_steps: int) -> "TimeGrid":
        """The grid of the first n_steps steps, on [0, t_{n_steps}]; self when n_steps covers it all."""
        if int(n_steps) != n_steps or not (1 <= n_steps <= self.n_steps):
            raise ValueError(f"n_steps must be an integer in [1, {self.n_steps}], got {n_steps}")
        if n_steps == self.n_steps:
            return self
        return TimeGrid(float(self.times[n_steps]), int(n_steps))


def make_grid(horizon: float, n_steps: int) -> TimeGrid:
    """Build a uniform :class:`TimeGrid`; non-positive inputs are rejected."""
    return TimeGrid(float(horizon), int(n_steps))


class DeterministicFn:
    """Deterministic scalar- or vector-valued coefficient of time.

    Three representations are supported: a constant, a closed-form callable,
    and a piecewise-constant table.  Table functions take the left-endpoint
    value on each interval [times[i], times[i+1]), which is the
    non-anticipative convention used by every simulation scheme here.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], label: str = "callable"):
        self._fn = fn
        self.label = label

    @classmethod
    def constant(cls, value: ArrayLike) -> "DeterministicFn":
        v = np.asarray(value, dtype=float)
        if v.ndim > 1:
            raise ValueError("constant value must be a scalar or 1-d vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("constant value must be finite")

        if v.ndim == 0:
            fn = lambda t: np.full(np.shape(t), float(v))
        else:
            fn = lambda t: np.broadcast_to(v, np.shape(t) + v.shape).copy()
        return cls(fn, label=f"constant({v})")

    @classmethod
    def table(cls, times: np.ndarray, values: np.ndarray) -> "DeterministicFn":
        """Piecewise-constant function: value[i] on [times[i], times[i+1])."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or len(times) < 1:
            raise ValueError("table times must be a non-empty 1-d array")
        if times[0] != 0.0:
            raise ValueError("table must start at t=0 to cover the whole grid")
        if np.any(np.diff(times) <= 0):
            raise ValueError("table times must be strictly increasing")
        if values.shape[0] != times.shape[0]:
            raise ValueError("table values must have one row per time")

        def fn(t):
            idx = np.clip(np.searchsorted(times, np.asarray(t), side="right") - 1, 0, len(times) - 1)
            return values[idx]

        return cls(fn, label=f"table({len(times)} knots)")

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
            # the callable was not vectorized; fall back to a loop
            out = np.stack([np.asarray(self._fn(t), dtype=float) for t in times])
        if not np.all(np.isfinite(out)):
            raise ValueError(f"{self.label} produced non-finite values")
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"DeterministicFn<{self.label}>"


def as_deterministic(value, dim: int | None = None) -> DeterministicFn:
    """Coerce a float, vector, callable, or DeterministicFn into a DeterministicFn."""
    if isinstance(value, DeterministicFn):
        return value
    if callable(value):
        return DeterministicFn(value)
    v = np.asarray(value, dtype=float)
    if dim is not None and v.ndim == 0:
        v = np.full(dim, float(v))
    return DeterministicFn.constant(v)
