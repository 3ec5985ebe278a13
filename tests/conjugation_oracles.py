"""Brute-force Fenchel conjugation: reference implementations that the
closed-form conjugates of forward_yield.utility are tested against."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np


@dataclass(frozen=True)
class NumericConjugate:
    """Brute-force Fenchel transform on log-spaced grids.

    Serves as the independent oracle for closed-form conjugates.
    """

    y_grid: np.ndarray
    values: np.ndarray
    argmax_x: np.ndarray

    def convexity_defect(self) -> float:
        """Most negative normalized second difference; >= -1e-9 for convex data."""
        v = self.values
        d2 = v[2:] - 2.0 * v[1:-1] + v[:-2]
        scale = np.maximum(np.abs(v[1:-1]), 1.0)
        return float(np.min(d2 / scale))

    def is_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.values) <= 1e-12 * np.maximum(np.abs(self.values[:-1]), 1.0)))


def numeric_fenchel(
    u: Union[np.ndarray, Callable[[np.ndarray], np.ndarray]],
    x_grid: np.ndarray,
    y_grid: np.ndarray,
    check_concave: bool = True,
) -> NumericConjugate:
    """Conjugate by exhaustive maximization of u(x) - x y over the x grid."""
    x_grid = np.asarray(x_grid, dtype=float)
    y_grid = np.asarray(y_grid, dtype=float)
    u_vals = np.asarray(u(x_grid) if callable(u) else u, dtype=float)
    if u_vals.shape != x_grid.shape:
        raise ValueError("u values must align with the x grid")
    if check_concave:
        slopes = np.diff(u_vals) / np.diff(x_grid)
        if np.any(np.diff(slopes) > 1e-9 * np.maximum(np.abs(slopes[:-1]), 1.0)):
            raise ValueError("input is not concave on the sampling grid")
        if np.any(np.diff(u_vals) < -1e-12):
            raise ValueError("input is not increasing on the sampling grid")

    objective = u_vals[None, :] - y_grid[:, None] * x_grid[None, :]
    best = np.argmax(objective, axis=1)
    values = objective[np.arange(len(y_grid)), best]
    return NumericConjugate(y_grid=y_grid, values=values, argmax_x=x_grid[best])


def numeric_biconjugate(conj: NumericConjugate, x_grid: np.ndarray) -> np.ndarray:
    """Recover u(x) = min_y (utilde(y) + x y) from a numeric conjugate."""
    x_grid = np.asarray(x_grid, dtype=float)
    objective = conj.values[None, :] + x_grid[:, None] * conj.y_grid[None, :]
    return np.min(objective, axis=1)
