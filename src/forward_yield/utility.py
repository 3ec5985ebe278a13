"""Power utilities, Fenchel conjugation, and the progressive power pair (U, V).

The progressive utility of wealth is U(t, x) = Zhat_t x^(1-alpha) / (1-alpha)
with a positive per-path coefficient process Zhat; its consumption companion
is V(t, c) = psi_hat_t^alpha U(t, c) and the conjugate of V is
psi_hat_t Zhat_t^(1/alpha) utilde(y).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import NumericalRangeError
from .grids import DeterministicFn, TimeGrid


def _require_positive(x, what: str):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError(f"{what} must be strictly positive")
    return x


@dataclass(frozen=True)
class PowerUtility:
    """u(x) = scale * x^(1-alpha) / (1-alpha), alpha in (0, 1).

    Strictly increasing and concave on (0, inf) with u(0+) = 0 and marginal
    utility decreasing from +inf to 0.
    """

    alpha: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def value(self, x):
        x = _require_positive(x, "x")
        return self.scale * np.power(x, 1.0 - self.alpha) / (1.0 - self.alpha)

    def marginal(self, x):
        x = _require_positive(x, "x")
        return self.scale * np.power(x, -self.alpha)

    def second(self, x):
        x = _require_positive(x, "x")
        return -self.alpha * self.scale * np.power(x, -self.alpha - 1.0)

    def conjugate(self, y):
        """Fenchel transform max_x (u(x) - x y)."""
        y = _require_positive(y, "y")
        k = self.scale ** (1.0 / self.alpha)
        return k * self.alpha / (1.0 - self.alpha) * np.power(y, 1.0 - 1.0 / self.alpha)

    def conjugate_slope(self, y):
        y = _require_positive(y, "y")
        return -np.power(y / self.scale, -1.0 / self.alpha)


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


@dataclass(frozen=True)
class ProgressivePowerUtility:
    """Progressive power utility pair driven by the coefficient paths Zhat."""

    alpha: float
    zhat: np.ndarray           # (n_paths, n_steps+1), strictly positive
    psi_hat: DeterministicFn   # positive consumption spread
    grid: TimeGrid

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if np.any(self.zhat <= 0):
            raise NumericalRangeError("Zhat must be strictly positive; wealth or the state-price density underflowed to 0")

    @property
    def base(self) -> PowerUtility:
        return PowerUtility(self.alpha)

    def _z(self, k: int, path=None):
        return self.zhat[:, k] if path is None else self.zhat[path, k]

    def wealth_value(self, k: int, x, path=None):
        return self._z(k, path) * self.base.value(x)

    def wealth_marginal(self, k: int, x, path=None):
        return self._z(k, path) * self.base.marginal(x)

    def psi_at(self, k: int) -> float:
        return float(self.psi_hat(self.grid.times[k]))

    def consumption_value(self, k: int, c, path=None):
        return self.psi_at(k) ** self.alpha * self.wealth_value(k, c, path)

    def consumption_marginal(self, k: int, c, path=None):
        return self.psi_at(k) ** self.alpha * self.wealth_marginal(k, c, path)

    def consumption_dual(self, k: int, y, path=None):
        """Conjugate of V: psi_hat Zhat^(1/alpha) utilde(y)."""
        z = self._z(k, path)
        return self.psi_at(k) * np.power(z, 1.0 / self.alpha) * self.base.conjugate(y)

    def consumption_dual_slope(self, k: int, y, path=None):
        z = self._z(k, path)
        return self.psi_at(k) * np.power(z, 1.0 / self.alpha) * self.base.conjugate_slope(y)

    def optimal_consumption_fraction(self, k: int, x, path=None):
        """-Vtilde_y(t, U_x(t, x)); equals psi_hat_t * x for the power pair."""
        return -self.consumption_dual_slope(k, self.wealth_marginal(k, x, path), path)
