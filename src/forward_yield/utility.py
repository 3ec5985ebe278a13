"""Power utilities, Fenchel conjugation, and the progressive power pair (U, V).

The progressive utility of wealth is U(t, x) = Zhat_t x^(1-alpha) / (1-alpha)
with a positive per-path coefficient process Zhat; its consumption companion
is V(t, c) = psi_hat_t^alpha U(t, c) and the conjugate of V is
psi_hat_t Zhat_t^(1/alpha) utilde(y).
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def psi_at(self, k: int) -> float:
        return float(self.psi_hat(self.grid.times[k]))

    def consumption_dual(self, k: int, y, path=None):
        """Conjugate of V: psi_hat Zhat^(1/alpha) utilde(y)."""
        z = self._z(k, path)
        return self.psi_at(k) * np.power(z, 1.0 / self.alpha) * self.base.conjugate(y)
