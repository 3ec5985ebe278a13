"""Power utilities and their Fenchel conjugates.

The forward family's progressive utility of wealth is
U(t, x) = Zhat_t u(x) with u the unit power utility; its consumption
companion is V(t, c) = psi_hat_t^alpha U(t, c), whose conjugate
psi_hat_t Zhat_t^(1/alpha) utilde(y) forward.hjb_residual forms at
y = Zhat_t u_x, where it is psi_hat_t Zhat_t utilde(u_x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _require_positive(x, what: str):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError(f"{what} must be strictly positive")
    return x


@dataclass(frozen=True)
class PowerUtility:
    """u(x) = x^(1-alpha) / (1-alpha), alpha in (0, 1).

    Strictly increasing and concave on (0, inf) with u(0+) = 0 and marginal
    utility decreasing from +inf to 0.
    """

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")

    def value(self, x):
        x = _require_positive(x, "x")
        return np.power(x, 1.0 - self.alpha) / (1.0 - self.alpha)

    def marginal(self, x):
        x = _require_positive(x, "x")
        return np.power(x, -self.alpha)

    def second(self, x):
        x = _require_positive(x, "x")
        return -self.alpha * np.power(x, -self.alpha - 1.0)

    def conjugate(self, y):
        """Fenchel transform max_x (u(x) - x y)."""
        y = _require_positive(y, "y")
        return self.alpha / (1.0 - self.alpha) * np.power(y, 1.0 - 1.0 / self.alpha)
