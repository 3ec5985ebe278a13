"""Bond-volatility fields given by a callable: a test double for the Gamma
models of forward_yield.backward, for fields that no config builds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from forward_yield.quadrature import gauss_legendre


@dataclass(frozen=True)
class CustomGamma:
    """Arbitrary bond-volatility field given by a callable (s, T) -> vector."""

    fn: Callable[[np.ndarray, float], np.ndarray]
    dim: int

    def vectors(self, s, t_mat) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.asarray(self.fn(s, t_mat), dtype=float)
        if out.shape != (len(s), self.dim):
            raise ValueError("custom gamma must return one dim-vector per time")
        return out

    def int_sq(self, t: float, t_mat: float) -> float:
        return gauss_legendre(lambda s: np.sum(self.vectors(s, t_mat) ** 2, axis=1), t, t_mat)

    def limit_sq_rate(self) -> None:
        # no closed-form limit is available for tabulated fields
        return None
