"""Short-rate models and exact simulation of the rate and its time integral."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .brownian import PURPOSE_RATE_RESIDUALS, BrownianBatch, blocked_normals
from .grids import TimeGrid

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class ConstantRate:
    """Deterministic flat short rate."""

    rate: float

    def expected_rate(self, t):
        return np.full(np.shape(t), self.rate, dtype=float)

    @property
    def r0(self) -> float:
        return self.rate

    def integral_mean(self, r_t, tau):
        """Integral of r over a window of length tau; the state r_t is the rate."""
        return self.rate * np.asarray(tau, dtype=float)


@dataclass(frozen=True)
class VasicekRate:
    """Mean-reverting Gaussian short rate dr = a (b - r) dt - sigma dW.

    The driving scalar noise is w_dir . dW for a unit vector w_dir, so the
    rate noise can be placed inside or outside the hedgeable subspace.
    """

    a: float           # mean-reversion speed, > 0
    b: float           # long-run level
    sigma: float       # rate volatility, >= 0
    r0: float          # initial rate
    w_dir: np.ndarray  # unit vector, direction of the driving noise

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise ValueError(f"mean-reversion speed must be positive, got {self.a}")
        if self.sigma < 0:
            raise ValueError(f"rate volatility must be nonnegative, got {self.sigma}")
        w = np.asarray(self.w_dir, dtype=float)
        object.__setattr__(self, "w_dir", w)
        if abs(np.linalg.norm(w) - 1.0) > _UNIT_TOL:
            raise ValueError("w_dir must be a unit vector to 1e-12")

    def expected_rate(self, t):
        t = np.asarray(t, dtype=float)
        return self.b + (self.r0 - self.b) * np.exp(-self.a * t)

    def integral_mean(self, r_t, tau):
        """E of the integral of r over [t, t+tau] given r_t."""
        tau = np.asarray(tau, dtype=float)
        r_t = np.asarray(r_t, dtype=float)
        return self.b * tau + (r_t - self.b) * (1.0 - np.exp(-self.a * tau)) / self.a


ShortRateModel = Union[ConstantRate, VasicekRate]


@dataclass(frozen=True)
class RatePaths:
    """Simulated short-rate paths and the exact running integral of r."""

    grid: TimeGrid
    r: np.ndarray         # (n_paths, n_steps+1)
    integral: np.ndarray  # (n_paths, n_steps+1), integral[:, k] = int_0^{t_k} r ds

    def step_integrals(self) -> np.ndarray:
        """Per-step integrals of r, shape (n_paths, n_steps)."""
        return np.diff(self.integral, axis=1)


def simulate_short_rate(model: ShortRateModel, grid: TimeGrid, batch: BrownianBatch) -> RatePaths:
    """Simulate (r, int r ds) on the grid.

    The Vasicek variant samples the exact joint Gaussian transition of
    (r_{t+dt}, int_t^{t+dt} r ds) conditional on r_t and the step's Brownian
    increment projected on w_dir; the unresolved residual comes from a
    dedicated stream keyed by (batch.seed, path), so results stay
    reproducible and partition-independent.  The law of (r, int r, W) at the
    grid points is exact for any step size.
    """
    n, k_steps = batch.n_paths, grid.n_steps
    times = grid.times

    if isinstance(model, ConstantRate):
        r = np.full((n, k_steps + 1), model.rate)
        integral = np.broadcast_to(model.rate * times, (n, k_steps + 1)).copy()
        return RatePaths(grid=grid, r=r, integral=integral)

    if not isinstance(model, VasicekRate):
        raise TypeError(f"unsupported short-rate model {type(model).__name__}")
    if model.w_dir.shape[0] != batch.dim:
        raise ValueError("w_dir dimension does not match the Brownian batch")

    a, sigma = model.a, model.sigma
    h = grid.dt
    e1 = np.expm1(-a * h)            # e^{ -a h } - 1
    e2 = np.expm1(-2.0 * a * h)
    decay = 1.0 + e1                 # e^{ -a h }

    # Moments of G1 = int e^{-a(h-u)} dW~, G2 = int (1 - e^{-a(h-u)})/a dW~
    # against the step increment dW~ of the driving scalar Brownian motion.
    c1 = -e1 / a
    c2 = (h - c1) / a
    v11 = -e2 / (2.0 * a)
    v22 = (h - 2.0 * c1 + v11) / (a * a)
    v12 = (c1 - v11) / a

    # Conditional residual covariance of (G1, G2) given the increment.
    s11 = max(v11 - c1 * c1 / h, 0.0)
    s12 = v12 - c1 * c2 / h
    s22 = max(v22 - c2 * c2 / h, 0.0)
    l11 = np.sqrt(s11)
    l21 = s12 / l11 if l11 > 0 else 0.0
    l22 = np.sqrt(max(s22 - l21 * l21, 0.0))

    # Time-major (K, n) buffers: each step reads and writes whole rows, with
    # the elementwise operations, and so the bits, of a path-major loop.
    if sigma > 0.0:
        w = batch.projected_increments(model.w_dir).T
        z = blocked_normals(batch.seed, PURPOSE_RATE_RESIDUALS, n, (k_steps, 2)).transpose(1, 2, 0)
        g1 = np.ascontiguousarray((c1 / h) * w + l11 * z[:, 0])
        g2 = np.ascontiguousarray((c2 / h) * w + l21 * z[:, 0] + l22 * z[:, 1])
        del w, z
    else:
        g1 = g2 = np.zeros((k_steps, n))

    r_t = np.empty((k_steps + 1, n))
    step_t = np.empty((k_steps, n))
    r_t[0] = model.r0
    for k in range(k_steps):
        dev = r_t[k] - model.b
        step_t[k] = model.b * h + dev * c1 - sigma * g2[k]
        r_t[k + 1] = model.b + dev * decay - sigma * g1[k]
    del g1, g2

    r = np.ascontiguousarray(r_t.T)
    integral = np.zeros((n, k_steps + 1))
    np.cumsum(step_t.T, axis=1, out=integral[:, 1:])
    return RatePaths(grid=grid, r=r, integral=integral)
