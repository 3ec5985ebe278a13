"""Short-rate models and exact simulation of the rate and its time integral."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .brownian import PURPOSE_RATE_RESIDUALS, BrownianBatch, blocked_normals
from .errors import NumericalRangeError
from .grids import TimeGrid

_UNIT_TOL = 1e-12
# the least a * h at which simulate_short_rate keeps its precision: below it
# a step's r_{k+1} - r_k + sigma dW~ cancels, and on grids of 1 to 400 steps
# the variance of int r came out up to 5e6x its closed form
_MIN_A_H = 1e-8
# l11^2 / h = x^2 sum_{n>=2} (-1)^n (2^n (n-2) + 2) x^(n-2) / (n+2)!, x = a h,
# highest power first.  The closed form v11 - c1^2 / h cancels as x -> 0 (it
# read Var(int r) 25% low at x = 1.8e-8); from x = 0.07 up its l11 is within
# 1e-12 of the series', and below it the terms left out are under 1e-17.
_L11_SERIES_BELOW = 0.07
_L11_SERIES = [(-1) ** n * (2**n * (n - 2) + 2) / math.factorial(n + 2) for n in range(14, 1, -1)]


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
        # an entry above 1 fails before its norm can overflow
        if np.max(np.abs(w)) > 1.0 + _UNIT_TOL or abs(np.linalg.norm(w) - 1.0) > _UNIT_TOL:
            raise ValueError("w_dir must be a unit vector to 1e-12")

    def expected_rate(self, t):
        t = np.asarray(t, dtype=float)
        return self.b + (self.r0 - self.b) * np.exp(-self.a * t)

    def integral_mean(self, r_t, tau):
        """E of the integral of r over [t, t+tau] given r_t."""
        tau = np.asarray(tau, dtype=float)
        r_t = np.asarray(r_t, dtype=float)
        return self.b * tau + (r_t - self.b) * -np.expm1(-self.a * tau) / self.a


ShortRateModel = Union[ConstantRate, VasicekRate]


@dataclass(frozen=True)
class RatePaths:
    """Simulated short-rate paths and the exact running integral of r."""

    r: np.ndarray         # (n_paths, n_steps+1); for a Vasicek rate, a view of time-major rows
    integral: np.ndarray  # (n_paths, n_steps+1), integral[:, k] = int_0^{t_k} r ds


def simulate_short_rate(
    model: ShortRateModel,
    grid: TimeGrid,
    batch: BrownianBatch,
    r0: float | np.ndarray | None = None,
    residuals: np.ndarray | None = None,
) -> RatePaths:
    """Simulate (r, int r ds) on the grid, step by step over its widths.

    The Vasicek rate steps with its exact Gaussian transition conditional on
    r_t and the step's Brownian increment dW~ projected on w_dir; the
    unresolved residual comes from a dedicated stream keyed by
    (batch.seed, batch.first_row + path), so results stay reproducible and
    partition-independent.  Each step's integral then follows from the SDE
    itself, int_{t_k}^{t_{k+1}} r ds = b h - (r_{k+1} - r_k + sigma dW~_k) / a,
    so the law of (r, int r, W) at the grid points is exact for any step size.
    That difference cancels as a h -> 0, so a Vasicek rate with a h below
    _MIN_A_H on some step raises NumericalRangeError.

    r0, one initial rate per path or one for all, defaults to the model's.
    residuals, the (n_paths, K) standard normals of the part of each step
    that dW~ leaves unresolved, replace the draw from the batch's stream, so
    a caller that stacks paths of several streams draws them itself.  A
    constant rate reads neither.
    """
    n, k_steps = batch.n_paths, grid.n_steps
    times = grid.times

    if isinstance(model, ConstantRate):
        r = np.full((n, k_steps + 1), model.rate)
        integral = np.broadcast_to(model.rate * times, (n, k_steps + 1)).copy()
        return RatePaths(r=r, integral=integral)

    if not isinstance(model, VasicekRate):
        raise TypeError(f"unsupported short-rate model {type(model).__name__}")
    if model.w_dir.shape[0] != batch.dim:
        raise ValueError("w_dir dimension does not match the Brownian batch")

    a, sigma = model.a, model.sigma
    h = grid.widths                  # one width per step
    if a * h.min() < _MIN_A_H:
        raise NumericalRangeError(
            f"market.rate.a: a = {a:g} times the shortest step {h.min():g} is below {_MIN_A_H:g}, "
            "where the integral of the short rate cancels to rounding error"
        )
    e1 = np.expm1(-a * h)            # e^{ -a h } - 1
    decay = 1.0 + e1                 # e^{ -a h }

    # G1 = int e^{-a(h-u)} dW~ has covariance c1 with the step increment dW~
    # and variance v11; l11 is its standard deviation given dW~.
    c1 = -e1 / a
    v11 = -np.expm1(-2.0 * a * h) / (2.0 * a)
    l11_sq, x = v11 - c1 * c1 / h, a * h
    if x.min() < _L11_SERIES_BELOW:  # the series costs tens of us a call, and the nested loop calls often
        l11_sq = np.where(x < _L11_SERIES_BELOW, h * x * x * np.polyval(_L11_SERIES, x), l11_sq)
    l11 = np.sqrt(l11_sq)

    w = batch.projected_increments(model.w_dir)
    # Time-major (K, n) buffers: each step reads and writes whole rows, with
    # the elementwise operations, and so the bits, of a path-major loop.
    if sigma > 0.0:
        if residuals is None:
            z = blocked_normals(batch.seed, PURPOSE_RATE_RESIDUALS, n, (k_steps,), first_row=batch.first_row)
        else:
            z = residuals
        g1 = np.ascontiguousarray((w * (c1 / h) + z * l11).T)
        del z
    else:
        g1 = np.zeros((k_steps, n))
    sigma_w = np.ascontiguousarray(w.T)
    sigma_w *= sigma
    del w

    r = np.empty((k_steps + 1, n))
    integral = np.empty((k_steps + 1, n))
    r[0] = model.r0 if r0 is None else r0
    integral[0] = 0.0
    for k in range(k_steps):
        r[k + 1] = model.b + (r[k] - model.b) * decay[k] - sigma * g1[k]
        # dr = a (b - r) dt - sigma dW~, integrated over the step
        integral[k + 1] = integral[k] + (model.b * h[k] - (r[k + 1] - r[k] + sigma_w[k]) / a)
    return RatePaths(r=r.T, integral=np.ascontiguousarray(integral.T))
