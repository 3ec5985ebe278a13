"""The incomplete Ito market: state-price densities and self-financing wealth.

State-price densities follow dY = Y [-r dt + (nu - eta) . dW] with nu in the
orthogonal complement of the admissible subspace; wealth follows
dX = X [r dt + kappa . (dW + eta dt)] - c dt with kappa in the subspace.
Both are simulated with exact per-step log schemes on the shared Brownian
batch and the exact integral of the short rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .brownian import BrownianBatch
from .grids import DeterministicFn, TimeGrid, as_deterministic
from .rates import RatePaths, ShortRateModel, simulate_short_rate
from .stats import DriftReport, interval_drift_report
from .subspace import SubspaceR


@dataclass(frozen=True)
class MarketModel:
    """Investment universe: short rate, deterministic risk premium, subspace.

    The risk premium is the minimal one and must be valued in the admissible
    subspace at every time.
    """

    dim: int
    rate: ShortRateModel
    risk_premium: DeterministicFn  # eta_R, dim-vector valued in span(R)
    subspace: SubspaceR

    def __post_init__(self) -> None:
        if self.subspace.dim != self.dim:
            raise ValueError("subspace dimension does not match market dimension")


@dataclass(frozen=True)
class StatePricePaths:
    """Positive state-price density paths Y with deterministic dual volatility nu."""

    grid: TimeGrid
    values: np.ndarray  # (n_paths, n_steps+1), strictly positive
    nu: DeterministicFn
    y0: float


@dataclass(frozen=True)
class WealthPaths:
    """Nonnegative self-financing wealth paths, absorbed at zero."""

    grid: TimeGrid
    values: np.ndarray               # (n_paths, n_steps+1)
    kappa: DeterministicFn
    consumption: Optional[np.ndarray]  # (n_paths, n_steps+1) rates c_{t_k}, or None
    x0: float

    @property
    def absorbed_fraction(self) -> float:
        """Share of paths that hit zero by the horizon."""
        return float(np.mean(self.values[:, -1] <= 0.0))


def _coeff_on_dates(fn: DeterministicFn, grid: TimeGrid, dim: int, what: str) -> np.ndarray:
    vals = np.atleast_2d(fn.values(grid.times))
    if vals.shape != (grid.n_steps + 1, dim):
        raise ValueError(f"{what} must evaluate to a vector of dimension {dim}")
    return vals


def _dual_coeffs(market: MarketModel, grid: TimeGrid, nu: DeterministicFn) -> tuple[np.ndarray, np.ndarray]:
    """Per-step volatility nu - eta and drift -|nu - eta|^2 / 2 of ln Y, net
    of the short rate, at the K left endpoints; nu must lie in the complement
    of the subspace and eta in it at all K+1 grid dates."""
    nu_t = _coeff_on_dates(nu, grid, market.dim, "nu")
    market.subspace.require_orthogonal(nu_t, "dual volatility nu")
    eta_t = _coeff_on_dates(market.risk_premium, grid, market.dim, "risk premium")
    market.subspace.require_contains(eta_t, "risk premium")
    vol = nu_t[:-1] - eta_t[:-1]
    return vol, -0.5 * np.sum(vol * vol, axis=1)


def _wealth_coeffs(market: MarketModel, grid: TimeGrid, kappa: DeterministicFn) -> tuple[np.ndarray, np.ndarray]:
    """Per-step volatility kappa and drift kappa . eta - |kappa|^2 / 2 of
    ln X, net of the short rate and before consumption, at the K left
    endpoints; kappa must lie in the subspace at all K+1 grid dates."""
    kappa_t = _coeff_on_dates(kappa, grid, market.dim, "kappa")
    market.subspace.require_contains(kappa_t, "portfolio volatility kappa")
    kappa_k = kappa_t[:-1]
    eta_k = _coeff_on_dates(market.risk_premium, grid, market.dim, "risk premium")[:-1]
    return kappa_k, np.sum(kappa_k * eta_k, axis=1) - 0.5 * np.sum(kappa_k * kappa_k, axis=1)


def _proportional_rates(consumption: ConsumptionRule, grid: TimeGrid) -> np.ndarray:
    """Consumption rates per unit wealth on the K+1 grid dates; None means 0."""
    psi_fn = as_deterministic(0.0 if consumption is None else consumption)
    psi_all = np.asarray(psi_fn.values(grid.times), dtype=float)
    if psi_all.ndim != 1:
        raise ValueError("proportional consumption rate must be scalar-valued")
    if np.any(psi_all < 0):
        raise ValueError("consumption rate must be nonnegative")
    return psi_all


def _exact_log_paths(
    increments: np.ndarray,
    vol: np.ndarray,
    rate_steps: np.ndarray,
    drift: np.ndarray,
    h: float,
    level0: float,
) -> np.ndarray:
    """Exact per-step log scheme of a geometric process with deterministic
    volatility: level0 * exp(cumsum(vol . dW + rate_steps + drift * h)),
    with the value level0 at t_0 (Glasserman 2004, section 3.2).

    increments is (n, K, dim), vol (K, dim), rate_steps (n, K) and drift (K,).
    """
    dlog = np.einsum("nkd,kd->nk", increments, vol)
    dlog += rate_steps
    dlog += drift * h
    out = np.zeros((dlog.shape[0], dlog.shape[1] + 1))
    np.cumsum(dlog, axis=1, out=out[:, 1:])
    np.exp(out, out=out)
    out *= level0
    return out


def _running_trapezoid(rates: np.ndarray, h: float) -> np.ndarray:
    """Running trapezoid integral of per-date rate paths, zero at t_0."""
    running = np.zeros(rates.shape)
    steps = np.add(rates[:, :-1], rates[:, 1:], out=running[:, 1:])
    steps *= 0.5 * h
    np.cumsum(steps, axis=1, out=steps)
    return running


def state_price_paths(
    market: MarketModel,
    grid: TimeGrid,
    batch: BrownianBatch,
    nu: Optional[DeterministicFn] = None,
    y0: float = 1.0,
    rate_paths: Optional[RatePaths] = None,
) -> StatePricePaths:
    """Simulate a state-price density; nu = None gives the minimal density Y^0.

    Exact log scheme per step:
    ln Y_{k+1} = ln Y_k - int r - 0.5 |nu - eta|^2 dt + (nu - eta) . dW.
    """
    if y0 <= 0:
        raise ValueError("y0 must be positive")
    nu = DeterministicFn.zero(market.dim) if nu is None else nu
    vol, drift = _dual_coeffs(market, grid, nu)
    if rate_paths is None:
        rate_paths = simulate_short_rate(market.rate, grid, batch)
    values = _exact_log_paths(batch.increments, vol, -rate_paths.step_integrals(), drift, grid.dt, y0)
    return StatePricePaths(grid=grid, values=values, nu=nu, y0=float(y0))


ConsumptionRule = Union[None, float, DeterministicFn, Callable[[float, np.ndarray], np.ndarray]]


def wealth_paths(
    market: MarketModel,
    grid: TimeGrid,
    batch: BrownianBatch,
    kappa: DeterministicFn,
    consumption: ConsumptionRule = None,
    x0: float = 1.0,
    rate_paths: Optional[RatePaths] = None,
) -> WealthPaths:
    """Simulate self-financing wealth with portfolio volatility kappa.

    consumption may be None (no consumption), a nonnegative proportional rate
    psi (scalar or DeterministicFn, meaning c = psi X, simulated with the
    exact log scheme), or a general rule c(t, x) >= 0, which falls back to an
    Euler step with absorption at zero.
    """
    if x0 < 0:
        raise ValueError("initial wealth must be nonnegative")
    vol, drift = _wealth_coeffs(market, grid, kappa)
    if rate_paths is None:
        rate_paths = simulate_short_rate(market.rate, grid, batch)

    proportional = consumption is None or isinstance(consumption, (int, float, DeterministicFn))

    if proportional:
        psi_all = _proportional_rates(consumption, grid)
        values = _exact_log_paths(batch.increments, vol, rate_paths.step_integrals(), drift - psi_all[:-1], grid.dt, x0)
        c_paths = psi_all * values
        return WealthPaths(grid=grid, values=values, kappa=kappa, consumption=c_paths, x0=float(x0))

    # general rule: Euler with absorption at zero
    n, k_steps, h = batch.n_paths, grid.n_steps, grid.dt
    values = np.empty((n, k_steps + 1))
    c_paths = np.empty((n, k_steps + 1))
    values[:, 0] = x0
    times = grid.times
    kappa_dw = np.einsum("nkd,kd->nk", batch.increments, vol)
    growth_rate = drift + 0.5 * np.sum(vol * vol, axis=1)  # kappa . eta, the drift of dX / X beyond r
    for k in range(k_steps):
        x = values[:, k]
        c = np.asarray(consumption(times[k], x), dtype=float)
        if np.any(c < -1e-15):
            raise ValueError("consumption rule produced negative rates")
        c_paths[:, k] = c
        growth = 1.0 + rate_paths.r[:, k] * h + kappa_dw[:, k] + growth_rate[k] * h
        nxt = x * growth - c * h
        alive = x > 0.0
        values[:, k + 1] = np.where(alive, np.maximum(nxt, 0.0), 0.0)
    c_paths[:, -1] = np.asarray(consumption(times[-1], values[:, -1]), dtype=float)
    c_paths[values <= 0.0] = 0.0
    return WealthPaths(grid=grid, values=values, kappa=kappa, consumption=c_paths, x0=float(x0))


def deflated_wealth_paths(state_prices: StatePricePaths, wealth: WealthPaths) -> np.ndarray:
    """Paths of Y X + int Y c ds, a local martingale for admissible strategies.

    The running consumption integral is accumulated with the trapezoid rule,
    which keeps the discretization bias at O(dt^3) per interval.
    """
    if state_prices.grid is not wealth.grid and state_prices.grid != wealth.grid:
        raise ValueError("state-price and wealth paths must share a grid")
    y, x = state_prices.values, wealth.values
    m = y * x
    if wealth.consumption is not None:
        m = m + _running_trapezoid(y * wealth.consumption, wealth.grid.dt)
    return m


def local_martingale_drift_test(
    state_prices: StatePricePaths,
    wealth: WealthPaths,
    threshold: float = 4.0,
) -> DriftReport:
    """Sample drift of Y X + int Y c ds per grid interval, with stderr bands.

    Intervals with |drift| > threshold standard errors are flagged in the
    report; for a correctly specified state-price density none should be.
    """
    m = deflated_wealth_paths(state_prices, wealth)
    return interval_drift_report(m, wealth.grid.times, threshold)
