"""The incomplete Ito market: state-price densities and self-financing wealth.

State-price densities follow dY = Y [-r dt + (nu - eta) . dW] with nu in the
orthogonal complement of the admissible subspace; wealth follows
dX = X [r dt + kappa . (dW + eta dt)] - c dt with kappa in the subspace.
Both are simulated with exact per-step log schemes on the shared Brownian
batch and the exact integral of the short rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .brownian import BrownianBatch
from .grids import DeterministicFn, TimeGrid, as_deterministic
from .rates import RatePaths, ShortRateModel, simulate_short_rate
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


# Row-block size of the temporaries: the log kernel and the pathwise
# identities walk the paths in blocks of this many rows, which keeps their
# temporaries cache-sized (walking verify's 8,192-row stream block in one pass
# instead slowed verify at 150k paths from 1.52 to 1.71 s, median, 1 thread on
# 2 vCPUs), and the nested inner simulations run in chunks of at most this
# many rows.  It moves no bits; the unit of every mean over paths is the
# random streams' block (brownian.stream_blocks).
_LOG_ROWS = 2048


def row_blocks(n_rows: int) -> list[tuple[int, int]]:
    """(b0, b1) bounds of the row blocks that cover n_rows rows, in order."""
    return [(b0, min(b0 + _LOG_ROWS, n_rows)) for b0 in range(0, n_rows, _LOG_ROWS)]


def _exact_log_paths(
    increments: np.ndarray,
    vol: np.ndarray,
    rate_steps: np.ndarray,
    drift: np.ndarray,
    widths: np.ndarray,
    level0: float,
    rate_sign: int,
) -> np.ndarray:
    """Exact per-step log scheme of a geometric process with deterministic
    volatility: level0 * exp(cumsum(vol . dW + rate_sign * rate_steps + drift * widths)),
    with the value level0 at t_0 (Glasserman 2004, section 3.2).

    increments is (n, K, dim), vol (K, dim), rate_steps (n, K), drift (K,)
    and widths, the step widths, (K,) or one scalar.  rate_sign is +1 for
    wealth and -1 for a state-price density, whose rate steps are
    subtracted rather than negated into a copy; a - b is a + (-b) bit for bit.
    """
    out = np.zeros((increments.shape[0], increments.shape[1] + 1))
    drift_step = drift * widths
    # the log increments are summed in blocks of rows, so no (n, K) temporary
    # is allocated beside the output; each row's operations are unchanged
    for b0, b1 in row_blocks(out.shape[0]):
        dlog = np.einsum("nkd,kd->nk", increments[b0:b1], vol)
        if rate_sign > 0:
            dlog += rate_steps[b0:b1]
        else:
            dlog -= rate_steps[b0:b1]
        dlog += drift_step
        np.cumsum(dlog, axis=1, out=out[b0:b1, 1:])
    np.exp(out, out=out)
    out *= level0
    return out


def _running_trapezoid(values: np.ndarray, step_rates: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Running trapezoid integral, zero at t_0, of step_rates * values over
    steps of the given widths.  Step k's rate weights both of its ends, as
    the schemes hold a step's coefficients at its left endpoint."""
    running = np.zeros(values.shape)
    steps = np.multiply(values[:, :-1], step_rates, out=running[:, 1:])
    steps += values[:, 1:] * step_rates
    steps *= 0.5 * widths
    np.cumsum(steps, axis=1, out=steps)
    return running


def state_price_paths(
    market: MarketModel,
    grid: TimeGrid,
    batch: BrownianBatch,
    nu: Optional[DeterministicFn] = None,
    y0: float = 1.0,
    rate_paths: Optional[RatePaths] = None,
) -> np.ndarray:
    """Paths (n_paths, n_steps+1) of a state-price density; nu = None gives
    the minimal density Y^0.

    Exact log scheme per step:
    ln Y_{k+1} = ln Y_k - int r - 0.5 |nu - eta|^2 dt + (nu - eta) . dW.
    """
    if y0 <= 0:
        raise ValueError("y0 must be positive")
    nu = DeterministicFn.zero(market.dim) if nu is None else nu
    vol, drift = _dual_coeffs(market, grid, nu)
    if rate_paths is None:
        rate_paths = simulate_short_rate(market.rate, grid, batch)
    return _exact_log_paths(batch.increments, vol, rate_paths.step_integrals(), drift, grid.widths, y0, -1)


ConsumptionRule = Union[None, float, DeterministicFn]


def wealth_paths(
    market: MarketModel,
    grid: TimeGrid,
    batch: BrownianBatch,
    kappa: DeterministicFn,
    consumption: ConsumptionRule = None,
    x0: float = 1.0,
    rate_paths: Optional[RatePaths] = None,
) -> np.ndarray:
    """Paths (n_paths, n_steps+1) of self-financing wealth with portfolio
    volatility kappa.

    consumption may be None (no consumption) or a nonnegative proportional
    rate psi (scalar or DeterministicFn), meaning c = psi X, simulated with
    the exact log scheme.
    """
    if x0 < 0:
        raise ValueError("initial wealth must be nonnegative")
    vol, drift = _wealth_coeffs(market, grid, kappa)
    if rate_paths is None:
        rate_paths = simulate_short_rate(market.rate, grid, batch)
    psi_all = _proportional_rates(consumption, grid)
    return _exact_log_paths(batch.increments, vol, rate_paths.step_integrals(), drift - psi_all[:-1], grid.widths, x0, 1)
