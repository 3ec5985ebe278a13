"""The incomplete Ito market: state-price densities and self-financing wealth.

State-price densities follow dY = Y [-r dt + (nu - eta) . dW] with nu in the
orthogonal complement of the admissible subspace; wealth follows
dX = X [r dt + kappa . (dW + eta dt)] - c dt with kappa in the subspace.
Both are simulated with exact per-step log schemes on the shared Brownian
batch and each path's running integral of the short rate, which the caller
supplies (rates.simulate_short_rate); the same kernel simulates the
rate-free log processes of forward and curves.  The backward runs read the
same exact log schemes as one affine map of the increments, built from this
module's coefficient builders (backward.backward_log_map).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .brownian import BrownianBatch
from .grids import DeterministicFn, TimeGrid
from .rates import ShortRateModel
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


def _proportional_rates(consumption: Optional[DeterministicFn], grid: TimeGrid) -> np.ndarray:
    """Consumption rates per unit wealth on the K+1 grid dates; None means 0."""
    psi_fn = DeterministicFn.zero() if consumption is None else consumption
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
    drift: np.ndarray,
    widths: np.ndarray,
    rate_integral: Optional[np.ndarray] = None,
    rate_sign: int = 1,
) -> np.ndarray:
    """Exact per-step log scheme of a unit-initial geometric process with
    deterministic volatility: exp(cumsum(vol . dW + drift * widths) + rate_sign * rate_integral),
    with the value 1 at t_0 (Glasserman 2004, section 3.2).

    increments is (n, K, dim), vol (K, dim), drift (K,) and widths, the step
    widths, (K,) or one scalar.  rate_integral, each path's int_0^{t_k} r as
    (n, K+1) and so 0 at t_0, is added after the cumsum, or subtracted for
    rate_sign = -1 (a state-price density); None leaves a process without a
    rate.  An overflow gives inf or nan without a warning: the caller scans
    the paths (forward._require_in_range).
    """
    out = np.zeros((increments.shape[0], increments.shape[1] + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        drift_step = drift * widths
        # the log increments are summed in blocks of rows, so no (n, K) temporary
        # is allocated beside the output; each row's operations are unchanged
        for b0, b1 in row_blocks(out.shape[0]):
            dlog = np.einsum("nkd,kd->nk", increments[b0:b1], vol)
            dlog += drift_step
            np.cumsum(dlog, axis=1, out=out[b0:b1, 1:])
            if rate_integral is not None:
                # whole rows, which is faster than the strided columns 1..K;
                # the integral is 0 at t_0, so the value there stays 1
                add = np.add if rate_sign > 0 else np.subtract
                add(out[b0:b1], rate_integral[b0:b1], out=out[b0:b1])
        np.exp(out, out=out)
    return out


def state_price_paths(
    market: MarketModel,
    grid: TimeGrid,
    batch: BrownianBatch,
    rate_integral: np.ndarray,
    nu: Optional[DeterministicFn] = None,
) -> np.ndarray:
    """Unit-initial paths (n_paths, k+1) of a state-price density on the
    first k = rate_integral.shape[1] - 1 steps of grid, rate_integral being
    each path's int_0^{t_j} r on those dates; nu = None gives the minimal
    density Y^0.  nu and eta are checked on all K+1 dates of grid.

    Exact log scheme: ln Y_k = sum_{j<k} [(nu - eta) . dW_j - 0.5 |nu - eta|^2 h_j] - int_0^{t_k} r.
    """
    nu = DeterministicFn.zero(market.dim) if nu is None else nu
    vol, drift = _dual_coeffs(market, grid, nu)
    k = rate_integral.shape[1] - 1
    return _exact_log_paths(batch.increments[:, :k, :], vol[:k], drift[:k], grid.widths[:k], rate_integral, -1)


def wealth_paths(
    market: MarketModel,
    grid: TimeGrid,
    batch: BrownianBatch,
    rate_integral: np.ndarray,
    kappa: DeterministicFn,
    consumption: Optional[DeterministicFn] = None,
) -> np.ndarray:
    """Unit-initial paths (n_paths, k+1) of self-financing wealth with
    portfolio volatility kappa on the first k = rate_integral.shape[1] - 1
    steps of grid, rate_integral being each path's int_0^{t_j} r on those
    dates.

    consumption may be None (no consumption) or a nonnegative proportional
    rate psi, meaning c = psi X, simulated with the exact log scheme.
    kappa and psi are checked on all K+1 dates of grid.
    """
    vol, drift = _wealth_coeffs(market, grid, kappa)
    drift -= _proportional_rates(consumption, grid)[:-1]
    k = rate_integral.shape[1] - 1
    return _exact_log_paths(batch.increments[:, :k, :], vol[:k], drift[:k], grid.widths[:k], rate_integral)
