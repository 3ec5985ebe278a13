"""The incomplete Ito market: state-price densities and self-financing wealth.

State-price densities follow dY = Y [-r dt + (nu - eta) . dW] with nu in the
orthogonal complement of the admissible subspace; wealth follows
dX = X [r dt + kappa . (dW + eta dt)] - c dt with kappa in the subspace.
Both are simulated with exact per-step log schemes on the shared Brownian
batch and each path's running integral of the short rate, which the caller
supplies (rates.simulate_short_rate).  Every log state a run reads, these
and the rate-free log processes of forward, curves and backward, is one
affine map of the increments (LogStateMap, built by log_map), read with one
product per block of the streams; a process read at every date of a long
grid is read by a cumulative sum over the steps instead (running_states).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .brownian import BrownianBatch, stream_blocks
from .errors import NumericalRangeError
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
    # here and in _wealth_coeffs a coefficient that overflows gives inf or nan without a warning: the caller scans
    with np.errstate(over="ignore", invalid="ignore"):
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
    with np.errstate(over="ignore", invalid="ignore"):
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


# Row-block size of the temporaries: running_states and the pathwise identities walk
# the paths in blocks of this many rows, which keeps their temporaries cache-sized
# (walking verify's 8,192-row stream block in one pass instead slowed verify
# at 150k paths from 1.52 to 1.71 s, median, 1 thread on 2 vCPUs), and the
# nested inner simulations run in chunks of at most this many rows.  It moves
# no bits; the unit of every mean over paths, and of every log-state product,
# is the random streams' block (brownian.stream_blocks).
_LOG_ROWS = 2048


def row_blocks(n_rows: int) -> list[tuple[int, int]]:
    """(b0, b1) bounds of the row blocks that cover n_rows rows, in order."""
    return [(b0, min(b0 + _LOG_ROWS, n_rows)) for b0 in range(0, n_rows, _LOG_ROWS)]


def _require_in_range(what: str, *paths: np.ndarray) -> None:
    """Raise NumericalRangeError unless every value of the paths is finite
    and > 0, as wealth, state-price densities and Zhat are until they leave
    the range of double precision."""
    # the min is nan, and so not > 0, where some value is nan
    if not all(p.min() > 0 and p.max() < np.inf for p in paths):
        raise NumericalRangeError(
            f"{what} must be strictly positive and finite; wealth or the state-price density "
            "left the range of double precision"
        )


@dataclass(frozen=True)
class LogStateMap:
    """Log states that a run reads, state c being

        const[c] + dW . coeffs[:, c] + rate_sign[c] * I[:, rate_k[c]],

    with dW a path's increments on the first coeffs.shape[0] / dim steps,
    step-major, and I its integrated rate.  Apart from I, every log process
    of the runs is a Gaussian linear map of the increments (Glasserman 2004,
    section 3.1), so a run builds the map of the dates it reads once
    (log_map), and reads each block of paths with one product."""

    const: np.ndarray      # (m,)
    coeffs: np.ndarray     # (k * dim, m)
    rate_k: np.ndarray     # (m,) the date of I that each state reads
    rate_sign: np.ndarray  # (m,) +1 for ln X, -1 for ln Y, 0 for a state without I

    @staticmethod
    def join(maps: Sequence[LogStateMap]) -> LogStateMap:
        """The states of every map, in order; the maps read the same steps."""
        return LogStateMap(*(np.concatenate([getattr(m, f.name) for m in maps], axis=-1) for f in fields(LogStateMap)))

    def select(self, cols: slice) -> LogStateMap:
        """The states cols of the map."""
        return LogStateMap(self.const[cols], self.coeffs[:, cols], self.rate_k[cols], self.rate_sign[cols])

    def log_states(self, batch: BrownianBatch) -> np.ndarray:
        """The (n_paths, m) states on the paths of batch without their parts
        in I.  An overflow gives inf or nan without a warning: the caller
        scans."""
        k = self.coeffs.shape[0] // batch.dim
        if batch.increments.shape[1] < k:
            raise ValueError("the Brownian batch must cover the dates the map reads")
        out = np.empty((batch.n_paths, self.coeffs.shape[1]))
        with np.errstate(over="ignore", invalid="ignore"):
            # BLAS picks its kernel by the shape of a product, and kernels round a
            # row's sum differently; formed per block of the streams, a row gets
            # the same bits in a block's batch as in a batch of all the blocks
            for b0, b1 in stream_blocks(batch.n_paths):
                inc = batch.increments[b0:b1, :k, :].reshape(b1 - b0, -1)
                np.matmul(inc, self.coeffs, out=out[b0:b1])
            out += self.const
        return out

    def levels(self, batch: BrownianBatch, rate_integral: np.ndarray) -> np.ndarray:
        """exp of the states on the paths of batch, whose integrated rate
        rate_integral covers the dates rate_k: levels of Xstar and Ystar or
        ratios of them.  Raises NumericalRangeError unless every one is
        finite and > 0."""
        out = self.log_states(batch)
        with np.errstate(over="ignore", invalid="ignore"):
            out += self.rate_sign * rate_integral[:, self.rate_k]
            np.exp(out, out=out)
        _require_in_range("Xstar and Ystar", out)
        return out


def log_map(vol: np.ndarray, drift: np.ndarray, widths: np.ndarray, k_read, rate_sign: float = 0) -> LogStateMap:
    """The map of the exact log scheme sum_{j<k} [vol_j . dW_j + drift_j h_j]
    of a process with deterministic coefficients (Glasserman 2004, section
    3.2) at the dates k_read, each state reading I at its own date with
    rate_sign.  vol is (K, dim) and drift and widths (K,), K at least the
    last date read.  A coefficient that overflows gives inf or nan without a
    warning."""
    k_read = np.asarray(k_read, dtype=int)
    k_rows = int(k_read.max(initial=0))
    # before[j * dim + d, c]: step j precedes the read date k_read[c]
    before = np.repeat(np.arange(k_rows), vol.shape[1])[:, None] < k_read
    with np.errstate(over="ignore", invalid="ignore"):
        drift_sums = np.concatenate([[0.0], np.cumsum(drift[:k_rows] * widths[:k_rows])])[k_read]
    coeffs = np.where(before, vol[:k_rows].reshape(-1, 1), 0.0)
    return LogStateMap(drift_sums, coeffs, k_read, np.full(len(k_read), float(rate_sign)))


# A map of every date t_0..t_K holds K (K + 1) dim coefficients, half of them
# 0, so its product costs O(K^2) a path where a cumulative sum over the steps
# costs O(K).  running_states takes the product while the map holds at most
# this many, 64 KiB of them: on one 8,192-row block with 1 thread, the sum was
# the faster from about 90 steps at dim 1, 80 at dim 2 and 45 at dim 4.
_RUNNING_PRODUCT_COEFFS = 8192


def running_states(
    vol: np.ndarray, drift: np.ndarray, widths: np.ndarray, k_last: int
) -> Callable[[BrownianBatch], np.ndarray]:
    """The reader of a batch's (n_paths, k_last+1) log states of the exact
    scheme at every date t_0..t_{k_last}, without a rate: log_map's product,
    or past _RUNNING_PRODUCT_COEFFS a cumulative sum over the steps in blocks
    of _LOG_ROWS rows, each row's operations, and so its bits, its own.  An
    overflow gives inf or nan without a warning: the caller scans."""
    if k_last * (k_last + 1) * vol.shape[1] <= _RUNNING_PRODUCT_COEFFS:
        return log_map(vol, drift, widths, np.arange(k_last + 1)).log_states
    with np.errstate(over="ignore", invalid="ignore"):
        vol, drift_step = vol[:k_last], drift[:k_last] * widths[:k_last]

    def walk(batch: BrownianBatch) -> np.ndarray:
        out = np.zeros((batch.n_paths, k_last + 1))
        with np.errstate(over="ignore", invalid="ignore"):
            for b0, b1 in row_blocks(batch.n_paths):
                dlog = np.einsum("nkd,kd->nk", batch.increments[b0:b1, :k_last], vol)
                dlog += drift_step
                np.cumsum(dlog, axis=1, out=out[b0:b1, 1:])
        return out

    return walk


def running_levels(
    states: Callable[[BrownianBatch], np.ndarray],
    batch: BrownianBatch,
    rate_integral: Optional[np.ndarray] = None,
    rate_sign: int = 1,
) -> np.ndarray:
    """exp of running_states' states on the paths of batch, with
    rate_integral, which covers the same dates, added, or subtracted for
    rate_sign = -1 (a state-price density); None leaves a process without a
    rate.  The integral is added in place in whole rows, which is faster
    than the gather of LogStateMap.levels.  An overflow gives inf or nan
    without a warning: the caller scans (_require_in_range)."""
    out = states(batch)
    with np.errstate(over="ignore", invalid="ignore"):
        if rate_integral is not None:
            if rate_integral.shape != out.shape:
                raise ValueError("the integrated rate must cover every date of the states")
            (np.add if rate_sign > 0 else np.subtract)(out, rate_integral, out=out)
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
    return running_levels(running_states(vol, drift, grid.widths, k), batch, rate_integral, -1)


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
    return running_levels(running_states(vol, drift, grid.widths, k), batch, rate_integral)
