"""Backward (fixed-horizon) power-utility problems in a log-normal market.

The market is described at the level of the zero-coupon volatility field
Gamma_s(T): the integrated short rate is simulated directly from its Gaussian
representation, so the terminal constraint that Ystar (Xstar)^alpha be a
deterministic constant at the horizon holds at machine precision when the
optimal volatilities are consistent with Gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence, Union

import numpy as np

from .brownian import BrownianBatch, stream_blocks
from .grids import DeterministicFn, TimeGrid
from .forward import _require_in_range
from .market import MarketModel, state_price_paths, wealth_paths
from .stats import Moments, moments


# ---------------------------------------------------------------------------
# zero-coupon volatility models

# G(x) = sum_{n>=2} (-1)^n (2^n - 2) x^(n-2) / (n+1)!, highest power first;
# below x = 0.2 the terms left out are under 1e-17 of G.
_INT_SQ_SERIES_BELOW = 0.2
_INT_SQ_SERIES = [(-1) ** n * (2**n - 2) / math.factorial(n + 1) for n in range(14, 1, -1)]


@dataclass(frozen=True)
class VasicekGamma:
    """Bond volatility of a mean-reverting Gaussian rate along a fixed noise
    direction: (1 - exp(-a (T - s))) sigma_r / a.

    Placing the direction in the orthogonal complement gives the
    incomplete-market variant in which the rate noise is unhedgeable."""

    a: float
    sigma_r: float
    direction: np.ndarray  # unit noise direction

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise ValueError("mean-reversion speed must be positive")
        d = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "direction", d)
        if abs(np.linalg.norm(d) - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector")

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    def scalar(self, s, t_mat):
        s = np.asarray(s, dtype=float)
        return -np.expm1(-self.a * (t_mat - s)) * self.sigma_r / self.a

    def vectors(self, s, t_mat) -> np.ndarray:
        return np.multiply.outer(self.scalar(s, t_mat), self.direction)

    def int_sq(self, t: float, t_mat: float) -> float:
        """sigma_r^2 tau^3 G(a tau), G(x) = (x - 2 (1 - e^{-x}) + (1 - e^{-2x}) / 2) / x^3.

        The closed form of G cancels catastrophically as a tau -> 0 (its
        relative error grows like 2e-16 / x^3), so below the cutoff G comes
        from its Taylor series.  An overflow reads inf, with numpy's warning,
        where Python's float power would raise OverflowError."""
        tau = t_mat - t
        a, sig = self.a, self.sigma_r
        if a * tau < _INT_SQ_SERIES_BELOW:
            return sig * sig * tau**3 * float(np.polyval(_INT_SQ_SERIES, a * tau))
        e1 = 1.0 - np.exp(-a * tau)
        e2 = 1.0 - np.exp(-2.0 * a * tau)
        return np.float64(sig / a) ** 2 * (tau - 2.0 * e1 / a + e2 / (2.0 * a))

    def limit_sq_rate(self) -> tuple[float, float]:
        # |Gamma| is bounded, so |Gamma|^2 / (T - s) -> 0
        return 0.0, 0.0


@dataclass(frozen=True)
class SyntheticSqrtGamma:
    """Square-root bond-volatility profile |Gamma^R|^2 = c_r (T-s),
    |Gamma^perp|^2 = c_perp (T-s), with fixed directions.

    The squared volatility grows linearly in time to maturity, which makes
    the long-maturity limit of |Gamma|^2 / (T-s) finite and nonzero."""

    c_r: float
    c_perp: float
    dir_r: np.ndarray
    dir_perp: np.ndarray

    def __post_init__(self) -> None:
        if self.c_r < 0 or self.c_perp < 0:
            raise ValueError("variance slopes must be nonnegative")
        dr = np.asarray(self.dir_r, dtype=float)
        dp = np.asarray(self.dir_perp, dtype=float)
        object.__setattr__(self, "dir_r", dr)
        object.__setattr__(self, "dir_perp", dp)
        for d in (dr, dp):
            if abs(np.linalg.norm(d) - 1.0) > 1e-12:
                raise ValueError("directions must be unit vectors")
        if abs(np.dot(dr, dp)) > 1e-12:
            raise ValueError("directions must be orthogonal")

    @property
    def dim(self) -> int:
        return self.dir_r.shape[0]

    def vectors(self, s, t_mat) -> np.ndarray:
        tau = np.maximum(t_mat - np.asarray(s, dtype=float), 0.0)
        return (
            np.multiply.outer(np.sqrt(self.c_r * tau), self.dir_r)
            + np.multiply.outer(np.sqrt(self.c_perp * tau), self.dir_perp)
        )

    def int_sq(self, t: float, t_mat: float) -> float:
        tau = t_mat - t
        return (self.c_r + self.c_perp) * tau * tau / 2.0

    def limit_sq_rate(self) -> tuple[float, float]:
        return self.c_r, self.c_perp


GammaModel = Union[VasicekGamma, SyntheticSqrtGamma]


# ---------------------------------------------------------------------------
# backward problem


@dataclass(frozen=True)
class BackwardSpec:
    """Horizon, risk aversion, bond-volatility model, and market.

    The mean of the integrated short rate comes from the market's rate model."""

    t_horizon: float
    alpha: float
    gamma: GammaModel
    market: MarketModel

    def __post_init__(self) -> None:
        if not self.t_horizon > 0:
            raise ValueError("t_horizon must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.gamma.dim != self.market.dim:
            raise ValueError("gamma model dimension does not match the market")


def solve_backward_vols(spec: BackwardSpec) -> tuple[DeterministicFn, DeterministicFn]:
    """Optimal volatilities pinned by the deterministic terminal constraint.

    nu(t) = -(1 - alpha) Gamma_perp_t(T_H) and
    kappa(t) = (eta(t) - (1 - alpha) Gamma_R_t(T_H)) / alpha.
    """
    alpha, t_h = spec.alpha, spec.t_horizon
    sub = spec.market.subspace

    def nu(t):
        g = spec.gamma.vectors(np.atleast_1d(t), t_h)
        out = -(1.0 - alpha) * sub.component_perp(g)
        return out[0] if np.ndim(t) == 0 else out

    def kappa(t):
        tt = np.atleast_1d(t)
        g = spec.gamma.vectors(tt, t_h)
        eta = np.atleast_2d(spec.market.risk_premium.values(tt))
        out = (eta - (1.0 - alpha) * sub.component_in(g)) / alpha
        return out[0] if np.ndim(t) == 0 else out

    return (
        DeterministicFn(nu, label=f"nu_star(T_H={t_h})"),
        DeterministicFn(kappa, label=f"kappa_star(T_H={t_h})"),
    )


def rate_integral_paths(spec: BackwardSpec, grid: TimeGrid, batch: BrownianBatch) -> np.ndarray:
    """Paths of int_0^{t_k} r ds from the Gaussian representation.

    int_0^t r = F(t) - sum_{j<k} Gamma_{t_j}(t_k) . dW_j with F the mean
    integral of the market's rate model; left-endpoint sampling of Gamma
    keeps the stochastic integral non-anticipative.
    """
    k_steps = grid.n_steps
    times = grid.times
    # G[j, k-1, :] = Gamma_{t_j}(t_k) for j < k, zero otherwise
    g = np.zeros((k_steps, k_steps, spec.market.dim))
    for k in range(1, k_steps + 1):
        g[:k, k - 1, :] = spec.gamma.vectors(times[:k], times[k])
    inc = batch.increments.reshape(batch.n_paths, -1)           # (n, K*dim)
    g_mat = g.transpose(0, 2, 1).reshape(-1, k_steps)           # (K*dim, K)
    out = np.empty((batch.n_paths, k_steps + 1))
    out[:, 0] = 0.0
    # BLAS picks its kernel by the size of a product, and kernels round a
    # row's sum differently; formed per block of the streams, a row gets the
    # same bits in a block's batch as in a batch of all the blocks
    for b0, b1 in stream_blocks(batch.n_paths):
        np.matmul(inc[b0:b1], g_mat, out=out[b0:b1, 1:])        # (rows, K)
    rate = spec.market.rate
    np.subtract(np.asarray(rate.integral_mean(rate.r0, times[1:]), dtype=float), out[:, 1:], out=out[:, 1:])
    return out


def backward_optimal_paths(
    spec: BackwardSpec,
    grid: TimeGrid,
    batch: BrownianBatch,
    nu: DeterministicFn,
    kappa: DeterministicFn,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-initial wealth and state-price paths (x, y), each (n, K+1), of
    the control (nu, kappa) on the shared batch: wealth_paths without
    consumption and state_price_paths, on the rate integral of the Gamma
    representation (rate_integral_paths).

    solve_backward_vols(spec) gives the optimal control; any other, e.g. the
    solution of a different horizon, is deliberately inconsistent, for the
    constraint check.  Raises NumericalRangeError when x or y is not finite
    and > 0 on some path and date.
    """
    if grid.horizon < spec.t_horizon - 1e-12:
        raise ValueError("grid horizon must cover the optimization horizon")
    rate_integral = rate_integral_paths(spec, grid, batch)
    x = wealth_paths(spec.market, grid, batch, rate_integral, kappa)
    y = state_price_paths(spec.market, grid, batch, rate_integral, nu)
    _require_in_range("Xstar and Ystar", x, y)
    return x, y


@dataclass(frozen=True)
class TerminalConstraintReport:
    """Cross-path dispersion of Ystar (Xstar)^alpha at the horizon, from the
    moments, min and max of the terminal products; blocks of paths merge."""

    z: Moments
    lo: float
    hi: float

    def merge(self, other: TerminalConstraintReport) -> TerminalConstraintReport:
        # nan where either block has nan, as np.minimum and np.maximum keep it
        lo, hi = np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi)
        return TerminalConstraintReport(self.z.merge(other.z), lo, hi)

    @property
    def constant(self) -> float:
        return float(self.z.mean)

    @property
    def cv(self) -> float:  # of the population sd
        return float(np.sqrt(self.z.m2 / self.z.n) / self.constant)

    @property
    def max_abs_dev(self) -> float:
        """max |z / mean - 1|, reached at the min or max of z, as the rounded
        quotient and difference are monotone in z."""
        m = self.constant
        return float(np.maximum(np.abs(self.lo / m - 1.0), np.abs(self.hi / m - 1.0)))


def terminal_constraint_check(
    spec: BackwardSpec, grid: TimeGrid, x: np.ndarray, y: np.ndarray
) -> TerminalConstraintReport:
    """Dispersion of Ystar (Xstar)^alpha at the horizon over backward paths
    (x, y) on grid; ~1e-15 for the consistent control."""
    k_h = grid.index_of(spec.t_horizon)
    z = y[:, k_h] * np.power(x[:, k_h], spec.alpha)
    return TerminalConstraintReport(moments(z), np.min(z), np.max(z))


@dataclass(frozen=True)
class HorizonGap:
    """Pathwise gap between the optimal solutions of two horizons at one date."""

    horizon_a: float
    horizon_b: float
    t_common: float
    max_rel_gap_x: float
    max_rel_gap_y: float
    predicted_gap_residual: float  # |simulated / predicted - 1| for the dual ratio

    def merge(self, other: HorizonGap) -> HorizonGap:
        """The gaps over the paths of two blocks: the larger of each, nan
        where either is nan (np.maximum; Python's max may drop a nan)."""
        return replace(
            self,
            max_rel_gap_x=float(np.maximum(self.max_rel_gap_x, other.max_rel_gap_x)),
            max_rel_gap_y=float(np.maximum(self.max_rel_gap_y, other.max_rel_gap_y)),
            predicted_gap_residual=float(np.maximum(self.predicted_gap_residual, other.predicted_gap_residual)),
        )


def _states_at_common_date(
    spec: BackwardSpec,
    horizons: Sequence[float],
    grid: TimeGrid,
    batch: BrownianBatch,
    k_c: int,
) -> dict[float, tuple[DeterministicFn, np.ndarray, np.ndarray]]:
    """(nu, X_{t_c}, Y_{t_c}) of each horizon's optimal solution, t_c = grid.times[k_c].

    The states at t_c depend on the first k_c steps only, and the rate
    integral up to t_c uses Gamma_s(t) for t <= t_c, which no horizon
    changes; so one rate integral on k_c steps serves every horizon, and
    batch needs to cover only [0, t_c].  Each horizon's (nu, kappa) is still
    checked on its whole [0, T_H].
    """
    k_sim = max(k_c, 1)  # a grid has at least one step; t_c = 0 reads column 0
    if batch.increments.shape[1] < k_sim:
        raise ValueError("the Brownian batch must cover [0, t_common]")
    sim_grid = grid.prefix(k_sim)
    sim_batch = BrownianBatch(seed=batch.seed, grid=sim_grid, increments=batch.increments[:, :k_sim, :])
    rate_integral = rate_integral_paths(spec, sim_grid, sim_batch)
    states = {}
    for t_h in horizons:
        nu, kappa = solve_backward_vols(replace(spec, t_horizon=float(t_h)))
        h_grid = grid.prefix(grid.index_of(t_h))
        x = wealth_paths(spec.market, h_grid, sim_batch, rate_integral, kappa)
        y = state_price_paths(spec.market, h_grid, sim_batch, rate_integral, nu)
        _require_in_range("Xstar and Ystar", x, y)
        # copies, so the paths of one horizon are freed before the next is simulated
        states[t_h] = (nu, x[:, k_c].copy(), y[:, k_c].copy())
    return states


def horizon_dependency_experiment(
    spec: BackwardSpec,
    horizons: Sequence[float],
    grid: TimeGrid,
    batch: BrownianBatch,
    t_common: float,
) -> list[HorizonGap]:
    """Compare optimal solutions across horizons on common random numbers:
    one HorizonGap per pair of horizons, in the order of the list.

    The optimal volatilities of horizon T_H enter the dual process, so any
    maturity dependence of Gamma shows up as a pathwise gap at a common
    intermediate date; with maturity-free Gamma the gap is exactly zero.
    Only [0, t_common] is simulated, and batch may hold just those steps of
    grid; the states at t_common match those simulated on each horizon's
    whole grid up to the rounding of the rate-integral sums.  Each
    horizon's wealth and dual paths are scanned as backward_optimal_paths
    scans them, before any gap is formed.

    Every gap and residual is a max over the paths of batch, so batch may be
    one block of the streams (brownian.map_blocks): the blocks' gaps,
    merged in block order by HorizonGap.merge, are those of the whole batch
    bit for bit, while the paths held are one block's.
    """
    if len(horizons) < 2:
        raise ValueError("need at least two horizons")
    if any(t_h < t_common for t_h in horizons):
        raise ValueError("t_common must precede every horizon")
    k_c = grid.index_of(t_common)
    states = _states_at_common_date(spec, horizons, grid, batch, k_c)

    eta_k = np.atleast_2d(spec.market.risk_premium.values(grid.times[:k_c]))
    widths = grid.widths[:k_c]
    gaps = []
    for i, ta in enumerate(horizons):
        for tb in horizons[i + 1 :]:
            (nu_a, xa, ya), (nu_b, xb, yb) = states[ta], states[tb]
            gap_x = float(np.max(np.abs(xa / xb - 1.0)))
            gap_y = float(np.max(np.abs(ya / yb - 1.0)))

            # the dual ratio is predictable from the volatility differences
            na = np.atleast_2d(nu_a.values(grid.times[:k_c]))
            nb = np.atleast_2d(nu_b.values(grid.times[:k_c]))
            mart = np.einsum("nkd,kd->nk", batch.increments[:, :k_c, :], na - nb).sum(axis=1)
            conv = 0.5 * np.dot(np.sum((na - eta_k) ** 2, axis=1) - np.sum((nb - eta_k) ** 2, axis=1), widths)
            # the integrated-rate parts differ only through Gamma(. , t) for t <= t_common,
            # which is horizon-free; they cancel in the ratio
            predicted = np.exp(mart - conv)
            resid = float(np.max(np.abs((ya / yb) / predicted - 1.0)))
            gaps.append(
                HorizonGap(
                    horizon_a=float(ta),
                    horizon_b=float(tb),
                    t_common=float(t_common),
                    max_rel_gap_x=gap_x,
                    max_rel_gap_y=gap_y,
                    predicted_gap_residual=resid,
                )
            )
    return gaps
