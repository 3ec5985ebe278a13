"""Backward (fixed-horizon) power-utility problems in a log-normal market.

The market is described at the level of the zero-coupon volatility field
Gamma_s(T): the integrated short rate is simulated directly from its Gaussian
representation, so the terminal constraint that Ystar (Xstar)^alpha be a
deterministic constant at the horizon holds at machine precision when the
optimal volatilities are consistent with Gamma.  A run reads its log states
as one affine map of the Brownian increments (LogStateMap), built once, plus
or minus that integrated rate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence, Union

import numpy as np

from .brownian import BrownianBatch
from .errors import NumericalRangeError
from .grids import DeterministicFn, TimeGrid
from .market import LogStateMap, MarketModel, _dual_coeffs, _wealth_coeffs, log_map
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


# ---------------------------------------------------------------------------
# log states as one affine map of the increments (market.LogStateMap)


def _rate_integral_map(spec: BackwardSpec, times: np.ndarray, k_read: Sequence[int]) -> LogStateMap:
    """int_0^{t_k} r ds at the dates k_read of times, from the Gaussian
    representation F(t_k) - sum_{j<k} Gamma_{t_j}(t_k) . dW_j, F being the
    mean integral of the market's rate model: one Gamma call per read date.
    Left-endpoint sampling of Gamma keeps the stochastic integral
    non-anticipative.  A Gamma that overflows gives inf, without a warning."""
    k_read = np.asarray(k_read, dtype=int)
    g = np.zeros((int(k_read.max(initial=0)), spec.market.dim, len(k_read)))
    with np.errstate(over="ignore", invalid="ignore"):
        for c, k in enumerate(k_read):
            if k:
                g[:k, :, c] = spec.gamma.vectors(times[:k], times[k])
    rate = spec.market.rate
    mean = np.asarray(rate.integral_mean(rate.r0, times[k_read]), dtype=float)
    return LogStateMap(mean, -g.reshape(-1, len(k_read)), np.zeros(len(k_read), dtype=int), np.zeros(len(k_read)))


def rate_integral_paths(spec: BackwardSpec, grid: TimeGrid, batch: BrownianBatch) -> np.ndarray:
    """Paths (n, K+1) of int_0^{t_k} r ds from the Gaussian representation,
    on every date of grid (_rate_integral_map): the integrated rate every
    backward state reads."""
    return _rate_integral_map(spec, grid.times, np.arange(grid.n_steps + 1)).log_states(batch)


def backward_log_map(
    spec: BackwardSpec,
    grid: TimeGrid,
    nu: DeterministicFn,
    kappa: DeterministicFn,
    k_read: Sequence[int],
) -> LogStateMap:
    """ln X and ln Y of the unit-initial pair of the control (nu, kappa) at
    the dates k_read of grid, as the states [ln X at k_read, ln Y at k_read]:

        ln X_k = sum_{j<k} [kappa_j . dW_j + (kappa_j . eta_j - |kappa_j|^2 / 2) h_j] + int_0^{t_k} r,
        ln Y_k = sum_{j<k} [(nu_j - eta_j) . dW_j - |nu_j - eta_j|^2 h_j / 2] - int_0^{t_k} r,

    the maps of market.wealth_paths and state_price_paths (market.log_map),
    the integrated rate added, or subtracted for Y, after the sum.  The
    coefficients come from market._wealth_coeffs and _dual_coeffs, which
    check them on every date of grid; raises NumericalRangeError where a or
    B is not finite, as the state is then not finite on any path.

    solve_backward_vols(spec) gives the optimal control; any other, e.g. the
    solution of a different horizon, is deliberately inconsistent, for the
    constraint check.
    """
    x, y = _wealth_coeffs(spec.market, grid, kappa), _dual_coeffs(spec.market, grid, nu)
    states = LogStateMap.join([log_map(*x, grid.widths, k_read, 1), log_map(*y, grid.widths, k_read, -1)])
    if not (np.all(np.isfinite(states.const)) and np.all(np.isfinite(states.coeffs))):
        raise NumericalRangeError(
            "Xstar and Ystar must be strictly positive and finite; the coefficients of their logs "
            "left the range of double precision"
        )
    return states


def backward_optimal_paths(
    spec: BackwardSpec,
    grid: TimeGrid,
    batch: BrownianBatch,
    nu: DeterministicFn,
    kappa: DeterministicFn,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-initial wealth and state-price paths (x, y), each (n, K+1), of
    the control (nu, kappa) on the shared batch: backward_log_map read on
    every date of grid, on the rate integral of the Gamma representation
    (rate_integral_paths), the whole-path form of what the runs read.
    Raises NumericalRangeError when x or y is not finite and > 0 on some
    path and date.
    """
    if grid.horizon < spec.t_horizon - 1e-12:
        raise ValueError("grid horizon must cover the optimization horizon")
    k_all = np.arange(grid.n_steps + 1)
    levels = backward_log_map(spec, grid, nu, kappa, k_all).levels(batch, rate_integral_paths(spec, grid, batch))
    return levels[:, : len(k_all)], levels[:, len(k_all) :]


@dataclass(frozen=True)
class TerminalConstraintReport:
    """Cross-path dispersion of Ystar (Xstar)^alpha at the horizon, from the
    moments, min and max of the terminal products; blocks of paths merge."""

    z: Moments
    lo: float
    hi: float

    @classmethod
    def of(cls, alpha: float, x_h: np.ndarray, y_h: np.ndarray) -> TerminalConstraintReport:
        """The report of the terminal products y_h x_h^alpha of backward
        paths at the horizon; cv ~1e-15 for the consistent control."""
        z = y_h * np.power(x_h, alpha)
        return cls(moments(z), np.min(z), np.max(z))

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


class HorizonGap(NamedTuple):
    """Pathwise gap between the optimal solutions of two horizons at one
    date: maxima over paths, which stats.merge merges across blocks."""

    max_rel_gap_x: float
    max_rel_gap_y: float
    predicted_gap_residual: float  # |simulated / predicted - 1| for the dual ratio


@dataclass(frozen=True)
class HorizonMap:
    """The horizon experiment's map, built once per run (horizon_map): ln X
    and ln Y of each horizon's optimum at t_common, then the predicted
    ln(Y_a / Y_b) of each pair a < b of horizons, in the order of the list;
    and the spec and grid of [0, t_common] whose integrated rate they read."""

    horizons: tuple[float, ...]
    log_map: LogStateMap
    spec: BackwardSpec
    rate_grid: TimeGrid


def horizon_map(spec: BackwardSpec, horizons: Sequence[float], grid: TimeGrid, t_common: float) -> HorizonMap:
    """Solve each horizon's optimal volatilities and check them on its whole
    [0, T_H] of grid, then map its states at t_common, on the first k_c steps.

    The integrated rate up to t_common uses Gamma_s(t) for t <= t_common,
    which no horizon changes, so one rate integral on the k_c common steps
    serves every horizon.  The predicted dual ratio of a pair comes from its
    volatilities alone: its integrated-rate parts cancel, so ln(Y_a / Y_b) is
    sum_j (nu_a - nu_b) . dW_j - (|nu_a - eta|^2 - |nu_b - eta|^2) h_j / 2,
    summed over the steps before t_common.
    """
    if len(horizons) < 2:
        raise ValueError("need at least two horizons")
    if any(t_h < t_common for t_h in horizons):
        raise ValueError("t_common must precede every horizon")
    k_c = grid.index_of(t_common)
    maps, nus = [], []
    for t_h in horizons:
        nu, kappa = solve_backward_vols(replace(spec, t_horizon=float(t_h)))
        maps.append(backward_log_map(spec, grid.prefix(grid.index_of(t_h)), nu, kappa, [k_c]))
        nus.append(np.atleast_2d(nu.values(grid.times[:k_c])))

    eta_k = np.atleast_2d(spec.market.risk_premium.values(grid.times[:k_c]))
    sq = [np.sum((n - eta_k) ** 2, axis=1) for n in nus]
    pairs = list(itertools.combinations(range(len(horizons)), 2))
    conv = [0.5 * np.dot(sq[i] - sq[j], grid.widths[:k_c]) for i, j in pairs]
    coeffs = np.column_stack([(nus[i] - nus[j]).reshape(-1) for i, j in pairs])
    maps.append(LogStateMap(-np.array(conv), coeffs, np.zeros(len(pairs), dtype=int), np.zeros(len(pairs))))
    # a grid has at least one step; t_common = 0 reads the rate integral's date 0
    return HorizonMap(
        tuple(float(t) for t in horizons), LogStateMap.join(maps), spec, grid.prefix(max(k_c, 1))
    )


def horizon_dependency_experiment(hmap: HorizonMap, batch: BrownianBatch) -> list[HorizonGap]:
    """Compare optimal solutions across horizons on common random numbers:
    one HorizonGap per pair of horizons of hmap, in the order of
    itertools.combinations(hmap.horizons, 2).

    The optimal volatilities of horizon T_H enter the dual process, so any
    maturity dependence of Gamma shows up as a pathwise gap at a common
    intermediate date; with maturity-free Gamma the gap is exactly zero.
    Only [0, t_common] is read, and batch may hold just those steps.  Every
    state is scanned before any gap is formed.

    Every gap and residual is a max over the paths of batch, so batch may be
    one block of the streams (brownian.map_blocks): the blocks' gaps,
    merged in block order by stats.merge, are those of the whole batch
    bit for bit, while the paths held are one block's.
    """
    n_h = len(hmap.horizons)
    levels = hmap.log_map.levels(batch, rate_integral_paths(hmap.spec, hmap.rate_grid, batch))
    x, y, predicted = levels[:, 0 : 2 * n_h : 2], levels[:, 1 : 2 * n_h : 2], levels[:, 2 * n_h :]
    return [
        HorizonGap(
            max_rel_gap_x=float(np.max(np.abs(x[:, i] / x[:, j] - 1.0))),
            max_rel_gap_y=float(np.max(np.abs(y[:, i] / y[:, j] - 1.0))),
            predicted_gap_residual=float(np.max(np.abs((y[:, i] / y[:, j]) / predicted[:, p] - 1.0))),
        )
        for p, (i, j) in enumerate(itertools.combinations(range(n_h), 2))
    ]
