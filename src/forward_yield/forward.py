"""Optimal processes of the consumption-consistent forward power utility.

The family is parameterized by free deterministic data: the optimal portfolio
volatility kappa_star (in the admissible subspace), the optimal dual
volatility nu_star (in its complement), and the consumption rate per unit of
wealth psi_hat.  The coefficient paths Zhat_t = Ystar_t Xstar_t^alpha then
define the utility, and every identity below is available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .brownian import BrownianBatch
from .errors import SubspaceViolationError
from .grids import DeterministicFn, TimeGrid
from .market import (
    MarketModel,
    _proportional_rates,
    _require_in_range,
    _wealth_coeffs,
    row_blocks,
    running_levels,
    running_states,
    state_price_paths,
    wealth_paths,
)
from .rates import RatePaths, simulate_short_rate
from .stats import DriftReport, linear_drift_reports
from .utility import PowerUtility


@dataclass(frozen=True)
class ForwardPowerSpec:
    """Free characteristics (alpha, kappa_star, nu_star, psi_hat) of the family."""

    alpha: float
    kappa_star: DeterministicFn  # dim-vector in the admissible subspace
    nu_star: DeterministicFn     # dim-vector in the orthogonal complement
    psi_hat: DeterministicFn     # nonnegative consumption rate per unit wealth

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")


@dataclass(frozen=True)
class OptimalTriple:
    """Unit-initial optimal wealth x, state-price density y, and Zhat paths,
    each (n_paths, n_steps+1).

    Both optimal processes are linear in their initial condition, so
    Xstar(x0) = x0 * x and Ystar(y0) = y0 * y.  The coefficient paths
    satisfy zhat = y * x^alpha exactly.
    """

    spec: ForwardPowerSpec
    market: MarketModel
    grid: TimeGrid
    batch: BrownianBatch
    rate_paths: RatePaths
    x: np.ndarray
    y: np.ndarray
    zhat: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.zhat.shape[0]


def reading_grid(
    spec: ForwardPowerSpec, market: MarketModel, grid: TimeGrid, read: Iterable[int]
) -> tuple[TimeGrid, list[int]]:
    """The dates of grid that simulate_optimal must step through to give the
    paths at the read indices the law they have on all of grid, and the index
    of each read date on them.

    Every scheme in use is exact at any step size when the coefficients are
    constant over a step, so the sub-grid holds date 0, the read dates, and
    the first date at or after each knot of kappa, nu, psi and eta that lies
    before the last date read; a coefficient without knots keeps every date.
    """
    read = [int(k) for k in read]
    keep = {0, *read}
    last = max(keep)
    for fn in (spec.kappa_star, spec.nu_star, spec.psi_hat, market.risk_premium):
        dates = np.arange(grid.n_steps + 1) if fn.times is None else np.searchsorted(grid.times, fn.times)
        keep.update(dates[dates < last].tolist())
    keep = sorted(keep)
    return grid.subgrid(keep), [keep.index(k) for k in read]


def simulate_optimal(
    spec: ForwardPowerSpec,
    market: MarketModel,
    grid: TimeGrid,
    batch: BrownianBatch,
) -> OptimalTriple:
    """Simulate the optimal pair on a shared batch: the short rate, then
    wealth_paths and state_price_paths on its running integral, which check
    kappa, psi, nu and eta on every grid date.

    Raises NumericalRangeError when Zhat is not finite and > 0 on some path
    and date, i.e. wealth or the state-price density under- or overflowed."""
    rate_paths = simulate_short_rate(market.rate, grid, batch)
    x = wealth_paths(market, grid, batch, rate_paths.integral, spec.kappa_star, spec.psi_hat)
    y = state_price_paths(market, grid, batch, rate_paths.integral, spec.nu_star)
    # an overflow, and the nan of 0 * inf it leads to, is reported by the scan below
    with np.errstate(over="ignore", invalid="ignore"):
        zhat = np.power(x, spec.alpha)
        np.multiply(y, zhat, out=zhat)
    _require_in_range("Zhat", zhat)
    return OptimalTriple(
        spec=spec,
        market=market,
        grid=grid,
        batch=batch,
        rate_paths=rate_paths,
        x=x,
        y=y,
        zhat=zhat,
    )


# ---------------------------------------------------------------------------
# closed-form identity checks


def _max_rel_gap(values: np.ndarray, reference: np.ndarray) -> float:
    """max |values / reference - 1|, formed in the buffer of values."""
    values /= reference
    values -= 1.0
    return float(np.max(np.abs(values, out=values)))


def first_order_check(triple: OptimalTriple, x0: float = 1.0, y0: Optional[float] = None) -> float:
    """max |U_x(t, Xstar_t(x0)) / Ystar_t(y0) - 1| over paths and dates, y0
    defaulting to the consistent u_x(x0).

    The marginal-utility side is evaluated through the utility calculus and
    the dual side through the simulated state-price density; for consistent
    initial conditions both reduce to x0^(-alpha) Ystar_t.  As V = psi_hat^alpha U,
    V_c(t, psi_hat x) = U_x(t, x), so this is also the consumption condition
    V_c(t, cstar_t) = Ystar_t.
    """
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    alpha = triple.spec.alpha
    if y0 is None:
        y0 = x0 ** (-alpha)
    # the paths are walked in row blocks, so every temporary is cache-sized:
    # one pass over verify's 8,192-row stream block made verify at 150k paths
    # slower (median 1.52 -> 1.71 s, 1 thread on 2 vCPUs); the max over blocks
    # is the max over paths
    gaps = []
    for b0, b1 in row_blocks(triple.n_paths):
        marg = np.power(x0 * triple.x[b0:b1], -alpha)
        gaps.append(_max_rel_gap(np.multiply(triple.zhat[b0:b1], marg, out=marg), y0 * triple.y[b0:b1]))
    return max(gaps)


@dataclass(frozen=True)
class HJBReport:
    """Residuals of the drift constraint and the recovered optimal policy."""

    drift_lhs: np.ndarray        # (n_t, n_x) drift characteristic of the field
    drift_rhs: np.ndarray        # (n_t, n_x) HJB right-hand side
    policy_residual: np.ndarray  # (n_t,) max |kappa_bar - kappa_star| over x

    @property
    def max_rel_residual(self) -> float:
        denom = np.maximum(np.maximum(np.abs(self.drift_lhs), np.abs(self.drift_rhs)), 1e-300)
        return float(np.max(np.abs(self.drift_lhs - self.drift_rhs) / denom))

    @property
    def max_policy_residual(self) -> float:
        return float(np.max(self.policy_residual))


def hjb_residual(
    triple: OptimalTriple,
    t_indices: Optional[np.ndarray] = None,
    x_grid: Optional[np.ndarray] = None,
    path: int = 0,
    drift_perturbation: float = 0.0,
) -> HJBReport:
    """Evaluate both sides of the drift constraint on a (t, x) grid.

    The left side is the closed-form drift characteristic of the utility
    field; the right side combines the marginal-utility terms with the
    conjugate of the consumption utility and the policy recovered from the
    diffusion characteristic.  Both sides are evaluated along one simulated
    path of (Zhat, r); the identity is pathwise, so any path works.
    drift_perturbation shifts the drift coefficient, for sensitivity checks.
    """
    spec, market, grid = triple.spec, triple.market, triple.grid
    alpha = spec.alpha
    base = PowerUtility(alpha)
    if t_indices is None:
        t_indices = np.linspace(0, grid.n_steps, 20).astype(int)
    if x_grid is None:
        x_grid = np.geomspace(0.1, 10.0, 20)
    t_indices = np.asarray(t_indices, dtype=int)
    x_grid = np.asarray(x_grid, dtype=float)

    times = grid.times[t_indices]
    kappa = np.atleast_2d(spec.kappa_star.values(times))
    nu = np.atleast_2d(spec.nu_star.values(times))
    eta = np.atleast_2d(market.risk_premium.values(times))
    psi = np.asarray(spec.psi_hat.values(times), dtype=float)
    r = triple.rate_paths.r[path, t_indices]
    zhat = triple.zhat[path, t_indices]

    u_val = base.value(x_grid)[None, :]
    u_x = base.marginal(x_grid)[None, :]
    u_xx = base.second(x_grid)[None, :]

    k2 = np.sum(kappa * kappa, axis=1)
    drift_coeff = zhat * (-(1.0 - alpha) * r - 0.5 * alpha * (1.0 - alpha) * k2 - alpha * psi)
    drift_lhs = (drift_coeff + drift_perturbation)[:, None] * u_val

    # policy recovered from the diffusion characteristic of the marginal field
    gamma_coeff = zhat[:, None] * (alpha * kappa + nu - eta)        # (n_t, dim)
    gamma_r = market.subspace.component_in(gamma_coeff)
    big_ux = zhat[:, None] * u_x                                     # (n_t, n_x)
    big_uxx = zhat[:, None] * u_xx
    # x kappa_bar = -(U_x eta + gamma_x^R) / U_xx, with gamma_x = gamma_coeff u_x(x)
    numer = big_ux[:, :, None] * eta[:, None, :] + gamma_r[:, None, :] * u_x[:, :, None]
    x_kappa_bar = -numer / big_uxx[:, :, None]                       # (n_t, n_x, dim)
    kappa_bar = x_kappa_bar / x_grid[None, :, None]
    policy_residual = np.max(np.linalg.norm(kappa_bar - kappa[:, None, :], axis=2), axis=1)

    # conjugate of the consumption utility V = psi_hat^alpha U at U_x:
    # psi_hat Zhat^(1/alpha) utilde(Zhat u_x) = psi_hat Zhat utilde(u_x), as
    # utilde(lambda y) = lambda^(1 - 1/alpha) utilde(y); Zhat^(1/alpha) alone
    # overflows at small alpha
    dual = (psi * zhat)[:, None] * base.conjugate(u_x)
    qb = np.sum(x_kappa_bar * x_kappa_bar, axis=2)
    drift_rhs = -big_ux * x_grid[None, :] * r[:, None] + 0.5 * big_uxx * qb - dual

    return HJBReport(drift_lhs=drift_lhs, drift_rhs=drift_rhs, policy_residual=policy_residual)


def representation_check(triple: OptimalTriple, x_grid: Optional[np.ndarray] = None) -> float:
    """Marginal-utility transport: U_x(t, x) = Ystar_t(u_x((Xstar_t)^{-1}(x))).

    For the linear optimal flow the inverse is x / Xstar_t; both sides reduce
    to Zhat_t x^(-alpha) and the max relative gap over the first 1,024
    paths, times, and the x grid is returned.
    """
    if x_grid is None:
        x_grid = np.geomspace(0.1, 10.0, 11)
    alpha = triple.spec.alpha
    n = min(1024, triple.n_paths)
    zhat, xs, ys = triple.zhat[:n], triple.x[:n], triple.y[:n]
    # one (n, K+1) pass per point of the x grid, and the max of their maxima
    powers = np.power(x_grid, -alpha)
    return max(_max_rel_gap(zhat * p, ys * np.power(x / xs, -alpha)) for x, p in zip(x_grid, powers))


# ---------------------------------------------------------------------------
# consistency (supermartingale / martingale) drift tests


def _strategy_steps(
    triple: OptimalTriple, kappa: Optional[DeterministicFn] = None, consumption: Optional[DeterministicFn] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The per-step volatility (K, dim) and drift (K,) of ln F^(1-alpha)
    (value_process), and A and B (consistency_drift_test), of the strategy
    (kappa, c = psi X)."""
    spec, market, grid = triple.spec, triple.market, triple.grid
    alpha = spec.alpha
    vol_star, drift_star = _wealth_coeffs(market, grid, spec.kappa_star)
    vol, drift = (vol_star, drift_star) if kappa is None else _wealth_coeffs(market, grid, kappa)
    psi_star = _proportional_rates(spec.psi_hat, grid)[:-1]
    psi = psi_star if consumption is None else _proportional_rates(consumption, grid)[:-1]
    drift = (1.0 - alpha) * (drift - drift_star - (psi - psi_star))
    half = 0.5 * grid.widths * np.power(psi_star, alpha) * np.power(psi, 1.0 - alpha)
    return (1.0 - alpha) * (vol - vol_star), drift, 1.0 + half, 1.0 - half


def value_process(
    triple: OptimalTriple, kappa: Optional[DeterministicFn] = None, consumption: Optional[DeterministicFn] = None
) -> np.ndarray:
    """Paths of U(t, X_t) for the proportional strategy (kappa, c = psi X),
    None meaning kappa_star or psi_hat, on the optimal triple's paths, which
    it reweights without simulating wealth: F = X / Xstar drops the rate,
    U = P F^(1-alpha) / (1-alpha) with P = Y Xstar as Zhat = Y Xstar^alpha, and
    ln F_k = sum_{j<k} [dkappa . dW_j + (dkappa . eta - d|kappa|^2 / 2 - dpsi) h_j],
    d meaning the change from the optimum, read from the path engine's map."""
    dvol, drift, _, _ = _strategy_steps(triple, kappa, consumption)
    f = running_levels(running_states(dvol, drift, triple.grid.widths, triple.grid.n_steps), triple.batch)
    # U is formed date by date, the layout in which linear_drift_reports sums its columns
    u = np.multiply(triple.y.T, triple.x.T, out=np.empty(f.shape[::-1]))
    u *= f.T
    u /= 1.0 - triple.spec.alpha
    return u.T


def consistency_drift_test(
    triple: OptimalTriple, *, strategies: Sequence[Mapping[str, Optional[DeterministicFn]]]
) -> list[DriftReport]:
    """Drift of G_t = U(t, X^{kappa,c}_t) + int V(s, c_s) ds over the triple's
    paths, one report per strategy (a mapping of kappa and consumption, a
    missing or None one meaning kappa_star or psi_hat), from one pass over P.
    The optimal drift is zero up to the trapezoid rule's bias, on which its
    t statistics are centred; any admissible perturbation makes it
    nonpositive, detectably once large.

    The trapezoid weighs both ends of step k with w_k = psi_hat_k^alpha
    psi_k^(1-alpha), the wealth scheme's rate, so G_{k+1} - G_k = A_k U_{k+1}
    - B_k U_k with A, B = 1 +- h_k w_k / 2.  Unless kappa changes, U = D_k P,
    and those rows come from the column moments of P together.  As
    E[P_{k+1} | P_k] = P_k e^(-psi_hat_k h_k), the optimal row's bias is
    E[P_k] (A_k e^(-psi_hat_k h_k) - B_k) / (1-alpha)."""
    grid = triple.grid
    reports, shared = {}, {}  # shared: strategy index -> A_k D_{k+1}, B_k D_k, whether it is the optimum
    for i, strategy in enumerate(strategies):
        dvol, drift, a, b = _strategy_steps(triple, **strategy)
        if np.any(dvol):
            (reports[i],) = linear_drift_reports(value_process(triple, **strategy), a, b)
        else:
            log_d = np.cumsum(np.r_[-np.log1p(-triple.spec.alpha), drift * grid.widths])
            shared[i] = (np.exp(log_d[1:]) * a, np.exp(log_d[:-1]) * b, np.ptp(log_d) == 0)
    if shared:
        a, b, optimal = map(np.array, zip(*shared.values()))
        p = np.multiply(triple.y.T, triple.x.T, out=np.empty(triple.x.shape[::-1]))  # date by date, as reduced
        psi_h = _proportional_rates(triple.spec.psi_hat, grid)[:-1] * grid.widths
        bias = np.exp(-np.r_[0.0, np.cumsum(psi_h)[:-1]]) * (a * np.exp(-psi_h) - b)
        for r, (i, report) in enumerate(zip(shared, linear_drift_reports(p.T, a, b))):
            reports[i] = replace(report, bias=bias[r]) if optimal[r] else report
    return [reports[i] for i in range(len(strategies))]


def perturbed_kappa(spec: ForwardPowerSpec, market: MarketModel, epsilon: float) -> DeterministicFn:
    """kappa_star + epsilon * e on the knots of kappa_star, with e its unit
    direction, or the subspace's first basis vector where kappa_star is 0.
    Raises SubspaceViolationError on a trivial subspace, where no kappa can move."""
    if not market.subspace.basis.shape[0]:
        raise SubspaceViolationError("perturbed_kappa: the admissible subspace is trivial, so kappa_star cannot move")
    kappa = spec.kappa_star(spec.kappa_star.times)
    norms = np.linalg.norm(kappa, axis=-1, keepdims=True)
    unit = np.where(norms > 0, kappa / np.maximum(norms, 1e-300), market.subspace.basis[0])
    return DeterministicFn.table(spec.kappa_star.times, kappa + epsilon * unit)


def scaled_consumption(spec: ForwardPowerSpec, factor: float) -> DeterministicFn:
    """Consumption rate scaled to factor * psi_hat (still proportional), on the knots of psi_hat."""
    return DeterministicFn.table(spec.psi_hat.times, factor * spec.psi_hat(spec.psi_hat.times))
