"""Optimal processes of the consumption-consistent forward power utility.

The family is parameterized by free deterministic data: the optimal portfolio
volatility kappa_star (in the admissible subspace), the optimal dual
volatility nu_star (in its complement), and the consumption rate per unit of
wealth psi_hat.  The coefficient paths Zhat_t = Ystar_t Xstar_t^alpha then
define the utility, and every identity below is available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .brownian import BrownianBatch
from .grids import DeterministicFn, TimeGrid
from .market import (
    ConsumptionRule,
    MarketModel,
    StatePricePaths,
    WealthPaths,
    _dual_coeffs,
    _exact_log_paths,
    _proportional_rates,
    _running_trapezoid,
    _wealth_coeffs,
    wealth_paths,
)
from .rates import RatePaths, simulate_short_rate
from .stats import DriftReport, interval_drift_report
from .utility import PowerUtility, ProgressivePowerUtility


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
    """Unit-initial optimal wealth, state-price density, and Zhat paths.

    Both optimal processes are linear in their initial condition, so
    Xstar(x) = x * wealth.values and Ystar(y) = y * state_price.values.
    The coefficient paths satisfy zhat = Ystar * Xstar^alpha exactly.
    """

    spec: ForwardPowerSpec
    market: MarketModel
    grid: TimeGrid
    batch: BrownianBatch
    rate_paths: RatePaths
    wealth: WealthPaths
    state_price: StatePricePaths
    zhat: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.zhat.shape[0]

    @cached_property
    def utility(self) -> ProgressivePowerUtility:
        return ProgressivePowerUtility(
            alpha=self.spec.alpha, zhat=self.zhat, psi_hat=self.spec.psi_hat, grid=self.grid
        )


def simulate_optimal(
    spec: ForwardPowerSpec,
    market: MarketModel,
    grid: TimeGrid,
    batch: BrownianBatch,
) -> OptimalTriple:
    """Simulate the optimal pair with exact log schemes on a shared batch,
    the same steps as wealth_paths and state_price_paths; kappa, nu, eta and
    psi are checked on every grid date, once each, before any simulation."""
    x_vol, x_drift = _wealth_coeffs(market, grid, spec.kappa_star)
    y_vol, y_drift = _dual_coeffs(market, grid, spec.nu_star)
    psi_all = _proportional_rates(spec.psi_hat, grid)
    rate_paths = simulate_short_rate(market.rate, grid, batch)
    steps = rate_paths.step_integrals()
    x = _exact_log_paths(batch.increments, x_vol, steps, x_drift - psi_all[:-1], grid.dt, 1.0)
    y = _exact_log_paths(batch.increments, y_vol, np.negative(steps, out=steps), y_drift, grid.dt, 1.0)
    del steps
    zhat = np.power(x, spec.alpha)
    np.multiply(y, zhat, out=zhat)
    return OptimalTriple(
        spec=spec,
        market=market,
        grid=grid,
        batch=batch,
        rate_paths=rate_paths,
        wealth=WealthPaths(grid=grid, values=x, kappa=spec.kappa_star, consumption=psi_all * x, x0=1.0),
        state_price=StatePricePaths(grid=grid, values=y, nu=spec.nu_star, y0=1.0),
        zhat=zhat,
    )


# ---------------------------------------------------------------------------
# closed-form identity checks


@dataclass(frozen=True)
class FirstOrderReport:
    """Pathwise residuals of the first-order optimality identities."""

    max_rel_wealth: float        # | U_x(t, Xstar_t(x0)) / Ystar_t(y0) - 1 |
    max_rel_consumption: float   # | V_c(t, cstar_t) / Ystar_t(y0) - 1 |, nan if psi == 0
    initial_conditions_consistent: bool

    @property
    def max_rel(self) -> float:
        vals = [self.max_rel_wealth]
        if np.isfinite(self.max_rel_consumption):
            vals.append(self.max_rel_consumption)
        return max(vals)


def _max_rel_gap(values: np.ndarray, reference: np.ndarray) -> float:
    """max |values / reference - 1|, formed in the buffer of values."""
    values /= reference
    values -= 1.0
    return float(np.max(np.abs(values, out=values)))


def first_order_check(triple: OptimalTriple, x0: float = 1.0, y0: Optional[float] = None) -> FirstOrderReport:
    """Check U_x(t, Xstar_t(x0)) = Ystar_t(y0) = V_c(t, cstar_t) pathwise.

    The marginal-utility side is evaluated through the utility calculus and
    the dual side through the simulated state-price density; for consistent
    initial conditions (y0 = u_x(x0)) both reduce to x0^(-alpha) Ystar_t.
    """
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    alpha = triple.spec.alpha
    ux0 = x0 ** (-alpha)
    if y0 is None:
        y0 = ux0
    consistent = abs(y0 / ux0 - 1.0) <= 1e-12

    x_paths = x0 * triple.wealth.values
    y_paths = y0 * triple.state_price.values
    marg = np.power(x_paths, -alpha)
    rel_wealth = _max_rel_gap(np.multiply(triple.zhat, marg, out=marg), y_paths)

    psi_all = np.asarray(triple.spec.psi_hat.values(triple.grid.times), dtype=float)
    active = psi_all > 0
    if np.any(active):
        active = slice(None) if np.all(active) else active  # every date: views, not copies
        vc = np.multiply(psi_all[active], x_paths[:, active])
        np.power(vc, -alpha, out=vc)
        np.multiply((psi_all[active] ** alpha) * triple.zhat[:, active], vc, out=vc)
        rel_cons = _max_rel_gap(vc, y_paths[:, active])
    else:
        rel_cons = float("nan")
    return FirstOrderReport(
        max_rel_wealth=rel_wealth,
        max_rel_consumption=rel_cons,
        initial_conditions_consistent=consistent,
    )


@dataclass(frozen=True)
class HJBReport:
    """Residuals of the drift constraint and the recovered optimal policy."""

    t_indices: np.ndarray
    x_grid: np.ndarray
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
    util = triple.utility

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

    dual = np.empty_like(big_ux)
    for i, k in enumerate(t_indices):
        dual[i] = util.consumption_dual(int(k), big_ux[i], path=path)
    qb = np.sum(x_kappa_bar * x_kappa_bar, axis=2)
    drift_rhs = -big_ux * x_grid[None, :] * r[:, None] + 0.5 * big_uxx * qb - dual

    return HJBReport(
        t_indices=t_indices,
        x_grid=x_grid,
        drift_lhs=drift_lhs,
        drift_rhs=drift_rhs,
        policy_residual=policy_residual,
    )


def representation_check(triple: OptimalTriple, x_grid: Optional[np.ndarray] = None, max_paths: int = 1024) -> float:
    """Marginal-utility transport: U_x(t, x) = Ystar_t(u_x((Xstar_t)^{-1}(x))).

    For the linear optimal flow the inverse is x / Xstar_t; both sides reduce
    to Zhat_t x^(-alpha) and the max relative gap over paths, times, and the
    x grid is returned.
    """
    if x_grid is None:
        x_grid = np.geomspace(0.1, 10.0, 11)
    alpha = triple.spec.alpha
    n = min(max_paths, triple.n_paths)
    zhat = triple.zhat[:n]
    xs = triple.wealth.values[:n]
    ys = triple.state_price.values[:n]
    lhs = zhat[:, :, None] * np.power(x_grid[None, None, :], -alpha)
    inverse_flow = x_grid[None, None, :] / xs[:, :, None]
    rhs = ys[:, :, None] * np.power(inverse_flow, -alpha)
    return _max_rel_gap(lhs, rhs)


# ---------------------------------------------------------------------------
# consistency (supermartingale / martingale) drift tests


def _safe_power_value(x: np.ndarray, alpha: float) -> np.ndarray:
    """x^(1-alpha)/(1-alpha) extended by continuity with value 0 at x = 0."""
    out = np.maximum(x, 0.0)
    np.power(out, 1.0 - alpha, out=out)
    out /= 1.0 - alpha
    return out


def value_process(utility: ProgressivePowerUtility, wealth: WealthPaths) -> np.ndarray:
    """Paths of G_t = U(t, X_t) + int_0^t V(s, c_s) ds (trapezoid accumulation)."""
    alpha = utility.alpha
    g = _safe_power_value(wealth.values, alpha)
    np.multiply(utility.zhat, g, out=g)
    if wealth.consumption is not None:
        psi_all = np.asarray(utility.psi_hat.values(utility.grid.times), dtype=float)
        v = _safe_power_value(wealth.consumption, alpha)
        np.multiply(np.power(psi_all, alpha) * utility.zhat, v, out=v)
        g += _running_trapezoid(v, utility.grid.dt)
    return g


def consistency_drift_test(
    triple: OptimalTriple,
    kappa: Optional[DeterministicFn] = None,
    consumption: Optional[ConsumptionRule] = None,
    threshold: float = 4.0,
) -> DriftReport:
    """Drift of G_t = U(t, X^{kappa,c}_t) + int V(s, c_s) ds across paths.

    With the optimal strategy (the default) the drift is statistically zero
    on every interval; any admissible perturbation makes it nonpositive, and
    detectably negative once the perturbation is large enough.
    """
    test_wealth = triple.wealth  # the optimal strategy's paths, already simulated
    if kappa is not None or consumption is not None:
        kappa = triple.spec.kappa_star if kappa is None else kappa
        consumption = triple.spec.psi_hat if consumption is None else consumption
        test_wealth = wealth_paths(triple.market, triple.grid, triple.batch, kappa, consumption, rate_paths=triple.rate_paths)
    g = value_process(triple.utility, test_wealth)
    return interval_drift_report(g, triple.grid.times, threshold)


def perturbed_kappa(spec: ForwardPowerSpec, market: MarketModel, epsilon: float) -> DeterministicFn:
    """kappa_star + epsilon * e with e a unit direction in the subspace."""

    def shifted(t):
        k = np.asarray(spec.kappa_star(t), dtype=float)
        flat = k.reshape(-1, k.shape[-1])
        norms = np.linalg.norm(flat, axis=-1, keepdims=True)
        fallback = market.subspace.basis[0] if market.subspace.basis.shape[0] else np.zeros(k.shape[-1])
        unit = np.where(norms > 0, flat / np.maximum(norms, 1e-300), fallback)
        return k + epsilon * unit.reshape(k.shape)

    return DeterministicFn(shifted, label=f"kappa_star+{epsilon}e")


def scaled_consumption(spec: ForwardPowerSpec, factor: float) -> DeterministicFn:
    """Consumption rate scaled to factor * psi_hat (still proportional)."""
    return DeterministicFn(lambda t: factor * np.asarray(spec.psi_hat(t), dtype=float), label=f"{factor}*psi_hat")
