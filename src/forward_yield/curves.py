"""Term-structure outputs: Ramsey rates, marginal-utility and risk-neutral
zero-coupon prices, HJM forward-rate decomposition, long-rate asymptotics,
and marginal-utility (Davis) pricing of payoffs."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .backward import BackwardSpec, GammaModel, VasicekGamma, solve_backward_vols
from .brownian import (
    PURPOSE_INCREMENTS,
    PURPOSE_INNER,
    PURPOSE_RATE_RESIDUALS,
    BrownianBatch,
    _scale_to_widths,
    blocked_normals,
    substream_seed,
)
from .errors import NumericalRangeError
from .forward import OptimalTriple
from .grids import DeterministicFn, TimeGrid
from .market import _LOG_ROWS, MarketModel, _dual_coeffs, row_blocks, running_levels, running_states
from .quadrature import gauss_legendre
from .rates import ConstantRate, VasicekRate, simulate_short_rate
from .stats import Estimate, Moments, control_variate_estimate, moments, t_stat


# ---------------------------------------------------------------------------
# yield curves


@dataclass(frozen=True)
class YieldCurve:
    """Continuously compounded annualized rates per tenor, with the prices
    they were built from."""

    asof: float
    tenors: np.ndarray
    rates: np.ndarray
    prices: np.ndarray
    method: str
    stderrs: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        tenors = np.asarray(self.tenors, dtype=float)
        if np.any(np.diff(tenors) <= 0):
            raise ValueError("tenors must be strictly increasing")
        if np.any(tenors <= self.asof):
            raise ValueError("tenors must exceed the curve date")
        finite = np.isfinite(self.rates)
        if not np.all(finite):
            raise NumericalRangeError(
                f"{self.method or 'yield curve'}: rates are not finite at tenors {tenors[~finite].tolist()}"
            )


def curve_from_prices(
    prices: np.ndarray,
    tenors: np.ndarray,
    asof: float = 0.0,
    method: str = "",
    stderrs: Optional[np.ndarray] = None,
) -> YieldCurve:
    """Rates R = -ln(B) / (T - t) per tenor; nonpositive prices are rejected."""
    prices = np.asarray(prices, dtype=float)
    tenors = np.asarray(tenors, dtype=float)
    if np.any(prices <= 0):
        raise NumericalRangeError(
            f"{method or 'yield curve'}: zero-coupon prices are not positive at tenors {tenors[prices <= 0].tolist()}"
        )
    rates = -np.log(prices) / (tenors - asof)
    rate_se = None
    if stderrs is not None:
        rate_se = np.asarray(stderrs, dtype=float) / (prices * (tenors - asof))
    return YieldCurve(asof=float(asof), tenors=tenors, rates=rates, prices=prices, method=method, stderrs=rate_se)


# ---------------------------------------------------------------------------
# Ramsey rule


def ramsey_flat_closed(beta: float, alpha: float, growth: float, sigma: float) -> float:
    """Equilibrium rate of the geometric-consumption economy:
    beta + alpha g - alpha (alpha + 1) sigma^2 / 2, the same at every tenor."""
    return beta + alpha * growth - 0.5 * alpha * (alpha + 1.0) * sigma * sigma


def gbm_consumption_paths(c0: float, growth: float, sigma: float, grid: TimeGrid, batch: BrownianBatch) -> np.ndarray:
    """Geometric consumption c_t = c0 exp((g - sigma^2/2) t + sigma W^1_t),
    driven by the first Brownian coordinate, read from the path engine's map
    of its exact log scheme.  Raises NumericalRangeError when c is not
    finite and > 0 on some path and date."""
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    # an overflow is reported by the scan below
    with np.errstate(over="ignore"):
        vol = np.broadcast_to(sigma * np.eye(batch.dim)[0], (grid.n_steps, batch.dim))
        drift = np.full(grid.n_steps, growth - 0.5 * sigma * sigma)
        c = running_levels(running_states(vol, drift, grid.widths, grid.n_steps), batch)
        c *= c0
    if not (c.min() > 0 and c.max() < np.inf):
        raise NumericalRangeError("ramsey.growth and ramsey.sigma: consumption left the range of double precision")
    return c


@dataclass(frozen=True)
class RamseyCurveReport:
    """Moments over paths of the marginal-utility ratios v_i = e^{-beta T_i}
    (c_{T_i} / c_0)^{-alpha} at the tenors, then of v_i - v_j for each pair
    i < j in np.triu_indices order; blocks of paths merge."""

    tenors: np.ndarray
    values: Moments

    def merge(self, other: RamseyCurveReport) -> RamseyCurveReport:
        # an overflow is reported by checked
        with np.errstate(over="ignore", invalid="ignore"):
            return replace(self, values=self.values.merge(other.values)).checked()

    def checked(self) -> RamseyCurveReport:
        """self, unless the sum of squared deviations of some row of values is
        not finite, as the values or their squares left the range of double
        precision: that raises NumericalRangeError naming ramsey.beta."""
        if not np.all(np.isfinite(self.values.m2)):
            raise NumericalRangeError(
                "ramsey.beta: the discounted marginal utilities e^(-beta T) (c_T / c_0)^(-alpha), or their squares, "
                "left the range of double precision"
            )
        return self

    @property
    def cov(self) -> np.ndarray:
        """Covariance of the tenors' sample means, from the squared stderrs s2
        of the values and of v_i - v_j: (s2_i + s2_j - s2_{i-j}) / 2.  A tenor
        whose values have zero range has s2 = 0 (Moments.estimate), no
        sampling error but rounding, so its covariances are 0 too."""
        c, s2 = len(self.tenors), self.values.estimate().stderr ** 2
        i, j = np.triu_indices(c, k=1)
        cov = np.diag(s2[:c])
        cov[i, j] = cov[j, i] = 0.5 * (s2[i] + s2[j] - s2[c:]) * (s2[i] > 0) * (s2[j] > 0)
        return cov

    @property
    def curve(self) -> YieldCurve:
        """Rates -(1/T) ln E[v_c(T, c_T)] / v_c(0, c_0), with delta-method stderrs."""
        prices = self.values.mean[: len(self.tenors)]
        return curve_from_prices(prices, self.tenors, method="ramsey_mc", stderrs=np.sqrt(np.diag(self.cov)))

    @property
    def spreads(self) -> Estimate:
        """|R_i - R_j| for each pair i < j, with its stderr from the joint covariance."""
        curve, cov = self.curve, self.cov
        d = curve.tenors * curve.prices
        i, j = np.triu_indices(len(d), k=1)
        var = curve.stderrs[i] ** 2 + curve.stderrs[j] ** 2 - 2.0 * cov[i, j] / (d[i] * d[j])
        return Estimate(np.abs(curve.rates[i] - curve.rates[j]), np.sqrt(np.maximum(var, 0.0)))

    @property
    def max_spread(self) -> float:
        return float(np.max(self.spreads.mean, initial=0.0))

    @property
    def max_spread_t(self) -> float:
        return float(np.max(t_stat(*self.spreads), initial=0.0))


def ramsey_curve_mc(
    beta: float, alpha: float, c_paths: np.ndarray, grid: TimeGrid, tenors: Sequence[float]
) -> RamseyCurveReport:
    """The Ramsey curve report of consumption paths c_paths on grid, from c_0
    = c_paths[0, 0]; a discount out of range names ramsey.beta, as do values
    whose moments do not stay finite."""
    tenors = np.asarray(list(tenors), dtype=float)
    i, j = np.triu_indices(len(tenors), k=1)
    vals = np.empty((len(tenors) + len(i), c_paths.shape[0]))
    # an overflow is reported by RamseyCurveReport.checked
    with np.errstate(over="ignore", invalid="ignore"):
        for row, t in enumerate(tenors):
            discount = np.exp(-beta * t)
            if not 0.0 < discount < np.inf:
                raise NumericalRangeError(f"ramsey.beta: exp(-beta T) left the range of double precision at tenor {t:g}")
            vals[row] = discount * np.power(c_paths[:, grid.index_of(t)] / c_paths[0, 0], -alpha)
        np.subtract(vals[i], vals[j], out=vals[len(tenors) :])
        return RamseyCurveReport(tenors, moments(vals, axis=1)).checked()


# ---------------------------------------------------------------------------
# Gaussian closed-form zero-coupon prices


def _tilt_integral(
    gamma_vec: Callable[[np.ndarray], np.ndarray], nu: DeterministicFn, eta: DeterministicFn, t: float, t_mat: float
) -> float:
    """int_t^T Gamma_s(T) . (nu(s) - eta(s)) ds for deterministic vector
    functions, by the rule on each piece between the knots of nu and eta
    inside (t, T), on which the integrand is smooth."""

    def integrand(s):
        q = np.atleast_2d(nu.values(s)) - np.atleast_2d(eta.values(s))
        return np.sum(gamma_vec(s) * q, axis=1)

    knots = [k for fn in (nu, eta) if fn.times is not None for k in fn.times if t < k < t_mat]
    cuts = [t, *sorted(set(knots)), t_mat]
    return sum(float(gauss_legendre(integrand, a, b)) for a, b in zip(cuts[:-1], cuts[1:]))


def market_gamma(market: MarketModel) -> Optional[VasicekGamma]:
    """Bond-volatility field implied by the market's short-rate model; None
    when the rate is deterministic."""
    rate = market.rate
    if isinstance(rate, VasicekRate) and rate.sigma > 0.0:
        return VasicekGamma(a=rate.a, sigma_r=rate.sigma, direction=rate.w_dir)
    return None


def zc_price_gaussian(
    market: MarketModel,
    nu: Optional[DeterministicFn],
    t: float,
    t_mat: float,
    r_t: Optional[np.ndarray] = None,
    gamma: Optional[GammaModel] = None,
) -> np.ndarray:
    """E[Y_T / Y_t | r_t] for deterministic (nu, eta) in a log-normal market.

    exp(-m + v/2 + tilt): m is the conditional mean of the integrated rate,
    v = int_t^T |Gamma_s(T)|^2 ds its variance, and tilt the integral of
    Gamma . (nu - eta).  Gamma defaults to the bond volatility of the
    market's short rate; a backward spec passes its own field.  With nu = 0
    this is the risk-neutral price.
    """
    if t_mat < t:
        raise ValueError("maturity must not precede the pricing date")
    if t_mat == t:
        return np.asarray(1.0)
    rate = market.rate
    if r_t is None:
        if t != 0.0 and not isinstance(rate, ConstantRate):
            raise ValueError("conditional pricing at t > 0 needs the rate state r_t")
        r_t = rate.r0
    m_int = rate.integral_mean(r_t, t_mat - t)
    if gamma is None:
        gamma = market_gamma(market)
    if gamma is None:
        return np.exp(-m_int)
    nu_fn = DeterministicFn.zero(market.dim) if nu is None else nu
    tilt = _tilt_integral(lambda s: gamma.vectors(s, t_mat), nu_fn, market.risk_premium, t, t_mat)
    # an overflow to inf is reported by the yield curve's range check
    with np.errstate(over="ignore"):
        return np.exp(-m_int + 0.5 * gamma.int_sq(t, t_mat) + tilt)


# ---------------------------------------------------------------------------
# nested Monte Carlo zero-coupon prices


def marginal_zc_mc(
    triple: OptimalTriple,
    k_t: int,
    k_mats: Sequence[int],
    inner_paths: int = 1024,
    max_outer: int = 256,
) -> tuple[Estimate, Estimate]:
    """Conditional marginal-utility zero-coupon prices E[Y_T / Y_t | F_t] of
    the first min(max_outer, n_paths) outer paths, as (len(k_mats), n_outer)
    arrays, one row per maturity index in k_mats: the estimate with the
    control variate below, and the plain inner average for comparison.

    Each outer path is repriced by one inner simulation of ln Y restarted
    from its realized short rate at t, triple.rate_paths.r[:, k_t], and run
    to the last maturity over the outer grid's steps, on a stream derived
    from (seed, outer path, k_t), so results are reproducible and the
    maturities of one outer path share their inner paths.  The inner
    simulations of as many whole outer paths as fit in _LOG_ROWS rows, and
    at least one, run as one stack of rows; every row's operations are those
    of its own simulation, so the prices do not depend on the chunking.  The
    date-0 price is the plain average mean_stderr(triple.y[:, k_mat]).

    The control is the dual exponential martingale M = Y_T / Y_t e^{int_t^T r},
    the path engine's map of ln Y's (nu - eta) . dW terms and their
    -|nu - eta|^2 / 2 drift, without the rate, read on every inner date.
    Its mean is exactly 1, and with nu = eta it is exactly 1 on every path,
    so the estimate is the plain average.  The ratio is formed from it at
    the maturities only, as M e^{-int_t^T r}.
    """
    k_mats = list(k_mats)
    if not k_mats or min(k_mats) <= k_t:
        raise ValueError("maturity indices must follow the pricing index")
    grid, market, rate = triple.grid, triple.market, triple.market.rate
    k_end = max(k_mats)
    sub = grid.window(k_t, k_end)
    rows = [k - k_t for k in k_mats]  # sub-grid index of each maturity
    # the inner steps carry the coefficients of their own dates on the outer grid
    vol, drift = _dual_coeffs(market, grid, triple.spec.nu_star)
    states = running_states(vol[k_t:k_end], drift[k_t:k_end], sub.widths, sub.n_steps)

    n_outer = min(max_outer, triple.n_paths)
    rate_states = triple.rate_paths.r[:n_outer, k_t]
    per_chunk = max(1, _LOG_ROWS // inner_paths)
    controlled = Estimate(np.empty((len(k_mats), n_outer)), np.empty((len(k_mats), n_outer)))
    plain = Estimate(np.empty((len(k_mats), n_outer)), np.empty((len(k_mats), n_outer)))
    for i0 in range(0, n_outer, per_chunk):
        i1 = min(i0 + per_chunk, n_outer)
        n = (i1 - i0) * inner_paths
        dw = np.empty((n, sub.n_steps, market.dim))
        z = np.empty((n, sub.n_steps)) if isinstance(rate, VasicekRate) and rate.sigma > 0.0 else None
        for j, i in enumerate(range(i0, i1)):
            seed = int(substream_seed(triple.batch.seed, PURPOSE_INNER, i, k_t).generate_state(1, np.uint64)[0])
            span = slice(j * inner_paths, (j + 1) * inner_paths)
            blocked_normals(seed, PURPOSE_INCREMENTS, inner_paths, dw.shape[1:], out=dw[span])
            if z is not None:
                blocked_normals(seed, PURPOSE_RATE_RESIDUALS, inner_paths, z.shape[1:], out=z[span])
        batch = BrownianBatch(seed=triple.batch.seed, grid=sub, increments=_scale_to_widths(dw, sub))
        r0 = np.repeat(rate_states[i0:i1], inner_paths)
        integral = simulate_short_rate(rate, sub, batch, r0=r0, residuals=z).integral
        # each (maturity, outer path) sample contiguous, as the estimates reduce along the last axis
        shape = (len(rows), i1 - i0, inner_paths)
        control = np.empty(shape)
        for j in range(i1 - i0):
            # one product per outer path's own batch, which gives its rows the
            # bits of its own simulation whatever the chunk
            span = slice(j * inner_paths, (j + 1) * inner_paths)
            control[:, j] = states(replace(batch, increments=batch.increments[span])).T[rows]
        with np.errstate(over="ignore"):
            np.exp(control, out=control)
        ratios = control * np.exp(-integral.T[rows]).reshape(shape)
        for out, part in zip((controlled, plain), control_variate_estimate(ratios, control, 1.0)):
            out.mean[:, i0:i1], out.stderr[:, i0:i1] = part
    return controlled, plain


# ---------------------------------------------------------------------------
# HJM forward rates


@dataclass(frozen=True)
class HJMReport:
    tenors: np.ndarray            # interior tenors where derivatives exist
    forward_rates: np.ndarray     # f_0(T) by central differences
    expected_rate_recon: np.ndarray
    expected_rate_model: np.ndarray

    @property
    def max_abs_residual(self) -> float:
        return float(np.max(np.abs(self.expected_rate_recon - self.expected_rate_model)))


def hjm_forward_rates(
    price_fn: Callable[[float], float],
    market: MarketModel,
    nu: Optional[DeterministicFn],
    tenors: np.ndarray,
    gamma: Optional[GammaModel] = None,
) -> HJMReport:
    """Forward rates f_0(T) = -d/dT ln B_0(T) and the drift-identity
    reconstruction of the expected short rate.

    The reconstruction E[r_T] = f_0(T) + |Gamma_0(T)|^2 / 2 - psi'(T), with
    psi(T) the integral of Gamma . (eta - nu), must match the market's
    expected short rate up to the tenor discretization error.  eta is the
    market's risk premium, nu = None means 0, and Gamma defaults to the bond
    volatility of the market's short rate, as in zc_price_gaussian.
    """
    tenors = np.asarray(tenors, dtype=float)
    if len(tenors) < 3:
        raise ValueError("tenor grid too coarse for central differences")
    spacing = np.diff(tenors)
    if np.max(spacing) - np.min(spacing) > 1e-9:
        raise ValueError("tenor grid must be uniform")
    h = float(spacing[0])

    log_b = np.array([math.log(price_fn(float(t))) for t in tenors])
    f0 = -(log_b[2:] - log_b[:-2]) / (2.0 * h)
    interior = tenors[1:-1]

    gamma = market_gamma(market) if gamma is None else gamma
    nu_fn = DeterministicFn.zero(market.dim) if nu is None else nu
    half_gamma_sq = psi_prime = np.zeros_like(interior)
    if gamma is not None:
        half_gamma_sq = 0.5 * np.array([float(np.sum(gamma.vectors(0.0, float(t)) ** 2)) for t in interior])
        eta = market.risk_premium
        psi = np.array(
            [-_tilt_integral(lambda s, t=float(t): gamma.vectors(s, t), nu_fn, eta, 0.0, float(t)) for t in tenors]
        )
        psi_prime = (psi[2:] - psi[:-2]) / (2.0 * h)

    recon = f0 + half_gamma_sq - psi_prime
    model = np.asarray(market.rate.expected_rate(interior), dtype=float)
    return HJMReport(tenors=interior, forward_rates=f0, expected_rate_recon=recon, expected_rate_model=model)


# ---------------------------------------------------------------------------
# long-maturity asymptotics


@dataclass(frozen=True)
class LongRateReport:
    mode: str                 # "forward" or "backward"
    slope: float              # d l_t / dt, exact from the volatility limits
    l0: float
    t_grid: np.ndarray
    l_values: np.ndarray
    verdict: str              # "constant" | "increasing" | "decreasing"
    probe_tenors: np.ndarray
    probe_expected_yields: np.ndarray  # E[R_t(T)] at the largest t, per probe


def long_rate(
    gamma: GammaModel,
    mode: str,
    alpha: float,
    l0: float,
    t_grid: np.ndarray,
    market: MarketModel,
    probe_tenors: Sequence[float] = (50.0, 100.0, 200.0),
) -> LongRateReport:
    """Limit of the yield curve as maturity grows, from the volatility limits.

    Forward mode: l_t = l_0 + t q / 2 with q the limit of |Gamma|^2/(T-s).
    Backward mode (horizon tied to the probed maturity): the orthogonal part
    contributes with weight (2 alpha - 1) instead, so small risk aversion can
    turn the long rate decreasing.  Fields without a finite limit are
    rejected: the long rate is infinite for them.

    Each probe T reads E[R_t(T)] at the last date t of t_grid on a flat curve at l0,
    l0 + int_0^t (|Gamma_s(T)|^2 / 2 + Gamma_s(T) . (nu - eta)) ds / (T - t), with
    nu = 0 forward and backward the optimum of horizon T (solve_backward_vols).
    """
    limits = gamma.limit_sq_rate()
    if limits is None:
        raise ValueError("bond-volatility field has no finite long-maturity limit; the long rate is infinite")
    q_r, q_perp = limits
    if mode == "forward":
        slope = 0.5 * (q_r + q_perp)
    elif mode == "backward":
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0,1)")
        slope = 0.5 * q_r + 0.5 * (2.0 * alpha - 1.0) * q_perp
    else:
        raise ValueError("mode must be 'forward' or 'backward'")

    t_grid = np.asarray(t_grid, dtype=float)
    l_values = l0 + slope * t_grid
    # the slope is a difference of the limits, so a flat curve can leave a
    # rounding residue of their size
    if abs(slope) <= 1e-12 * (abs(q_r) + abs(q_perp)):
        verdict = "constant"
    else:
        verdict = "increasing" if slope > 0 else "decreasing"

    t_last = float(t_grid[-1]) if len(t_grid) else 0.0
    probes = np.asarray(list(probe_tenors), dtype=float)
    expected = np.empty_like(probes)
    for idx, t_mat in enumerate(probes.tolist()):
        nu = DeterministicFn.zero(market.dim)
        if mode == "backward":
            nu, _ = solve_backward_vols(BackwardSpec(t_mat, alpha, gamma, market))
        # an overflow of Gamma is reported below, or by the projection in nu
        with np.errstate(over="ignore", invalid="ignore"):
            correction = 0.5 * (gamma.int_sq(0.0, t_mat) - gamma.int_sq(t_last, t_mat)) + _tilt_integral(
                lambda s: gamma.vectors(s, t_mat), nu, market.risk_premium, 0.0, t_last
            )
        if not np.isfinite(correction):
            raise NumericalRangeError(f"long_rate: Gamma left the range of double precision at tenor {t_mat:g}")
        expected[idx] = l0 + correction / (t_mat - t_last)
    return LongRateReport(mode, float(slope), float(l0), t_grid, l_values, verdict, probes, expected)


# ---------------------------------------------------------------------------
# Davis (marginal-utility) pricing


def _deflated(payoff_values: np.ndarray, y_paths: np.ndarray, k_mat: int) -> np.ndarray:
    payoff_values = np.asarray(payoff_values, dtype=float)
    if np.any(payoff_values < 0):
        raise ValueError("payoffs must be nonnegative")
    return payoff_values * y_paths[:, k_mat] / y_paths[:, 0]


@dataclass(frozen=True)
class DavisReport:
    """Moments over paths of a payoff deflated at its maturity, whose mean is
    its date-0 marginal-utility price E[zeta_T Y_T / Y_0] (price), of the
    payoff capitalized to the horizon and deflated there, and of capitalized
    minus deflated; blocks of paths merge."""

    rows: Moments

    def merge(self, other: DavisReport) -> DavisReport:
        return DavisReport(self.rows.merge(other.rows))

    @property
    def price(self) -> Estimate:
        return Estimate(*(float(v[0]) for v in self.rows.estimate()))

    @property
    def capitalization(self) -> tuple[float, float]:
        """(price via the horizon, t statistic of its gap to the direct price)."""
        mean, se = self.rows.estimate()
        return float(mean[1]), t_stat(mean[2], se[2])


def davis_report(
    payoff_values: np.ndarray, y_paths: np.ndarray, x_paths: np.ndarray, k_mat: int, k_horizon: int
) -> DavisReport:
    """The Davis report of a date-T payoff capitalized inside the consumption-free
    optimal wealth x_paths; wealth times the state-price density is a martingale."""
    rows = np.empty((3, y_paths.shape[0]))
    rows[0] = _deflated(payoff_values, y_paths, k_mat)
    rows[1] = _deflated(payoff_values * (x_paths[:, k_horizon] / x_paths[:, k_mat]), y_paths, k_horizon)
    np.subtract(rows[1], rows[0], out=rows[2])
    return DavisReport(moments(rows, axis=1))


# ---------------------------------------------------------------------------
# pathwise Ramsey identity


def pathwise_ramsey_report(triple: OptimalTriple, x0: float = 1.0) -> float:
    """max | marginal-utility ratio / state-price ratio - 1 | over paths and
    dates, each process normalized by its time-0 value; the marginal utility
    is that of consumption from x0 (forward_marginal_consumption_paths).
    The paths are walked in row blocks, and the max over blocks is the max
    over paths."""
    gaps = []
    for b0, b1 in row_blocks(triple.n_paths):
        rows = slice(b0, b1)
        marginal = forward_marginal_consumption_paths(triple, x0, rows)
        lhs = marginal / marginal[:, :1]
        rhs = triple.y[rows] / triple.y[rows, :1]
        gaps.append(np.max(np.abs(lhs / rhs - 1.0)))
    return float(np.max(gaps))


def forward_marginal_consumption_paths(triple: OptimalTriple, x0: float, rows: slice) -> np.ndarray:
    """Paths of V_c(t, cstar_t(c_0)) for the forward power family, on the
    triple's paths in the slice rows."""
    psi_all = np.asarray(triple.spec.psi_hat.values(triple.grid.times), dtype=float)
    if np.any(psi_all <= 0):
        raise ValueError("pathwise Ramsey via consumption needs psi_hat > 0")
    c_paths = psi_all * (x0 * triple.x[rows])
    return np.power(psi_all, triple.spec.alpha) * triple.zhat[rows] * np.power(c_paths, -triple.spec.alpha)
