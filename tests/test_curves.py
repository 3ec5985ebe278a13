import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from forward_yield import (
    BackwardSpec,
    ConstantRate,
    DeterministicFn,
    ForwardPowerSpec,
    MarketModel,
    SubspaceR,
    SyntheticSqrtGamma,
    TimeGrid,
    VasicekGamma,
    VasicekRate,
    backward_optimal_paths,
    curve_from_prices,
    gbm_consumption_paths,
    hjm_forward_rates,
    long_rate,
    marginal_zc_mc,
    pathwise_ramsey_report,
    ramsey_curve_mc,
    ramsey_flat_closed,
    reading_grid,
    sample_brownian,
    simulate_optimal,
    simulate_short_rate,
    solve_backward_vols,
    state_price_paths,
    zc_price_gaussian,
)
from forward_yield.brownian import _BLOCK, PURPOSE_INNER, substream_seed
from forward_yield.curves import _tilt_integral, davis_report, forward_marginal_consumption_paths, market_gamma
from forward_yield.errors import NumericalRangeError
from forward_yield.config import build_forward_spec, build_grid, build_market, load_config
from forward_yield.stats import control_variate_estimate, mean_stderr, t_stat

from gamma_fields import CustomGamma

E1, E2 = np.eye(2)


def textbook_vasicek_price(a, b, sigma, r0, tau):
    bee = (1.0 - np.exp(-a * tau)) / a
    log_a = (b - sigma**2 / (2 * a**2)) * (bee - tau) - sigma**2 * bee**2 / (4 * a)
    return np.exp(log_a - bee * r0)


def textbook_vasicek_forward(a, b, sigma, r0, t):
    e = np.exp(-a * t)
    return r0 * e + b * (1.0 - e) - sigma**2 / (2 * a**2) * (1.0 - e) ** 2


def incomplete_vasicek_market(eta0=0.1, a=1.0, b=0.03, sigma=0.02, r0=0.03):
    return MarketModel(
        dim=2,
        rate=VasicekRate(a=a, b=b, sigma=sigma, r0=r0, w_dir=E2),
        risk_premium=DeterministicFn.constant(np.array([eta0, 0.0])),
        subspace=SubspaceR([[1.0, 0.0]], 2),
    )


def forward_spec(alpha=0.5, kappa=0.2, nu=0.08, psi=0.05):
    return ForwardPowerSpec(
        alpha=alpha,
        kappa_star=DeterministicFn.constant(np.array([kappa, 0.0])),
        nu_star=DeterministicFn.constant(np.array([0.0, nu])),
        psi_hat=DeterministicFn.constant(psi),
    )


# ---------------------------------------------------------------------------
# Ramsey


def test_ramsey_flat_closed_values():
    assert ramsey_flat_closed(0.01, 0.5, 0.02, 0.1) == pytest.approx(0.01625, abs=1e-15)
    assert ramsey_flat_closed(0.02, 0.3, 0.01, 0.0) == pytest.approx(0.023, abs=1e-15)
    assert ramsey_flat_closed(0.0, 0.4, 0.0, 0.2) == pytest.approx(-0.5 * 0.4 * 1.4 * 0.04, abs=1e-15)
    assert ramsey_flat_closed(0.0, 0.4, 0.0, 0.2) < 0  # precautionary effect


def test_ramsey_mc_flat_curve():
    beta, alpha, growth, sigma = 0.01, 0.5, 0.02, 0.1
    target = ramsey_flat_closed(beta, alpha, growth, sigma)
    grid = TimeGrid(30.0, 120)
    batch = sample_brownian(24601, grid, dim=1, n_paths=100_000)
    c_paths = gbm_consumption_paths(growth, sigma, grid, batch)
    curve = ramsey_curve_mc(beta, alpha, c_paths, grid, [1.0, 5.0, 30.0]).curve
    for rate, se in zip(curve.rates, curve.stderrs):
        assert abs(rate - target) < 3 * se


def test_ramsey_mc_deterministic_consumption():
    beta, alpha, growth = 0.015, 0.4, 0.02
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(1, grid, dim=1, n_paths=100)
    c_paths = 2.0 * gbm_consumption_paths(growth, 0.0, grid, batch)
    curve = ramsey_curve_mc(beta, alpha, c_paths, grid, [10.0]).curve
    rate, se = curve.rates[0], curve.stderrs[0]
    assert rate == pytest.approx(beta + alpha * growth, abs=1e-12)
    assert se == pytest.approx(0.0, abs=1e-15)


def test_ramsey_mc_null_case():
    grid = TimeGrid(5.0, 20)
    batch = sample_brownian(2, grid, dim=1, n_paths=50)
    c_paths = gbm_consumption_paths(0.0, 0.0, grid, batch)
    rate = ramsey_curve_mc(0.0, 0.5, c_paths, grid, [5.0]).curve.rates[0]
    assert rate == pytest.approx(0.0, abs=1e-14)


def test_ramsey_curve_spread_statistics():
    grid = TimeGrid(30.0, 120)
    batch = sample_brownian(24601, grid, dim=1, n_paths=50_000)
    c_paths = gbm_consumption_paths(0.02, 0.1, grid, batch)
    report = ramsey_curve_mc(0.01, 0.5, c_paths, grid, [1.0, 2.0, 5.0, 10.0, 30.0])
    assert report.max_spread_t < 4.0
    curve = report.curve
    assert np.max(np.abs(np.exp(-curve.rates * (curve.tenors - curve.asof)) / curve.prices - 1.0)) < 1e-12
    assert report.curve.method == "ramsey_mc"


@pytest.mark.parametrize("sigma, tenors", [(0.1, [1.0, 5.0, 30.0]), (0.0, [1.0, 5.0, 30.0]), (0.1, [10.0])])
def test_ramsey_comoments_match_np_cov(sigma, tenors):
    # the covariance from the moments of the tenors and of their pairwise
    # differences, merged over three stream blocks, against np.cov; sigma = 0
    # makes every tenor flat, which has no sampling error
    grid = TimeGrid(30.0, 120)
    batch = sample_brownian(7, grid, dim=1, n_paths=2 * _BLOCK + 1)
    c_paths = gbm_consumption_paths(0.02, sigma, grid, batch)
    report = ramsey_curve_mc(0.01, 0.5, c_paths, grid, tenors)
    vals = np.column_stack([np.exp(-0.01 * t) * np.power(c_paths[:, grid.index_of(t)], -0.5) for t in tenors])
    expected = np.atleast_2d(np.cov(vals, rowvar=False)) / len(vals)
    flat = np.ptp(vals, axis=0) == 0
    expected[flat, :] = expected[:, flat] = 0.0
    assert flat.all() == (sigma == 0.0)
    assert np.allclose(report.cov, expected, rtol=1e-12, atol=0.0)
    exact_means = [math.fsum(col) / len(col) for col in vals.T]
    assert np.allclose(report.curve.rates, -np.log(exact_means) / tenors, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# closed-form prices


def test_constant_rate_price():
    market = MarketModel(
        dim=2,
        rate=ConstantRate(0.04),
        risk_premium=DeterministicFn.constant(np.array([0.1, 0.0])),
        subspace=SubspaceR([[1.0, 0.0]], 2),
    )
    assert zc_price_gaussian(market, None, 0.0, 3.0) == pytest.approx(np.exp(-0.12), rel=1e-14)


def test_gaussian_price_matches_textbook_vasicek():
    # orthogonal premium, nu = 0: the price is the riskless Vasicek bond
    market = incomplete_vasicek_market()
    for tenor in (1.0, 5.0, 10.0):
        ours = zc_price_gaussian(market, None, 0.0, tenor)
        oracle = textbook_vasicek_price(1.0, 0.03, 0.02, 0.03, tenor)
        assert ours == pytest.approx(oracle, rel=1e-10)


def test_gaussian_price_orthogonal_tilt_sign():
    # nu along the rate noise tilts the marginal price by exp(int Gamma . nu):
    # nu = -(1-alpha) Gamma_perp makes the integral negative
    market = incomplete_vasicek_market()
    gamma = market_gamma(market)
    spec = BackwardSpec(
        t_horizon=10.0, alpha=0.5, gamma=gamma, market=market,
    )
    nu, _ = solve_backward_vols(spec)
    marginal = zc_price_gaussian(market, nu, 0.0, 10.0)
    neutral = zc_price_gaussian(market, None, 0.0, 10.0)
    tilt_integral, _ = integrate.quad(
        lambda s: (0.02 * (1.0 - np.exp(-(10.0 - s)))) ** 2 * (-0.5), 0.0, 10.0
    )
    assert tilt_integral < 0
    assert marginal < neutral
    assert marginal / neutral == pytest.approx(np.exp(tilt_integral), rel=1e-9)


def split_quad_tilt(gamma, t_mat, nu, eta, a, b, knots):
    """int_a^b Gamma_s(T) . (nu(s) - eta(s)) ds by scipy's adaptive quad on
    each piece between the knots inside (a, b)."""

    def integrand(s):
        s = np.array([s])
        return float(np.sum(gamma.vectors(s, t_mat) * (np.atleast_2d(nu(s)) - np.atleast_2d(eta(s)))))

    cuts = [a, *[k for k in knots if a < k < b], b]
    return sum(
        integrate.quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-12)[0]
        for lo, hi in zip(cuts[:-1], cuts[1:])
    )


def test_tilt_integrates_piecewise_between_the_knots():
    # the knot config: nu_star steps at 3.5, inside (t, T) for the last three
    # windows; one rule across the jump read the tilt at T = 5 8.8e-5 low
    cfg = load_config(None)
    cfg["spec"]["nu_star"] = {"times": [0.0, 3.5], "values": [[0.0, -0.2], [0.0, 0.4]]}
    market = build_market(cfg)
    nu, gamma = build_forward_spec(cfg, market).nu_star, market_gamma(market)
    for t, t_mat in ((0.0, 3.0), (0.0, 5.0), (0.0, 7.0), (2.0, 5.0)):
        tilt = _tilt_integral(lambda s: gamma.vectors(s, t_mat), nu, market.risk_premium, t, t_mat)
        assert abs(tilt - split_quad_tilt(gamma, t_mat, nu, market.risk_premium, t, t_mat, [3.5])) <= 1e-13


def test_gamma_market_price_equals_rate_model_price():
    # the two routes to the same log-normal market must price identically
    market = incomplete_vasicek_market()
    gamma = market_gamma(market)
    spec = BackwardSpec(
        t_horizon=10.0, alpha=0.5, gamma=gamma, market=market,
    )
    for tenor in (2.0, 7.0):
        a = zc_price_gaussian(spec.market, None, 0.0, tenor, gamma=spec.gamma)
        b = zc_price_gaussian(market, None, 0.0, tenor)
        assert a == pytest.approx(b, rel=1e-10)


# ---------------------------------------------------------------------------
# Monte Carlo prices


def test_marginal_zc_time_zero_against_gaussian():
    market = incomplete_vasicek_market()
    spec = forward_spec()
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(98765, grid, dim=2, n_paths=100_000)
    triple = simulate_optimal(spec, market, grid, batch)
    for tenor in (1.0, 5.0, 10.0):
        k = grid.index_of(tenor)
        price, se = mean_stderr(triple.y[:, k])
        closed = zc_price_gaussian(market, spec.nu_star, 0.0, tenor)
        assert abs(price - closed) < 3 * se


def test_marginal_zc_degenerate_cases():
    market = MarketModel(
        dim=2,
        rate=ConstantRate(0.0),
        risk_premium=DeterministicFn.constant(np.zeros(2)),
        subspace=SubspaceR([[1.0, 0.0]], 2),
    )
    spec = forward_spec(kappa=0.0, nu=0.0, psi=0.03)
    grid = TimeGrid(4.0, 16)
    batch = sample_brownian(3, grid, dim=2, n_paths=20_000)
    triple = simulate_optimal(spec, market, grid, batch)
    price, se = mean_stderr(triple.y[:, grid.index_of(4.0)])
    assert price == pytest.approx(1.0, abs=1e-12)  # unit state price
    # unit-initial: the date-0 price is exactly 1 with no sampling error
    assert mean_stderr(triple.y[:, 0]) == (1.0, 0.0)


def test_nested_conditional_prices_match_state_closed_form():
    market = incomplete_vasicek_market()
    spec = forward_spec()
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(1357, grid, dim=2, n_paths=64)
    triple = simulate_optimal(spec, market, grid, batch)
    k_t, k_mat = grid.index_of(2.0), grid.index_of(7.0)
    (prices, stderrs), _ = marginal_zc_mc(triple, k_t, [k_mat], inner_paths=4096, max_outer=32)
    closed = zc_price_gaussian(market, spec.nu_star, 2.0, 7.0, r_t=triple.rate_paths.r[:32, k_t])
    z = (prices[0] - closed) / stderrs[0]
    assert np.max(np.abs(z)) < 4.5
    assert abs(np.mean(z)) < 1.0


def nested_triple(seed=1357, n_paths=64):
    market = incomplete_vasicek_market()
    spec = forward_spec()
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(seed, grid, dim=2, n_paths=n_paths)
    return simulate_optimal(spec, market, grid, batch)


def test_nested_every_maturity_matches_state_closed_form():
    triple = nested_triple()
    grid = triple.grid
    k_t = grid.index_of(2.0)
    k_mats = [grid.index_of(t) for t in (3.0, 5.0, 7.0)]
    (prices, stderrs), _ = marginal_zc_mc(triple, k_t, k_mats, inner_paths=4096, max_outer=32)
    assert prices.shape == stderrs.shape == (3, 32)
    for maturity, p, se in zip((3.0, 5.0, 7.0), prices, stderrs):
        closed = zc_price_gaussian(
            triple.market, triple.spec.nu_star, 2.0, maturity, r_t=triple.rate_paths.r[:32, k_t]
        )
        z = (p - closed) / se
        assert np.max(np.abs(z)) < 4.5


def test_nested_table_coefficients_match_state_closed_form():
    # both volatilities jump at 3.5, strictly inside (t, T) for T = 5 and 7,
    # so the inner steps must carry the coefficients of their own dates
    market = incomplete_vasicek_market(sigma=0.05)
    spec = ForwardPowerSpec(
        alpha=0.5,
        kappa_star=DeterministicFn.table([0.0, 3.5], [[0.2, 0.0], [0.5, 0.0]]),
        nu_star=DeterministicFn.table([0.0, 3.5], [[0.0, -0.2], [0.0, 0.4]]),
        psi_hat=DeterministicFn.constant(0.05),
    )
    # simulated on the reading grid of the read dates, which must keep the knot
    configured = TimeGrid(10.0, 40)
    read = [configured.index_of(t) for t in (2.0, 3.0, 5.0, 7.0)]
    grid, (k_t, *k_mats) = reading_grid(spec, market, configured, read)
    assert np.array_equal(grid.times, [0.0, 2.0, 3.0, 3.5, 5.0, 7.0])
    triple = simulate_optimal(spec, market, grid, sample_brownian(2468, grid, dim=2, n_paths=64))
    (prices, stderrs), _ = marginal_zc_mc(triple, k_t, k_mats, inner_paths=4096, max_outer=32)
    for maturity, p, se in zip((3.0, 5.0, 7.0), prices, stderrs):
        closed = zc_price_gaussian(market, spec.nu_star, 2.0, maturity, r_t=triple.rate_paths.r[:32, k_t])
        z = (p - closed) / se
        assert np.max(np.abs(z)) < 4.5
        assert abs(np.mean(z)) < 1.0


def inner_controls(triple, k_t, k_mats, monkeypatch, inner_paths=1024, max_outer=64):
    """The control of every inner path, (len(k_mats), max_outer * inner_paths),
    as marginal_zc_mc hands it to the control-variate estimator."""
    import forward_yield.curves as curves

    seen = []
    original = curves.control_variate_estimate

    def recording(y, c, mu):
        assert mu == 1.0
        seen.append(c)
        return original(y, c, mu)

    monkeypatch.setattr(curves, "control_variate_estimate", recording)
    marginal_zc_mc(triple, k_t, k_mats, inner_paths=inner_paths, max_outer=max_outer)
    return np.concatenate(seen, axis=1).reshape(len(k_mats), -1)


def test_inner_control_has_mean_one_at_the_default_config(monkeypatch):
    # M = Y_T / Y_t e^{int r} is an exponential martingale: its known mean
    # 1 must hold on the simulated paths, or the control would bias the curve
    cfg = load_config(None)
    market = build_market(cfg)
    spec = build_forward_spec(cfg, market)
    configured = build_grid(cfg)
    read = [configured.index_of(t) for t in (2.0, 3.0, 5.0, 10.0)]
    grid, (k_t, *k_mats) = reading_grid(spec, market, configured, read)
    triple = simulate_optimal(spec, market, grid, sample_brownian(cfg["simulation"]["seed"], grid, market.dim, 64))
    controls = inner_controls(triple, k_t, k_mats, monkeypatch)
    mean, se = mean_stderr(controls, axis=1)
    assert np.all(se > 0)
    assert np.all(np.abs(mean - 1.0) <= 4.0 * se)


def test_inner_control_has_mean_one_across_a_coefficient_knot(monkeypatch):
    # nu jumps at 3.5, between the read dates 3 and 5: each inner step must
    # carry the coefficient of its own date for the mean to stay 1
    market = incomplete_vasicek_market(sigma=0.05)
    spec = ForwardPowerSpec(
        alpha=0.5,
        kappa_star=DeterministicFn.constant(np.array([0.2, 0.0])),
        nu_star=DeterministicFn.table([0.0, 3.5], [[0.0, -0.2], [0.0, 0.8]]),
        psi_hat=DeterministicFn.constant(0.05),
    )
    configured = TimeGrid(10.0, 40)
    read = [configured.index_of(t) for t in (2.0, 3.0, 5.0, 7.0)]
    grid, (k_t, *k_mats) = reading_grid(spec, market, configured, read)
    assert 3.5 in grid.times
    triple = simulate_optimal(spec, market, grid, sample_brownian(2469, grid, dim=2, n_paths=64))
    controls = inner_controls(triple, k_t, k_mats, monkeypatch)
    mean, se = mean_stderr(controls, axis=1)
    assert np.all(np.abs(mean - 1.0) <= 4.0 * se)


def test_nested_last_maturity_equals_single_maturity_call():
    triple = nested_triple()
    grid = triple.grid
    k_t, k_mats = grid.index_of(2.0), [grid.index_of(t) for t in (3.0, 5.0, 7.0)]
    many, many_plain = marginal_zc_mc(triple, k_t, k_mats, inner_paths=256, max_outer=8)
    single, single_plain = marginal_zc_mc(triple, k_t, k_mats[-1:], inner_paths=256, max_outer=8)
    for a, b in ((many, single), (many_plain, single_plain)):
        assert np.array_equal(a.mean[-1:], b.mean)
        assert np.array_equal(a.stderr[-1:], b.stderr)


def test_nested_outer_prices_independent_of_max_outer():
    triple = nested_triple()
    grid = triple.grid
    k_t, k_mats = grid.index_of(2.0), [grid.index_of(4.0), grid.index_of(6.0)]
    small, small_plain = marginal_zc_mc(triple, k_t, k_mats, inner_paths=256, max_outer=4)
    large, large_plain = marginal_zc_mc(triple, k_t, k_mats, inner_paths=256, max_outer=12)
    for a, b in ((small, large), (small_plain, large_plain)):
        assert np.array_equal(a.mean, b.mean[:, :4])
        assert np.array_equal(a.stderr, b.stderr[:, :4])


def test_nested_maturities_must_follow_the_pricing_date():
    triple = nested_triple()
    k_t = triple.grid.index_of(2.0)
    with pytest.raises(ValueError, match="maturity"):
        marginal_zc_mc(triple, k_t, [], inner_paths=64, max_outer=2)
    with pytest.raises(ValueError, match="maturity"):
        marginal_zc_mc(triple, k_t, [k_t, k_t + 4], inner_paths=64, max_outer=2)


def test_complete_market_marginal_equals_risk_neutral():
    # full subspace: no orthogonal direction, the dual optimizer is the
    # minimal density itself and the curves coincide
    market = MarketModel(
        dim=2,
        rate=VasicekRate(a=1.0, b=0.03, sigma=0.02, r0=0.03, w_dir=E1),
        risk_premium=DeterministicFn.constant(np.array([0.05, 0.0])),
        subspace=SubspaceR(np.eye(2), 2),
    )
    spec = ForwardPowerSpec(
        alpha=0.5,
        kappa_star=DeterministicFn.constant(np.array([0.1, 0.05])),
        nu_star=DeterministicFn.zero(2),
        psi_hat=DeterministicFn.constant(0.04),
    )
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(11213, grid, dim=2, n_paths=100_000)
    triple = simulate_optimal(spec, market, grid, batch)
    for tenor in (1.0, 5.0, 10.0):
        k = grid.index_of(tenor)
        price, se = mean_stderr(triple.y[:, k])
        closed = zc_price_gaussian(market, None, 0.0, tenor)
        assert abs(price - closed) < 4 * se


# ---------------------------------------------------------------------------
# curve construction


def test_curve_from_prices_roundtrip():
    curve = curve_from_prices(np.array([1.0 * np.exp(-0.02 * 10.0)]), np.array([10.0]), method="test")
    assert curve.rates[0] == pytest.approx(0.02, abs=1e-15)
    assert np.max(np.abs(np.exp(-curve.rates * (curve.tenors - curve.asof)) / curve.prices - 1.0)) < 1e-12

    flat = curve_from_prices(np.array([1.0, 1.0]), np.array([1.0, 2.0]))
    assert np.allclose(flat.rates, 0.0)

    with pytest.raises(ValueError):
        curve_from_prices(np.array([-0.1]), np.array([1.0]))
    with pytest.raises(ValueError):
        curve_from_prices(np.array([0.9, 0.8]), np.array([2.0, 1.0]))


def test_closed_form_variance_overflow_reaches_the_curve_range_check():
    # (sigma_r / a)^2 overflows: the price reads inf, without an OverflowError
    # or a warning, and the curve names it
    market = incomplete_vasicek_market(sigma=2e154)
    with np.errstate(over="ignore"):
        assert market_gamma(market).int_sq(0.0, 5.0) == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        price = float(zc_price_gaussian(market, None, 0.0, 5.0))
    with pytest.raises(NumericalRangeError, match="gaussian_closed: rates are not finite"):
        curve_from_prices(np.array([price]), np.array([5.0]), method="gaussian_closed")


# ---------------------------------------------------------------------------
# HJM


def test_hjm_constant_rate():
    market = MarketModel(
        dim=2,
        rate=ConstantRate(0.03),
        risk_premium=DeterministicFn.constant(np.array([0.1, 0.0])),
        subspace=SubspaceR([[1.0, 0.0]], 2),
    )
    tenors = np.arange(0.25, 10.01, 0.25)
    report = hjm_forward_rates(
        price_fn=lambda t: float(zc_price_gaussian(market, None, 0.0, t)), market=market, nu=None, tenors=tenors
    )
    assert np.allclose(report.forward_rates, 0.03, atol=1e-10)
    assert report.max_abs_residual < 1e-10


def test_hjm_vasicek_forward_curve_matches_textbook():
    a, b, sigma, r0 = 1.0, 0.03, 0.02, 0.03
    market = incomplete_vasicek_market(a=a, b=b, sigma=sigma, r0=r0)
    tenors = np.arange(0.25, 10.01, 0.25)
    report = hjm_forward_rates(
        price_fn=lambda t: float(zc_price_gaussian(market, None, 0.0, t)), market=market, nu=None, tenors=tenors
    )
    oracle = textbook_vasicek_forward(a, b, sigma, r0, report.tenors)
    assert np.max(np.abs(report.forward_rates - oracle)) < 5e-5  # central-difference error
    assert report.max_abs_residual < 1e-3


def test_hjm_synthetic_sqrt_gamma():
    market = incomplete_vasicek_market()
    gamma = SyntheticSqrtGamma(c_r=3e-5, c_perp=6e-5, dir_r=E1, dir_perp=E2)
    spec = BackwardSpec(t_horizon=10.0, alpha=0.5, gamma=gamma, market=market)
    nu, _ = solve_backward_vols(spec)
    tenors = np.arange(0.25, 10.01, 0.25)
    # the market's expected rate is flat at b = r0 = 0.03
    report = hjm_forward_rates(
        price_fn=lambda t: zc_price_gaussian(spec.market, nu, 0.0, t, gamma=spec.gamma),
        market=market,
        nu=nu,
        tenors=tenors,
        gamma=gamma,
    )
    assert report.max_abs_residual < 1e-3


def test_hjm_rejects_coarse_grid():
    with pytest.raises(ValueError):
        hjm_forward_rates(
            price_fn=lambda t: np.exp(-0.03 * t),
            market=MarketModel(
                dim=2, rate=ConstantRate(0.03), risk_premium=DeterministicFn.zero(2), subspace=SubspaceR([[1.0, 0.0]], 2)
            ),
            nu=None,
            tenors=np.array([1.0, 2.0]),
        )


# ---------------------------------------------------------------------------
# long rate


def test_long_rate_vasicek_constant():
    gamma = VasicekGamma(a=1.0, sigma_r=0.02, direction=E2)
    report = long_rate(
        gamma, "forward", 0.5, l0=0.03, t=10.0,
        market=incomplete_vasicek_market(),
    )
    assert report.verdict == "constant"
    assert report.slope == 0.0


def test_long_rate_synthetic_forward_increasing():
    c_perp = 6e-5
    gamma = SyntheticSqrtGamma(c_r=0.0, c_perp=c_perp, dir_r=E1, dir_perp=E2)
    report = long_rate(
        gamma, "forward", 0.5, l0=0.03, t=10.0,
        market=incomplete_vasicek_market(),
    )
    assert report.verdict == "increasing"
    assert report.slope == pytest.approx(c_perp / 2.0, abs=1e-18)


def test_long_rate_synthetic_backward_decreasing_low_risk_aversion():
    c_perp = 6e-5
    gamma = SyntheticSqrtGamma(c_r=0.0, c_perp=c_perp, dir_r=E1, dir_perp=E2)
    report = long_rate(
        gamma, "backward", 0.25, l0=0.03, t=10.0,
        market=incomplete_vasicek_market(),
    )
    assert report.verdict == "decreasing"
    assert report.slope == pytest.approx((2 * 0.25 - 1.0) * c_perp / 2.0, abs=1e-18)


def test_long_rate_backward_half_risk_aversion_constant():
    gamma = SyntheticSqrtGamma(c_r=0.0, c_perp=1e-4, dir_r=E1, dir_perp=E2)
    report = long_rate(
        gamma, "backward", 0.5, l0=0.02, t=5.0,
        market=incomplete_vasicek_market(eta0=0.0),
    )
    assert report.verdict == "constant"


def test_long_rate_backward_probe_reads_the_solved_nu():
    # Gamma with an R part: the backward optimum of horizon T is nu = -(1 - alpha) Gamma_perp
    # (solve_backward_vols), so only c_perp enters Gamma . nu; nu = -(1 - alpha) Gamma would take c_r too
    c_r, c_perp, alpha, l0, t = 4e-4, 9e-4, 0.25, 0.03, 10.0
    probes = [50.0, 100.0]
    gamma = SyntheticSqrtGamma(c_r=c_r, c_perp=c_perp, dir_r=E1, dir_perp=E2)
    report = long_rate(
        gamma, "backward", alpha, l0=l0, t=t,
        market=incomplete_vasicek_market(eta0=0.1), probe_tenors=probes,
    )

    def expected(t_mat, nu_sq):
        """l0 + int_0^t (|Gamma|^2 / 2 + Gamma . (nu - eta)) ds / (T - t), Gamma . nu = -(1 - alpha) nu_sq (T - s)."""
        area = t_mat * t - t * t / 2.0  # int_0^t (T - s) ds
        root_area = 2.0 / 3.0 * (t_mat**1.5 - (t_mat - t) ** 1.5)  # int_0^t (T - s)^(1/2) ds
        correction = 0.5 * (c_r + c_perp) * area - (1.0 - alpha) * nu_sq * area - 0.1 * math.sqrt(c_r) * root_area
        return l0 + correction / (t_mat - t)

    for t_mat, y in zip(probes, report.probe_expected_yields):
        assert y == pytest.approx(expected(t_mat, c_perp), rel=1e-12)
        assert abs(y - expected(t_mat, c_r + c_perp)) > 1e-3
    assert report.probe_expected_yields[0] == pytest.approx(0.02637, abs=5e-6)


def test_long_rate_probes_integrate_a_table_eta_between_its_knots():
    # eta steps at 3.3, inside (0, t): each probe's tilt is integrated on
    # both sides of the knot, forward with nu = 0 and backward with the solved nu
    cfg = load_config(None)
    cfg["market"]["eta_r"] = {"times": [0.0, 3.3], "values": [[0.1, 0.0], [0.2, 0.0]]}
    market = build_market(cfg)
    gamma = SyntheticSqrtGamma(c_r=4e-4, c_perp=9e-4, dir_r=E1, dir_perp=E2)
    l0, alpha, t, probes = 0.03, 0.25, 10.0, [50.0, 100.0, 200.0]
    for mode in ("forward", "backward"):
        report = long_rate(gamma, mode, alpha, l0=l0, t=t, market=market, probe_tenors=probes)
        for t_mat, y in zip(probes, report.probe_expected_yields):
            nu = DeterministicFn.zero(2)
            if mode == "backward":
                nu, _ = solve_backward_vols(BackwardSpec(t_mat, alpha, gamma, market))
            tilt = split_quad_tilt(gamma, t_mat, nu, market.risk_premium, 0.0, t, [3.3])
            expected = l0 + (0.5 * (gamma.int_sq(0.0, t_mat) - gamma.int_sq(t, t_mat)) + tilt) / (t_mat - t)
            assert abs(y - expected) <= 1e-12


def test_long_rate_flags_model_without_limit():
    gamma = CustomGamma(fn=lambda s, t: np.outer((t - s) ** 2, E2), dim=2)
    with pytest.raises(ValueError):
        long_rate(
            gamma, "forward", 0.5, l0=0.03, t=5.0,
            market=incomplete_vasicek_market(eta0=0.0),
        )


# ---------------------------------------------------------------------------
# Davis pricing


def test_davis_unit_payoff_equals_zero_coupon():
    market = incomplete_vasicek_market()
    spec = forward_spec()
    grid = TimeGrid(5.0, 20)
    batch = sample_brownian(2468, grid, dim=2, n_paths=50_000)
    triple = simulate_optimal(spec, market, grid, batch)
    k = grid.index_of(5.0)
    zc, _ = mean_stderr(triple.y[:, k])
    unit = davis_report(np.ones(triple.n_paths), triple.y, triple.x, k, k).mean[0]
    assert unit == pytest.approx(zc, rel=1e-12)


def test_davis_linearity_exact():
    market = incomplete_vasicek_market()
    spec = forward_spec()
    grid = TimeGrid(5.0, 20)
    batch = sample_brownian(2469, grid, dim=2, n_paths=100_000)
    triple = simulate_optimal(spec, market, grid, batch)
    k = grid.index_of(5.0)
    y = triple.y
    x_t = triple.x[:, k]
    zeta1 = np.maximum(x_t - 0.9, 0.0)
    zeta2 = np.ones_like(x_t)

    # the price is the mean of the first row
    p1 = davis_report(zeta1, y, triple.x, k, k).mean[0]
    p2 = davis_report(zeta2, y, triple.x, k, k).mean[0]
    combo = davis_report(3.0 * zeta1 + 0.5 * zeta2, y, triple.x, k, k).mean[0]
    assert abs(combo - (3.0 * p1 + 0.5 * p2)) <= 1e-15 * max(abs(combo), 1.0)

    scaled = davis_report(7.0 * zeta1, y, triple.x, k, k).mean[0]
    assert abs(scaled - 7.0 * p1) <= 1e-15 * max(abs(scaled), 1.0)


def test_davis_rejects_negative_payoff():
    with pytest.raises(ValueError):
        davis_report(np.array([-1.0]), np.ones((1, 2)), np.ones((1, 2)), 1, 1)


def test_davis_call_against_two_lognormal_oracle():
    # constant coefficients: (ln X_T, ln Y_T) is exactly Gaussian, so the
    # call price E[(X_T - K)^+ Y_T] has a closed form via a measure tilt;
    # coded here independently with the normal cdf
    from scipy.stats import norm

    r, eta0, alpha = 0.03, 0.1, 0.5
    kappa0, nu0, psi = 0.25, 0.08, 0.04
    horizon, strike = 4.0, 0.9
    market = MarketModel(
        dim=2,
        rate=ConstantRate(r),
        risk_premium=DeterministicFn.constant(np.array([eta0, 0.0])),
        subspace=SubspaceR([[1.0, 0.0]], 2),
    )
    spec = ForwardPowerSpec(
        alpha=alpha,
        kappa_star=DeterministicFn.constant(np.array([kappa0, 0.0])),
        nu_star=DeterministicFn.constant(np.array([0.0, nu0])),
        psi_hat=DeterministicFn.constant(psi),
    )
    grid = TimeGrid(horizon, 16)
    batch = sample_brownian(13579, grid, dim=2, n_paths=200_000)
    triple = simulate_optimal(spec, market, grid, batch)
    k = grid.index_of(horizon)

    mu_u = (r - psi + kappa0 * eta0 - 0.5 * kappa0**2) * horizon
    s2_u = kappa0**2 * horizon
    mu_v = (-r - 0.5 * (nu0**2 + eta0**2)) * horizon
    s2_v = (nu0**2 + eta0**2) * horizon
    cov_uv = kappa0 * (-eta0) * horizon  # kappa . (nu - eta)
    mu_tilt = mu_u + cov_uv
    s_u = np.sqrt(s2_u)
    d2 = (mu_tilt - np.log(strike)) / s_u
    d1 = d2 + s_u
    oracle = np.exp(mu_v + 0.5 * s2_v) * (
        np.exp(mu_tilt + 0.5 * s2_u) * norm.cdf(d1) - strike * norm.cdf(d2)
    )

    zeta = np.maximum(triple.x[:, k] - strike, 0.0)
    mean, stderr = davis_report(zeta, triple.y, triple.x, k, k).estimate()
    assert abs(mean[0] - oracle) < 3 * stderr[0]


@pytest.mark.parametrize(
    "rate, inner_paths, n_outer, threads",
    [
        (None, 512, 16, "1"),
        (ConstantRate(0.03), 512, 16, "1"),
        (VasicekRate(a=1.0, b=0.03, sigma=0.0, r0=0.03, w_dir=E2), 512, 16, "1"),
        # one outer path spans two 8192-row blocks of its streams, filled by two threads
        (None, 9000, 2, "2"),
        # the last chunk holds fewer outer paths than the others
        (None, 512, 13, "1"),
    ],
    ids=["vasicek", "constant-rate", "sigma-r-0", "two-rng-blocks", "partial-chunk"],
)
def test_davis_conditional_unit_payoff_matches_nested_zc(rate, inner_paths, n_outer, threads, monkeypatch):
    # the nested price of the unit claim is, outer path by outer path, the
    # controlled inner average over the derived inner stream: the control is
    # the public state-price simulation on a zero short rate, and the ratio
    # discounts it by the integral of the short rate restarted from its
    # realized value
    monkeypatch.setenv("FORWARD_YIELD_THREADS", threads)
    market = incomplete_vasicek_market()
    if rate is not None:
        market = replace(market, rate=rate)
    spec = forward_spec()
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(2470, grid, dim=2, n_paths=32)
    triple = simulate_optimal(spec, market, grid, batch)
    k_t, k_mat = grid.index_of(2.0), grid.index_of(6.0)
    controlled, plain = marginal_zc_mc(triple, k_t, [k_mat], inner_paths=inner_paths, max_outer=n_outer)

    sub = TimeGrid(grid.times[k_mat] - grid.times[k_t], k_mat - k_t)
    expected = np.empty((3, n_outer))
    for i in range(n_outer):
        seed = int(substream_seed(2470, PURPOSE_INNER, i, k_t).generate_state(1, np.uint64)[0])
        inner = sample_brownian(seed, sub, 2, inner_paths)
        zero_rate = simulate_short_rate(ConstantRate(0.0), sub, inner)
        control = state_price_paths(market, sub, inner, zero_rate.integral, nu=spec.nu_star)[:, -1]
        rates = simulate_short_rate(market.rate, sub, inner, r0=triple.rate_paths.r[i, k_t])
        ratio = control * np.exp(-rates.integral[:, -1])
        (expected[0, i], expected[1, i]), (expected[2, i], _) = control_variate_estimate(ratio, control, 1.0)
    assert np.array_equal(controlled.mean[0], expected[0])
    assert np.array_equal(controlled.stderr[0], expected[1])
    assert np.array_equal(plain.mean[0], expected[2])


@pytest.mark.parametrize(
    "inner_paths, n_outer", [(64, 40), (3000, 2)], ids=["many-outer-paths-per-chunk", "inner-paths-above-chunk"]
)
def test_nested_simulates_each_inner_row_once_in_chunks(inner_paths, n_outer, monkeypatch):
    # n_outer * inner_paths inner rows, each simulated once, in stacks of at
    # most max(chunk, inner_paths) rows
    import forward_yield.curves as curves

    calls = []
    original = curves.simulate_short_rate

    def recording(model, grid, batch, **kwargs):
        calls.append(batch.n_paths)
        return original(model, grid, batch, **kwargs)

    triple = nested_triple()
    grid = triple.grid
    monkeypatch.setattr(curves, "simulate_short_rate", recording)
    k_mats = [grid.index_of(t) for t in (3.0, 5.0)]
    marginal_zc_mc(triple, grid.index_of(2.0), k_mats, inner_paths=inner_paths, max_outer=n_outer)
    rows = n_outer * inner_paths
    assert sum(calls) == rows
    assert max(calls) <= max(curves._LOG_ROWS, inner_paths)
    assert len(calls) <= -(-rows // curves._LOG_ROWS)


def test_davis_capitalization_time_consistency():
    # price a date-T claim directly and through its horizon capitalization in
    # the consumption-free optimal wealth; both are the same linear price
    market = incomplete_vasicek_market()
    gamma = market_gamma(market)
    spec = BackwardSpec(
        t_horizon=10.0, alpha=0.5, gamma=gamma, market=market,
    )
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(97531, grid, dim=2, n_paths=100_000)
    x, y = backward_optimal_paths(spec, grid, batch, *solve_backward_vols(spec))
    k_mat, k_h = grid.index_of(5.0), grid.index_of(10.0)
    zeta = np.maximum(x[:, k_mat] - 0.8, 0.0)
    # rows: the direct price, the price via the horizon, and their gap
    mean, se = davis_report(zeta, y, x, k_mat, k_h).estimate()
    assert abs(t_stat(mean[2], se[2])) < 3.0
    assert mean[0] == pytest.approx(mean[1], rel=0.02)


# ---------------------------------------------------------------------------
# pathwise Ramsey


def test_pathwise_ramsey_forward():
    market = incomplete_vasicek_market()
    spec = forward_spec()
    grid = TimeGrid(5.0, 20)
    batch = sample_brownian(86420, grid, dim=2, n_paths=2_000)
    triple = simulate_optimal(spec, market, grid, batch)
    marg = forward_marginal_consumption_paths(triple, 2.0, slice(None))
    assert pathwise_ramsey_report(triple, x0=2.0) < 1e-9
    # t = 0 residual is exactly zero by normalization
    assert np.allclose(marg[:, 0] / marg[:, 0], 1.0)
