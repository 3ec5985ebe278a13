import numpy as np
import pytest
from scipy import integrate

from forward_yield import (
    ConstantRate,
    DeterministicFn,
    MarketModel,
    SubspaceR,
    SubspaceViolationError,
    TimeGrid,
    VasicekRate,
    sample_brownian,
    simulate_short_rate,
    state_price_paths,
    wealth_paths,
)
from forward_yield.brownian import _BLOCK, stream_blocks
from forward_yield.stats import STAT_BAND, interval_drift_report

E1, E2 = np.eye(2)


def textbook_vasicek_price(a, b, sigma, r0, tau):
    """Independent oracle: affine-form bond price A(tau) exp(-B(tau) r0)."""
    bee = (1.0 - np.exp(-a * tau)) / a
    log_a = (b - sigma**2 / (2 * a**2)) * (bee - tau) - sigma**2 * bee**2 / (4 * a)
    return np.exp(log_a - bee * r0)


def deflated_wealth(y, x, grid, psi=0.0):
    """Y X + int Y c ds with c = psi X, the integral a running trapezoid sum:
    a local martingale for admissible strategies."""
    return y * x + integrate.cumulative_trapezoid(y * psi * x, grid.times, axis=1, initial=0.0)


def rate_integral(market, grid, batch):
    """Each path's running integral of the market's short rate."""
    return simulate_short_rate(market.rate, grid, batch).integral


def two_dim_market(rate=None, eta=(0.05, 0.0)):
    rate = rate if rate is not None else ConstantRate(0.03)
    return MarketModel(
        dim=2,
        rate=rate,
        risk_premium=DeterministicFn.constant(np.array(eta)),
        subspace=SubspaceR([[1.0, 0.0]], 2),
    )


def test_state_price_constant_when_all_drivers_off():
    market = two_dim_market(rate=ConstantRate(0.0), eta=(0.0, 0.0))
    grid = TimeGrid(1.0, 10)
    batch = sample_brownian(11, grid, dim=2, n_paths=16)
    y = state_price_paths(market, grid, batch, rate_integral(market, grid, batch))
    assert np.allclose(y, 1.0, atol=1e-15)


def test_state_price_martingale_mean():
    # E[Y_T e^{int r}] = y0 because the exponential martingale has mean one
    market = two_dim_market(rate=ConstantRate(0.02), eta=(0.08, 0.0))
    grid = TimeGrid(2.0, 20)
    batch = sample_brownian(123, grid, dim=2, n_paths=100_000)
    rate_paths = simulate_short_rate(market.rate, grid, batch)
    y = state_price_paths(market, grid, batch, rate_paths.integral)
    capitalized = y[:, -1] * np.exp(rate_paths.integral[:, -1])
    se = capitalized.std(ddof=1) / np.sqrt(len(capitalized))
    assert abs(capitalized.mean() - 1.0) < 3 * se


def test_minimal_density_matches_vasicek_bond_oracle():
    # rate noise orthogonal to the premium, so E[Y0_T] is the riskless bond
    a, b, sigma, r0 = 1.0, 0.03, 0.02, 0.03
    market = two_dim_market(rate=VasicekRate(a=a, b=b, sigma=sigma, r0=r0, w_dir=E2), eta=(0.03, 0.0))
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(314159, grid, dim=2, n_paths=100_000)
    y = state_price_paths(market, grid, batch, rate_integral(market, grid, batch))
    for tenor in (1.0, 5.0, 10.0):
        k = grid.index_of(tenor)
        price = y[:, k].mean()
        oracle = textbook_vasicek_price(a, b, sigma, r0, tenor)
        assert abs(price / oracle - 1.0) < 2e-3


def test_minimal_density_with_hedgeable_rate_noise_tilt():
    # rate noise along the premium direction: E[Y0_T] picks up the
    # covariance tilt exp(-int Gamma . eta)
    a, b, sigma, r0, eta0 = 1.0, 0.03, 0.02, 0.03, 0.05
    market = MarketModel(
        dim=2,
        rate=VasicekRate(a=a, b=b, sigma=sigma, r0=r0, w_dir=E1),
        risk_premium=DeterministicFn.constant(np.array([eta0, 0.0])),
        subspace=SubspaceR(np.eye(2), 2),
    )
    grid = TimeGrid(8.0, 32)
    batch = sample_brownian(2718, grid, dim=2, n_paths=100_000)
    y = state_price_paths(market, grid, batch, rate_integral(market, grid, batch))
    k = grid.index_of(8.0)
    tilt, _ = integrate.quad(lambda s: sigma / a * (1.0 - np.exp(-a * (8.0 - s))) * eta0, 0.0, 8.0)
    oracle = textbook_vasicek_price(a, b, sigma, r0, 8.0) * np.exp(-tilt)
    vals = y[:, k]
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - oracle) < 4 * se


def test_state_price_rejects_nu_outside_complement():
    market = two_dim_market()
    grid = TimeGrid(1.0, 4)
    batch = sample_brownian(5, grid, dim=2, n_paths=8)
    nu = DeterministicFn.constant(np.array([0.1, 0.0]))
    with pytest.raises(SubspaceViolationError):
        state_price_paths(market, grid, batch, rate_integral(market, grid, batch), nu=nu)


def test_factorization_against_exponential_martingale():
    # Y^nu = Y^0 * E(nu) pathwise, checked in log space
    market = two_dim_market(rate=VasicekRate(a=1.0, b=0.03, sigma=0.02, r0=0.02, w_dir=E2))
    grid = TimeGrid(3.0, 30)
    batch = sample_brownian(909, grid, dim=2, n_paths=256)
    nu = DeterministicFn.constant(np.array([0.0, 0.12]))
    integral = rate_integral(market, grid, batch)
    y_nu = state_price_paths(market, grid, batch, integral, nu=nu)
    y_0 = state_price_paths(market, grid, batch, integral)
    nu_k = np.atleast_2d(nu.values(grid.times[:-1]))
    mart = np.einsum("nkd,kd->nk", batch.increments, nu_k)
    log_dens = np.zeros_like(y_0)
    np.cumsum(mart - 0.5 * np.sum(nu_k * nu_k, axis=1) * grid.widths[0], axis=1, out=log_dens[:, 1:])
    gap = np.log(y_nu) - np.log(y_0) - log_dens
    assert np.max(np.abs(gap)) < 1e-10


def test_money_market_wealth_exact():
    market = two_dim_market(rate=ConstantRate(0.04), eta=(0.1, 0.0))
    grid = TimeGrid(2.0, 8)
    batch = sample_brownian(6, grid, dim=2, n_paths=12)
    w = wealth_paths(market, grid, batch, rate_integral(market, grid, batch), kappa=DeterministicFn.zero(2))
    assert np.allclose(w, np.exp(0.04 * grid.times), atol=1e-12)


def test_proportional_consumption_lognormal_mean():
    r, psi, eta0 = 0.03, 0.05, 0.1
    kappa_vec = np.array([0.2, 0.0])
    market = two_dim_market(rate=ConstantRate(r), eta=(eta0, 0.0))
    grid = TimeGrid(4.0, 16)
    batch = sample_brownian(321, grid, dim=2, n_paths=100_000)
    w = wealth_paths(
        market, grid, batch, rate_integral(market, grid, batch),
        kappa=DeterministicFn.constant(kappa_vec), consumption=DeterministicFn.constant(psi),
    )
    log_x = np.log(w[:, -1])
    oracle = (r - psi + kappa_vec[0] * eta0 - 0.5 * kappa_vec @ kappa_vec) * 4.0
    se = log_x.std(ddof=1) / np.sqrt(len(log_x))
    assert abs(log_x.mean() - oracle) < 3 * se


def test_wealth_rejects_kappa_outside_subspace():
    market = two_dim_market()
    grid = TimeGrid(1.0, 4)
    batch = sample_brownian(9, grid, dim=2, n_paths=4)
    kappa = DeterministicFn.constant(np.array([0.0, 0.2]))
    with pytest.raises(SubspaceViolationError):
        wealth_paths(market, grid, batch, rate_integral(market, grid, batch), kappa=kappa)


def test_drift_test_money_market_and_consumption():
    market = two_dim_market(rate=VasicekRate(a=1.0, b=0.03, sigma=0.02, r0=0.03, w_dir=E2), eta=(0.1, 0.0))
    grid = TimeGrid(2.0, 10)
    batch = sample_brownian(1001, grid, dim=2, n_paths=50_000)
    integral = rate_integral(market, grid, batch)
    y = state_price_paths(market, grid, batch, integral)

    money = wealth_paths(market, grid, batch, integral, kappa=DeterministicFn.zero(2))
    report = interval_drift_report(deflated_wealth(y, money, grid))
    assert report.max_abs_t <= STAT_BAND

    risky = wealth_paths(
        market, grid, batch, integral,
        kappa=DeterministicFn.constant(np.array([0.25, 0.0])),
        consumption=DeterministicFn.constant(0.06),
    )
    report = interval_drift_report(deflated_wealth(y, risky, grid, psi=0.06))
    assert report.max_abs_t <= STAT_BAND
    # closed-form oracle: E[M_T] - M_0 = 0 for any admissible pair
    assert abs(report.total_t) < 4


def test_drift_test_flags_misspecified_nu():
    # a dual volatility with a hedgeable component breaks the martingale
    # property with analytic drift rate kappa . nu_R per unit time
    market = two_dim_market(rate=ConstantRate(0.02), eta=(0.1, 0.0))
    grid = TimeGrid(2.0, 10)
    batch = sample_brownian(4321, grid, dim=2, n_paths=50_000)
    rate_paths = simulate_short_rate(market.rate, grid, batch)

    bad_nu = np.array([0.1, 0.0])  # lies inside the subspace
    eta = np.array([0.1, 0.0])
    vol = bad_nu - eta
    mart = np.einsum("nkd,d->nk", batch.increments, vol)
    dlog = mart - 0.5 * (vol @ vol) * grid.widths[0]
    log_y = np.zeros((batch.n_paths, grid.n_steps + 1))
    np.cumsum(dlog, axis=1, out=log_y[:, 1:])
    bad_y = np.exp(log_y - rate_paths.integral)

    risky = wealth_paths(
        market, grid, batch, rate_paths.integral, kappa=DeterministicFn.constant(np.array([0.2, 0.0]))
    )
    report = interval_drift_report(deflated_wealth(bad_y, risky, grid))
    assert np.any(np.abs(report.interval_t) > STAT_BAND)
    # analytic drift: d(YX)/(YX) = kappa . nu dt = 0.02 dt > 0
    assert report.total_t > 4


def test_state_price_strictly_positive():
    market = two_dim_market()
    grid = TimeGrid(1.0, 8)
    batch = sample_brownian(2, grid, dim=2, n_paths=1000)
    nu = DeterministicFn.constant(np.array([0.0, 0.4]))
    y = state_price_paths(market, grid, batch, rate_integral(market, grid, batch), nu=nu)
    assert np.all(y > 0.0)


def test_deflated_paths_include_running_consumption():
    market = two_dim_market(rate=ConstantRate(0.0), eta=(0.0, 0.0))
    grid = TimeGrid(1.0, 4)
    batch = sample_brownian(3, grid, dim=2, n_paths=5)
    integral = rate_integral(market, grid, batch)
    y = state_price_paths(market, grid, batch, integral)
    psi = DeterministicFn.constant(0.1)
    w = wealth_paths(market, grid, batch, integral, kappa=DeterministicFn.zero(2), consumption=psi)
    m = deflated_wealth(y, w, grid, psi=0.1)
    assert m.shape == w.shape
    assert np.all(m[:, -1] > w[:, -1])  # consumption was paid out and credited back


def _leaves_at_last_date(inside, outside):
    # piecewise constant: inside on [0, 1), outside from the last grid date t = 1 on
    return DeterministicFn.table(np.array([0.0, 1.0]), np.array([inside, outside]))


def test_coefficients_checked_on_the_last_grid_date():
    # the path builders use the left endpoints of the k steps they simulate
    # but check all K+1 dates, also for k < K: a horizon's (nu, kappa) is
    # checked on its whole [0, T_H] when only [0, t_common] is simulated
    market = two_dim_market()
    grid = TimeGrid(1.0, 4)
    batch = sample_brownian(10, grid, dim=2, n_paths=4)
    bad_eta = MarketModel(
        dim=2, rate=ConstantRate(0.03), risk_premium=_leaves_at_last_date([0.05, 0.0], [0.05, 0.1]),
        subspace=SubspaceR([[1.0, 0.0]], 2),
    )
    for k in (4, 2):
        integral = rate_integral(market, grid, batch)[:, : k + 1]
        with pytest.raises(SubspaceViolationError):
            wealth_paths(market, grid, batch, integral, kappa=_leaves_at_last_date([0.2, 0.0], [0.2, 0.3]))
        with pytest.raises(SubspaceViolationError):
            state_price_paths(market, grid, batch, integral, nu=_leaves_at_last_date([0.0, 0.1], [0.1, 0.1]))
        with pytest.raises(SubspaceViolationError):
            state_price_paths(bad_eta, grid, batch, integral)


def test_paths_on_a_prefix_of_the_rate_steps_are_the_leading_columns():
    # the rate integral on the first k + 1 dates simulates the first k steps of
    # grid, bit for bit those of the K-step run, with coefficients that change
    # value after date k
    market = two_dim_market(rate=VasicekRate(a=1.0, b=0.03, sigma=0.02, r0=0.03, w_dir=E2))
    grid = TimeGrid.of_times([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
    batch = sample_brownian(12, grid, dim=2, n_paths=50)
    integral = rate_integral(market, grid, batch)
    kappa = DeterministicFn.table(np.array([0.0, 1.2]), np.array([[0.3, 0.0], [0.1, 0.0]]))
    nu = DeterministicFn.table(np.array([0.0, 1.2]), np.array([[0.0, 0.2], [0.0, -0.1]]))
    psi = DeterministicFn.table(np.array([0.0, 0.4]), np.array([0.1, 0.02]))
    x = wealth_paths(market, grid, batch, integral, kappa, psi)
    y = state_price_paths(market, grid, batch, integral, nu)
    for k in (1, 3):
        assert np.array_equal(wealth_paths(market, grid, batch, integral[:, : k + 1], kappa, psi), x[:, : k + 1])
        assert np.array_equal(state_price_paths(market, grid, batch, integral[:, : k + 1], nu), y[:, : k + 1])


def test_log_paths_in_row_blocks_equal_the_whole_array_form():
    # rows span two full blocks of the streams and a tail; the paths are one
    # product per block, so each block's own batch reads them bit for bit, and
    # they are the whole-array einsum/cumsum scheme, the rate integral added
    # after the sum, or subtracted for a state-price density, up to the order
    # of the sums
    n, seed = 2 * _BLOCK + 5, 5
    eta = np.array([0.05, 0.0])
    market = two_dim_market(eta=eta)
    grid = TimeGrid(3.0, 12)
    kappa = DeterministicFn.table(np.array([0.0, 1.0]), np.array([[0.3, 0.0], [0.1, 0.0]]))
    nu = DeterministicFn.table(np.array([0.0, 2.0]), np.array([[0.0, 0.2], [0.0, -0.1]]))
    psi = DeterministicFn.constant(0.04)
    integral = np.zeros((n, grid.n_steps + 1))
    np.cumsum(0.01 * np.random.default_rng(5).standard_normal((n, grid.n_steps)), axis=1, out=integral[:, 1:])
    batch = sample_brownian(seed, grid, dim=2, n_paths=n)
    x = wealth_paths(market, grid, batch, integral, kappa, psi)
    y = state_price_paths(market, grid, batch, integral, nu)
    for b0, b1 in stream_blocks(n):
        block = sample_brownian(seed, grid, dim=2, n_paths=b1 - b0, first_row=b0)
        assert np.array_equal(wealth_paths(market, grid, block, integral[b0:b1], kappa, psi), x[b0:b1])
        assert np.array_equal(state_price_paths(market, grid, block, integral[b0:b1], nu), y[b0:b1])
    kappa_k, dual_k = kappa.values(grid.times[:-1]), nu.values(grid.times[:-1]) - eta
    drift_x = kappa_k @ eta - 0.5 * np.sum(kappa_k**2, axis=1) - 0.04
    drift_y = -0.5 * np.sum(dual_k**2, axis=1)
    for paths, vol, drift, sign in ((x, kappa_k, drift_x, 1), (y, dual_k, drift_y, -1)):
        dlog = np.einsum("nkd,kd->nk", batch.increments, vol)
        dlog += drift * grid.widths
        log_paths = np.zeros((n, grid.n_steps + 1))
        np.cumsum(dlog, axis=1, out=log_paths[:, 1:])
        np.testing.assert_allclose(paths, np.exp(log_paths + sign * integral), rtol=2e-15, atol=0.0)


def test_long_grid_paths_are_the_whole_array_scheme_bit_for_bit():
    # on 70 steps at dim 2 a product over every date would hold 9,940
    # coefficients, so the paths are a cumulative sum over the steps, walked
    # in blocks of _LOG_ROWS rows: each row's operations are those of the
    # whole-array einsum/cumsum scheme, the rate integral added after the sum,
    # or subtracted for a state-price density, so the bits are too
    from forward_yield.market import _LOG_ROWS

    n, seed = 2 * _LOG_ROWS + 5, 7
    eta = np.array([0.05, 0.0])
    market = two_dim_market(eta=eta)
    grid = TimeGrid(3.0, 70)
    kappa = DeterministicFn.table(np.array([0.0, 1.0]), np.array([[0.3, 0.0], [0.1, 0.0]]))
    nu = DeterministicFn.table(np.array([0.0, 2.0]), np.array([[0.0, 0.2], [0.0, -0.1]]))
    integral = np.zeros((n, grid.n_steps + 1))
    np.cumsum(0.01 * np.random.default_rng(7).standard_normal((n, grid.n_steps)), axis=1, out=integral[:, 1:])
    batch = sample_brownian(seed, grid, dim=2, n_paths=n)
    x = wealth_paths(market, grid, batch, integral, kappa, DeterministicFn.constant(0.04))
    y = state_price_paths(market, grid, batch, integral, nu)
    kappa_k, dual_k = kappa.values(grid.times[:-1]), nu.values(grid.times[:-1]) - eta
    drift_x = kappa_k @ eta - 0.5 * np.sum(kappa_k**2, axis=1) - 0.04
    drift_y = -0.5 * np.sum(dual_k**2, axis=1)
    for paths, vol, drift, sign in ((x, kappa_k, drift_x, 1), (y, dual_k, drift_y, -1)):
        dlog = np.einsum("nkd,kd->nk", batch.increments, vol)
        dlog += drift * grid.widths
        log_paths = np.zeros((n, grid.n_steps + 1))
        np.cumsum(dlog, axis=1, out=log_paths[:, 1:])
        assert np.array_equal(paths, np.exp(log_paths + sign * integral))


def test_running_states_take_the_product_while_the_map_is_small():
    # a map of every date on k steps holds k (k + 1) dim coefficients: the
    # states are log_map's product up to _RUNNING_PRODUCT_COEFFS of them and
    # the cumulative sum over the steps past it, bit for bit each, and the
    # two forms agree up to the order of the sums
    from forward_yield.market import _RUNNING_PRODUCT_COEFFS, log_map, running_levels, running_states

    rng = np.random.default_rng(11)
    grid = TimeGrid(5.0, 80)
    vol, drift = 0.2 * rng.standard_normal((80, 2)), 0.01 * rng.standard_normal(80)
    batch = sample_brownian(11, grid, dim=2, n_paths=300)
    assert 63 * 64 * 2 <= _RUNNING_PRODUCT_COEFFS < 64 * 65 * 2
    short = running_states(vol, drift, grid.widths, 63)(batch)
    assert np.array_equal(short, log_map(vol, drift, grid.widths, np.arange(64)).log_states(batch))
    long = running_states(vol, drift, grid.widths, 64)(batch)
    dlog = np.einsum("nkd,kd->nk", batch.increments[:, :64], vol[:64]) + drift[:64] * grid.widths[:64]
    assert np.array_equal(long[:, 1:], np.cumsum(dlog, axis=1)) and not long[:, 0].any()
    np.testing.assert_allclose(long[:, :64], short, rtol=1e-12, atol=1e-14)
    # the integrated rate covers every date of the states, or the read fails
    with pytest.raises(ValueError, match="every date"):
        running_levels(running_states(vol, drift, grid.widths, 64), batch, np.zeros((300, 64)))
