import math

import numpy as np
import pytest
from scipy import integrate

from forward_yield import (
    ConstantRate,
    TimeGrid,
    VasicekGamma,
    VasicekRate,
    sample_brownian,
    simulate_short_rate,
)
from forward_yield.brownian import PURPOSE_RATE_RESIDUALS, blocked_normals
from forward_yield.errors import NumericalRangeError

E2 = np.eye(2)[1]


def ou_integral_moments(a, b, sigma, r0, t):
    """Independent oracle: mean and variance of int_0^t r ds for the
    mean-reverting Gaussian rate, via quadrature of the covariance kernel."""
    mean = b * t + (r0 - b) * (1.0 - np.exp(-a * t)) / a
    var, _ = integrate.quad(lambda s: (sigma / a * (1.0 - np.exp(-a * (t - s)))) ** 2, 0.0, t)
    return mean, var


def row_major_reference(model, grid, batch):
    """The Vasicek recursion as first written, path-major over (n, K+1)
    arrays, with each step's integral from the SDE identity
    int r ds = b h - (r_{k+1} - r_k + sigma dW~) / a; the time-major kernel
    must reproduce its bits."""
    a, sigma, h, n, k_steps = model.a, model.sigma, grid.widths[0], batch.n_paths, grid.n_steps
    e1 = np.expm1(-a * h)
    e2 = np.expm1(-2.0 * a * h)
    decay = 1.0 + e1
    c1 = -e1 / a
    v11 = -e2 / (2.0 * a)
    s11 = max(v11 - c1 * c1 / h, 0.0)
    l11 = np.sqrt(s11)
    w = batch.projected_increments(model.w_dir)
    if sigma > 0.0:
        z = blocked_normals(batch.seed, PURPOSE_RATE_RESIDUALS, n, (k_steps,))
        g1 = (c1 / h) * w + l11 * z
    else:
        g1 = np.zeros_like(w)
    r = np.empty((n, k_steps + 1))
    r[:, 0] = model.r0
    for k in range(k_steps):
        dev = r[:, k] - model.b
        r[:, k + 1] = model.b + dev * decay - sigma * g1[:, k]
    step_int = model.b * h - (np.diff(r, axis=1) + sigma * w) / a
    integral = np.zeros((n, k_steps + 1))
    np.cumsum(step_int, axis=1, out=integral[:, 1:])
    return r, integral


@pytest.mark.parametrize("sigma", [0.02, 0.0])
@pytest.mark.parametrize("n_steps", [1, 40])
def test_time_major_recursion_keeps_the_row_major_bits(sigma, n_steps):
    # 8192 + 5 rows: the rate residuals span two blocks of the draw
    grid = TimeGrid(10.0, n_steps)
    batch = sample_brownian(4711, grid, dim=2, n_paths=8192 + 5)
    model = VasicekRate(a=0.3, b=0.04, sigma=sigma, r0=0.01, w_dir=np.array([0.6, 0.8]))
    paths = simulate_short_rate(model, grid, batch)
    r, integral = row_major_reference(model, grid, batch)
    # r is a view of the kernel's time-major rows, and the integral path-major
    assert paths.r.T.flags.c_contiguous and paths.integral.flags.c_contiguous
    assert np.array_equal(paths.r, r)
    assert np.array_equal(paths.integral, integral)


def test_zc_volatility_values():
    gamma = VasicekGamma(a=1.0, sigma_r=0.02, direction=E2)
    assert gamma.scalar(1.0, 1.0) == 0.0
    val = gamma.scalar(0.0, 1.0)
    assert val == pytest.approx(0.02 * (1.0 - np.exp(-1.0)), abs=1e-12)
    assert val == pytest.approx(0.0126424, abs=5e-8)
    # asymptote sigma / a for long time-to-maturity
    assert gamma.scalar(0.0, 500.0) == pytest.approx(0.02, rel=1e-12)


@pytest.mark.parametrize(
    "one_minus_decay",
    [
        lambda x: VasicekGamma(a=1.0, sigma_r=1.0, direction=E2).scalar(0.0, x),
        lambda x: VasicekRate(a=1.0, b=0.0, sigma=0.0, r0=0.0, w_dir=E2).integral_mean(1.0, x),
    ],
    ids=["gamma_scalar", "integral_mean"],
)
def test_one_minus_decay_is_accurate_for_small_a_tau(one_minus_decay):
    # 1 - e^{-x} formed by subtraction loses digits as x -> 0 (2.2e-5 relative
    # at x = 1e-12); the Taylor series through x^6 is exact to 1e-22 here
    x = np.logspace(-12, -3, 28)
    series = sum((-1) ** (k + 1) * x**k / math.factorial(k) for k in range(1, 7))
    np.testing.assert_allclose(one_minus_decay(x), series, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("tau", [0.25, 10.0])
@pytest.mark.parametrize("a", np.logspace(-8, 1, 10))
def test_int_sq_matches_quadrature(a, tau):
    # the closed form cancels as a tau -> 0; at a = 1e-8 it went negative
    sigma = 0.02
    gamma = VasicekGamma(a=a, sigma_r=sigma, direction=E2)
    oracle, _ = integrate.quad(lambda s: (sigma * np.expm1(-a * (tau - s)) / a) ** 2, 0.0, tau, epsrel=1e-13)
    assert gamma.int_sq(0.0, tau) == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_constant_rate_integral():
    grid = TimeGrid(2.0, 8)
    batch = sample_brownian(1, grid, dim=1, n_paths=4)
    paths = simulate_short_rate(ConstantRate(0.03), grid, batch)
    assert np.allclose(paths.r, 0.03)
    assert paths.integral[0, -1] == pytest.approx(0.06, abs=1e-15)


def test_vasicek_zero_vol_is_deterministic():
    grid = TimeGrid(5.0, 20)
    batch = sample_brownian(2, grid, dim=2, n_paths=8)
    model = VasicekRate(a=1.0, b=0.03, sigma=0.0, r0=0.03, w_dir=E2)
    paths = simulate_short_rate(model, grid, batch)
    assert np.allclose(paths.r, 0.03, atol=1e-15)
    assert np.allclose(paths.integral[:, -1], 0.15, atol=1e-14)


def test_vasicek_zero_vol_off_level_matches_ou_mean():
    grid = TimeGrid(4.0, 16)
    batch = sample_brownian(3, grid, dim=1, n_paths=2)
    model = VasicekRate(a=0.7, b=0.05, sigma=0.0, r0=0.01, w_dir=np.array([1.0]))
    paths = simulate_short_rate(model, grid, batch)
    t = grid.times
    assert np.allclose(paths.r[0], 0.05 + (0.01 - 0.05) * np.exp(-0.7 * t), atol=1e-14)
    mean, _ = ou_integral_moments(0.7, 0.05, 0.0, 0.01, 4.0)
    assert paths.integral[0, -1] == pytest.approx(mean, rel=1e-12)


def test_vasicek_integrated_rate_moments_match_oracle():
    a, b, sigma, r0, horizon = 1.0, 0.03, 0.02, 0.03, 10.0
    grid = TimeGrid(horizon, 40)
    batch = sample_brownian(20240901, grid, dim=2, n_paths=100_000)
    model = VasicekRate(a=a, b=b, sigma=sigma, r0=r0, w_dir=E2)
    paths = simulate_short_rate(model, grid, batch)

    mean_oracle, var_oracle = ou_integral_moments(a, b, sigma, r0, horizon)
    total = paths.integral[:, -1]
    n = len(total)

    se_mean = total.std(ddof=1) / np.sqrt(n)
    assert abs(total.mean() - mean_oracle) < 3 * se_mean

    # variance estimator sd ~ var * sqrt(2 / n) for Gaussian data
    se_var = var_oracle * np.sqrt(2.0 / n)
    assert abs(total.var(ddof=1) - var_oracle) < 3 * se_var


def test_vasicek_terminal_rate_moments():
    a, b, sigma, r0 = 1.3, 0.04, 0.015, 0.01
    grid = TimeGrid(3.0, 12)
    batch = sample_brownian(77, grid, dim=1, n_paths=200_000)
    model = VasicekRate(a=a, b=b, sigma=sigma, r0=r0, w_dir=np.array([1.0]))
    paths = simulate_short_rate(model, grid, batch)
    r_t = paths.r[:, -1]
    mean_oracle = b + (r0 - b) * np.exp(-a * 3.0)
    var_oracle = sigma**2 / (2 * a) * (1.0 - np.exp(-2 * a * 3.0))
    assert abs(r_t.mean() - mean_oracle) < 4 * r_t.std(ddof=1) / np.sqrt(len(r_t))
    assert abs(r_t.var(ddof=1) / var_oracle - 1.0) < 4 * np.sqrt(2.0 / len(r_t))


def test_exact_transition_is_step_size_invariant():
    # the joint law of (r_T, int r) is exact, so a 4-step and a 64-step grid
    # give statistically identical moments; compare against the oracle, also
    # at a slow mean reversion where the integral is nearly that of a Brownian motion
    b, sigma, r0, horizon = 0.02, 0.03, 0.05, 6.0
    for a in (0.8, 1e-6):
        model = VasicekRate(a=a, b=b, sigma=sigma, r0=r0, w_dir=np.array([1.0]))
        _, var_oracle = ou_integral_moments(a, b, sigma, r0, horizon)
        for n_steps in (4, 64):
            grid = TimeGrid(horizon, n_steps)
            batch = sample_brownian(5150, grid, dim=1, n_paths=100_000)
            total = simulate_short_rate(model, grid, batch).integral[:, -1]
            assert abs(total.var(ddof=1) / var_oracle - 1.0) < 4 * np.sqrt(2.0 / len(total))


def test_non_uniform_grid_matches_closed_form_moments():
    # steps of 1, 2 and 2.5 years: the transition is exact, so r and int r
    # have their closed-form law at every date whatever the step widths
    a, b, sigma, r0 = 0.6, 0.04, 0.03, 0.01
    grid = TimeGrid.of_times([0.0, 1.0, 3.0, 5.5])
    batch = sample_brownian(31415, grid, dim=2, n_paths=100_000)
    model = VasicekRate(a=a, b=b, sigma=sigma, r0=r0, w_dir=E2)
    paths = simulate_short_rate(model, grid, batch)
    n = batch.n_paths
    for k, t in enumerate(grid.times[1:], start=1):
        r_mean = b + (r0 - b) * np.exp(-a * t)
        r_var = sigma**2 / (2 * a) * -np.expm1(-2 * a * t)
        int_mean, int_var = ou_integral_moments(a, b, sigma, r0, t)
        for sample, mean, var in ((paths.r[:, k], r_mean, r_var), (paths.integral[:, k], int_mean, int_var)):
            assert abs(sample.mean() - mean) < 4 * np.sqrt(var / n)
            assert abs(sample.var(ddof=1) / var - 1.0) < 4 * np.sqrt(2.0 / n)


def test_integral_brownian_covariance():
    # cov(int_0^T r, W_T) = -sigma int_0^T (1 - e^{-a(T-s)})/a ds, a cross
    # moment the conditional sampling must reproduce
    sigma, horizon = 0.05, 2.0
    grid = TimeGrid(horizon, 8)
    batch = sample_brownian(88, grid, dim=1, n_paths=300_000)
    w_t = batch.increments[:, :, 0].sum(axis=1)
    for a in (1.0, 1e-6):
        model = VasicekRate(a=a, b=0.0, sigma=sigma, r0=0.0, w_dir=np.array([1.0]))
        total = simulate_short_rate(model, grid, batch).integral[:, -1]
        cov_oracle = -sigma / a * integrate.quad(lambda s: 1.0 - np.exp(-a * (horizon - s)), 0.0, horizon)[0]
        cov_hat = np.mean((total - total.mean()) * w_t)
        se = np.std((total - total.mean()) * w_t, ddof=1) / np.sqrt(len(w_t))
        assert abs(cov_hat - cov_oracle) < 4 * se


def test_vasicek_validation():
    with pytest.raises(ValueError):
        VasicekRate(a=0.0, b=0.0, sigma=0.1, r0=0.0, w_dir=np.array([1.0]))
    with pytest.raises(ValueError):
        VasicekRate(a=1.0, b=0.0, sigma=0.1, r0=0.0, w_dir=np.array([1.0, 1.0]))


def test_mean_reversion_too_slow_for_the_step_integral_is_refused_by_name():
    # below a h = 1e-8 the step integrals of r cancel to rounding error; one
    # short step is enough, and a = 1e-7 on quarterly steps still runs
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(3, grid, dim=2, n_paths=10)
    uneven = TimeGrid.of_times([0.0, 1e-3, 10.0])
    for a, on in ((1e-9, grid), (1e-13, grid), (1e-6, uneven)):
        model = VasicekRate(a=a, b=0.03, sigma=0.02, r0=0.03, w_dir=E2)
        with pytest.raises(NumericalRangeError, match="market.rate.a"):
            simulate_short_rate(model, on, sample_brownian(3, on, dim=2, n_paths=10))
    slow = VasicekRate(a=1e-7, b=0.03, sigma=0.02, r0=0.03, w_dir=E2)
    assert np.all(np.isfinite(simulate_short_rate(slow, grid, batch).integral))


@pytest.mark.parametrize("a_h", [1e-7, 3.2e-8, 1.8e-8])
def test_slow_mean_reversion_keeps_the_variance_of_the_integral(a_h):
    # l11^2 = v11 - c1^2 / h cancels for a h up to about 1e-6, above the
    # _MIN_A_H bound; from its closed form Var(int r) read 0.98, 1.08 and
    # 0.75 of int_sq here, each many standard errors off
    grid = TimeGrid(1.0, 1)
    batch = sample_brownian(5, grid, dim=2, n_paths=400_000)
    model = VasicekRate(a=a_h, b=0.03, sigma=0.02, r0=0.03, w_dir=E2)
    total = simulate_short_rate(model, grid, batch).integral[:, -1]
    ratio = total.var(ddof=1) / VasicekGamma(a=a_h, sigma_r=0.02, direction=E2).int_sq(0.0, 1.0)
    assert abs(ratio - 1.0) < 4 * np.sqrt(2.0 / len(total))
