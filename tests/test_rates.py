import numpy as np
import pytest
from scipy import integrate

from forward_yield import (
    ConstantRate,
    VasicekGamma,
    VasicekRate,
    make_grid,
    sample_brownian,
    simulate_short_rate,
)
from forward_yield.brownian import PURPOSE_RATE_RESIDUALS, blocked_normals

E2 = np.eye(2)[1]


def ou_integral_moments(a, b, sigma, r0, t):
    """Independent oracle: mean and variance of int_0^t r ds for the
    mean-reverting Gaussian rate, via quadrature of the covariance kernel."""
    mean = b * t + (r0 - b) * (1.0 - np.exp(-a * t)) / a
    var, _ = integrate.quad(lambda s: (sigma / a * (1.0 - np.exp(-a * (t - s)))) ** 2, 0.0, t)
    return mean, var


def row_major_reference(model, grid, batch):
    """The Vasicek recursion as first written, path-major over (n, K+1)
    arrays; the time-major kernel must reproduce its bits."""
    a, sigma, h, n, k_steps = model.a, model.sigma, grid.dt, batch.n_paths, grid.n_steps
    e1 = np.expm1(-a * h)
    e2 = np.expm1(-2.0 * a * h)
    decay = 1.0 + e1
    c1 = -e1 / a
    c2 = (h - c1) / a
    v11 = -e2 / (2.0 * a)
    v22 = (h - 2.0 * c1 + v11) / (a * a)
    v12 = (c1 - v11) / a
    s11 = max(v11 - c1 * c1 / h, 0.0)
    s12 = v12 - c1 * c2 / h
    s22 = max(v22 - c2 * c2 / h, 0.0)
    l11 = np.sqrt(s11)
    l21 = s12 / l11 if l11 > 0 else 0.0
    l22 = np.sqrt(max(s22 - l21 * l21, 0.0))
    w = batch.projected_increments(model.w_dir)
    if sigma > 0.0:
        z = blocked_normals(batch.seed, PURPOSE_RATE_RESIDUALS, n, (k_steps, 2))
        g1 = (c1 / h) * w + l11 * z[:, :, 0]
        g2 = (c2 / h) * w + l21 * z[:, :, 0] + l22 * z[:, :, 1]
    else:
        g1 = np.zeros_like(w)
        g2 = np.zeros_like(w)
    r = np.empty((n, k_steps + 1))
    step_int = np.empty((n, k_steps))
    r[:, 0] = model.r0
    for k in range(k_steps):
        dev = r[:, k] - model.b
        step_int[:, k] = model.b * h + dev * c1 - sigma * g2[:, k]
        r[:, k + 1] = model.b + dev * decay - sigma * g1[:, k]
    integral = np.zeros((n, k_steps + 1))
    np.cumsum(step_int, axis=1, out=integral[:, 1:])
    return r, integral


@pytest.mark.parametrize("sigma", [0.02, 0.0])
@pytest.mark.parametrize("n_steps", [1, 40])
def test_time_major_recursion_keeps_the_row_major_bits(sigma, n_steps):
    # 8192 + 5 rows: the rate residuals span two blocks of the draw
    grid = make_grid(10.0, n_steps)
    batch = sample_brownian(4711, grid, dim=2, n_paths=8192 + 5)
    model = VasicekRate(a=0.3, b=0.04, sigma=sigma, r0=0.01, w_dir=np.array([0.6, 0.8]))
    paths = simulate_short_rate(model, grid, batch)
    r, integral = row_major_reference(model, grid, batch)
    assert paths.r.flags.c_contiguous and paths.integral.flags.c_contiguous
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


def test_constant_rate_integral():
    grid = make_grid(2.0, 8)
    batch = sample_brownian(1, grid, dim=1, n_paths=4)
    paths = simulate_short_rate(ConstantRate(0.03), grid, batch)
    assert np.allclose(paths.r, 0.03)
    assert paths.integral[0, -1] == pytest.approx(0.06, abs=1e-15)


def test_vasicek_zero_vol_is_deterministic():
    grid = make_grid(5.0, 20)
    batch = sample_brownian(2, grid, dim=2, n_paths=8)
    model = VasicekRate(a=1.0, b=0.03, sigma=0.0, r0=0.03, w_dir=E2)
    paths = simulate_short_rate(model, grid, batch)
    assert np.allclose(paths.r, 0.03, atol=1e-15)
    assert np.allclose(paths.integral[:, -1], 0.15, atol=1e-14)


def test_vasicek_zero_vol_off_level_matches_ou_mean():
    grid = make_grid(4.0, 16)
    batch = sample_brownian(3, grid, dim=1, n_paths=2)
    model = VasicekRate(a=0.7, b=0.05, sigma=0.0, r0=0.01, w_dir=np.array([1.0]))
    paths = simulate_short_rate(model, grid, batch)
    t = grid.times
    assert np.allclose(paths.r[0], 0.05 + (0.01 - 0.05) * np.exp(-0.7 * t), atol=1e-14)
    mean, _ = ou_integral_moments(0.7, 0.05, 0.0, 0.01, 4.0)
    assert paths.integral[0, -1] == pytest.approx(mean, rel=1e-12)


def test_vasicek_integrated_rate_moments_match_oracle():
    a, b, sigma, r0, horizon = 1.0, 0.03, 0.02, 0.03, 10.0
    grid = make_grid(horizon, 40)
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
    grid = make_grid(3.0, 12)
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
    # give statistically identical moments; compare against the oracle
    a, b, sigma, r0, horizon = 0.8, 0.02, 0.03, 0.05, 6.0
    model = VasicekRate(a=a, b=b, sigma=sigma, r0=r0, w_dir=np.array([1.0]))
    _, var_oracle = ou_integral_moments(a, b, sigma, r0, horizon)
    for n_steps in (4, 64):
        grid = make_grid(horizon, n_steps)
        batch = sample_brownian(5150, grid, dim=1, n_paths=100_000)
        total = simulate_short_rate(model, grid, batch).integral[:, -1]
        assert abs(total.var(ddof=1) / var_oracle - 1.0) < 4 * np.sqrt(2.0 / len(total))


def test_integral_brownian_covariance():
    # cov(int_0^T r, W_T) = -sigma int_0^T (1 - e^{-a(T-s)})/a ds, a cross
    # moment the conditional sampling must reproduce
    a, sigma, horizon = 1.0, 0.05, 2.0
    model = VasicekRate(a=a, b=0.0, sigma=sigma, r0=0.0, w_dir=np.array([1.0]))
    grid = make_grid(horizon, 8)
    batch = sample_brownian(88, grid, dim=1, n_paths=300_000)
    paths = simulate_short_rate(model, grid, batch)
    w_t = batch.increments[:, :, 0].sum(axis=1)
    total = paths.integral[:, -1]
    cov_oracle = -sigma / a * integrate.quad(lambda s: 1.0 - np.exp(-a * (horizon - s)), 0.0, horizon)[0]
    cov_hat = np.mean((total - total.mean()) * w_t)
    se = np.std((total - total.mean()) * w_t, ddof=1) / np.sqrt(len(w_t))
    assert abs(cov_hat - cov_oracle) < 4 * se


def test_vasicek_validation():
    with pytest.raises(ValueError):
        VasicekRate(a=0.0, b=0.0, sigma=0.1, r0=0.0, w_dir=np.array([1.0]))
    with pytest.raises(ValueError):
        VasicekRate(a=1.0, b=0.0, sigma=0.1, r0=0.0, w_dir=np.array([1.0, 1.0]))
