import functools
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from forward_yield import (
    BackwardSpec,
    BrownianBatch,
    ConstantRate,
    DeterministicFn,
    ForwardPowerSpec,
    MarketModel,
    SubspaceR,
    SyntheticSqrtGamma,
    TimeGrid,
    VasicekGamma,
    backward_log_map,
    backward_optimal_paths,
    horizon_dependency_experiment,
    horizon_map,
    NumericalRangeError,
    rate_integral_paths,
    sample_brownian,
    simulate_optimal,
    solve_backward_vols,
)
import forward_yield.market
from forward_yield import backward
from forward_yield.backward import TerminalConstraintReport
from forward_yield.brownian import _BLOCK, stream_blocks
from forward_yield.config import build_backward_spec, build_grid, build_market, load_config

from gamma_fields import CustomGamma

E1, E2 = np.eye(2)
A, SIGMA_R = 1.0, 0.02


def incomplete_market(eta0=0.1, r=0.03):
    return MarketModel(
        dim=2,
        rate=ConstantRate(r),
        risk_premium=DeterministicFn.constant(np.array([eta0, 0.0])),
        subspace=SubspaceR([[1.0, 0.0]], 2),
    )


def vasicek_orthogonal_spec(t_horizon=10.0, alpha=0.5, eta0=0.1, sigma_r=SIGMA_R):
    market = incomplete_market(eta0=eta0)
    gamma = VasicekGamma(a=A, sigma_r=sigma_r, direction=E2)
    return BackwardSpec(t_horizon=t_horizon, alpha=alpha, gamma=gamma, market=market)


def test_solved_vols_vasicek_orthogonal_closed_form():
    spec = vasicek_orthogonal_spec(alpha=0.5, eta0=0.1)
    nu, kappa = solve_backward_vols(spec)
    t = np.linspace(0.0, 10.0, 21)
    kappa_vals = kappa.values(t)
    assert np.allclose(kappa_vals, np.array([0.2, 0.0]), atol=1e-14)  # eta / alpha, maturity-free
    nu_vals = nu.values(t)
    expected = -(1.0 - 0.5) * (1.0 - np.exp(-A * (10.0 - t))) * SIGMA_R / A
    assert np.allclose(nu_vals[:, 1], expected, atol=1e-14)
    assert np.allclose(nu_vals[:, 0], 0.0, atol=1e-15)


def test_solved_vols_deterministic_rates_reduce_to_merton():
    spec = vasicek_orthogonal_spec(sigma_r=0.0, alpha=0.4, eta0=0.12)
    nu, kappa = solve_backward_vols(spec)
    t = np.linspace(0.0, 10.0, 11)
    assert np.allclose(nu.values(t), 0.0, atol=1e-15)
    assert np.allclose(kappa.values(t), np.array([0.3, 0.0]), atol=1e-14)


def test_solved_vols_log_utility_limit():
    spec = vasicek_orthogonal_spec(alpha=0.999999, eta0=0.1)
    nu, kappa = solve_backward_vols(spec)
    assert np.allclose(kappa(0.0), np.array([0.1, 0.0]), atol=1e-5)
    assert np.linalg.norm(nu(0.0)) < 1e-5


def test_terminal_constraint_residual_identities():
    # the defining linear system: alpha kappa + (1-alpha) Gamma_R = eta and
    # nu + (1-alpha) Gamma_perp = 0 at every grid point
    spec = vasicek_orthogonal_spec(alpha=0.35, eta0=0.08)
    nu, kappa = solve_backward_vols(spec)
    grid = TimeGrid(10.0, 40)
    t = grid.times
    g = spec.gamma.vectors(t, 10.0)
    g_r = spec.market.subspace.component_in(g)
    g_perp = spec.market.subspace.component_perp(g)
    eta = np.atleast_2d(spec.market.risk_premium.values(t))
    res1 = spec.alpha * kappa.values(t) + (1.0 - spec.alpha) * g_r - eta
    res2 = nu.values(t) + (1.0 - spec.alpha) * g_perp
    assert np.max(np.abs(res1)) < 1e-12
    assert np.max(np.abs(res2)) < 1e-12
    assert spec.market.subspace.contains(kappa.values(t), tol=1e-12)
    assert spec.market.subspace.orthogonal_to(nu.values(t), tol=1e-12)


def test_rate_integral_moments_match_gamma_field():
    spec = vasicek_orthogonal_spec()
    grid = TimeGrid(10.0, 50)
    batch = sample_brownian(414, grid, dim=2, n_paths=100_000)
    ints = rate_integral_paths(spec, grid, batch)
    total = ints[:, -1]
    var_oracle, _ = integrate.quad(
        lambda s: (SIGMA_R / A * (1.0 - np.exp(-A * (10.0 - s)))) ** 2, 0.0, 10.0
    )
    assert abs(total.mean() - 0.3) < 4 * total.std(ddof=1) / np.sqrt(len(total))
    assert abs(total.var(ddof=1) / var_oracle - 1.0) < 4 * np.sqrt(2.0 / len(total))


def test_terminal_constraint_zero_dispersion():
    spec = vasicek_orthogonal_spec()
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(515, grid, dim=2, n_paths=10_000)
    x, y = backward_optimal_paths(spec, grid, batch, *solve_backward_vols(spec))
    report = TerminalConstraintReport.of(spec.alpha, x[:, -1], y[:, -1])
    assert report.cv <= 1e-10
    assert report.max_abs_dev <= 1e-9


def test_terminal_report_merged_over_blocks_is_the_whole_report():
    # three stream blocks, the last of one row; the max deviation is reached
    # at the min or the max of the products, bit for bit.  With x = 1 the
    # terminal products are y at the horizon, here the synthetic z
    spec = vasicek_orthogonal_spec()
    grid = TimeGrid(spec.t_horizon, 1)
    z = 1.0 + 1e-3 * np.random.default_rng(3).standard_normal(2 * _BLOCK + 1)
    x, y = np.ones((len(z), 2)), np.column_stack([np.ones_like(z), z])
    whole = TerminalConstraintReport.of(spec.alpha, x[:, -1], y[:, -1])
    blocks = (TerminalConstraintReport.of(spec.alpha, x[b0:b1, -1], y[b0:b1, -1]) for b0, b1 in stream_blocks(len(z)))
    merged = functools.reduce(TerminalConstraintReport.merge, blocks)
    assert (merged.constant, merged.cv, merged.max_abs_dev) == (whole.constant, whole.cv, whole.max_abs_dev)
    assert whole.max_abs_dev == np.max(np.abs(z / whole.constant - 1.0))


def test_terminal_constraint_no_noise_case():
    spec = vasicek_orthogonal_spec(sigma_r=0.0)
    grid = TimeGrid(10.0, 20)
    batch = sample_brownian(616, grid, dim=2, n_paths=512)
    x, y = backward_optimal_paths(spec, grid, batch, *solve_backward_vols(spec))
    report = TerminalConstraintReport.of(spec.alpha, x[:, -1], y[:, -1])
    assert report.cv <= 1e-12


def test_terminal_constraint_detects_mismatched_horizon():
    spec = vasicek_orthogonal_spec(t_horizon=10.0)
    wrong = vasicek_orthogonal_spec(t_horizon=50.0)
    nu_wrong, kappa_wrong = solve_backward_vols(wrong)
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(717, grid, dim=2, n_paths=10_000)
    x, y = backward_optimal_paths(spec, grid, batch, nu_wrong, kappa_wrong)
    report = TerminalConstraintReport.of(spec.alpha, x[:, -1], y[:, -1])
    # residual variance is computable in closed form from the vol difference
    assert report.cv > 1e-3


def test_terminal_constraint_synthetic_sqrt():
    market = incomplete_market()
    gamma = SyntheticSqrtGamma(c_r=2e-5, c_perp=5e-5, dir_r=E1, dir_perp=E2)
    spec = BackwardSpec(t_horizon=8.0, alpha=0.3, gamma=gamma, market=market)
    grid = TimeGrid(8.0, 32)
    batch = sample_brownian(818, grid, dim=2, n_paths=4_000)
    x, y = backward_optimal_paths(spec, grid, batch, *solve_backward_vols(spec))
    report = TerminalConstraintReport.of(spec.alpha, x[:, -1], y[:, -1])
    assert report.cv <= 1e-10


def test_terminal_constraint_on_a_non_uniform_grid():
    spec = vasicek_orthogonal_spec()
    grid = TimeGrid.of_times([0.0, 1.0, 2.5, 4.0, 7.0, 10.0])
    batch = sample_brownian(5151, grid, dim=2, n_paths=4_000)
    x, y = backward_optimal_paths(spec, grid, batch, *solve_backward_vols(spec))
    report = TerminalConstraintReport.of(spec.alpha, x[:, -1], y[:, -1])
    assert report.cv <= 1e-8


def test_backward_pair_is_the_forward_pair_without_consumption():
    # with a constant rate the Gamma representation's integrated rate is the
    # forward pair's r t bit for bit, and the backward map of the optimum
    # holds, bit for bit, the forward maps' coefficients with psi = 0:
    # kappa (nu - eta) on each step before a date, and the summed drifts.
    # On these 40 steps both pairs are read from market.log_map's product per
    # block of the streams, so the paths are the forward pair's bit for bit
    spec = vasicek_orthogonal_spec(sigma_r=0.0, alpha=0.4)
    nu, kappa = solve_backward_vols(spec)
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(6161, grid, dim=2, n_paths=1_000)
    x, y = backward_optimal_paths(spec, grid, batch, nu, kappa)
    triple = simulate_optimal(ForwardPowerSpec(spec.alpha, kappa, nu, DeterministicFn.zero()), spec.market, grid, batch)
    assert np.array_equal(rate_integral_paths(spec, grid, batch), triple.rate_paths.integral)
    k_all = np.arange(grid.n_steps + 1)
    log_map = backward_log_map(spec, grid, nu, kappa, k_all)
    before = np.repeat(np.arange(grid.n_steps), 2)[:, None] < k_all
    market = forward_yield.market
    coeffs = (market._wealth_coeffs(spec.market, grid, kappa), market._dual_coeffs(spec.market, grid, nu))
    for half, ((vol, drift), rate_sign) in enumerate(zip(coeffs, (1.0, -1.0))):
        cols = slice(half * len(k_all), (half + 1) * len(k_all))
        assert np.array_equal(log_map.coeffs[:, cols], np.where(before, vol.reshape(-1, 1), 0.0))
        assert np.array_equal(log_map.const[cols], np.concatenate([[0.0], np.cumsum(drift * grid.widths)]))
        assert np.array_equal(log_map.rate_k[cols], k_all)
        assert np.all(log_map.rate_sign[cols] == rate_sign)
    assert np.array_equal(x, triple.x)
    assert np.array_equal(y, triple.y)


def test_every_optimum_runs_through_the_market_path_engine(monkeypatch):
    # simulate_optimal builds its pair with market.wealth_paths and
    # market.state_price_paths, once each; backward_optimal_paths and each
    # horizon of the horizon experiment build theirs with the backward map's
    # one builder, once per optimum, on the integrated rate of
    # rate_integral_paths, once per batch; none runs a private copy of them
    calls = []
    engine = (
        forward_yield.market.wealth_paths,
        forward_yield.market.state_price_paths,
        backward.backward_log_map,
        backward.rate_integral_paths,
    )
    for fn in engine:

        def counting(*args, fn=fn, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "forward_yield" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)
    pair = ["wealth_paths", "state_price_paths"]
    spec = vasicek_orthogonal_spec(t_horizon=30.0)
    nu, kappa = solve_backward_vols(spec)
    grid = TimeGrid(30.0, 120)
    batch = sample_brownian(34, grid, dim=2, n_paths=64)
    simulate_optimal(ForwardPowerSpec(spec.alpha, kappa, nu, DeterministicFn.zero()), spec.market, grid, batch)
    assert sorted(calls) == sorted(pair)
    calls.clear()
    backward_optimal_paths(spec, grid, batch, nu, kappa)
    assert calls == ["backward_log_map", "rate_integral_paths"]
    calls.clear()
    hmap = horizon_map(spec, [10.0, 20.0, 30.0], grid, t_common=5.0)
    assert calls == 3 * ["backward_log_map"]
    calls.clear()
    horizon_dependency_experiment(hmap, batch)
    assert calls == ["rate_integral_paths"]


def test_horizon_gap_zero_for_maturity_free_gamma():
    spec = vasicek_orthogonal_spec(sigma_r=0.0)
    grid = TimeGrid(50.0, 200)
    batch = sample_brownian(919, grid, dim=2, n_paths=2_000)
    gaps = horizon_dependency_experiment(horizon_map(spec, [10.0, 50.0], grid, t_common=5.0), batch)
    assert max(g.max_rel_gap_x for g in gaps) <= 1e-12
    assert max(g.max_rel_gap_y for g in gaps) <= 1e-12


def test_horizon_gap_positive_for_vasicek_orthogonal():
    spec = vasicek_orthogonal_spec()
    grid = TimeGrid(50.0, 200)
    batch = sample_brownian(1020, grid, dim=2, n_paths=2_000)
    (gap,) = horizon_dependency_experiment(horizon_map(spec, [10.0, 50.0], grid, t_common=5.0), batch)
    # kappa is maturity-free here, so the wealth paths coincide, while the
    # dual paths must split
    assert gap.max_rel_gap_x <= 1e-12
    assert gap.max_rel_gap_y > 100 * np.finfo(float).eps
    assert gap.predicted_gap_residual < 1e-9


def test_horizon_gap_predicted_on_a_non_uniform_grid():
    # the convexity part of the predicted dual ratio steps over each width
    times = np.concatenate([[0.0, 0.1, 0.5, 1.0, 2.0, 3.5], np.linspace(5.0, 50.0, 46)])
    grid = TimeGrid.of_times(times)
    spec = vasicek_orthogonal_spec()
    batch = sample_brownian(1020, grid, dim=2, n_paths=2_000)
    (gap,) = horizon_dependency_experiment(horizon_map(spec, [10.0, 50.0], grid, t_common=5.0), batch)
    assert gap.max_rel_gap_y > 100 * np.finfo(float).eps
    assert gap.predicted_gap_residual <= 1e-9


def test_horizon_gap_in_wealth_when_hedgeable_part_present():
    market = incomplete_market()
    gamma = SyntheticSqrtGamma(c_r=4e-5, c_perp=4e-5, dir_r=E1, dir_perp=E2)
    spec = BackwardSpec(t_horizon=10.0, alpha=0.5, gamma=gamma, market=market)
    grid = TimeGrid(20.0, 80)
    batch = sample_brownian(1121, grid, dim=2, n_paths=1_000)
    (gap,) = horizon_dependency_experiment(horizon_map(spec, [10.0, 20.0], grid, t_common=5.0), batch)
    assert gap.max_rel_gap_x > 100 * np.finfo(float).eps
    assert gap.max_rel_gap_y > 100 * np.finfo(float).eps


def test_same_horizon_twice_no_gap():
    spec = vasicek_orthogonal_spec()
    grid = TimeGrid(20.0, 80)
    batch = sample_brownian(1222, grid, dim=2, n_paths=500)
    gaps = horizon_dependency_experiment(horizon_map(spec, [10.0, 10.0], grid, t_common=5.0), batch)
    assert max(g.max_rel_gap_x for g in gaps) == 0.0
    assert max(g.max_rel_gap_y for g in gaps) == 0.0


def test_backward_rejects_alpha_out_of_range():
    market = incomplete_market()
    gamma = VasicekGamma(a=A, sigma_r=SIGMA_R, direction=E2)
    with pytest.raises(ValueError):
        BackwardSpec(t_horizon=10.0, alpha=0.0, gamma=gamma, market=market)
    with pytest.raises(ValueError):
        BackwardSpec(t_horizon=-1.0, alpha=0.5, gamma=gamma, market=market)


def test_grid_must_cover_horizon():
    spec = vasicek_orthogonal_spec(t_horizon=10.0)
    grid = TimeGrid(5.0, 20)
    batch = sample_brownian(1, grid, dim=2, n_paths=4)
    with pytest.raises(ValueError, match="grid horizon must cover the optimization horizon"):
        backward_optimal_paths(spec, grid, batch, *solve_backward_vols(spec))
    # one step short of the horizon is still short
    short = replace(spec, t_horizon=5.25)
    with pytest.raises(ValueError, match="grid horizon must cover the optimization horizon"):
        backward_optimal_paths(short, grid, batch, *solve_backward_vols(short))


def _custom_gamma_fn(s, t_mat):
    # a hedgeable part growing with time to maturity and a mean-reverting orthogonal part
    tau = t_mat - np.asarray(s, dtype=float)
    return np.stack([0.004 * np.sqrt(tau), 0.02 * (1.0 - np.exp(-0.5 * tau))], axis=-1)


GAMMAS = {
    "vasicek-orthogonal": VasicekGamma(a=A, sigma_r=SIGMA_R, direction=E2),
    "synthetic-sqrt": SyntheticSqrtGamma(c_r=4e-5, c_perp=4e-5, dir_r=E1, dir_perp=E2),
    "custom": CustomGamma(fn=_custom_gamma_fn, dim=2),
}


@pytest.mark.parametrize("t_common", [5.0, 10.0])
@pytest.mark.parametrize("gamma", list(GAMMAS))
@pytest.mark.parametrize("prefix", [False, True])
def test_horizon_states_equal_full_backward_paths(gamma, t_common, prefix):
    # the experiment reads [0, t_common] only; its states there equal those
    # of the public backward paths on each horizon's whole sub-grid to 1e-15
    # relative: both are products, the reference's over K_H * dim rows that
    # are 0 past t_common, and BLAS may block the two sums differently
    spec = BackwardSpec(t_horizon=30.0, alpha=0.4, gamma=GAMMAS[gamma], market=incomplete_market())
    horizons = [10.0, 20.0, 30.0]
    grid = TimeGrid(30.0, 120)
    full = sample_brownian(2024, grid, dim=2, n_paths=300)
    k_c = grid.index_of(t_common)
    prefix_batch = BrownianBatch(seed=full.seed, grid=TimeGrid(grid.times[k_c], k_c), increments=full.increments[:, :k_c, :])
    batch = prefix_batch if prefix else full
    hmap = horizon_map(spec, horizons, grid, t_common)
    levels = hmap.log_map.levels(batch, rate_integral_paths(spec, hmap.rate_grid, batch))
    for i, t_h in enumerate(horizons):
        k_h = grid.index_of(t_h)
        sub = TimeGrid(grid.times[k_h], k_h)
        sub_batch = BrownianBatch(seed=full.seed, grid=sub, increments=full.increments[:, :k_h, :])
        spec_h = replace(spec, t_horizon=t_h)
        x_ref, y_ref = backward_optimal_paths(spec_h, sub, sub_batch, *solve_backward_vols(spec_h))
        x_c, y_c = levels[:, 2 * i], levels[:, 2 * i + 1]
        np.testing.assert_allclose(x_c, x_ref[:, k_c], rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(y_c, y_ref[:, k_c], rtol=1e-15, atol=0.0)


def test_horizon_rate_integral_runs_once_on_common_steps(monkeypatch):
    # one rate integral serves every horizon: it runs on the k_c = 20 common
    # steps, and so does every state of the horizon map
    calls = []
    original = backward.rate_integral_paths

    def counting(spec, grid, batch):
        calls.append(grid.n_steps)
        return original(spec, grid, batch)

    monkeypatch.setattr(backward, "rate_integral_paths", counting)
    spec = vasicek_orthogonal_spec(t_horizon=30.0)
    grid = TimeGrid(30.0, 120)
    batch = sample_brownian(33, grid, dim=2, n_paths=200)
    hmap = horizon_map(spec, [10.0, 20.0, 30.0], grid, t_common=5.0)
    gaps = horizon_dependency_experiment(hmap, batch)
    assert len(gaps) == 3
    assert calls == [20]
    assert hmap.log_map.coeffs.shape[0] == 20 * spec.market.dim


def test_horizon_t_common_zero_gives_zero_gaps():
    spec = vasicek_orthogonal_spec(t_horizon=50.0)
    grid = TimeGrid(50.0, 200)
    # the shortest batch a grid allows: one step
    batch = sample_brownian(44, TimeGrid(grid.times[1], 1), dim=2, n_paths=100)
    (gap,) = horizon_dependency_experiment(horizon_map(spec, [10.0, 50.0], grid, t_common=0.0), batch)
    assert (gap.max_rel_gap_x, gap.max_rel_gap_y, gap.predicted_gap_residual) == (0.0, 0.0, 0.0)


def test_horizon_batch_must_cover_t_common():
    spec = vasicek_orthogonal_spec(t_horizon=50.0)
    grid = TimeGrid(50.0, 200)
    batch = sample_brownian(45, TimeGrid(grid.times[19], 19), dim=2, n_paths=10)
    with pytest.raises(ValueError, match="cover"):
        horizon_dependency_experiment(horizon_map(spec, [10.0, 50.0], grid, t_common=5.0), batch)


def test_horizon_checks_coefficients_past_t_common():
    # Gamma_s turns non-finite for s > 20: after t_common and the shorter
    # horizon, before the longer one, so only the 50-year coefficients see it
    def fn(s, t_mat):
        out = _custom_gamma_fn(s, t_mat)
        out[np.asarray(s) > 20.0] = np.nan
        return out

    spec = BackwardSpec(t_horizon=50.0, alpha=0.5, gamma=CustomGamma(fn=fn, dim=2), market=incomplete_market())
    grid = TimeGrid(50.0, 200)
    batch = sample_brownian(46, TimeGrid(grid.times[20], 20), dim=2, n_paths=10)
    horizon_dependency_experiment(horizon_map(spec, [10.0, 20.0], grid, t_common=5.0), batch)
    with pytest.raises(ValueError, match="non-finite"):
        horizon_dependency_experiment(horizon_map(spec, [10.0, 50.0], grid, t_common=5.0), batch)


@pytest.mark.parametrize("tail", [1, 300])
@pytest.mark.parametrize("k_steps", [10, 20, 40])
def test_rate_integral_rows_do_not_depend_on_the_batch(k_steps, tail):
    # BLAS picks a kernel by the size of a product, and kernels round a row's
    # sum differently (seen for a last block of 1 row at 40 steps, and of 300
    # rows at 10 and 20); a row of a block's batch must keep its whole-batch bits
    spec = vasicek_orthogonal_spec()
    grid = TimeGrid(10.0, k_steps)
    n = 2 * _BLOCK + tail
    whole = rate_integral_paths(spec, grid, sample_brownian(77, grid, dim=2, n_paths=n))
    for b0, b1 in [(0, _BLOCK), (_BLOCK, 2 * _BLOCK), (2 * _BLOCK, n)]:
        block = sample_brownian(77, grid, dim=2, n_paths=b1 - b0, first_row=b0)
        assert np.array_equal(rate_integral_paths(spec, grid, block), whole[b0:b1])


@pytest.mark.parametrize("tail", [1, 300])
@pytest.mark.parametrize("k_steps", [10, 20, 40])
def test_log_state_map_rows_do_not_depend_on_the_batch(k_steps, tail):
    # the map's product is formed per block of the streams, as the rate
    # integral's: a row of a block's batch keeps its whole-batch bits
    spec = vasicek_orthogonal_spec()
    grid = TimeGrid(10.0, k_steps)
    log_map = backward_log_map(spec, grid, *solve_backward_vols(spec), [k_steps // 2, k_steps])
    n = 2 * _BLOCK + tail
    whole = log_map.log_states(sample_brownian(78, grid, dim=2, n_paths=n))
    for b0, b1 in stream_blocks(n):
        block = sample_brownian(78, grid, dim=2, n_paths=b1 - b0, first_row=b0)
        assert np.array_equal(log_map.log_states(block), whole[b0:b1])


def test_zhat_column_of_the_solved_vols_is_zero():
    # ln Zhat_T = alpha ln X_T + ln Y_T is deterministic for the solved
    # volatilities, so its column of B, with the integrated rate's
    # coefficients added to ln X and subtracted from ln Y, is 0 (exactly, at
    # the default config); a perturbed kappa leaves noise in it
    cfg = load_config(None)
    market = build_market(cfg)
    spec, grid = build_backward_spec(cfg, market), build_grid(cfg)
    nu, kappa = solve_backward_vols(spec)
    k_h = grid.index_of(spec.t_horizon)
    rate = backward._rate_integral_map(spec, grid.times, [k_h]).coeffs[:, 0]

    def zhat_column(kappa):
        b = backward_log_map(spec, grid, nu, kappa, [k_h]).coeffs
        return spec.alpha * (b[:, 0] + rate) + (b[:, 1] - rate)

    assert np.all(zhat_column(kappa) == 0.0)
    bumped = DeterministicFn(lambda t: kappa(t) + 0.01 * market.subspace.basis[0])
    assert np.max(np.abs(zhat_column(bumped))) > 1e-3


def test_horizon_gap_merge_keeps_a_nan():
    gap = backward.HorizonGap(10.0, 50.0, 5.0, 1e-3, 2e-3, 1e-12)
    nan = replace(gap, max_rel_gap_x=np.nan, predicted_gap_residual=np.nan)
    for merged in (gap.merge(nan), nan.merge(gap)):
        assert np.isnan(merged.max_rel_gap_x) and np.isnan(merged.predicted_gap_residual)
        assert merged.max_rel_gap_y == 2e-3


@pytest.mark.parametrize(
    "gamma",
    [
        VasicekGamma(a=1.0, sigma_r=2.0e154, direction=E2),
        SyntheticSqrtGamma(c_r=1.0e307, c_perp=0.0, dir_r=E1, dir_perp=E2),
    ],
    ids=["sigma-r-2e154", "c-r-1e307"],
)
def test_backward_pair_out_of_range_is_a_range_error(gamma):
    # the paths overflow: both the backward paths and the horizon experiment
    # must say so, without a warning, before any gap or dispersion reads nan
    spec = BackwardSpec(t_horizon=10.0, alpha=0.5, gamma=gamma, market=incomplete_market())
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(5, grid, dim=2, n_paths=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalRangeError, match="range of double precision"):
            backward_optimal_paths(spec, grid, batch, *solve_backward_vols(spec))
        with pytest.raises(NumericalRangeError, match="range of double precision"):
            horizon_dependency_experiment(horizon_map(spec, [5.0, 10.0], grid, t_common=5.0), batch)
