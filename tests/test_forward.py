from dataclasses import replace

import numpy as np
import pytest

import forward_yield.forward
from forward_yield import (
    ConstantRate,
    DeterministicFn,
    ForwardPowerSpec,
    MarketModel,
    SubspaceR,
    SubspaceViolationError,
    VasicekRate,
    consistency_drift_test,
    first_order_check,
    hjb_residual,
    make_grid,
    perturbed_kappa,
    representation_check,
    sample_brownian,
    scaled_consumption,
    simulate_optimal,
    wealth_paths,
)

E1, E2 = np.eye(2)


def default_market(rate=None, eta0=0.15):
    return MarketModel(
        dim=2,
        rate=rate if rate is not None else ConstantRate(0.03),
        risk_premium=DeterministicFn.constant(np.array([eta0, 0.0])),
        subspace=SubspaceR.axes(2, [0]),
    )


def default_spec(alpha=0.5, kappa=0.3, nu=0.1, psi=0.1):
    return ForwardPowerSpec(
        alpha=alpha,
        kappa_star=DeterministicFn.constant(np.array([kappa, 0.0])),
        nu_star=DeterministicFn.constant(np.array([0.0, nu])),
        psi_hat=DeterministicFn.constant(psi),
    )


def test_riskless_no_consumption_case():
    market = default_market(eta0=0.0)
    spec = default_spec(kappa=0.0, nu=0.0, psi=0.0)
    grid = make_grid(2.0, 8)
    batch = sample_brownian(10, grid, dim=2, n_paths=16)
    triple = simulate_optimal(spec, market, grid, batch)
    assert np.allclose(triple.wealth.values, np.exp(0.03 * grid.times), atol=1e-14)
    assert np.allclose(triple.state_price.values, np.exp(-0.03 * grid.times), atol=1e-14)
    assert np.allclose(triple.zhat, np.exp(-0.015 * grid.times), atol=1e-14)


def test_zhat_mean_log_matches_closed_form():
    # oracle: E[ln Zhat_T] = E[ln Ystar_T] + alpha E[ln Xstar_T], both
    # log-normal with elementary drifts for constant coefficients
    r, eta0, alpha, kappa0, nu0, psi = 0.03, 0.15, 0.5, 0.3, 0.1, 0.1
    horizon = 5.0
    market = default_market(eta0=eta0)
    spec = default_spec(alpha=alpha, kappa=kappa0, nu=nu0, psi=psi)
    grid = make_grid(horizon, 50)
    batch = sample_brownian(5555, grid, dim=2, n_paths=100_000)
    triple = simulate_optimal(spec, market, grid, batch)

    mean_log_y = (-r - 0.5 * (nu0**2 + eta0**2)) * horizon
    mean_log_x = (r - psi + kappa0 * eta0 - 0.5 * kappa0**2) * horizon
    oracle = mean_log_y + alpha * mean_log_x

    log_z = np.log(triple.zhat[:, -1])
    se = log_z.std(ddof=1) / np.sqrt(len(log_z))
    assert abs(log_z.mean() - oracle) < 3 * se


def test_optimal_processes_linear_in_initial_condition():
    market = default_market()
    spec = default_spec()
    grid = make_grid(1.0, 10)
    batch = sample_brownian(21, grid, dim=2, n_paths=64)
    triple = simulate_optimal(spec, market, grid, batch)
    scaled = wealth_paths(
        market, grid, batch,
        kappa=spec.kappa_star, consumption=spec.psi_hat, x0=2.5,
        rate_paths=triple.rate_paths,
    )
    assert np.max(np.abs(scaled.values / (2.5 * triple.wealth.values) - 1.0)) < 1e-14


def test_zhat_factorization_pathwise():
    market = default_market(rate=VasicekRate(a=1.0, b=0.03, sigma=0.02, r0=0.03, w_dir=E2))
    spec = default_spec()
    grid = make_grid(3.0, 30)
    batch = sample_brownian(22, grid, dim=2, n_paths=512)
    triple = simulate_optimal(spec, market, grid, batch)
    recon = triple.state_price.values * np.power(triple.wealth.values, spec.alpha)
    assert np.max(np.abs(triple.zhat / recon - 1.0)) < 1e-10
    assert np.all(triple.zhat > 0)


def test_first_order_identities():
    market = default_market()
    spec = default_spec()
    grid = make_grid(2.0, 20)
    batch = sample_brownian(23, grid, dim=2, n_paths=1000)
    triple = simulate_optimal(spec, market, grid, batch)

    unit = first_order_check(triple, x0=1.0)
    assert unit.initial_conditions_consistent
    assert unit.max_rel < 1e-12

    for x0 in (0.5, 2.0, 10.0):
        report = first_order_check(triple, x0=x0)
        assert report.max_rel < 1e-9

    # mismatched dual initial condition: residual bounded below by the
    # relative mismatch itself
    bad = first_order_check(triple, x0=1.0, y0=1.3)
    assert not bad.initial_conditions_consistent
    assert bad.max_rel_wealth > 0.3 / 1.3 - 1e-9


def test_hjb_residual_randomized_specs():
    rng = np.random.default_rng(777)
    for _ in range(3):
        alpha = rng.uniform(0.2, 0.8)
        market = default_market(
            rate=ConstantRate(rng.uniform(0.0, 0.05)), eta0=rng.uniform(0.0, 0.3)
        )
        spec = default_spec(
            alpha=alpha,
            kappa=rng.uniform(-0.4, 0.4),
            nu=rng.uniform(-0.3, 0.3),
            psi=rng.uniform(0.0, 0.2),
        )
        grid = make_grid(4.0, 40)
        batch = sample_brownian(int(rng.integers(1, 2**32)), grid, dim=2, n_paths=4)
        triple = simulate_optimal(spec, market, grid, batch)
        report = hjb_residual(triple)
        assert report.max_rel_residual < 1e-10
        assert report.max_policy_residual < 1e-12


def test_hjb_residual_vasicek_time_table_spec():
    market = default_market(rate=VasicekRate(a=0.8, b=0.04, sigma=0.015, r0=0.02, w_dir=E2))
    spec = ForwardPowerSpec(
        alpha=0.4,
        kappa_star=DeterministicFn.table([0.0, 2.0], np.array([[0.3, 0.0], [0.1, 0.0]])),
        nu_star=DeterministicFn.constant(np.array([0.0, 0.05])),
        psi_hat=DeterministicFn.table([0.0, 1.0], [0.02, 0.08]),
    )
    grid = make_grid(4.0, 32)
    batch = sample_brownian(99, grid, dim=2, n_paths=4)
    triple = simulate_optimal(spec, market, grid, batch)
    report = hjb_residual(triple, path=2)
    assert report.max_rel_residual < 1e-10
    assert report.max_policy_residual < 1e-12


def test_hjb_no_consumption_reduction():
    # psi == 0 reduces the drift coefficient to the no-consumption form
    market = default_market()
    spec = default_spec(psi=0.0)
    grid = make_grid(1.0, 8)
    batch = sample_brownian(31, grid, dim=2, n_paths=2)
    triple = simulate_optimal(spec, market, grid, batch)
    report = hjb_residual(triple)
    assert report.max_rel_residual < 1e-10

    alpha, kappa0, r = spec.alpha, 0.3, 0.03
    k0 = int(report.t_indices[0])
    z = triple.zhat[0, k0]
    no_consumption = (1.0 - alpha) * z * (-r - 0.5 * alpha * kappa0**2)
    x0 = report.x_grid[0]
    u_val = x0 ** (1 - alpha) / (1 - alpha)
    assert report.drift_lhs[0, 0] == pytest.approx(no_consumption * u_val, rel=1e-12)


def test_hjb_detects_injected_drift_error():
    market = default_market()
    spec = default_spec()
    grid = make_grid(1.0, 8)
    batch = sample_brownian(32, grid, dim=2, n_paths=2)
    triple = simulate_optimal(spec, market, grid, batch)
    report = hjb_residual(triple, drift_perturbation=1e-3)
    assert report.max_rel_residual > 9e-4


def test_representation_transport():
    market = default_market()
    spec = default_spec()
    grid = make_grid(2.0, 16)
    batch = sample_brownian(41, grid, dim=2, n_paths=2000)
    triple = simulate_optimal(spec, market, grid, batch)
    assert representation_check(triple) < 1e-10

    # worked value: alpha = 1/2, x = 4, wealth flow at 2, dual at 0.9
    alpha = 0.5
    lhs = 0.9 * 2.0**alpha * 4.0 ** (-alpha)
    rhs = 0.9 * (4.0 / 2.0) ** (-alpha)
    assert lhs == pytest.approx(0.6363961030678927, abs=1e-12)
    assert rhs == pytest.approx(lhs, abs=1e-15)


def test_consistency_drift_optimal_and_perturbed():
    market = default_market()
    spec = default_spec()
    grid = make_grid(5.0, 50)
    batch = sample_brownian(20240515, grid, dim=2, n_paths=50_000)
    triple = simulate_optimal(spec, market, grid, batch)

    optimal = consistency_drift_test(triple)
    assert optimal.is_martingale_like()
    assert abs(optimal.total_t) < 4

    shifted = consistency_drift_test(triple, kappa=perturbed_kappa(spec, market, 0.15))
    assert shifted.total_t < -4

    over = consistency_drift_test(triple, consumption=scaled_consumption(spec, 1.5))
    assert over.total_t < -4
    under = consistency_drift_test(triple, consumption=scaled_consumption(spec, 0.5))
    assert under.total_t < -4


def test_optimal_drift_reuses_the_optimal_wealth(monkeypatch):
    market = default_market(rate=VasicekRate(a=0.5, b=0.03, sigma=0.01, r0=0.02, w_dir=E2))
    spec = default_spec()
    grid = make_grid(5.0, 20)
    triple = simulate_optimal(spec, market, grid, sample_brownian(31, grid, dim=2, n_paths=4096))
    explicit = consistency_drift_test(triple, kappa=spec.kappa_star, consumption=spec.psi_hat)

    calls = []
    build = forward_yield.forward.wealth_paths

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(forward_yield.forward, "wealth_paths", counting)
    default = consistency_drift_test(triple)
    assert calls == []
    for field in ("interval_drift", "interval_stderr", "total_drift", "total_stderr"):
        assert np.array_equal(getattr(default, field), getattr(explicit, field)), field


def test_consistency_drift_zero_consumption_strategy():
    # consuming nothing while the utility pair expects consumption loses the
    # whole conjugate term: drift rate -Vtilde(t, U_x) < 0
    market = default_market()
    spec = default_spec()
    grid = make_grid(5.0, 50)
    batch = sample_brownian(20240516, grid, dim=2, n_paths=20_000)
    triple = simulate_optimal(spec, market, grid, batch)
    report = consistency_drift_test(triple, consumption=scaled_consumption(spec, 0.0))
    assert report.total_t < -4


def test_spec_subspace_validation():
    market = default_market()
    bad_kappa = ForwardPowerSpec(
        alpha=0.5,
        kappa_star=DeterministicFn.constant(np.array([0.1, 0.1])),
        nu_star=DeterministicFn.constant(np.array([0.0, 0.0])),
        psi_hat=DeterministicFn.constant(0.05),
    )
    grid = make_grid(1.0, 4)
    batch = sample_brownian(1, grid, dim=2, n_paths=2)
    with pytest.raises(SubspaceViolationError):
        simulate_optimal(bad_kappa, market, grid, batch)


@pytest.mark.parametrize("field, value", [("kappa_star", [0.3, 0.2]), ("nu_star", [0.1, 0.1]), ("psi_hat", -0.1)])
def test_simulate_optimal_checks_the_last_grid_date(field, value):
    # each coefficient is admissible on [0, 1) and leaves its set only at t = 1
    spec = default_spec()
    inside = getattr(spec, field).values(np.array([0.0]))[0]
    table = DeterministicFn.table(np.array([0.0, 1.0]), np.array([inside, value]))
    grid = make_grid(1.0, 4)
    batch = sample_brownian(2, grid, dim=2, n_paths=2)
    with pytest.raises(ValueError):
        simulate_optimal(replace(spec, **{field: table}), default_market(), grid, batch)
