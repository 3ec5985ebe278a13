import functools
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import forward_yield.market
from forward_yield import (
    ConstantRate,
    DeterministicFn,
    ForwardPowerSpec,
    MarketModel,
    NumericalRangeError,
    SubspaceR,
    SubspaceViolationError,
    TimeGrid,
    VasicekRate,
    consistency_drift_test,
    first_order_check,
    hjb_residual,
    pathwise_ramsey_report,
    perturbed_kappa,
    reading_grid,
    representation_check,
    sample_brownian,
    scaled_consumption,
    simulate_optimal,
    wealth_paths,
)
from forward_yield.brownian import _BLOCK, map_blocks, stream_blocks
from forward_yield.config import build_forward_spec, build_grid, build_market, load_config
from forward_yield.forward import value_process
from forward_yield.stats import IDENTITY_TOL, STAT_BAND, DriftReport, interval_drift_report

E1, E2 = np.eye(2)


def default_market(rate=None, eta0=0.15):
    return MarketModel(
        dim=2,
        rate=rate if rate is not None else ConstantRate(0.03),
        risk_premium=DeterministicFn.constant(np.array([eta0, 0.0])),
        subspace=SubspaceR([[1.0, 0.0]], 2),
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
    grid = TimeGrid(2.0, 8)
    batch = sample_brownian(10, grid, dim=2, n_paths=16)
    triple = simulate_optimal(spec, market, grid, batch)
    assert np.allclose(triple.x, np.exp(0.03 * grid.times), atol=1e-14)
    assert np.allclose(triple.y, np.exp(-0.03 * grid.times), atol=1e-14)
    assert np.allclose(triple.zhat, np.exp(-0.015 * grid.times), atol=1e-14)


def test_zhat_mean_log_matches_closed_form():
    # oracle: E[ln Zhat_T] = E[ln Ystar_T] + alpha E[ln Xstar_T], both
    # log-normal with elementary drifts for constant coefficients
    r, eta0, alpha, kappa0, nu0, psi = 0.03, 0.15, 0.5, 0.3, 0.1, 0.1
    horizon = 5.0
    market = default_market(eta0=eta0)
    spec = default_spec(alpha=alpha, kappa=kappa0, nu=nu0, psi=psi)
    grid = TimeGrid(horizon, 50)
    batch = sample_brownian(5555, grid, dim=2, n_paths=100_000)
    triple = simulate_optimal(spec, market, grid, batch)

    mean_log_y = (-r - 0.5 * (nu0**2 + eta0**2)) * horizon
    mean_log_x = (r - psi + kappa0 * eta0 - 0.5 * kappa0**2) * horizon
    oracle = mean_log_y + alpha * mean_log_x

    log_z = np.log(triple.zhat[:, -1])
    se = log_z.std(ddof=1) / np.sqrt(len(log_z))
    assert abs(log_z.mean() - oracle) < 3 * se


def test_zhat_factorization_pathwise():
    market = default_market(rate=VasicekRate(a=1.0, b=0.03, sigma=0.02, r0=0.03, w_dir=E2))
    spec = default_spec()
    grid = TimeGrid(3.0, 30)
    batch = sample_brownian(22, grid, dim=2, n_paths=512)
    triple = simulate_optimal(spec, market, grid, batch)
    recon = triple.y * np.power(triple.x, spec.alpha)
    assert np.max(np.abs(triple.zhat / recon - 1.0)) < 1e-10
    assert np.all(triple.zhat > 0)


def test_overflowing_zhat_is_a_range_error():
    # wealth overflows and the state-price density underflows, so Zhat = 0 * inf is nan
    market = default_market(eta0=40.0)
    spec = default_spec(kappa=40.0)
    grid = TimeGrid(10.0, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalRangeError, match="range of double precision"):
            simulate_optimal(spec, market, grid, sample_brownian(5, grid, dim=2, n_paths=100))


def test_first_order_identities():
    market = default_market()
    spec = default_spec()
    grid = TimeGrid(2.0, 20)
    batch = sample_brownian(23, grid, dim=2, n_paths=1000)
    triple = simulate_optimal(spec, market, grid, batch)

    assert first_order_check(triple, x0=1.0) < 1e-12

    for x0 in (0.5, 2.0, 10.0):
        assert first_order_check(triple, x0=x0) < 1e-9

    # mismatched dual initial condition: residual bounded below by the
    # relative mismatch itself
    assert first_order_check(triple, x0=1.0, y0=1.3) > 0.3 / 1.3 - 1e-9


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
        grid = TimeGrid(4.0, 40)
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
    grid = TimeGrid(4.0, 32)
    batch = sample_brownian(99, grid, dim=2, n_paths=4)
    triple = simulate_optimal(spec, market, grid, batch)
    report = hjb_residual(triple, path=2)
    assert report.max_rel_residual < 1e-10
    assert report.max_policy_residual < 1e-12


def test_hjb_no_consumption_reduction():
    # psi == 0 reduces the drift coefficient to the no-consumption form
    market = default_market()
    spec = default_spec(psi=0.0)
    grid = TimeGrid(1.0, 8)
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
    grid = TimeGrid(1.0, 8)
    batch = sample_brownian(32, grid, dim=2, n_paths=2)
    triple = simulate_optimal(spec, market, grid, batch)
    report = hjb_residual(triple, drift_perturbation=1e-3)
    assert report.max_rel_residual > 9e-4


@pytest.mark.parametrize("alpha", [1e-3, 0.5, 0.98])
def test_hjb_residual_at_small_and_large_alpha(alpha):
    # the consumption dual is formed as psi_hat Zhat utilde(u_x), whose terms
    # stay in range where Zhat^(1/alpha) alone leaves it at small alpha
    market = default_market()
    spec = default_spec(alpha=alpha)
    grid = TimeGrid(30.0, 30)
    triple = simulate_optimal(spec, market, grid, sample_brownian(33, grid, dim=2, n_paths=1))
    if alpha == 1e-3:
        with np.errstate(under="ignore"):
            assert np.min(np.power(triple.zhat[0], 1.0 / alpha)) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = hjb_residual(triple)
        perturbed = hjb_residual(triple, drift_perturbation=1e-3)
    assert report.max_rel_residual <= IDENTITY_TOL
    assert report.max_policy_residual <= IDENTITY_TOL
    assert perturbed.max_rel_residual > IDENTITY_TOL


def test_representation_transport():
    market = default_market()
    spec = default_spec()
    grid = TimeGrid(2.0, 16)
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
    grid = TimeGrid(5.0, 50)
    batch = sample_brownian(20240515, grid, dim=2, n_paths=50_000)
    triple = simulate_optimal(spec, market, grid, batch)

    optimal = consistency_drift_test(triple, strategies=[{}])[0]
    assert optimal.max_abs_t <= STAT_BAND
    assert abs(optimal.total_t) < 4

    shifted = consistency_drift_test(triple, strategies=[{"kappa": perturbed_kappa(spec, market, 0.15)}])[0]
    assert shifted.total_t < -4

    over = consistency_drift_test(triple, strategies=[{"consumption": scaled_consumption(spec, 1.5)}])[0]
    assert over.total_t < -4
    under = consistency_drift_test(triple, strategies=[{"consumption": scaled_consumption(spec, 0.5)}])[0]
    assert under.total_t < -4


def test_optimal_drift_reuses_the_optimal_wealth(monkeypatch):
    market = default_market(rate=VasicekRate(a=0.5, b=0.03, sigma=0.01, r0=0.02, w_dir=E2))
    spec = default_spec()
    grid = TimeGrid(5.0, 20)
    triple = simulate_optimal(spec, market, grid, sample_brownian(31, grid, dim=2, n_paths=4096))

    calls = []
    build = forward_yield.market.wealth_paths

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "forward_yield" and getattr(module, "wealth_paths", None) is build:
            monkeypatch.setattr(module, "wealth_paths", counting)
    explicit = consistency_drift_test(triple, strategies=[{"kappa": spec.kappa_star, "consumption": spec.psi_hat}])[0]
    default = consistency_drift_test(triple, strategies=[{}])[0]
    consistency_drift_test(triple, strategies=[{"kappa": perturbed_kappa(spec, market, 0.15)}])
    consistency_drift_test(triple, strategies=[{"consumption": scaled_consumption(spec, 1.5)}])
    consistency_drift_test(triple, strategies=[{"consumption": scaled_consumption(spec, 0.5)}])
    assert calls == []
    for field in ("interval_drift", "interval_stderr", "total_drift", "total_stderr"):
        assert np.array_equal(getattr(default, field), getattr(explicit, field)), field


def _value_process_oracle(triple, wealth, psi):
    """Zhat X^(1-alpha) / (1-alpha) plus the trapezoid integral of
    psi_hat^alpha Zhat c^(1-alpha) / (1-alpha), from the wealth paths X and
    their consumption c = psi X.  The wealth scheme consumes at each step's
    left-endpoint rate, so both ends of step k take psi_hat_k and psi_k."""
    alpha, grid = triple.spec.alpha, triple.grid
    psi_hat = triple.spec.psi_hat.values(grid.times)[:-1]
    rate = psi.values(grid.times)[:-1]
    u = triple.zhat * wealth ** (1.0 - alpha) / (1.0 - alpha)

    def v(ends):  # V(t, c) at one end of every step, with the step's rates
        return psi_hat**alpha * triple.zhat[:, ends] * (rate * wealth[:, ends]) ** (1.0 - alpha) / (1.0 - alpha)

    steps = 0.5 * (v(slice(None, -1)) + v(slice(1, None))) * np.diff(grid.times)
    return u + np.concatenate([np.zeros((len(u), 1)), np.cumsum(steps, axis=1)], axis=1)


def _oracle_drifts(triple, strategies):
    """interval_drift_report of each strategy's G, built from its own
    simulated wealth (_value_process_oracle)."""
    spec, grid = triple.spec, triple.grid
    integral = triple.rate_paths.integral
    reports = []
    for strategy in strategies:
        kappa, psi = strategy.get("kappa"), strategy.get("consumption")
        psi = spec.psi_hat if psi is None else psi
        kappa = spec.kappa_star if kappa is None else kappa
        wealth = wealth_paths(triple.market, grid, triple.batch, integral, kappa=kappa, consumption=psi)
        reports.append(interval_drift_report(_value_process_oracle(triple, wealth, psi), grid.times))
    return reports


def _assert_same_t(report, oracle, tol=1e-12):
    # the rows' own t statistics, uncentred, against the oracle's; a row
    # without sampling error reads 0 or +-inf in both
    report = replace(report, bias=0.0)
    for new, old in ((report.interval_t, oracle.interval_t), (report.total_t, oracle.total_t)):
        new, old = np.atleast_1d(new), np.atleast_1d(old)
        finite = np.isfinite(old)
        assert np.array_equal(new[~finite], old[~finite])
        assert np.max(np.abs(new[finite] - old[finite]), initial=0.0) <= tol


def _all_strategies(spec, market):
    # verify's four strategies, and one that changes kappa and psi together
    kappa = perturbed_kappa(spec, market, 0.15)
    return [
        {},
        {"kappa": kappa},
        {"consumption": scaled_consumption(spec, 1.5)},
        {"consumption": scaled_consumption(spec, 0.5)},
        {"kappa": kappa, "consumption": scaled_consumption(spec, 0.5)},
    ]


def test_value_process_matches_simulated_wealth():
    # each strategy's U(t, X) and drift rows from the optimal deflated wealth
    # against its own wealth simulation, with kappa and psi changing value
    # between grid dates
    market = default_market(rate=VasicekRate(a=0.5, b=0.03, sigma=0.01, r0=0.02, w_dir=E2))
    spec = ForwardPowerSpec(
        alpha=0.4,
        kappa_star=DeterministicFn.table(np.array([0.0, 3.5]), np.array([[0.3, 0.0], [0.1, 0.0]])),
        nu_star=DeterministicFn.constant(np.array([0.0, 0.1])),
        psi_hat=DeterministicFn.table(np.array([0.0, 2.0]), np.array([0.1, 0.05])),
    )
    grid = TimeGrid(5.0, 20)
    batch = sample_brownian(32, grid, dim=2, n_paths=2000)
    triple = simulate_optimal(spec, market, grid, batch)
    strategies = _all_strategies(spec, market)[:3] + [{"consumption": scaled_consumption(spec, 0.0)}]
    for strategy in strategies:
        psi = strategy.get("consumption", spec.psi_hat)
        wealth = wealth_paths(
            market, grid, batch, triple.rate_paths.integral,
            kappa=strategy.get("kappa", spec.kappa_star),
            consumption=psi,
        )
        utility = triple.zhat * wealth ** (1.0 - spec.alpha) / (1.0 - spec.alpha)
        assert np.max(np.abs(value_process(triple, **strategy) / utility - 1.0)) < 1e-12
    reports = consistency_drift_test(triple, strategies=strategies)
    for report, oracle in zip(reports, _oracle_drifts(triple, strategies)):
        _assert_same_t(report, oracle)


def _drift_case(name):
    """(spec, market, grid) of the drift rows' equivalence cases."""
    market = default_market(rate=VasicekRate(a=0.5, b=0.03, sigma=0.01, r0=0.02, w_dir=E2))
    spec = default_spec()
    if name == "stepped_psi":
        stepped = DeterministicFn.table(np.array([0.0, 5.0]), np.array([0.1, 0.0]))
        return replace(spec, psi_hat=stepped), market, TimeGrid(10.0, 8)
    if name == "psi0":
        return default_spec(psi=0.0), market, TimeGrid(5.0, 8)
    if name == "nonuniform":
        return spec, market, TimeGrid.of_times([0.0, 0.5, 2.0, 2.25, 4.0])
    table_spec = ForwardPowerSpec(
        alpha=0.4,
        kappa_star=DeterministicFn.table(np.array([0.0, 3.5]), np.array([[0.3, 0.0], [0.1, 0.0]])),
        nu_star=DeterministicFn.constant(np.array([0.0, 0.1])),
        psi_hat=DeterministicFn.table(np.array([0.0, 2.0]), np.array([0.1, 0.05])),
    )
    return table_spec, market, TimeGrid(5.0, 8)


DRIFT_CASES = ["stepped_psi", "psi0", "nonuniform", "alpha04_table_kappa"]


@pytest.mark.parametrize("case", DRIFT_CASES)
@pytest.mark.parametrize("n", [1, 7, _BLOCK])
def test_drift_rows_match_the_simulated_wealth_oracle(case, n):
    # the four rows from the column moments of P, and the perturbed kappa's
    # from its U, against G built from each strategy's own wealth
    spec, market, grid = _drift_case(case)
    triple = simulate_optimal(spec, market, grid, sample_brownian(41, grid, dim=2, n_paths=n))
    strategies = _all_strategies(spec, market)
    reports = consistency_drift_test(triple, strategies=strategies)
    for report, oracle in zip(reports, _oracle_drifts(triple, strategies)):
        _assert_same_t(report, oracle)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", DRIFT_CASES)
def test_merged_drift_rows_match_the_simulated_wealth_oracle(monkeypatch, case, threads):
    # 57345 paths: seven full blocks of the streams and a one-row block,
    # each reduced as verify reduces it and merged in block order
    monkeypatch.setenv("FORWARD_YIELD_THREADS", threads)
    spec, market, grid = _drift_case(case)
    strategies = _all_strategies(spec, market)

    def reduce_block(batch):
        triple = simulate_optimal(spec, market, grid, batch)
        return consistency_drift_test(triple, strategies=strategies), _oracle_drifts(triple, strategies)

    def merge(a, b):
        return tuple([x.merge(y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b))

    reports, oracles = functools.reduce(merge, map_blocks(reduce_block, 43, grid, 2, 7 * _BLOCK + 1))
    for report, oracle in zip(reports, oracles):
        _assert_same_t(report, oracle)


def test_optimal_drift_deterministic_limit():
    # no risk premium, no volatilities and a constant rate: P = e^(-int psi) on
    # every path, so each interval's drift is the trapezoid rule's bias alone,
    # over that interval's own width h and at its left-endpoint rate, on a
    # uniform and a non-uniform grid, and with a rate that steps from 0.1 to 0
    # on the grid date t = 5, which the trapezoid must integrate at 0.1 over
    # [4.75, 5] as the wealth scheme consumes
    alpha = 0.5
    market = default_market(eta0=0.0)
    spec = default_spec(alpha=alpha, kappa=0.0, nu=0.0, psi=0.1)
    stepped = replace(spec, psi_hat=DeterministicFn.table(np.array([0.0, 5.0]), np.array([0.1, 0.0])))
    cases = [
        (spec, TimeGrid(10.0, 40)),
        (spec, TimeGrid.of_times([0.0, 1.0, 3.0, 3.5, 6.0])),
        (stepped, TimeGrid(10.0, 40)),
    ]
    for case, grid in cases:
        triple = simulate_optimal(case, market, grid, sample_brownian(33, grid, dim=2, n_paths=64))
        report = consistency_drift_test(triple, strategies=[{}])[0]
        h = np.diff(grid.times)
        psi = case.psi_hat.values(grid.times[:-1])
        p = np.exp(-np.concatenate(([0.0], np.cumsum(psi * h)[:-1])))
        bias = p * (np.exp(-psi * h) - 1.0 + psi * h * (1.0 + np.exp(-psi * h)) / 2.0) / (1.0 - alpha)
        assert np.all(report.interval_stderr == 0.0)
        assert np.max(np.abs(report.interval_drift - bias)) <= 1e-15
        if grid.uniform:
            assert bias[0] == pytest.approx(2.57e-6, rel=1e-2)


DETERMINISTIC_MARKET = (
    "market: {rate: {model: constant, r: 0.03}, eta_r: [0, 0]}\n"
    "spec: {kappa_star: [0, 0], nu_star: [0, 0]}\n"
)


def test_drift_rows_deterministic_edge(tmp_path):
    # a constant rate and no volatility: P is one number per date, equal on
    # every path, so the optimal and scaled-consumption rows have no sampling
    # error over three merged blocks, and a deterministic loss reads -inf
    path = tmp_path / "deterministic.yaml"
    path.write_text(DETERMINISTIC_MARKET)
    cfg = load_config(path)
    market = build_market(cfg)
    spec, grid = build_forward_spec(cfg, market), build_grid(cfg)
    strategies = _all_strategies(spec, market)

    def reduce_block(batch):
        return consistency_drift_test(simulate_optimal(spec, market, grid, batch), strategies=strategies)

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        blocks = map_blocks(reduce_block, 5, grid, market.dim, 20_000)
        optimal, shifted, over, under, _ = functools.reduce(lambda a, b: [x.merge(y) for x, y in zip(a, b)], blocks)
        for report in (optimal, over, under):
            assert np.all(report.interval_stderr == 0.0) and report.total_stderr == 0.0
        assert optimal.max_abs_t == 0.0
        # without sampling error the optimal drift is the trapezoid bias it is centred on
        assert np.max(np.abs(optimal.interval_drift - optimal.bias)) <= 1e-15
        assert over.total_t == under.total_t == -np.inf
        assert shifted.total_t < -STAT_BAND


def test_optimal_row_is_centred_on_the_trapezoid_bias():
    # deterministic paths on a uniform and a non-uniform grid, and with psi_hat
    # stepping to 0 on a grid date: the bias is the whole drift; the perturbed
    # rows are not centred
    market = default_market(eta0=0.0)
    spec = default_spec(kappa=0.0, nu=0.0)
    stepped = replace(spec, psi_hat=DeterministicFn.table(np.array([0.0, 5.0]), np.array([0.1, 0.0])))
    for case, grid in [
        (spec, TimeGrid(10.0, 40)),
        (spec, TimeGrid.of_times([0.0, 1.0, 3.0, 3.5, 6.0])),
        (stepped, TimeGrid(10.0, 40)),
    ]:
        triple = simulate_optimal(case, market, grid, sample_brownian(34, grid, dim=2, n_paths=16))
        optimal, *perturbed = consistency_drift_test(triple, strategies=_all_strategies(case, market))
        assert np.max(np.abs(optimal.interval_drift - optimal.bias)) <= 1e-15
        assert np.any(optimal.bias > 0)
        assert all(np.all(report.bias == 0.0) for report in perturbed)
        assert optimal.total_t == 0.0 and optimal.max_abs_t == 0.0


def test_consistency_drift_zero_consumption_strategy():
    # consuming nothing while the utility pair expects consumption loses the
    # whole conjugate term: drift rate -Vtilde(t, U_x) < 0
    market = default_market()
    spec = default_spec()
    grid = TimeGrid(5.0, 50)
    batch = sample_brownian(20240516, grid, dim=2, n_paths=20_000)
    triple = simulate_optimal(spec, market, grid, batch)
    report = consistency_drift_test(triple, strategies=[{"consumption": scaled_consumption(spec, 0.0)}])[0]
    assert report.total_t < -4


def test_spec_subspace_validation():
    market = default_market()
    bad_kappa = ForwardPowerSpec(
        alpha=0.5,
        kappa_star=DeterministicFn.constant(np.array([0.1, 0.1])),
        nu_star=DeterministicFn.constant(np.array([0.0, 0.0])),
        psi_hat=DeterministicFn.constant(0.05),
    )
    grid = TimeGrid(1.0, 4)
    batch = sample_brownian(1, grid, dim=2, n_paths=2)
    with pytest.raises(SubspaceViolationError):
        simulate_optimal(bad_kappa, market, grid, batch)


@pytest.mark.parametrize("field, value", [("kappa_star", [0.3, 0.2]), ("nu_star", [0.1, 0.1]), ("psi_hat", -0.1)])
def test_simulate_optimal_checks_the_last_grid_date(field, value):
    # each coefficient is admissible on [0, 1) and leaves its set only at t = 1
    spec = default_spec()
    inside = getattr(spec, field).values(np.array([0.0]))[0]
    table = DeterministicFn.table(np.array([0.0, 1.0]), np.array([inside, value]))
    grid = TimeGrid(1.0, 4)
    batch = sample_brownian(2, grid, dim=2, n_paths=2)
    with pytest.raises(ValueError):
        simulate_optimal(replace(spec, **{field: table}), default_market(), grid, batch)


DRIFT_FIELDS = ("interval_drift", "interval_stderr", "total_drift", "total_stderr")


def test_verify_checks_do_not_depend_on_the_row_block_size(monkeypatch):
    # two full default blocks and a partial one; blocks of 1, 7 and n + 1
    # rows must give the bits of the default blocks
    n = 2 * forward_yield.market._LOG_ROWS + 37
    market = default_market(rate=VasicekRate(a=0.5, b=0.03, sigma=0.01, r0=0.02, w_dir=E2))
    spec = default_spec()
    # psi_hat zero on part of the grid
    part = replace(spec, psi_hat=DeterministicFn.table(np.array([0.0, 1.0]), np.array([0.1, 0.0])))
    grid = TimeGrid(2.0, 8)
    batch = sample_brownian(77, grid, dim=2, n_paths=n)
    triple, partial = (simulate_optimal(s, market, grid, batch) for s in (spec, part))

    def checks():
        rows = [
            consistency_drift_test(triple, strategies=[{}])[0],
            consistency_drift_test(triple, strategies=[{"kappa": perturbed_kappa(spec, market, 0.15)}])[0],
            consistency_drift_test(triple, strategies=[{"consumption": scaled_consumption(spec, 1.5)}])[0],
            consistency_drift_test(triple, strategies=[{"consumption": scaled_consumption(spec, 0.5)}])[0],
        ]
        first = [
            first_order_check(triple),
            first_order_check(triple, x0=1.7),
            first_order_check(triple, y0=1.3),
            first_order_check(partial),
        ]
        return (
            [getattr(r, f) for r in rows for f in DRIFT_FIELDS]
            + first
            + [pathwise_ramsey_report(triple)]
        )

    reference = checks()
    for block in (1, 7, n + 1):
        monkeypatch.setattr(forward_yield.market, "_LOG_ROWS", block)
        for value, expected in zip(checks(), reference):
            assert np.array_equal(value, expected), block


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_checks_allocate_no_full_size_temporaries():
    # the first-order identity walks the paths in row blocks and keeps the
    # max of each, so it holds no array of n paths
    market = default_market(rate=VasicekRate(a=0.5, b=0.03, sigma=0.01, r0=0.02, w_dir=E2))
    spec = default_spec()
    grid = TimeGrid(5.0, 20)
    triple = simulate_optimal(spec, market, grid, sample_brownian(19, grid, dim=2, n_paths=100_000))
    assert _traced_peak(lambda: first_order_check(triple)) < 0.5 * triple.x.nbytes


def test_simulate_optimal_frees_the_rate_steps_before_zhat():
    # one stream block at the default config: the peak holds the triple's
    # five (rows, K+1) arrays and Zhat's temporaries, about 5.5 x.nbytes;
    # the (rows, K) step integrals kept alive with them make it about 6
    cfg = load_config(None)
    market = build_market(cfg)
    spec, grid = build_forward_spec(cfg, market), build_grid(cfg)
    batch = sample_brownian(cfg["simulation"]["seed"], grid, dim=market.dim, n_paths=_BLOCK)
    x_bytes = _BLOCK * (grid.n_steps + 1) * 8
    assert _traced_peak(lambda: simulate_optimal(spec, market, grid, batch)) < 5.75 * x_bytes


def test_representation_check_walks_the_x_grid():
    # one (1024, K+1) pass per point of the x grid: the peak holds about three
    # such arrays, where (1024, K+1, 11) broadcasts would hold some forty
    cfg = load_config(None)
    market = build_market(cfg)
    spec, grid = build_forward_spec(cfg, market), build_grid(cfg)
    triple = simulate_optimal(spec, market, grid, sample_brownian(5, grid, dim=market.dim, n_paths=_BLOCK))
    assert _traced_peak(lambda: representation_check(triple)) < 4 * triple.x[:1024].nbytes


@pytest.mark.parametrize("threads", ["1", "2"])
def test_optimal_blocks_are_the_rows_of_the_whole_batch(monkeypatch, threads):
    # the last block has one row; a Vasicek rate reads the residual stream too
    monkeypatch.setenv("FORWARD_YIELD_THREADS", threads)
    n, seed = 2 * _BLOCK + 1, 29
    market = default_market(rate=VasicekRate(a=0.5, b=0.03, sigma=0.01, r0=0.02, w_dir=E2))
    spec = default_spec()
    grid = TimeGrid(1.0, 4)
    whole = simulate_optimal(spec, market, grid, sample_brownian(seed, grid, dim=2, n_paths=n))

    def paths(batch):
        triple = simulate_optimal(spec, market, grid, batch)
        rates = triple.rate_paths
        return triple.batch.first_row, (triple.x, triple.y, triple.zhat, rates.r, rates.integral)

    first_rows, blocks = zip(*map_blocks(paths, seed, grid, 2, n))
    assert first_rows == (0, _BLOCK, 2 * _BLOCK) and blocks[-1][0].shape[0] == 1
    expected = (whole.x, whole.y, whole.zhat, whole.rate_paths.r, whole.rate_paths.integral)
    for i, array in enumerate(expected):
        assert np.array_equal(np.concatenate([block[i] for block in blocks]), array)
    # merged in block order, the drift of the blocks is that of the whole
    # triple's rows reduced block by block
    strategies = [{"kappa": perturbed_kappa(spec, market, 0.15)}]
    drifts = map_blocks(
        lambda b: consistency_drift_test(simulate_optimal(spec, market, grid, b), strategies=strategies)[0],
        seed, grid, 2, n,
    )
    reference = functools.reduce(
        DriftReport.merge,
        (consistency_drift_test(_rows(whole, b0, b1), strategies=strategies)[0] for b0, b1 in stream_blocks(n)),
    )
    merged = functools.reduce(DriftReport.merge, drifts)
    for field in DRIFT_FIELDS:
        assert np.array_equal(getattr(merged, field), getattr(reference, field))


def _rows(triple, b0, b1):
    """The triple on its paths b0 to b1 - 1."""
    rates = triple.rate_paths
    return replace(
        triple,
        batch=replace(triple.batch, increments=triple.batch.increments[b0:b1]),
        rate_paths=replace(rates, r=rates.r[b0:b1], integral=rates.integral[b0:b1]),
        x=triple.x[b0:b1],
        y=triple.y[b0:b1],
        zhat=triple.zhat[b0:b1],
    )


def test_a_batch_starts_at_a_block_of_the_streams():
    grid = TimeGrid(1.0, 4)
    for first_row in (1, _BLOCK // 2, -_BLOCK):
        with pytest.raises(ValueError, match="first_row"):
            sample_brownian(3, grid, dim=2, n_paths=10, first_row=first_row)
    later = sample_brownian(3, grid, dim=2, n_paths=5, first_row=_BLOCK)
    assert np.array_equal(later.increments, sample_brownian(3, grid, dim=2, n_paths=_BLOCK + 5).increments[_BLOCK:])


def test_reading_grid_keeps_the_first_date_after_each_knot():
    # nu steps at 3.6, between the quarter-year dates 3.5 and 3.75: the step
    # from 3.75 is the first to carry the new value, so that date is kept;
    # eta's knot at 6.1 lies past the last date read and keeps none
    market = replace(default_market(), risk_premium=DeterministicFn.table([0.0, 6.1], [[0.15, 0.0], [0.1, 0.0]]))
    spec = replace(default_spec(), nu_star=DeterministicFn.table([0.0, 3.6], [[0.0, 0.1], [0.0, -0.1]]))
    grid = TimeGrid(10.0, 40)
    read = [grid.index_of(2.0), grid.index_of(5.0)]
    assert np.array_equal(reading_grid(spec, market, grid, read).times, [0.0, 2.0, 3.75, 5.0])
    # a callable has no knots to read, so it keeps every date up to the last read
    flat = DeterministicFn(lambda t: np.full(np.shape(t), 0.1), label="flat psi")
    assert np.array_equal(reading_grid(replace(spec, psi_hat=flat), market, grid, read).times, grid.times[:21])


def test_perturbed_and_scaled_strategies_are_tables_on_the_spec_knots():
    spec = replace(
        default_spec(),
        kappa_star=DeterministicFn.table([0.0, 2.0, 3.0], [[0.3, 0.0], [0.0, 0.0], [-0.2, 0.0]]),
        psi_hat=DeterministicFn.table([0.0, 1.0], [0.02, 0.08]),
    )
    kappa = perturbed_kappa(spec, default_market(), 0.15)
    assert np.array_equal(kappa.times, [0.0, 2.0, 3.0])
    # each row moves along its own direction, and a zero row along the subspace's basis
    rows = np.array([[0.3, 0.0], [0.0, 0.0], [-0.2, 0.0]])
    assert np.array_equal(kappa.values(kappa.times), rows + 0.15 * np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]))
    over = scaled_consumption(spec, 1.5)
    assert np.array_equal(over.times, [0.0, 1.0])
    assert np.array_equal(over.values(over.times), 1.5 * np.array([0.02, 0.08]))
    # scaled to 0 the rows are equal, and merge into one knot
    assert np.array_equal(scaled_consumption(spec, 0.0).times, [0.0])
