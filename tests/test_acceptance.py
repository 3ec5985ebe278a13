"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.  Every expected value is either exact arithmetic or comes
from an independently coded oracle in this file or in
conjugation_oracles.py.
"""

import time

import numpy as np
import pytest

from forward_yield import (
    BackwardSpec,
    ConstantRate,
    DeterministicFn,
    ForwardPowerSpec,
    MarketModel,
    PowerUtility,
    SubspaceR,
    SyntheticSqrtGamma,
    VasicekGamma,
    VasicekRate,
    backward_optimal_paths,
    consistency_drift_test,
    first_order_check,
    gbm_consumption_paths,
    hjb_residual,
    horizon_dependency_experiment,
    horizon_map,
    long_rate,
    TimeGrid,
    pathwise_ramsey_report,
    perturbed_kappa,
    ramsey_curve_mc,
    representation_check,
    sample_brownian,
    scaled_consumption,
    simulate_optimal,
    simulate_short_rate,
    solve_backward_vols,
    state_price_paths,
    zc_price_gaussian,
)
from forward_yield.backward import TerminalConstraintReport
from forward_yield.curves import davis_report
from forward_yield.stats import mean_stderr

from conjugation_oracles import numeric_biconjugate, numeric_fenchel

E1, E2 = np.eye(2)
MACHINE_EPS = np.finfo(float).eps


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared forward configuration (criteria 3, 4, 5)


@pytest.fixture(scope="module")
def forward_setup():
    market = MarketModel(
        dim=2,
        rate=ConstantRate(0.03),
        risk_premium=DeterministicFn.constant(np.array([0.15, 0.0])),
        subspace=SubspaceR([[1.0, 0.0]], 2),
    )
    spec = ForwardPowerSpec(
        alpha=0.5,
        kappa_star=DeterministicFn.constant(np.array([0.3, 0.0])),
        nu_star=DeterministicFn.constant(np.array([0.0, 0.1])),
        psi_hat=DeterministicFn.constant(0.1),
    )
    grid = TimeGrid(5.0, 50)
    batch = sample_brownian(20240901, grid, dim=2, n_paths=100_000)
    triple = simulate_optimal(spec, market, grid, batch)
    return market, spec, grid, triple


def test_criterion_1_flat_ramsey_curve():
    beta, alpha, growth, sigma = 0.01, 0.5, 0.02, 0.1
    target = 0.01625  # beta + alpha g - alpha (alpha + 1) sigma^2 / 2
    tenors = [1.0, 2.0, 5.0, 10.0, 30.0]
    start = time.perf_counter()
    grid = TimeGrid(30.0, 120)
    batch = sample_brownian(1001, grid, dim=1, n_paths=100_000)
    c_paths = gbm_consumption_paths(1.0, growth, sigma, grid, batch)

    ok_levels = True
    worst = 0.0
    report = ramsey_curve_mc(beta, alpha, c_paths, grid, tenors)
    for rate, se in zip(report.curve.rates, report.curve.stderrs):
        z = abs(rate - target) / se
        worst = max(worst, z)
        ok_levels &= z < 3.0
    elapsed = time.perf_counter() - start
    ok = ok_levels and report.max_spread_t < 4.0 and elapsed < 10.0
    _report(
        "criterion 1 (flat Ramsey curve)",
        ok,
        f"max |z| vs 0.01625 = {worst:.2f} (<3), spread t = {report.max_spread_t:.2f} (<4), {elapsed:.1f}s (<10s)",
    )


def textbook_vasicek_price(a, b, sigma, r0, tau):
    """Independent oracle: affine-form bond price."""
    bee = (1.0 - np.exp(-a * tau)) / a
    log_a = (b - sigma**2 / (2 * a**2)) * (bee - tau) - sigma**2 * bee**2 / (4 * a)
    return np.exp(log_a - bee * r0)


def test_criterion_2_vasicek_zero_coupon_oracle():
    a, b, sigma, r0 = 1.0, 0.03, 0.02, 0.03
    market = MarketModel(
        dim=2,
        rate=VasicekRate(a=a, b=b, sigma=sigma, r0=r0, w_dir=E2),
        risk_premium=DeterministicFn.constant(np.array([0.03, 0.0])),
        subspace=SubspaceR([[1.0, 0.0]], 2),
    )
    start = time.perf_counter()
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(1002, grid, dim=2, n_paths=100_000)
    y = state_price_paths(market, grid, batch, simulate_short_rate(market.rate, grid, batch).integral)
    worst = 0.0
    for tenor in (1.0, 5.0, 10.0):
        price = float(y[:, grid.index_of(tenor)].mean())
        oracle = textbook_vasicek_price(a, b, sigma, r0, tenor)
        worst = max(worst, abs(price / oracle - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 2e-3 and elapsed < 10.0
    _report(
        "criterion 2 (Vasicek ZC oracle)",
        ok,
        f"max relative error {worst:.2e} (<2e-3), {elapsed:.1f}s (<10s)",
    )


def test_criterion_3_hjb_residuals_randomized():
    rng = np.random.default_rng(1003)
    worst_drift, worst_policy = 0.0, 0.0
    for _ in range(3):
        market = MarketModel(
            dim=2,
            rate=ConstantRate(float(rng.uniform(0.0, 0.06))),
            risk_premium=DeterministicFn.constant(np.array([float(rng.uniform(-0.3, 0.3)), 0.0])),
            subspace=SubspaceR([[1.0, 0.0]], 2),
        )
        spec = ForwardPowerSpec(
            alpha=float(rng.uniform(0.15, 0.85)),
            kappa_star=DeterministicFn.constant(np.array([float(rng.uniform(-0.5, 0.5)), 0.0])),
            nu_star=DeterministicFn.constant(np.array([0.0, float(rng.uniform(-0.4, 0.4))])),
            psi_hat=DeterministicFn.constant(float(rng.uniform(0.0, 0.25))),
        )
        grid = TimeGrid(4.0, 40)
        batch = sample_brownian(int(rng.integers(1, 2**32)), grid, dim=2, n_paths=4)
        triple = simulate_optimal(spec, market, grid, batch)
        report = hjb_residual(
            triple,
            t_indices=np.linspace(0, grid.n_steps, 20).astype(int),
            x_grid=np.geomspace(0.1, 10.0, 20),
        )
        worst_drift = max(worst_drift, report.max_rel_residual)
        worst_policy = max(worst_policy, report.max_policy_residual)
    ok = worst_drift <= 1e-10 and worst_policy <= 1e-10
    _report(
        "criterion 3 (HJB residuals)",
        ok,
        f"max drift residual {worst_drift:.2e}, max policy residual {worst_policy:.2e} (<=1e-10, 20x20 grid, 3 specs)",
    )


def test_criterion_4_consistency_drift_suite(forward_setup):
    market, spec, grid, triple = forward_setup
    optimal = consistency_drift_test(triple, strategies=[{}])[0]
    eps = 0.5 * 0.3  # half the optimal portfolio volatility norm
    shifted = consistency_drift_test(triple, strategies=[{"kappa": perturbed_kappa(spec, market, eps)}])[0]
    over = consistency_drift_test(triple, strategies=[{"consumption": scaled_consumption(spec, 1.5)}])[0]
    under = consistency_drift_test(triple, strategies=[{"consumption": scaled_consumption(spec, 0.5)}])[0]
    ok = (
        optimal.max_abs_t < 4.0
        and shifted.total_t < -4.0
        and over.total_t < -4.0
        and under.total_t < -4.0
    )
    _report(
        "criterion 4 (consistency drift suite)",
        ok,
        f"optimal max |t| = {optimal.max_abs_t:.2f} (<4); perturbed t: kappa {shifted.total_t:.1f}, "
        f"c+50% {over.total_t:.1f}, c-50% {under.total_t:.1f} (each < -4)",
    )


def test_criterion_5_first_order_identities(forward_setup):
    market, spec, grid, _ = forward_setup
    batch = sample_brownian(1005, grid, dim=2, n_paths=1000)
    triple = simulate_optimal(spec, market, grid, batch)
    worst = 0.0
    for x0 in (0.5, 1.0, 2.0, 10.0):
        worst = max(worst, first_order_check(triple, x0=x0))
    ramsey_res = pathwise_ramsey_report(triple)
    transport = representation_check(triple)
    worst = max(worst, ramsey_res, transport)
    ok = worst <= 1e-9
    _report(
        "criterion 5 (first-order / pathwise Ramsey)",
        ok,
        f"max pathwise relative residual {worst:.2e} (<=1e-9, all grid times, 1e3 paths)",
    )


def _vasicek_orthogonal_spec(t_horizon, alpha=0.5):
    market = MarketModel(
        dim=2,
        rate=ConstantRate(0.03),
        risk_premium=DeterministicFn.constant(np.array([0.1, 0.0])),
        subspace=SubspaceR([[1.0, 0.0]], 2),
    )
    gamma = VasicekGamma(a=1.0, sigma_r=0.02, direction=E2)
    return BackwardSpec(t_horizon=t_horizon, alpha=alpha, gamma=gamma, market=market)


def test_criterion_6_backward_terminal_constraint():
    spec = _vasicek_orthogonal_spec(10.0)
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(1006, grid, dim=2, n_paths=10_000)
    x, y = backward_optimal_paths(spec, grid, batch, *solve_backward_vols(spec))
    consistent = TerminalConstraintReport.of(spec.alpha, x[:, -1], y[:, -1])

    mismatched = _vasicek_orthogonal_spec(50.0)
    nu_wrong, kappa_wrong = solve_backward_vols(mismatched)
    x, y = backward_optimal_paths(spec, grid, batch, nu_wrong, kappa_wrong)
    control = TerminalConstraintReport.of(spec.alpha, x[:, -1], y[:, -1])
    ok = consistent.cv <= 1e-10 and control.cv > 1e-3
    _report(
        "criterion 6 (backward terminal constraint)",
        ok,
        f"consistent CV = {consistent.cv:.2e} (<=1e-10), mismatched-horizon CV = {control.cv:.2e} (>1e-3)",
    )


def test_criterion_7_horizon_dependency():
    grid = TimeGrid(50.0, 200)
    batch = sample_brownian(1007, grid, dim=2, n_paths=10_000)

    flat = _vasicek_orthogonal_spec(50.0)
    flat_gamma = BackwardSpec(
        t_horizon=50.0, alpha=0.5,
        gamma=VasicekGamma(a=1.0, sigma_r=0.0, direction=E2),
        market=flat.market,
    )
    no_noise = horizon_dependency_experiment(horizon_map(flat_gamma, [10.0, 50.0], grid, t_common=5.0), batch)

    vasicek = horizon_dependency_experiment(horizon_map(flat, [10.0, 50.0], grid, t_common=5.0), batch)
    gap = vasicek[0]
    flat_gap = max(max(g.max_rel_gap_x, g.max_rel_gap_y) for g in no_noise)
    ok = (
        flat_gap <= 1e-12
        and gap.max_rel_gap_y > 10 * MACHINE_EPS
        and gap.predicted_gap_residual <= 1e-9
    )
    _report(
        "criterion 7 (horizon dependency)",
        ok,
        f"flat-gamma gap {flat_gap:.1e} (<=1e-12); "
        f"dual gap at T=5: {gap.max_rel_gap_y:.2e} (>10 eps), prediction residual {gap.predicted_gap_residual:.1e} (<=1e-9)",
    )


def test_criterion_8_long_rate_verdicts():
    market = _vasicek_orthogonal_spec(10.0).market
    t_grid = np.linspace(0.0, 10.0, 11)
    c_perp = 6e-5

    vasicek = long_rate(
        VasicekGamma(a=1.0, sigma_r=0.02, direction=E2), "forward", 0.5, l0=0.03, t_grid=t_grid, market=market
    )
    sqrt_fwd = long_rate(
        SyntheticSqrtGamma(c_r=0.0, c_perp=c_perp, dir_r=E1, dir_perp=E2), "forward", 0.5,
        l0=0.03, t_grid=t_grid, market=market,
    )
    sqrt_bwd = long_rate(
        SyntheticSqrtGamma(c_r=0.0, c_perp=c_perp, dir_r=E1, dir_perp=E2), "backward", 0.25,
        l0=0.03, t_grid=t_grid, market=market,
    )
    ok = (
        vasicek.verdict == "constant"
        and sqrt_fwd.verdict == "increasing"
        and abs(sqrt_fwd.slope - c_perp / 2.0) <= 1e-12
        and sqrt_bwd.verdict == "decreasing"
        and abs(sqrt_bwd.slope - (2 * 0.25 - 1.0) * c_perp / 2.0) <= 1e-12
    )
    _report(
        "criterion 8 (long-rate verdicts)",
        ok,
        f"vasicek: {vasicek.verdict}; sqrt forward: {sqrt_fwd.verdict} slope {sqrt_fwd.slope:.2e}; "
        f"sqrt backward (alpha=0.25): {sqrt_bwd.verdict} slope {sqrt_bwd.slope:.2e}",
    )


def test_criterion_9_complete_market_price_agreement():
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
    batch = sample_brownian(1009, grid, dim=2, n_paths=100_000)
    triple = simulate_optimal(spec, market, grid, batch)
    y0_paths = state_price_paths(market, grid, batch, triple.rate_paths.integral)

    worst_mc_gap, worst_closed_z = 0.0, 0.0
    for tenor in (1.0, 2.0, 5.0, 10.0):
        k = grid.index_of(tenor)
        marginal, se = mean_stderr(triple.y[:, k])
        neutral = float(y0_paths[:, k].mean())
        worst_mc_gap = max(worst_mc_gap, abs(marginal - neutral) / max(se, 1e-300))
        closed = float(zc_price_gaussian(market, None, 0.0, tenor))
        worst_closed_z = max(worst_closed_z, abs(marginal - closed) / se)
    ok = worst_mc_gap < 4.0 and worst_closed_z < 4.0
    _report(
        "criterion 9 (complete-market agreement)",
        ok,
        f"|marginal - risk-neutral| = {worst_mc_gap:.2f} se (<4, common batch); vs closed form {worst_closed_z:.2f} se (<4)",
    )


def test_criterion_10_davis_linearity_and_time_consistency():
    spec = _vasicek_orthogonal_spec(10.0)
    grid = TimeGrid(10.0, 40)
    batch = sample_brownian(1010, grid, dim=2, n_paths=100_000)
    x, y = backward_optimal_paths(spec, grid, batch, *solve_backward_vols(spec))
    k_mat, k_h = grid.index_of(5.0), grid.index_of(10.0)

    zeta1 = np.maximum(x[:, k_mat] - 0.8, 0.0)
    zeta2 = np.ones_like(zeta1)
    p1 = davis_report(zeta1, y, x, k_mat, k_h).price
    p2 = davis_report(zeta2, y, x, k_mat, k_h).price
    combo = davis_report(2.0 * zeta1 + 3.0 * zeta2, y, x, k_mat, k_h).price
    lin_gap = abs(combo.mean - (2.0 * p1.mean + 3.0 * p2.mean)) / max(abs(combo.mean), 1.0)

    _, t_stat = davis_report(zeta1, y, x, k_mat, k_h).capitalization
    ok = lin_gap <= 1e-15 and abs(t_stat) < 3.0
    _report(
        "criterion 10 (Davis pricing)",
        ok,
        f"linearity gap {lin_gap:.1e} (<=1e-15), capitalization t = {t_stat:.2f} (<3)",
    )


def test_criterion_11_duality_suite():
    u = PowerUtility(alpha=0.5)
    x_grid = np.geomspace(1e-4, 1e4, 4000)
    y_mid = np.geomspace(0.1, 10.0, 200)
    numeric = numeric_fenchel(u.value, x_grid, y_mid)
    conj_gap = float(np.max(np.abs(numeric.values / u.conjugate(y_mid) - 1.0)))

    y_wide = np.geomspace(1e-4, 1e4, 4000)
    full = numeric_fenchel(u.value, x_grid, y_wide)
    x_mid = np.geomspace(0.1, 10.0, 50)
    recovered = numeric_biconjugate(full, x_mid)
    bidual_gap = float(np.max(np.abs(recovered / u.value(x_mid) - 1.0)))
    ok = conj_gap <= 1e-4 and bidual_gap <= 1e-3
    _report(
        "criterion 11 (duality suite)",
        ok,
        f"brute-force vs closed conjugate {conj_gap:.2e} (<=1e-4), biduality round-trip {bidual_gap:.2e} (<=1e-3)",
    )
