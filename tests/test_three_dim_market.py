"""Integration checks in a 3-dimensional market with a tilted 2-dim subspace."""

import numpy as np

from forward_yield import (
    BackwardSpec,
    DeterministicFn,
    ForwardPowerSpec,
    MarketModel,
    SubspaceR,
    SyntheticSqrtGamma,
    VasicekRate,
    backward_optimal_paths,
    first_order_check,
    hjb_residual,
    TimeGrid,
    representation_check,
    sample_brownian,
    simulate_optimal,
    solve_backward_vols,
    zc_price_gaussian,
)
from forward_yield.backward import TerminalConstraintReport


def tilted_setup():
    sub = SubspaceR.span(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]]), dim=3)
    perp = np.eye(3) - sub.basis.T @ sub.basis
    dir_perp = perp[np.argmax(np.linalg.norm(perp, axis=1))]
    dir_perp = dir_perp / np.linalg.norm(dir_perp)

    eta = 0.1 * sub.basis[0] + 0.05 * sub.basis[1]
    market = MarketModel(
        dim=3,
        rate=VasicekRate(a=1.2, b=0.025, sigma=0.018, r0=0.03, w_dir=dir_perp),
        risk_premium=DeterministicFn.constant(eta),
        subspace=sub,
    )
    kappa = 0.2 * sub.basis[0] - 0.1 * sub.basis[1]
    spec = ForwardPowerSpec(
        alpha=0.45,
        kappa_star=DeterministicFn.constant(kappa),
        nu_star=DeterministicFn.constant(0.08 * dir_perp),
        psi_hat=DeterministicFn.constant(0.07),
    )
    return market, spec, dir_perp


def test_forward_identities_in_three_dimensions():
    market, spec, _ = tilted_setup()
    grid = TimeGrid(4.0, 32)
    batch = sample_brownian(606060, grid, dim=3, n_paths=2_000)
    triple = simulate_optimal(spec, market, grid, batch)
    assert hjb_residual(triple).max_rel_residual < 1e-10
    assert hjb_residual(triple).max_policy_residual < 1e-12
    assert first_order_check(triple, x0=1.7) < 1e-9
    assert representation_check(triple) < 1e-10


def test_marginal_price_three_dim_mc_vs_closed():
    market, spec, _ = tilted_setup()
    grid = TimeGrid(4.0, 16)
    batch = sample_brownian(606061, grid, dim=3, n_paths=100_000)
    triple = simulate_optimal(spec, market, grid, batch)
    k = grid.index_of(4.0)
    vals = triple.y[:, k]
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    closed = float(zc_price_gaussian(market, spec.nu_star, 0.0, 4.0))
    assert abs(vals.mean() - closed) < 4 * se


def test_backward_terminal_constraint_three_dim_mixed_gamma():
    market, spec, dir_perp = tilted_setup()
    gamma = SyntheticSqrtGamma(c_r=3e-5, c_perp=5e-5, dir_r=market.subspace.basis[1], dir_perp=dir_perp)
    back = BackwardSpec(t_horizon=4.0, alpha=0.45, gamma=gamma, market=market)
    grid = TimeGrid(4.0, 32)
    batch = sample_brownian(606062, grid, dim=3, n_paths=4_000)
    x, y = backward_optimal_paths(back, grid, batch, *solve_backward_vols(back))
    report = TerminalConstraintReport.of(back.alpha, x[:, -1], y[:, -1])
    assert report.cv < 1e-10

    nu, kappa = solve_backward_vols(back)
    t = grid.times
    g = gamma.vectors(t, 4.0)
    res = back.alpha * kappa.values(t) + (1 - back.alpha) * market.subspace.component_in(g) \
        - np.atleast_2d(market.risk_premium.values(t))
    assert np.max(np.abs(res)) < 1e-12
    assert market.subspace.orthogonal_to(nu.values(t), tol=1e-12)
