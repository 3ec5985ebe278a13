"""Command-line orchestration: configuration in, CSV/JSON tables out.

Subcommands: ramsey-flat, forward-curve, backward-curve, long-rate, verify,
davis, horizon.  All randomness flows from the single configured seed;
rerunning an identical (config, seed) reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from . import __version__
from .backward import backward_optimal_paths, horizon_dependency_experiment, terminal_constraint_check
from .brownian import sample_brownian
from .config import (
    build_backward_spec,
    build_forward_spec,
    build_gamma,
    build_grid,
    build_market,
    grid_indices,
    horizon_params,
    load_config,
    output_params,
    simulation_params,
    tenor_list,
    verify_thresholds,
)
from .curves import (
    curve_from_prices,
    davis_price,
    davis_time_consistency,
    forward_marginal_consumption_paths,
    gbm_consumption_paths,
    long_rate,
    marginal_zc_mc,
    pathwise_ramsey_report,
    ramsey_curve_mc,
    ramsey_flat_closed,
    zc_price_gamma_market,
    zc_price_gaussian,
    zc_price_mc,
)
from .errors import ConfigError, ForwardYieldError
from .forward import (
    consistency_drift_test,
    first_order_check,
    hjb_residual,
    perturbed_kappa,
    representation_check,
    scaled_consumption,
    simulate_optimal,
)
from .grids import make_grid
from .market import wealth_paths
from .tables import RunManifest, emit_table

CURVE_COLUMNS = ["tenor", "rate", "stderr", "method"]


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = load_config(args.config)
        _apply_overrides(cfg, args)
        handler = _HANDLERS[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ForwardYieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forward-yield",
        description="Forward/backward power-utility simulation and yield-curve engine",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")
    for name, help_text in [
        ("ramsey-flat", "flat equilibrium curve for geometric consumption"),
        ("forward-curve", "marginal-utility zero-coupon curve of a forward spec"),
        ("backward-curve", "backward spec: solved volatilities, terminal check, curve"),
        ("long-rate", "long-maturity yield asymptotics verdicts"),
        ("verify", "full invariant suite for the configured forward spec"),
        ("davis", "marginal-utility price of a payoff"),
        ("horizon", "time-inconsistency experiment across horizons"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="JSON or YAML config path")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--paths", type=int, default=None, help="override simulation.n_paths")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--format", type=str, default=None, choices=["csv", "json"], help="table format")
    return parser


def _apply_overrides(cfg: dict, args) -> None:
    if args.seed is not None:
        cfg["simulation"]["seed"] = args.seed
    if args.paths is not None:
        cfg["simulation"]["n_paths"] = args.paths
    if args.out is not None:
        cfg["output"]["path"] = args.out
    if args.format is not None:
        cfg["output"]["format"] = args.format


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ramsey_flat(cfg: Mapping[str, Any]) -> int:
    block = cfg["ramsey"]
    beta = float(block["beta"])
    alpha = float(block["alpha"])
    growth = float(block["growth"])
    sigma = float(block["sigma"])
    tenors = tenor_list(block.get("tenors", cfg["output"]["tenors"]), "ramsey.tenors")
    n_paths, seed, _ = simulation_params(cfg)
    _, out_dir, fmt = output_params(cfg)

    horizon = max(tenors)
    grid = make_grid(horizon, int(round(horizon / 0.25)))
    grid_indices(grid, tenors, "ramsey.tenors")
    batch = sample_brownian(seed, grid, dim=1, n_paths=n_paths)
    c_paths = gbm_consumption_paths(1.0, growth, sigma, grid, batch)
    report = ramsey_curve_mc(beta, alpha, c_paths, grid, tenors)
    closed = ramsey_flat_closed(beta, alpha, growth, sigma)

    manifest = RunManifest("ramsey-flat", cfg, seed, __version__)
    curve = report.curve
    rows = [
        {"tenor": t, "rate": r, "stderr": s, "method": "ramsey_mc"}
        for t, r, s in zip(curve.tenors, curve.rates, curve.stderrs)
    ]
    table = emit_table(rows, fmt, Path(out_dir) / f"ramsey_flat_curve.{fmt}", columns=CURVE_COLUMNS)
    manifest.add_output(table)

    detail_rows = [
        {
            "tenor": t,
            "rate": r,
            "stderr": s,
            "closed_form": closed,
            "deviation_t": (r - closed) / s if s > 0 else 0.0,
        }
        for t, r, s in zip(curve.tenors, curve.rates, curve.stderrs)
    ]
    detail = emit_table(detail_rows, fmt, Path(out_dir) / f"ramsey_flat_detail.{fmt}")
    manifest.add_output(detail)
    manifest.add_summary(closed_form=closed, max_spread=report.max_spread, max_spread_t=report.max_spread_t)
    manifest.write(out_dir)

    print(f"ramsey-flat: closed-form rate {closed:.6f}, max spread t-stat {report.max_spread_t:.2f}")
    print(f"wrote {table}")
    return 0


def _cmd_forward_curve(cfg: Mapping[str, Any]) -> int:
    market = build_market(cfg)
    spec = build_forward_spec(cfg, market)
    grid = build_grid(cfg)
    n_paths, seed, inner_paths = simulation_params(cfg)
    tenors, out_dir, fmt = output_params(cfg)
    ks = grid_indices(grid, tenors, "output.tenors")

    batch = sample_brownian(seed, grid, dim=market.dim, n_paths=n_paths)
    triple = simulate_optimal(spec, market, grid, batch)

    prices, stderrs, closed, neutral = [], [], [], []
    for t, k in zip(tenors, ks):
        p, se = zc_price_mc(triple.state_price.values, 0, k)
        prices.append(p)
        stderrs.append(se)
        closed.append(float(zc_price_gaussian(market, spec.nu_star, 0.0, t)))
        neutral.append(float(zc_price_gaussian(market, None, 0.0, t)))
    curve = curve_from_prices(np.array(prices), np.array(tenors), method="marginal_mc", stderrs=np.array(stderrs))
    gaussian = curve_from_prices(np.array(closed), np.array(tenors), method="gaussian_closed")
    neutral_curve = curve_from_prices(np.array(neutral), np.array(tenors), method="risk_neutral")

    manifest = RunManifest("forward-curve", cfg, seed, __version__)
    rows = [
        {"tenor": t, "rate": r, "stderr": s, "method": curve.method}
        for t, r, s in zip(curve.tenors, curve.rates, curve.stderrs)
    ]
    for extra in (gaussian, neutral_curve):
        rows += [
            {"tenor": t, "rate": r, "stderr": 0.0, "method": extra.method}
            for t, r in zip(extra.tenors, extra.rates)
        ]
    table = emit_table(rows, fmt, Path(out_dir) / f"forward_curve.{fmt}", columns=CURVE_COLUMNS)
    manifest.add_output(table)

    detail_rows = [
        {
            "tenor": t,
            "mc_price": p,
            "mc_stderr": se,
            "gaussian_price": c,
            "risk_neutral_price": rn,
            "mc_minus_gaussian_t": (p - c) / se if se > 0 else 0.0,
        }
        for t, p, se, c, rn in zip(tenors, prices, stderrs, closed, neutral)
    ]
    detail = emit_table(detail_rows, fmt, Path(out_dir) / f"forward_curve_detail.{fmt}")
    manifest.add_output(detail)

    asof = float(cfg.get("output", {}).get("asof", 0.0))
    if asof > 0.0:
        (k_t,) = grid_indices(grid, [asof], "output.asof")
        nested_rows = []
        for t, k in zip(tenors, ks):
            if k <= k_t:
                continue
            rep = marginal_zc_mc(triple, k_t, k, inner_paths=inner_paths, max_outer=min(256, n_paths))
            mean_price = float(np.mean(rep.prices))
            spread = float(np.std(rep.prices, ddof=1)) if len(rep.prices) > 1 else 0.0
            nested_rows.append(
                {
                    "tenor": t,
                    "rate": -float(np.log(mean_price)) / (t - asof),
                    "stderr": spread / (mean_price * (t - asof) * np.sqrt(len(rep.prices))),
                    "method": "marginal_mc_nested",
                }
            )
        nested = emit_table(nested_rows, fmt, Path(out_dir) / f"forward_curve_asof.{fmt}", columns=CURVE_COLUMNS)
        manifest.add_output(nested)

    manifest.add_summary(max_abs_mc_vs_gaussian_t=max(abs(r["mc_minus_gaussian_t"]) for r in detail_rows))
    manifest.write(out_dir)
    print(f"forward-curve: {len(rows)} tenors written to {table}")
    return 0


def _cmd_backward_curve(cfg: Mapping[str, Any]) -> int:
    market = build_market(cfg)
    spec = build_backward_spec(cfg, market)
    grid = build_grid(cfg)
    if grid.horizon < spec.t_horizon - 1e-12:
        raise ConfigError(
            f"simulation.horizon: must cover spec.t_horizon={spec.t_horizon}, got {grid.horizon}"
        )
    n_paths, seed, _ = simulation_params(cfg)
    tenors, out_dir, fmt = output_params(cfg)
    grid_indices(grid, [spec.t_horizon], "spec.t_horizon")
    tenors = [t for t in tenors if t <= spec.t_horizon + 1e-12]
    ks = grid_indices(grid, tenors, "output.tenors")

    batch = sample_brownian(seed, grid, dim=market.dim, n_paths=n_paths)
    paths = backward_optimal_paths(spec, grid, batch)
    constraint = terminal_constraint_check(spec, paths)

    prices, stderrs, closed, neutral = [], [], [], []
    for t, k in zip(tenors, ks):
        p, se = zc_price_mc(paths.y, 0, k)
        prices.append(p)
        stderrs.append(se)
        closed.append(zc_price_gamma_market(spec, paths.nu, t))
        neutral.append(zc_price_gamma_market(spec, None, t))
    curve = curve_from_prices(np.array(prices), np.array(tenors), method="marginal_mc", stderrs=np.array(stderrs))
    gaussian = curve_from_prices(np.array(closed), np.array(tenors), method="gaussian_closed")
    neutral_curve = curve_from_prices(np.array(neutral), np.array(tenors), method="risk_neutral")

    manifest = RunManifest("backward-curve", cfg, seed, __version__)
    rows = [
        {"tenor": t, "rate": r, "stderr": s, "method": curve.method}
        for t, r, s in zip(curve.tenors, curve.rates, curve.stderrs)
    ]
    for extra in (gaussian, neutral_curve):
        rows += [
            {"tenor": t, "rate": r, "stderr": 0.0, "method": extra.method}
            for t, r in zip(extra.tenors, extra.rates)
        ]
    table = emit_table(rows, fmt, Path(out_dir) / f"backward_curve.{fmt}", columns=CURVE_COLUMNS)
    manifest.add_output(table)
    detail_rows = [
        {
            "tenor": t,
            "mc_price": p,
            "mc_stderr": se,
            "gaussian_price": c,
            "risk_neutral_price": rn,
        }
        for t, p, se, c, rn in zip(tenors, prices, stderrs, closed, neutral)
    ]
    detail = emit_table(detail_rows, fmt, Path(out_dir) / f"backward_curve_detail.{fmt}")
    manifest.add_output(detail)
    manifest.add_summary(
        terminal_constant=constraint.constant,
        terminal_cv=constraint.cv,
        horizon=spec.t_horizon,
        alpha=spec.alpha,
    )
    manifest.write(out_dir)

    print(f"backward-curve: terminal constant {constraint.constant:.6f}, dispersion {constraint.cv:.3e}")
    print(f"wrote {table}")
    if constraint.cv > 1e-8:
        print("terminal constraint violated: optimal volatilities inconsistent with gamma", file=sys.stderr)
        return 1
    return 0


def _cmd_long_rate(cfg: Mapping[str, Any]) -> int:
    market = build_market(cfg)
    gamma = build_gamma(cfg, market)
    block = cfg["long_rate"]
    l0 = float(block["l0"])
    alpha_fwd = float(cfg["spec"]["alpha"])
    alpha_bwd = float(block.get("alpha_backward", 0.25))
    t_grid = np.linspace(0.0, float(block["t_max"]), 11)
    probes = [float(p) for p in block.get("probes", [50.0, 100.0, 200.0])]
    _, out_dir, fmt = output_params(cfg)
    _, seed, _ = simulation_params(cfg)

    manifest = RunManifest("long-rate", cfg, seed, __version__)
    rows = []
    probe_rows = []
    for mode, alpha in (("forward", alpha_fwd), ("backward", alpha_bwd)):
        report = long_rate(
            gamma, mode, alpha, l0=l0, t_grid=t_grid,
            risk_premium=market.risk_premium, subspace=market.subspace, probe_tenors=probes,
        )
        for t, val in zip(report.t_grid, report.l_values):
            rows.append({"mode": mode, "alpha": alpha, "t": float(t), "long_rate": float(val),
                         "slope": report.slope, "verdict": report.verdict})
        for p, y in zip(report.probe_tenors, report.probe_expected_yields):
            probe_rows.append({"mode": mode, "probe_tenor": float(p), "expected_yield": float(y)})
        manifest.add_summary(mode=mode, alpha=alpha, slope=report.slope, verdict=report.verdict)
        print(f"long-rate [{mode}, alpha={alpha}]: slope {report.slope:.3e} -> {report.verdict}")

    table = emit_table(rows, fmt, Path(out_dir) / f"long_rate.{fmt}")
    probe_table = emit_table(probe_rows, fmt, Path(out_dir) / f"long_rate_probes.{fmt}")
    manifest.add_output(table)
    manifest.add_output(probe_table)
    manifest.write(out_dir)
    return 0


def _cmd_verify(cfg: Mapping[str, Any]) -> int:
    market = build_market(cfg)
    spec = build_forward_spec(cfg, market)
    grid = build_grid(cfg)
    n_paths, seed, _ = simulation_params(cfg)
    _, out_dir, fmt = output_params(cfg)
    tol = verify_thresholds(cfg)

    batch = sample_brownian(seed, grid, dim=market.dim, n_paths=n_paths)
    triple = simulate_optimal(spec, market, grid, batch)

    checks: list[tuple[str, float, float, bool]] = []

    def check(name: str, value: float, threshold: float, passed: bool) -> None:
        checks.append((name, float(value), float(threshold), bool(passed)))

    hjb = hjb_residual(triple)
    check("hjb_drift_residual", hjb.max_rel_residual, tol.identity_tol, hjb.max_rel_residual <= tol.identity_tol)
    check("hjb_policy_residual", hjb.max_policy_residual, tol.identity_tol, hjb.max_policy_residual <= tol.identity_tol)

    first = first_order_check(triple)
    check("first_order_identity", first.max_rel, tol.identity_tol, first.max_rel <= tol.identity_tol)

    rep = representation_check(triple)
    check("marginal_transport", rep, tol.identity_tol, rep <= tol.identity_tol)

    fact = float(np.max(np.abs(triple.zhat / (triple.state_price.values * triple.wealth.values**spec.alpha) - 1.0)))
    check("zhat_factorization", fact, 1e-10, fact <= 1e-10)

    psi_vals = np.asarray(spec.psi_hat.values(grid.times), dtype=float)
    if np.all(psi_vals > 0):
        ramsey = pathwise_ramsey_report(triple.state_price.values, forward_marginal_consumption_paths(triple))
        check("pathwise_ramsey", ramsey, tol.identity_tol, ramsey <= tol.identity_tol)

    optimal = consistency_drift_test(triple, threshold=tol.stat_band)
    check("optimal_drift_max_t", optimal.max_abs_t, tol.stat_band, optimal.is_martingale_like())

    kappa_norm = float(np.mean(np.linalg.norm(np.atleast_2d(spec.kappa_star.values(grid.times)), axis=-1)))
    eps = 0.5 * kappa_norm if kappa_norm > 0 else 0.1
    shifted = consistency_drift_test(triple, kappa=perturbed_kappa(spec, market, eps), threshold=tol.stat_band)
    check("perturbed_kappa_drift_t", shifted.total_t, -tol.stat_band, shifted.total_t <= -tol.stat_band)

    over = consistency_drift_test(triple, consumption=scaled_consumption(spec, 1.5), threshold=tol.stat_band)
    check("over_consumption_drift_t", over.total_t, -tol.stat_band, over.total_t <= -tol.stat_band)
    under = consistency_drift_test(triple, consumption=scaled_consumption(spec, 0.5), threshold=tol.stat_band)
    check("under_consumption_drift_t", under.total_t, -tol.stat_band, under.total_t <= -tol.stat_band)

    capitalized = triple.state_price.values[:, -1] * np.exp(triple.rate_paths.integral[:, -1])
    se = capitalized.std(ddof=1) / np.sqrt(len(capitalized))
    mart_t = abs(capitalized.mean() - 1.0) / se
    check("state_price_martingale_t", mart_t, tol.stat_band, mart_t <= tol.stat_band)

    manifest = RunManifest("verify", cfg, seed, __version__)
    # bankruptcies cannot occur under proportional consumption; reported, not judged
    manifest.add_summary(check="wealth_absorbed_fraction", value=triple.wealth.absorbed_fraction,
                         threshold=None, passed=True)
    rows = [
        {"check": name, "value": value, "threshold": threshold, "passed": passed}
        for name, value, threshold, passed in checks
    ]
    table = emit_table(rows, fmt, Path(out_dir) / f"verify.{fmt}")
    manifest.add_output(table)
    for name, value, threshold, passed in checks:
        manifest.add_summary(check=name, value=value, threshold=threshold, passed=passed)
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {value:.3e} (threshold {threshold:.3e})")
    manifest.write(out_dir)

    failed = [name for name, _, _, passed in checks if not passed]
    if failed:
        print(f"verify: {len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"verify: all {len(checks)} checks passed; report at {table}")
    return 0


def _cmd_davis(cfg: Mapping[str, Any]) -> int:
    market = build_market(cfg)
    spec = build_forward_spec(cfg, market)
    grid = build_grid(cfg)
    n_paths, seed, _ = simulation_params(cfg)
    _, out_dir, fmt = output_params(cfg)

    block = cfg["davis"]
    maturity = block.get("maturity", grid.horizon)
    (k_mat,) = grid_indices(grid, [maturity], "davis.maturity")
    maturity = float(maturity)
    payoff_cfg = block.get("payoff", {"kind": "unit"})
    kind = payoff_cfg.get("kind", "unit")

    batch = sample_brownian(seed, grid, dim=market.dim, n_paths=n_paths)
    triple = simulate_optimal(spec, market, grid, batch)

    if kind == "unit":
        payoff = np.ones(triple.n_paths)
        label = "unit"
    elif kind == "call_on_wealth":
        strike = float(payoff_cfg.get("strike", 1.0))
        payoff = np.maximum(triple.wealth.values[:, k_mat] - strike, 0.0)
        label = f"call_on_wealth(K={strike:g})"
    else:
        raise ConfigError(f"davis.payoff.kind: must be 'unit' or 'call_on_wealth', got {kind!r}")

    price = davis_price(payoff, triple.state_price.values, k_mat)

    # time consistency: capitalize the payoff to the horizon inside the
    # consumption-free optimal wealth and reprice
    plain_wealth = wealth_paths(
        market, grid, batch, kappa=spec.kappa_star, consumption=None, rate_paths=triple.rate_paths
    )
    p_direct, p_cap, t_stat = davis_time_consistency(
        payoff, triple.state_price.values, plain_wealth.values, k_mat, grid.n_steps
    )

    manifest = RunManifest("davis", cfg, seed, __version__)
    rows = [
        {
            "payoff": label,
            "maturity": maturity,
            "value": price.value,
            "stderr": price.stderr,
            "quantity_derivative": price.quantity_derivative,
            "linearity_residual": price.linearity_residual,
            "capitalized_value": p_cap,
            "capitalization_t": t_stat,
        }
    ]
    table = emit_table(rows, fmt, Path(out_dir) / f"davis.{fmt}")
    manifest.add_output(table)
    manifest.add_summary(**rows[0])
    manifest.write(out_dir)
    print(f"davis: {label} at T={maturity:g}: {price.value:.6f} +/- {price.stderr:.2e} (capitalization t = {t_stat:.2f})")
    print(f"wrote {table}")
    return 0


def _cmd_horizon(cfg: Mapping[str, Any]) -> int:
    market = build_market(cfg)
    horizons, t_common = horizon_params(cfg)
    spec = build_backward_spec(cfg, market, t_horizon=max(horizons))
    n_paths, seed, _ = simulation_params(cfg)
    _, out_dir, fmt = output_params(cfg)

    horizon = max(horizons)
    grid = make_grid(horizon, int(round(horizon / 0.25)))
    grid_indices(grid, horizons, "spec.t_horizons")
    grid_indices(grid, [t_common], "spec.t_common")
    batch = sample_brownian(seed, grid, dim=market.dim, n_paths=n_paths)
    report = horizon_dependency_experiment(spec, horizons, grid, batch, t_common)

    manifest = RunManifest("horizon", cfg, seed, __version__)
    rows = [
        {
            "horizon_a": g.horizon_a,
            "horizon_b": g.horizon_b,
            "t_common": g.t_common,
            "max_rel_gap_wealth": g.max_rel_gap_x,
            "max_rel_gap_dual": g.max_rel_gap_y,
            "predicted_gap_residual": g.predicted_gap_residual,
        }
        for g in report.gaps
    ]
    table = emit_table(rows, fmt, Path(out_dir) / f"horizon.{fmt}")
    manifest.add_output(table)
    for row in rows:
        manifest.add_summary(**row)
    manifest.write(out_dir)
    print(
        f"horizon: max dual gap {report.max_gap_y:.3e}, max wealth gap {report.max_gap_x:.3e} "
        f"across {len(rows)} horizon pair(s)"
    )
    print(f"wrote {table}")
    return 0


_HANDLERS = {
    "ramsey-flat": _cmd_ramsey_flat,
    "forward-curve": _cmd_forward_curve,
    "backward-curve": _cmd_backward_curve,
    "long-rate": _cmd_long_rate,
    "verify": _cmd_verify,
    "davis": _cmd_davis,
    "horizon": _cmd_horizon,
}


if __name__ == "__main__":
    sys.exit(main())
