"""Command-line orchestration: configuration in, CSV/JSON tables out.

Subcommands: ramsey-flat, forward-curve, backward-curve, long-rate, verify,
davis, horizon.  All randomness flows from the single configured seed;
rerunning an identical (config, seed) reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

import numpy as np

from . import __version__
from .backward import (
    GammaModel,
    TerminalConstraintReport,
    backward_log_map,
    horizon_dependency_experiment,
    horizon_map,
    rate_integral_paths,
    solve_backward_vols,
)
from .brownian import BrownianBatch, map_blocks
from .config import (
    build_backward_spec,
    build_forward_spec,
    build_gamma,
    build_grid,
    build_market,
    davis_params,
    grid_indices,
    horizon_params,
    load_config,
    long_rate_params,
    output_params,
    ramsey_params,
    simulation_params,
)
from .curves import (
    DavisReport,
    RamseyCurveReport,
    YieldCurve,
    curve_from_prices,
    davis_report,
    gbm_consumption_paths,
    long_rate,
    marginal_zc_mc,
    pathwise_ramsey_report,
    ramsey_curve_mc,
    ramsey_flat_closed,
    zc_price_gaussian,
)
from .errors import ConfigError, ForwardYieldError, NumericalRangeError
from .forward import (
    consistency_drift_test,
    first_order_check,
    hjb_residual,
    perturbed_kappa,
    reading_grid,
    representation_check,
    scaled_consumption,
    simulate_optimal,
)
from .grids import DeterministicFn, TimeGrid
from .market import MarketModel
from .stats import IDENTITY_TOL, STAT_BAND, Estimate, Moments, control_variate_estimate, moments, t_stat
from .tables import RunManifest

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
        return _run(args.command, cfg)
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
    for name, (help_text, _) in _SUBCOMMANDS.items():
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
# shared run steps


# a verification check: (name, value, threshold); it passes when value <= threshold, so a nan fails
Check = tuple[str, float, float]


def _run(command: str, cfg: Mapping[str, Any]) -> int:
    """Run a subcommand's body, which writes its tables and returns its checks;
    print and record one [PASS]/[FAIL] line per check, write the manifest,
    and exit with code 1 when a check failed, naming each on stderr.  The
    report of passed checks is the first table the body wrote."""
    _, seed, _ = simulation_params(cfg)
    _, out_dir, fmt, _ = output_params(cfg)
    run = RunManifest(command, cfg, seed, __version__, out_dir, fmt)
    checks = _SUBCOMMANDS[command][1](cfg, run)
    failed = []
    for name, value, threshold in checks:
        passed = bool(value <= threshold)
        run.add_summary(check=name, value=float(value), threshold=threshold, passed=passed)
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {value:.3e} (threshold {threshold:.3e})")
        if not passed:
            failed.append(name)
    run.write()
    if failed:
        print(f"{command}: {len(failed)} check(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    if checks:
        print(f"{command}: all {len(checks)} checks passed; report at {run.outputs[0]}")
    return 0


def _reduce_blocks(cfg: Mapping[str, Any], reduce_block: Callable, merge: Callable, grid: TimeGrid, dim: int):
    """reduce_block of each stream block of the configured paths on grid,
    merged in block order."""
    n_paths, seed, _ = simulation_params(cfg)
    return functools.reduce(merge, map_blocks(reduce_block, seed, grid, dim, n_paths))


def _quarterly_grid(times: list[float], field: str) -> tuple[TimeGrid, list[int]]:
    """Grid of quarter-year steps, at least one, up to the last of the times,
    and the index of each time; a time off that grid fails with the field named."""
    horizon = max(times)
    grid = TimeGrid(horizon, max(1, int(round(horizon / 0.25))))
    return grid, grid_indices(grid, times, field)


def _curve_rows(curve: YieldCurve) -> list[dict]:
    """One CURVE_COLUMNS row per tenor of a Monte Carlo curve."""
    return [
        {"tenor": t, "rate": r, "stderr": s, "method": curve.method}
        for t, r, s in zip(curve.tenors, curve.rates, curve.stderrs)
    ]


def _curve_tables(
    run: RunManifest, name: str, y: Estimate, market: MarketModel, nu: DeterministicFn,
    tenors: list[float], gamma: Optional[GammaModel] = None,
) -> tuple[Path, list[dict]]:
    """Write the marginal_mc, gaussian_closed and risk_neutral curves of a
    unit-initial state-price density, y being the mean of its paths at the
    tenors, as one long table; return its path and the per-tenor price rows."""
    closed = [float(zc_price_gaussian(market, nu, 0.0, t, gamma=gamma)) for t in tenors]
    neutral = [float(zc_price_gaussian(market, None, 0.0, t, gamma=gamma)) for t in tenors]
    rows = _curve_rows(curve_from_prices(y.mean, np.array(tenors), method="marginal_mc", stderrs=y.stderr))
    for method, values in (("gaussian_closed", closed), ("risk_neutral", neutral)):
        extra = curve_from_prices(np.array(values), np.array(tenors), method=method)
        rows += [{"tenor": t, "rate": r, "stderr": 0.0, "method": method} for t, r in zip(extra.tenors, extra.rates)]
    table = run.table(name, rows, columns=CURVE_COLUMNS)
    detail = [
        {"tenor": t, "mc_price": p, "mc_stderr": se, "gaussian_price": c, "risk_neutral_price": rn}
        for t, p, se, c, rn in zip(tenors, y.mean, y.stderr, closed, neutral)
    ]
    return table, detail


# ---------------------------------------------------------------------------
# subcommands


def _ramsey_flat(cfg: Mapping[str, Any], run: RunManifest) -> list[Check]:
    beta, alpha, growth, sigma, tenors = ramsey_params(cfg)
    grid, ks = _quarterly_grid(tenors, "ramsey.tenors")
    # geometric consumption is exact at any step size: simulate the read dates only
    grid = grid.subgrid(sorted({0, *ks}))
    closed = ramsey_flat_closed(beta, alpha, growth, sigma)

    def reduce_block(batch: BrownianBatch) -> RamseyCurveReport:
        return ramsey_curve_mc(beta, alpha, gbm_consumption_paths(1.0, growth, sigma, grid, batch), grid, tenors)

    report = _reduce_blocks(cfg, reduce_block, RamseyCurveReport.merge, grid, 1)
    curve = report.curve
    table = run.table("ramsey_flat_curve", _curve_rows(curve), columns=CURVE_COLUMNS)
    detail_rows = [
        {"tenor": t, "rate": r, "stderr": s, "closed_form": closed, "deviation_t": t_stat(r - closed, s)}
        for t, r, s in zip(curve.tenors, curve.rates, curve.stderrs)
    ]
    run.table("ramsey_flat_detail", detail_rows)
    run.add_summary(closed_form=closed, max_spread=report.max_spread, max_spread_t=report.max_spread_t)
    print(f"ramsey-flat: closed-form rate {closed:.6f}, max spread t-stat {report.max_spread_t:.2f}")
    print(f"wrote {table}")
    return []


def _forward_curve(cfg: Mapping[str, Any], run: RunManifest) -> list[Check]:
    grid = build_grid(cfg)
    _, _, inner_paths = simulation_params(cfg)
    tenors, _, _, asof = output_params(cfg)
    ks = grid_indices(grid, tenors, "output.tenors")
    (k_t,) = grid_indices(grid, [asof], "output.asof")
    if asof > 0.0 and k_t >= ks[-1]:
        raise ConfigError(f"output.asof: must precede the last tenor {tenors[-1]:g}, got {asof:g}")

    market = build_market(cfg)
    spec = build_forward_spec(cfg, market)
    grid = reading_grid(spec, market, grid, ks + [k_t])
    # indices on the reading grid the run simulates on
    ks = grid_indices(grid, tenors, "output.tenors")
    (k_t,) = grid_indices(grid, [asof], "output.asof")
    # block 0's triple holds the nested pass's outer paths, at most 256 of
    # the block's 8192 rows
    head = []

    def reduce_block(batch: BrownianBatch) -> Moments:
        triple = simulate_optimal(spec, market, grid, batch)
        if asof > 0.0 and batch.first_row == 0:
            head.append(triple)
        # Y at the tenors as contiguous rows, summed pairwise; an axis-0 sum of columns gives other bits
        return moments(np.ascontiguousarray(triple.y[:, ks].T), axis=1)

    y = _reduce_blocks(cfg, reduce_block, Moments.merge, grid, market.dim)
    table, detail_rows = _curve_tables(run, "forward_curve", y.estimate(), market, spec.nu_star, tenors)
    for row in detail_rows:
        row["mc_minus_gaussian_t"] = t_stat(row["mc_price"] - row["gaussian_price"], row["mc_stderr"])
    run.table("forward_curve_detail", detail_rows)
    summary = {"max_abs_mc_vs_gaussian_t": max(abs(r["mc_minus_gaussian_t"]) for r in detail_rows)}

    if asof > 0.0:
        (triple,) = head
        later = [(t, k) for t, k in zip(tenors, ks) if k > k_t]
        inner, inner_plain = marginal_zc_mc(triple, k_t, [k for _, k in later], inner_paths=inner_paths)
        # the outer control is each outer path's rate state, of known mean
        rate_states = triple.rate_paths.r[: inner.mean.shape[1], k_t]
        expected = market.rate.expected_rate(grid.times[k_t])
        (means, stderrs), outer_plain = control_variate_estimate(inner.mean, rate_states, expected)
        nested = curve_from_prices(
            means, np.array([t for t, _ in later]), asof=asof, method="marginal_mc_nested", stderrs=stderrs
        )
        run.table("forward_curve_asof", _curve_rows(nested), columns=CURVE_COLUMNS)
        # plain over controlled variance, per tenor, of each level's control
        summary.update(
            nested_tenors=[t for t, _ in later],
            inner_variance_reduction=_variance_ratio(
                np.sum(inner_plain.stderr**2, axis=1), np.sum(inner.stderr**2, axis=1)
            ),
            outer_variance_reduction=_variance_ratio(outer_plain.stderr**2, stderrs**2),
        )

    run.add_summary(**summary)
    print(f"forward-curve: {len(detail_rows)} tenors written to {table}")
    if asof > 0.0:
        print(f"nested curve as of {asof:g}, variance reduction of the control variates (plain / controlled):")
        for t, f_in, f_out in zip(
            summary["nested_tenors"], summary["inner_variance_reduction"], summary["outer_variance_reduction"]
        ):
            print(f"  tenor {t:g}: inner {f_in:.4g}x, outer {f_out:.4g}x")
    return []


def _variance_ratio(plain: np.ndarray, controlled: np.ndarray) -> list[float]:
    """Plain over controlled variance per tenor; 1 where both are 0, and inf
    where only the controlled one is."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(controlled > 0, plain / controlled, np.where(plain > 0, np.inf, 1.0))
    return [float(r) for r in ratio]


def _backward_curve(cfg: Mapping[str, Any], run: RunManifest) -> list[Check]:
    market = build_market(cfg)
    spec = build_backward_spec(cfg, market)
    grid = build_grid(cfg)
    if grid.horizon < spec.t_horizon - 1e-12:
        raise ConfigError(f"simulation.horizon: must cover spec.t_horizon={spec.t_horizon}, got {grid.horizon}")
    tenors, _, _, _ = output_params(cfg)
    (k_h,) = grid_indices(grid, [spec.t_horizon], "spec.t_horizon")
    tenors = [t for t in tenors if t <= spec.t_horizon + 1e-12]
    if not tenors:
        raise ConfigError(f"output.tenors: none lies at or before spec.t_horizon={spec.t_horizon:g}")
    ks = grid_indices(grid, tenors, "output.tenors")

    nu, kappa = solve_backward_vols(spec)
    # states [X at T_H, Y at the tenors, Y at T_H]: the map's X at the tenors are dropped
    log_map = backward_log_map(spec, grid, nu, kappa, [*ks, k_h]).select(slice(len(ks), None))
    rate_grid = grid.prefix(k_h)

    def reduce_block(batch: BrownianBatch) -> tuple[Moments, TerminalConstraintReport]:
        """The moments of Y at the tenors, as forward-curve's, and the terminal constraint report."""
        levels = log_map.levels(batch, rate_integral_paths(spec, rate_grid, batch))
        y_tenors = np.ascontiguousarray(levels[:, 1:-1].T)
        return moments(y_tenors, axis=1), TerminalConstraintReport.of(spec.alpha, levels[:, 0], levels[:, -1])

    y, constraint = _reduce_blocks(
        cfg, reduce_block, lambda a, b: (a[0].merge(b[0]), a[1].merge(b[1])), grid, market.dim
    )
    _, detail_rows = _curve_tables(run, "backward_curve", y.estimate(), market, nu, tenors, gamma=spec.gamma)
    run.table("backward_curve_detail", detail_rows)
    run.add_summary(
        terminal_constant=constraint.constant, terminal_cv=constraint.cv, horizon=spec.t_horizon, alpha=spec.alpha
    )
    print(f"backward-curve: terminal constant {constraint.constant:.6f}, dispersion {constraint.cv:.3e}")
    # the solved volatilities hold Yhat (X*)^alpha constant across paths, up to
    # rounding; the cv alone lets one path in n off by d pass at about d / sqrt(n)
    return [("terminal_cv", constraint.cv, 1e-8), ("terminal_max_dev", constraint.max_abs_dev, IDENTITY_TOL)]


def _long_rate(cfg: Mapping[str, Any], run: RunManifest) -> list[Check]:
    market = build_market(cfg)
    gamma = build_gamma(cfg, market)
    l0, alpha_fwd, alpha_bwd, t_max, probes = long_rate_params(cfg)
    t_grid = np.linspace(0.0, t_max, 11)

    rows = []
    probe_rows = []
    for mode, alpha in (("forward", alpha_fwd), ("backward", alpha_bwd)):
        report = long_rate(gamma, mode, alpha, l0=l0, t_grid=t_grid, market=market, probe_tenors=probes)
        for t, val in zip(report.t_grid, report.l_values):
            rows.append({"mode": mode, "alpha": alpha, "t": float(t), "long_rate": float(val),
                         "slope": report.slope, "verdict": report.verdict})
        for p, y in zip(report.probe_tenors, report.probe_expected_yields):
            probe_rows.append({"mode": mode, "probe_tenor": float(p), "expected_yield": float(y)})
        run.add_summary(mode=mode, alpha=alpha, slope=report.slope, verdict=report.verdict)
        print(f"long-rate [{mode}, alpha={alpha}]: slope {report.slope:.3e} -> {report.verdict}")

    run.table("long_rate", rows)
    run.table("long_rate_probes", probe_rows)
    return []


def _verify(cfg: Mapping[str, Any], run: RunManifest) -> list[Check]:
    grid = build_grid(cfg)
    market = build_market(cfg)
    spec = build_forward_spec(cfg, market)
    psi_vals = np.asarray(spec.psi_hat.values(grid.times), dtype=float)
    ramsey = bool(np.all(psi_vals > 0))
    # the strategies whose loss the drift rows detect: a perturbed kappa, and
    # over- and under-consumption; in a trivial subspace no kappa can move,
    # and scaling psi = 0 gives the optimal strategy back, so there is nothing to detect
    detected = {}
    if market.subspace.basis.shape[0]:
        # a kappa whose norm overflows also overflows wealth, which simulate_optimal reports
        with np.errstate(over="ignore", invalid="ignore"):
            kappa_norm = float(np.mean(np.linalg.norm(np.atleast_2d(spec.kappa_star.values(grid.times)), axis=-1)))
            eps = 0.5 * kappa_norm if kappa_norm > 0 else 0.1
            detected["perturbed_kappa_drift_t"] = {"kappa": perturbed_kappa(spec, market, eps)}
    if np.any(psi_vals > 0):
        for name, factor in (("over_consumption_drift_t", 1.5), ("under_consumption_drift_t", 0.5)):
            detected[name] = {"consumption": scaled_consumption(spec, factor)}
    strategies = [{}, *detected.values()]

    def reduce_block(batch: BrownianBatch) -> tuple:
        """A block's part of the checks: the HJB and transport residuals on
        block 0, which holds the paths they read, the maxima of the other
        identities, and the moments of the drifts and of Y_T e^(int r)."""
        triple = simulate_optimal(spec, market, grid, batch)
        head = None
        if triple.batch.first_row == 0:
            hjb = hjb_residual(triple)
            head = (hjb.max_rel_residual, hjb.max_policy_residual, representation_check(triple))
        identities = [first_order_check(triple)] + ([pathwise_ramsey_report(triple)] if ramsey else [])
        drifts = consistency_drift_test(triple, strategies=strategies)
        capitalized = moments(triple.y[:, -1] * np.exp(triple.rate_paths.integral[:, -1]))
        return head, identities, drifts, capitalized

    def merge(a: tuple, b: tuple) -> tuple:
        return a[0], np.maximum(a[1], b[1]), [x.merge(y) for x, y in zip(a[2], b[2])], a[3].merge(b[3])

    (hjb_drift, hjb_policy, transport), identities, drifts, capitalized = _reduce_blocks(
        cfg, reduce_block, merge, grid, market.dim
    )
    mean, se = capitalized.estimate()
    # thresholds: IDENTITY_TOL for an identity, STAT_BAND for a statistic that
    # should be near 0, and -STAT_BAND for a drift that should be detectably negative
    checks = [
        ("hjb_drift_residual", hjb_drift, IDENTITY_TOL),
        ("hjb_policy_residual", hjb_policy, IDENTITY_TOL),
        ("first_order_identity", identities[0], IDENTITY_TOL),
        ("marginal_transport", transport, IDENTITY_TOL),
        *([("pathwise_ramsey", identities[1], IDENTITY_TOL)] if ramsey else []),
        ("optimal_drift_max_t", drifts[0].max_abs_t, STAT_BAND),
        *[(name, d.total_t, -STAT_BAND) for name, d in zip(detected, drifts[1:])],
        ("state_price_martingale_t", abs(t_stat(mean - 1.0, se)), STAT_BAND),
    ]
    run.table("verify", [
        {"check": name, "value": float(value), "threshold": threshold, "passed": bool(value <= threshold)}
        for name, value, threshold in checks
    ])
    return checks


def _davis(cfg: Mapping[str, Any], run: RunManifest) -> list[Check]:
    grid = build_grid(cfg)
    kind, strike, maturity = davis_params(cfg)
    (k_mat,) = grid_indices(grid, [maturity], "davis.maturity")

    market = build_market(cfg)
    spec = build_forward_spec(cfg, market)
    # the reading grid: date 0, the maturity, the horizon and coefficient changes
    grid = reading_grid(spec, market, grid, [k_mat, grid.n_steps])
    read = [0, grid.index_of(maturity), grid.n_steps]

    label = "unit" if kind == "unit" else f"call_on_wealth(K={strike:g})"
    # time consistency: capitalize the payoff to the horizon inside the
    # consumption-free optimal wealth Xstar exp(int psi_hat ds) and reprice;
    # the reading grid keeps every date where psi_hat changes, so the sum is exact
    psi = np.asarray(spec.psi_hat.values(grid.times), dtype=float)
    with np.errstate(over="ignore"):
        capitalization = np.exp(np.concatenate(([0.0], np.cumsum(psi[:-1] * grid.widths))))[read]
    if not np.all(np.isfinite(capitalization)):
        raise NumericalRangeError("spec.psi_hat: exp(int psi_hat ds) to the horizon left the range of double precision")

    def reduce_block(batch: BrownianBatch) -> DavisReport:
        triple = simulate_optimal(spec, market, grid, batch)
        x, y = triple.x[:, read], triple.y[:, read]
        payoff = np.ones(batch.n_paths) if kind == "unit" else np.maximum(x[:, 1] - strike, 0.0)
        return davis_report(payoff, y, x * capitalization, 1, 2)

    report = _reduce_blocks(cfg, reduce_block, DavisReport.merge, grid, market.dim)
    price, (p_cap, cap_t) = report.price, report.capitalization

    rows = [{
        "payoff": label, "maturity": maturity, "value": price.mean, "stderr": price.stderr,
        "capitalized_value": p_cap, "capitalization_t": cap_t,
    }]
    table = run.table("davis", rows)
    run.add_summary(**rows[0])
    print(f"davis: {label} at T={maturity:g}: {price.mean:.6f} +/- {price.stderr:.2e} (capitalization t = {cap_t:.2f})")
    print(f"wrote {table}")
    return []


def _horizon(cfg: Mapping[str, Any], run: RunManifest) -> list[Check]:
    market = build_market(cfg)
    horizons, t_common = horizon_params(cfg)
    spec = build_backward_spec(cfg, market, t_horizon=max(horizons))

    grid, _ = _quarterly_grid(horizons, "spec.t_horizons")
    (k_c,) = grid_indices(grid, [t_common], "spec.t_common")
    # the experiment reads the paths at t_common only, so only [0, t_common] is
    # drawn; its gaps are maxima over paths, merged across blocks in block order
    hmap = horizon_map(spec, horizons, grid, t_common)
    gaps = _reduce_blocks(
        cfg, functools.partial(horizon_dependency_experiment, hmap),
        lambda a, b: [ga.merge(gb) for ga, gb in zip(a, b)], grid.prefix(max(k_c, 1)), market.dim,
    )

    rows = [
        {
            "horizon_a": g.horizon_a,
            "horizon_b": g.horizon_b,
            "t_common": g.t_common,
            "max_rel_gap_wealth": g.max_rel_gap_x,
            "max_rel_gap_dual": g.max_rel_gap_y,
            "predicted_gap_residual": g.predicted_gap_residual,
        }
        for g in gaps
    ]
    run.table("horizon", rows)
    for row in rows:
        run.add_summary(**row)
    print(
        f"horizon: max dual gap {max(g.max_rel_gap_y for g in gaps):.3e}, "
        f"max wealth gap {max(g.max_rel_gap_x for g in gaps):.3e} "
        f"across {len(rows)} horizon pair(s)"
    )
    # the dual ratio of each pair of horizons is the one predicted from their volatilities
    return [("predicted_gap_residual", float(np.max([g.predicted_gap_residual for g in gaps])), IDENTITY_TOL)]


# subcommand: (help, body); a body writes its tables and returns its checks
_SUBCOMMANDS: dict[str, tuple[str, Callable[[Mapping[str, Any], RunManifest], list[Check]]]] = {
    "ramsey-flat": ("flat equilibrium curve for geometric consumption", _ramsey_flat),
    "forward-curve": ("marginal-utility zero-coupon curve of a forward spec", _forward_curve),
    "backward-curve": ("backward spec: solved volatilities, terminal check, curve", _backward_curve),
    "long-rate": ("long-maturity yield asymptotics verdicts", _long_rate),
    "verify": ("full invariant suite for the configured forward spec", _verify),
    "davis": ("marginal-utility price of a payoff", _davis),
    "horizon": ("time-inconsistency experiment across horizons", _horizon),
}


if __name__ == "__main__":
    sys.exit(main())
