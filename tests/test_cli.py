import csv
import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import forward_yield
from forward_yield import backward, cli
from forward_yield.cli import main
from forward_yield.brownian import _BLOCK
from forward_yield.errors import NumericalRangeError
from forward_yield.grids import DeterministicFn
from forward_yield.config import (
    DEFAULT_CONFIG,
    build_backward_spec,
    build_forward_spec,
    build_grid,
    build_market,
    config_hash,
    grid_indices,
    horizon_params,
    load_config,
    output_params,
    simulation_params,
)
from forward_yield.stats import mean_stderr
from forward_yield.tables import RunManifest, emit_table


def run_cli(*argv) -> int:
    return main(list(argv))


def test_no_subcommand_prints_help_and_fails():
    assert run_cli() == 2


def test_malformed_alpha_names_field_and_domain(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"spec": {"alpha": 1.5}}))
    code = run_cli("forward-curve", "--config", str(cfg), "--out", str(tmp_path / "out"))
    captured = capsys.readouterr()
    assert code == 2
    assert "spec.alpha" in captured.err
    assert "(0, 1)" in captured.err
    assert "1.5" in captured.err


@pytest.mark.parametrize(
    "text, field",
    [
        ("spec: {kapa_star: [5, 0]}\n", "spec.kapa_star"),
        ("simulaton: {n_paths: 3000}\n", "simulaton"),
        ("market: {rate: {sigma: 0.02}}\n", "market.rate.sigma"),
        ("spec: {psi_hat: {times: [0.0], values: [0.1], valeus: [0.2]}}\n", "spec.psi_hat.valeus"),
        ("spec: {kind: forward}\n", "spec.kind"),
        # the verdict bands are fixed, not configured
        ("verify: {stat_band: 3.0}\n", "verify"),
    ],
)
def test_unknown_config_key_names_its_path(tmp_path, capsys, text, field):
    cfg = tmp_path / "typo.yaml"
    cfg.write_text(text)
    code = run_cli("verify", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"{field}: is not a" in capsys.readouterr().err


def test_keys_only_some_runs_read_are_accepted(tmp_path):
    cfg = tmp_path / "optional.yaml"
    cfg.write_text(
        "market: {rate: {model: constant, r: 0.02}}\n"
        "spec: {gamma: {model: synthetic_sqrt, c_r: 0.1, c_perp: 0.2}, psi_hat: {times: [0.0, 5.0], values: [0.1, 0.0]}}\n"
        "output: {asof: 2.0}\n"
        "davis: {payoff: {kind: unit, strike: 1.5}}\n"
    )
    loaded = load_config(cfg)
    assert loaded["market"]["rate"]["r"] == 0.02
    assert loaded["spec"]["gamma"]["c_perp"] == 0.2
    assert loaded["output"]["asof"] == 2.0
    assert loaded["davis"]["payoff"] == {"kind": "unit", "strike": 1.5}


def test_missing_config_file_errors(tmp_path, capsys):
    code = run_cli("ramsey-flat", "--config", str(tmp_path / "nope.yaml"))
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_bad_subspace_basis_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("market:\n  subspace:\n    basis: [[1.0, 1.0]]\n")
    code = run_cli("forward-curve", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert code == 2
    assert "market.subspace.basis" in capsys.readouterr().err


NAN_TIME_KAPPA = {"times": [0.0, float("nan")], "values": [[0.3, 0.0], [0.2, 0.0]]}


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        ("davis", {"davis": {"maturity": 5.1}}, "davis.maturity"),
        ("horizon", {"spec": {"t_horizons": [10.0, 30.1]}}, "spec.t_horizons"),
        ("ramsey-flat", {"ramsey": {"tenors": [1.0, 2.1]}}, "ramsey.tenors"),
        ("verify", {"spec": {"psi_hat": -0.1}}, "spec.psi_hat"),
        ("ramsey-flat", {"ramsey": {"beta": "x"}}, "ramsey.beta"),
        ("ramsey-flat", {"ramsey": {"sigma": None}}, "ramsey.sigma"),
        ("davis", {"davis": {"payoff": {"strike": "abc"}}}, "davis.payoff.strike"),
        ("davis", {"davis": {"payoff": {"kind": "put"}}}, "davis.payoff.kind"),
        ("long-rate", {"long_rate": {"alpha_backward": 1.5}}, "long_rate.alpha_backward"),
        ("forward-curve", {"market": {"rate": {"model": "constant", "r": "x"}}}, "market.rate.r"),
        ("long-rate", {"long_rate": {"probes": [5.0, 10.0]}}, "long_rate.probes"),
        ("long-rate", {"long_rate": {"t_max": -1}}, "long_rate.t_max"),
        ("forward-curve", {"output": {"asof": "x"}}, "output.asof"),
        ("forward-curve", {"output": {"asof": 10.0, "tenors": [3.0, 5.0]}}, "output.asof"),
        ("backward-curve", {"spec": {"t_horizon": 0.5}}, "output.tenors"),
        # a one-step grid up to 0.1 does not hold 0.05
        ("ramsey-flat", {"ramsey": {"tenors": [0.05, 0.1]}}, "ramsey.tenors"),
        ("horizon", {"spec": {"t_horizons": [0.05, 0.1], "t_common": 0.0}}, "spec.t_horizons"),
        ("horizon", {"spec": {"t_horizons": [10.0, 10.0]}}, "spec.t_horizons"),
        # non-finite and boolean numbers
        ("davis", {"davis": {"maturity": float("inf")}}, "davis.maturity"),
        ("davis", {"davis": {"maturity": True}}, "davis.maturity"),
        ("forward-curve", {"simulation": {"horizon": float("inf")}}, "simulation.horizon"),
        ("ramsey-flat", {"ramsey": {"tenors": [1.0, float("inf")]}}, "ramsey.tenors"),
        ("ramsey-flat", {"ramsey": {"tenors": [True, 2.0]}}, "ramsey.tenors"),
        ("horizon", {"spec": {"t_horizons": [10.0, float("inf")]}}, "spec.t_horizons"),
        ("forward-curve", {"output": {"asof": float("inf")}}, "output.asof"),
        ("forward-curve", {"market": {"rate": {"sigma_r": float("nan")}}}, "market.rate.sigma_r"),
        ("verify", {"spec": {"psi_hat": float("inf")}}, "spec.psi_hat"),
        ("davis", {"spec": {"psi_hat": {"times": [0.0], "values": [float("nan")]}}}, "spec.psi_hat"),
        ("davis", {"spec": {"psi_hat": {"times": [0.0], "values": [[0.1, 0.1]]}}}, "spec.psi_hat"),
        # a field the rate's own check would name again as market.rate
        ("forward-curve", {"market": {"rate": {"a": -1.0}}}, "market.rate.a"),
        # a table time that is not finite, which a test of the differences alone passes
        ("forward-curve", {"spec": {"kappa_star": NAN_TIME_KAPPA}}, "spec.kappa_star"),
        ("forward-curve", {"spec": {"kappa_star": {**NAN_TIME_KAPPA, "times": [0.0, float("inf")]}}}, "spec.kappa_star"),
        ("davis", {"spec": {"psi_hat": {"times": [0.0, float("nan")], "values": [0.1, 0.05]}}}, "spec.psi_hat"),
        ("long-rate", {"market": {"eta_r": {"times": [0.0, float("nan")], "values": [[0.15, 0.0], [0.1, 0.0]]}}},
         "market.eta_r"),
        # the rate's own check names only market.rate
        ("forward-curve", {"market": {"rate": {"w_dir": [0.6, 0.6]}}}, "market.rate.w_dir"),
        # a positive time that an absolute tolerance snapped onto date 0
        ("forward-curve", {"output": {"tenors": [1.0e-12, 1.0]}}, "output.tenors"),
        ("ramsey-flat", {"ramsey": {"tenors": [1.0e-12, 1.0]}}, "ramsey.tenors"),
        ("davis", {"davis": {"maturity": 1.0e-12}}, "davis.maturity"),
        ("horizon", {"spec": {"t_common": 1.0e-12}}, "spec.t_common"),
        ("horizon", {"spec": {"t_horizons": [1.0e-12, 2.0e-12], "t_common": 0.0}}, "spec.t_horizons"),
        # finite entries whose norms overflow, which warned before the check
        ("forward-curve", {"market": {"rate": {"w_dir": [0.0, 1.0e200]}}}, "market.rate.w_dir"),
        ("forward-curve", {"market": {"eta_r": [1.0e200, 1.0e200]}}, "market.eta_r"),
        ("verify", {"spec": {"nu_star": [1.0e200, 1.0e200]}}, "spec.nu_star"),
        ("forward-curve", {"market": {"subspace": {"basis": [[1.0e200, 0.0]]}}}, "market.subspace.basis"),
    ],
)
def test_off_grid_time_or_negative_rate_names_field(tmp_path, capsys, monkeypatch, command, overrides, field):
    def no_simulation(*args, **kwargs):
        raise AssertionError("paths simulated before the config was validated")

    monkeypatch.setattr(forward_yield.brownian, "sample_brownian", no_simulation)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(overrides))
    code = run_cli(command, "--config", str(cfg), "--paths", "100", "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"error: {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ramsey-flat", "forward-curve", "backward-curve", "verify", "davis", "horizon"])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_fewer_than_two_paths_names_field(tmp_path, capsys, monkeypatch, command, source):
    # one path has no standard error
    def no_simulation(*args, **kwargs):
        raise AssertionError("paths simulated before the config was validated")

    monkeypatch.setattr(forward_yield.brownian, "sample_brownian", no_simulation)
    cfg = tmp_path / "few.json"
    cfg.write_text(json.dumps({"simulation": {"n_paths": 1}} if source == "config" else {}))
    paths = [] if source == "config" else ["--paths", "1"]
    code = run_cli(command, "--config", str(cfg), *paths, "--out", str(tmp_path / "out"))
    assert code == 2
    assert "simulation.n_paths: must be an integer >= 2" in capsys.readouterr().err


ETA_OUT = [0.1, 0.1]


@pytest.mark.parametrize(
    "command, field, value",
    [
        ("verify", "spec.kappa_star", [0.3, 0.2]),
        ("verify", "spec.nu_star", [0.1, 0.1]),
        ("long-rate", "market.eta_r", ETA_OUT),
        ("horizon", "market.eta_r", ETA_OUT),
        ("backward-curve", "market.eta_r", ETA_OUT),
        # checked at each table time
        ("long-rate", "market.eta_r", {"times": [0.0, 20.0], "values": [[0.15, 0.0], ETA_OUT]}),
    ],
    ids=["kappa_star-value0", "nu_star-value1", "long-rate-eta_r", "horizon-eta_r", "backward-curve-eta_r",
         "long-rate-eta_r-table"],
)
def test_out_of_subspace_coefficient_exits_2_before_any_rate_simulation(
    tmp_path, capsys, monkeypatch, command, field, value
):
    calls = []
    for module, name in ((forward_yield.forward, "simulate_short_rate"), (forward_yield.brownian, "sample_brownian")):
        def counting(*args, original=getattr(module, name), **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    block, key = field.split(".")
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({block: {key: value}}))
    code = run_cli(command, "--config", str(cfg), "--paths", "100", "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"error: {field}: must lie in the " in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "command, overrides",
    [
        # wealth underflows to 0, so Zhat = Y X^alpha is 0
        ("verify", {"spec": {"kappa_star": [40, 0]}}),
        # the 400-year closed-form price overflows to inf
        (
            "forward-curve",
            {
                "market": {"rate": {"a": 0.05, "sigma_r": 0.05}},
                "spec": {"nu_star": [0, 1.5]},
                "simulation": {"horizon": 400.0, "n_steps": 400},
                "output": {"tenors": [100.0, 400.0]},
            },
        ),
    ],
)
def test_out_of_range_numbers_exit_2_without_traceback(tmp_path, command, overrides):
    proc = _run_in_subprocess(tmp_path, command, overrides)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "error: " in proc.stderr


@pytest.mark.parametrize("command", ["verify", "davis", "forward-curve"])
def test_zero_zhat_exits_2_with_named_error(tmp_path, command):
    # wealth underflows to 0 at kappa_star = 40; simulate_optimal must stop
    # every forward command before any consumer divides by the paths
    proc = _run_in_subprocess(
        tmp_path, command, {"spec": {"kappa_star": [40, 0]}}, PYTHONWARNINGS="error::RuntimeWarning"
    )
    assert proc.returncode == 2
    assert "Zhat must be strictly positive" in proc.stderr
    assert "Traceback" not in proc.stderr


EXTREME = {"market": {"eta_r": [40, 0]}, "spec": {"kappa_star": [40, 0]}}
BOND_SIGMA_HUGE = {"spec": {"gamma": {"model": "vasicek_orthogonal", "a": 1.0, "sigma_r": 2.0e154}}}
BOND_C_R_HUGE = {"spec": {"gamma": {"model": "synthetic_sqrt", "c_r": 1.0e307, "c_perp": 0.0}}}


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        # wealth overflows and the state-price density underflows: Zhat = 0 * inf is nan
        ("davis", EXTREME, "Zhat must be strictly positive and finite"),
        ("verify", EXTREME, "Zhat must be strictly positive and finite"),
        # a h far below the least at which the integral of r keeps its precision
        ("forward-curve", {"market": {"rate": {"a": 1e-16}}}, "market.rate.a"),
        ("verify", {"market": {"rate": {"a": 1e-13}}}, "market.rate.a"),
        # rate paths of this size overflow wealth before the closed-form variance overflows
        ("forward-curve", {"market": {"rate": {"sigma_r": 2e154}}}, "left the range of double precision"),
        (
            "long-rate",
            {"spec": {"gamma": {"model": "synthetic_sqrt", "c_r": 1e307, "c_perp": 0.0}}},
            "long_rate: Gamma left the range of double precision",
        ),
        # bond volatilities of this size overflow the backward pair's wealth and dual paths
        ("horizon", BOND_SIGMA_HUGE, "Xstar and Ystar must be strictly positive and finite"),
        ("backward-curve", BOND_SIGMA_HUGE, "Xstar and Ystar must be strictly positive and finite"),
        ("horizon", BOND_C_R_HUGE, "Xstar and Ystar must be strictly positive and finite"),
        ("backward-curve", BOND_C_R_HUGE, "Xstar and Ystar must be strictly positive and finite"),
        # finite coefficients whose squares overflow the log schemes' drifts
        ("forward-curve", {"market": {"eta_r": [1.0e200, 0.0]}}, "Zhat must be strictly positive and finite"),
        ("verify", {"spec": {"kappa_star": [1.0e200, 0.0]}}, "Zhat must be strictly positive and finite"),
        ("forward-curve", {"spec": {"nu_star": [0.0, 1.0e200]}}, "Zhat must be strictly positive and finite"),
        ("horizon", {"market": {"eta_r": [1.0e200, 0.0]}}, "Xstar and Ystar must be strictly positive and finite"),
    ],
    ids=[
        "davis-eta40", "verify-eta40", "forward-curve-a1e-16", "verify-a1e-13", "sigma-r-2e154", "gamma-c-r-1e307",
        "horizon-gamma-sigma-r-2e154", "backward-curve-gamma-sigma-r-2e154",
        "horizon-gamma-c-r-1e307", "backward-curve-gamma-c-r-1e307",
        "forward-curve-eta-1e200", "verify-kappa-1e200", "forward-curve-nu-1e200", "horizon-eta-1e200",
    ],
)
def test_out_of_range_config_exits_2_with_named_error(tmp_path, command, overrides, message):
    proc = _run_in_subprocess(tmp_path, command, overrides, PYTHONWARNINGS="error::RuntimeWarning")
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, block, values, field",
    [
        # consumption underflows to 0, where the Ramsey rule would divide by it
        ("ramsey-flat", "ramsey", {"sigma": 40.0}, "ramsey.sigma"),
        # consumption overflows to inf
        ("ramsey-flat", "ramsey", {"growth": 1.0e300}, "ramsey.growth"),
        # the capitalization exp(int psi_hat ds) overflows
        ("davis", "spec", {"psi_hat": 1.0e300}, "spec.psi_hat"),
        # the Ramsey discount exp(-beta T) overflows, or underflows to 0
        ("ramsey-flat", "ramsey", {"beta": -800.0}, "ramsey.beta"),
        ("ramsey-flat", "ramsey", {"beta": 800.0}, "ramsey.beta"),
        # the discounted marginal utilities are finite but their squares overflow,
        # or they overflow themselves
        ("ramsey-flat", "ramsey", {"beta": -23.0}, "ramsey.beta"),
        ("ramsey-flat", "ramsey", {"beta": -23.0, "sigma": 5.0}, "ramsey.beta"),
    ],
    ids=[
        "ramsey-sigma40", "ramsey-growth-1e300", "davis-psi-hat-1e300", "ramsey-beta-800", "ramsey-beta+800",
        "ramsey-beta-23", "ramsey-beta-23-sigma5",
    ],
)
def test_consumption_out_of_range_is_a_named_range_error(tmp_path, command, block, values, field):
    cfg = load_config(None)
    cfg[block].update(values)
    cfg["simulation"]["n_paths"] = 2000
    cfg["output"]["path"] = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalRangeError, match=field):
            cli._run(command, cfg)


def _run_in_subprocess(tmp_path, command, overrides, paths=2000, **env_vars) -> subprocess.CompletedProcess:
    """Run one subcommand in a fresh interpreter, capturing its output."""
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(overrides))
    src = str(Path(forward_yield.__file__).parents[1])
    env = {**os.environ, **env_vars, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "forward_yield.cli", command, "--config", str(cfg), "--paths", str(paths),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )


@pytest.mark.parametrize(
    "command, block",
    [
        ("davis", "davis"),
        ("verify", "market"),
        ("horizon", "spec"),
        ("forward-curve", "output"),
        ("ramsey-flat", "simulation"),
    ],
)
def test_scalar_config_block_names_block(tmp_path, capsys, command, block):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"{block}: 5\n")
    code = run_cli(command, "--config", str(cfg), "--paths", "100", "--out", str(tmp_path / "out"))
    assert code == 2
    assert f"{block}: must be a mapping" in capsys.readouterr().err


def test_ramsey_flat_outputs_and_determinism(tmp_path):
    out = tmp_path / "a"
    assert run_cli("ramsey-flat", "--paths", "5000", "--seed", "42", "--out", str(out)) == 0
    csv_first = (out / "ramsey_flat_curve.csv").read_bytes()
    hash_first = json.loads((out / "manifest_ramsey_flat.json").read_text())["config_sha256"]

    # identical (config, seed) rerun reproduces the table byte for byte
    assert run_cli("ramsey-flat", "--paths", "5000", "--seed", "42", "--out", str(out)) == 0
    assert (out / "ramsey_flat_curve.csv").read_bytes() == csv_first

    with (out / "ramsey_flat_curve.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["tenor"] for r in rows] == ["1", "2", "5", "10", "30"]
    assert all(r["method"] == "ramsey_mc" for r in rows)
    # parsed rates reproduce the flat closed form within their own stderr bands
    for r in rows:
        assert abs(float(r["rate"]) - 0.01625) < 4 * float(r["stderr"])
    manifest = json.loads((out / "manifest_ramsey_flat.json").read_text())
    assert manifest["seed"] == 42
    assert manifest["config_sha256"] == hash_first


def test_ramsey_flat_tenor_shorter_than_a_quarter_runs(tmp_path):
    # a single tenor under a quarter year still gets a one-step grid
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"ramsey": {"tenors": [0.1]}}))
    out = tmp_path / "out"
    assert run_cli("ramsey-flat", "--config", str(cfg), "--paths", "2000", "--out", str(out)) == 0
    with (out / "ramsey_flat_curve.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["tenor"] for r in rows] == ["0.1"]


def test_thread_env_does_not_change_outputs(tmp_path, monkeypatch):
    out_a = tmp_path / "a"
    assert run_cli("ramsey-flat", "--paths", "4000", "--seed", "7", "--out", str(out_a)) == 0
    monkeypatch.setenv("FORWARD_YIELD_THREADS", "8")
    out_b = tmp_path / "b"
    assert run_cli("ramsey-flat", "--paths", "4000", "--seed", "7", "--out", str(out_b)) == 0
    assert (out_a / "ramsey_flat_curve.csv").read_bytes() == (out_b / "ramsey_flat_curve.csv").read_bytes()


@pytest.mark.parametrize("raw", ["lots", "0", "-2"])
def test_bad_thread_env_exits_2_naming_the_variable(tmp_path, monkeypatch, capsys, raw):
    monkeypatch.setenv("FORWARD_YIELD_THREADS", raw)
    assert run_cli("verify", "--paths", "200", "--out", str(tmp_path / "out")) == 2
    assert "FORWARD_YIELD_THREADS" in capsys.readouterr().err


def test_csv_and_json_numerically_identical(tmp_path):
    out_c, out_j = tmp_path / "c", tmp_path / "j"
    assert run_cli("forward-curve", "--paths", "4000", "--seed", "3", "--out", str(out_c), "--format", "csv") == 0
    assert run_cli("forward-curve", "--paths", "4000", "--seed", "3", "--out", str(out_j), "--format", "json") == 0
    with (out_c / "forward_curve.csv").open() as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = json.loads((out_j / "forward_curve.json").read_text())
    assert len(csv_rows) == len(json_rows)
    for a, b in zip(csv_rows, json_rows):
        assert float(a["rate"]) == float(b["rate"])
        assert float(a["stderr"]) == float(b["stderr"])
        assert a["method"] == b["method"]


def test_backward_curve_and_horizon_commands(tmp_path):
    out = tmp_path / "out"
    assert run_cli("backward-curve", "--paths", "4000", "--out", str(out)) == 0
    rows = json.loads((out / "manifest_backward_curve.json").read_text())["summary"]
    assert rows[0]["terminal_cv"] < 1e-10

    with (out / "backward_curve.csv").open() as fh:
        curve_rows = list(csv.DictReader(fh))
    assert {r["method"] for r in curve_rows} == {"marginal_mc", "gaussian_closed", "risk_neutral"}
    # MC rates agree with the Gaussian closed form within 4 stderr, per tenor
    mc = {r["tenor"]: r for r in curve_rows if r["method"] == "marginal_mc"}
    closed = {r["tenor"]: r for r in curve_rows if r["method"] == "gaussian_closed"}
    for tenor, row in mc.items():
        gap = abs(float(row["rate"]) - float(closed[tenor]["rate"]))
        assert gap < 4 * float(row["stderr"])

    assert run_cli("horizon", "--paths", "2000", "--out", str(out)) == 0
    with (out / "horizon.csv").open() as fh:
        gap_rows = list(csv.DictReader(fh))
    assert float(gap_rows[0]["max_rel_gap_dual"]) > 0.0
    assert float(gap_rows[0]["predicted_gap_residual"]) < 1e-9


@pytest.mark.parametrize("t_common, k_stored", [(0.0, 1), (5.0, 20), (10.0, 40)])
def test_horizon_stores_only_the_steps_to_t_common(tmp_path, monkeypatch, t_common, k_stored):
    # default horizons 10 and 50 on a 0.25-year grid: t_common = 10 is the
    # smallest horizon, and t_common = 0 still needs a one-step batch
    stored = []

    def recording(*args, **kwargs):
        batch = forward_yield.sample_brownian(*args, **kwargs)
        stored.append(batch.increments.shape[1])
        return batch

    monkeypatch.setattr(forward_yield.brownian, "sample_brownian", recording)
    cfg = tmp_path / "horizon.json"
    cfg.write_text(json.dumps({"spec": {"t_common": t_common}}))
    out = tmp_path / "out"
    assert run_cli("horizon", "--config", str(cfg), "--paths", "500", "--out", str(out)) == 0
    assert stored == [k_stored]
    with (out / "horizon.csv").open() as fh:
        (row,) = list(csv.DictReader(fh))
    assert float(row["predicted_gap_residual"]) < 1e-9
    if t_common == 0.0:
        assert [float(row[k]) for k in ("max_rel_gap_wealth", "max_rel_gap_dual", "predicted_gap_residual")] == [0.0] * 3
    else:
        assert float(row["max_rel_gap_dual"]) > 0.0


def _whole_batch(fn, seed, grid, dim, n_paths):
    """map_blocks run as one block of all the paths."""
    yield fn(forward_yield.sample_brownian(seed, grid, dim, n_paths))


def _record_run(monkeypatch) -> dict:
    """The rows each table and the summary of a run get, before rendering."""
    recorded = {"summary": []}
    table = RunManifest.table

    def recording_table(self, name, rows, columns=None):
        recorded[name] = rows
        return table(self, name, rows, columns)

    monkeypatch.setattr(RunManifest, "table", recording_table)
    monkeypatch.setattr(RunManifest, "add_summary", lambda self, **row: recorded["summary"].append(row))
    return recorded


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n_paths", [2, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_streamed_horizon_equals_the_whole_batch(tmp_path, monkeypatch, threads, n_paths):
    # horizon runs the experiment one block of the streams at a time; the
    # merged gaps are those of one batch of all the paths, bit for bit
    monkeypatch.setenv("FORWARD_YIELD_THREADS", threads)
    recorded = _record_run(monkeypatch)
    assert run_cli("horizon", "--paths", str(n_paths), "--out", str(tmp_path / "out")) == 0
    cfg = load_config(None)
    market = build_market(cfg)
    horizons, t_common = horizon_params(cfg)
    grid, _ = cli._quarterly_grid(horizons, "spec.t_horizons")
    batch = forward_yield.sample_brownian(
        simulation_params(cfg)[1], grid.prefix(grid.index_of(t_common)), dim=market.dim, n_paths=n_paths
    )
    spec = build_backward_spec(cfg, market, t_horizon=max(horizons))
    gaps = forward_yield.horizon_dependency_experiment(forward_yield.horizon_map(spec, horizons, grid, t_common), batch)
    assert [
        (r["max_rel_gap_wealth"], r["max_rel_gap_dual"], r["predicted_gap_residual"]) for r in recorded["horizon"]
    ] == [(g.max_rel_gap_x, g.max_rel_gap_y, g.predicted_gap_residual) for g in gaps]


def test_horizon_solves_each_horizon_once_per_run(tmp_path, monkeypatch):
    # the horizon map is built once per run, so a run of three blocks of the
    # streams solves each horizon's volatilities as often as a run of one
    calls = []
    original = backward.solve_backward_vols

    def counting(spec):
        calls.append(spec.t_horizon)
        return original(spec)

    monkeypatch.setattr(backward, "solve_backward_vols", counting)
    solved = []
    for n_paths in (100, 2 * _BLOCK + 1):
        calls.clear()
        assert run_cli("horizon", "--paths", str(n_paths), "--out", str(tmp_path / str(n_paths))) == 0
        solved.append(sorted(calls))
    assert solved == [[10.0, 50.0], [10.0, 50.0]]


def test_horizon_exits_1_when_the_predicted_dual_ratio_fails(tmp_path, monkeypatch, capsys):
    # the default config passes; with the first horizon's nu doubled in its
    # ln Y column, but not in the prediction from the volatilities, its dual
    # ratio to the second leaves the predicted one
    assert run_cli("horizon", "--paths", "2000", "--out", str(tmp_path / "ok")) == 0
    assert "residual" not in capsys.readouterr().err
    original = backward.backward_log_map
    calls = []

    def corrupting(spec, grid, nu, kappa, k_read):
        if not calls:
            nu = DeterministicFn(lambda t, nu=nu: 2.0 * nu(t))
        calls.append(grid.horizon)
        return original(spec, grid, nu, kappa, k_read)

    monkeypatch.setattr(backward, "backward_log_map", corrupting)
    assert run_cli("horizon", "--paths", "2000", "--out", str(tmp_path / "bad")) == 1
    assert "horizon: 1 check(s) failed: predicted_gap_residual\n" in capsys.readouterr().err
    (row,) = list(csv.DictReader(open(tmp_path / "bad" / "horizon.csv")))
    assert float(row["predicted_gap_residual"]) > 1e-9


def test_backward_curve_exits_1_when_the_terminal_constraint_fails(tmp_path, monkeypatch, capsys):
    # volatilities solved for another horizon leave Yhat (X*)^alpha dispersed at T_H
    solve = cli.solve_backward_vols
    monkeypatch.setattr(cli, "solve_backward_vols", lambda spec: solve(dataclasses.replace(spec, t_horizon=5.0)))
    out = tmp_path / "out"
    assert run_cli("backward-curve", "--paths", "2000", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert "[FAIL] terminal_cv: " in captured.out
    assert "[FAIL] terminal_max_dev: " in captured.out
    assert "backward-curve: 2 check(s) failed: terminal_cv, terminal_max_dev\n" in captured.err
    cv, max_dev = json.loads((out / "manifest_backward_curve.json").read_text())["summary"][-2:]
    assert cv["check"] == "terminal_cv" and cv["value"] > 1e-8 and cv["passed"] is False
    assert max_dev["check"] == "terminal_max_dev" and max_dev["value"] > 1e-9 and max_dev["passed"] is False


def test_backward_curve_fails_one_terminal_product_off_by_1e_6(tmp_path, monkeypatch, capsys):
    # one path in n off by d moves the cv by about d / sqrt(n): 3e-9 at 100k
    # paths, inside its 1e-8 bound, so the largest deviation is what fails
    monkeypatch.setenv("FORWARD_YIELD_THREADS", "1")
    of, perturbed = cli.TerminalConstraintReport.of, []

    def one_path_off(alpha, x_h, y_h):
        if not perturbed:
            y_h = y_h.copy()
            y_h[0] *= 1.0 + 1e-6
            perturbed.append(True)
        return of(alpha, x_h, y_h)

    monkeypatch.setattr(cli.TerminalConstraintReport, "of", staticmethod(one_path_off))
    assert run_cli("backward-curve", "--paths", "100000", "--out", str(tmp_path / "out")) == 1
    captured = capsys.readouterr()
    assert "[PASS] terminal_cv: " in captured.out
    assert "[FAIL] terminal_max_dev: " in captured.out
    assert "backward-curve: 1 check(s) failed: terminal_max_dev\n" in captured.err


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("n_paths", [_BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("command", ["backward-curve", "forward-curve", "davis", "ramsey-flat"])
def test_streamed_columns_equal_the_whole_batch(tmp_path, monkeypatch, command, threads, n_paths):
    # a run keeps the columns it reads of each block of the streams, and the
    # nested curve as of 2 reprices block 0's first paths; every table and
    # summary row is that of the run on one batch of all the paths, bit for bit
    monkeypatch.setenv("FORWARD_YIELD_THREADS", threads)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output": {"asof": 2.0}} if command == "forward-curve" else {}))
    runs = []
    for blocks in (cli.map_blocks, _whole_batch):
        with monkeypatch.context() as m:
            m.setattr(cli, "map_blocks", blocks)
            runs.append(_record_run(m))
            assert run_cli(command, "--config", str(cfg), "--paths", str(n_paths), "--out", str(tmp_path / "out")) == 0
    assert runs[0] == runs[1]
    if command == "forward-curve":
        assert len(runs[0]["forward_curve_asof"]) > 0


@pytest.mark.parametrize("command", ["ramsey-flat", "forward-curve", "backward-curve", "verify", "davis", "horizon"])
def test_path_subcommands_draw_one_stream_block_at_a_time(tmp_path, monkeypatch, command):
    # every path subcommand draws its paths block by block, so no call holds
    # more than one block's increments
    draw = forward_yield.brownian.sample_brownian
    rows = []

    def recording(seed, grid, dim, n_paths, first_row=0):
        rows.append(n_paths)
        return draw(seed, grid, dim, n_paths, first_row)

    monkeypatch.setattr(forward_yield.brownian, "sample_brownian", recording)
    assert run_cli(command, "--paths", str(_BLOCK + 1), "--out", str(tmp_path / "out")) in (0, 1)
    assert sum(rows) == _BLOCK + 1 and max(rows) <= _BLOCK


def test_horizon_draws_only_the_steps_to_t_common(tmp_path, monkeypatch):
    # t_common = 5 on the 0.25-year grid: 20 of the 200 steps are drawn
    shapes = []
    draw = forward_yield.brownian.blocked_normals

    def recording(seed, purpose, n_rows, row_shape, *args, **kwargs):
        shapes.append(tuple(row_shape))
        return draw(seed, purpose, n_rows, row_shape, *args, **kwargs)

    monkeypatch.setattr(forward_yield.brownian, "blocked_normals", recording)
    cfg = tmp_path / "horizon.json"
    cfg.write_text(json.dumps({"spec": {"t_common": 5.0}}))
    assert run_cli("horizon", "--config", str(cfg), "--paths", "500", "--out", str(tmp_path / "out")) == 0
    assert shapes == [(20, 2)]


def test_long_rate_command_verdicts(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps({
        "spec": {"gamma": {"model": "synthetic_sqrt", "c_r": 0.0, "c_perp": 6e-5}},
        "long_rate": {"l0": 0.03, "alpha_backward": 0.25, "t_max": 10.0},
    }))
    assert run_cli("long-rate", "--config", str(cfg), "--out", str(out)) == 0
    with (out / "long_rate.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    forward_rows = [r for r in rows if r["mode"] == "forward"]
    backward_rows = [r for r in rows if r["mode"] == "backward"]
    assert forward_rows[0]["verdict"] == "increasing"
    assert backward_rows[0]["verdict"] == "decreasing"
    assert float(forward_rows[0]["slope"]) == pytest.approx(3e-5, abs=1e-12)
    assert float(backward_rows[0]["slope"]) == pytest.approx(-1.5e-5, abs=1e-12)


def test_long_rate_flat_backward_verdict(tmp_path):
    # 0.5 c_r = 0.5 (1 - 2 alpha) c_perp: the backward slope is zero analytically,
    # but its two terms cancel only up to rounding
    out = tmp_path / "out"
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({
        "spec": {"gamma": {"model": "synthetic_sqrt", "c_r": 8e-6, "c_perp": 1e-5}},
        "long_rate": {"alpha_backward": 0.1},
    }))
    assert run_cli("long-rate", "--config", str(cfg), "--out", str(out)) == 0
    with (out / "long_rate.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["verdict"] for r in rows if r["mode"] == "backward"} == {"constant"}
    assert {r["verdict"] for r in rows if r["mode"] == "forward"} == {"increasing"}


def test_davis_command(tmp_path):
    out = tmp_path / "out"
    assert run_cli("davis", "--paths", "20000", "--out", str(out)) == 0
    with (out / "davis.csv").open() as fh:
        row = list(csv.DictReader(fh))[0]
    assert abs(float(row["capitalization_t"])) < 4.0


def test_davis_capitalizes_in_the_consumption_free_optimal_wealth(tmp_path, monkeypatch):
    # Xstar exp(int psi_hat ds) on the reading grid against its own wealth
    # simulation on the same batch, with psi_hat changing value between the
    # maturity and the horizon
    seen = {}
    simulate, capitalize = cli.simulate_optimal, cli.davis_report

    def recording_simulate(*args, **kwargs):
        seen["triple"] = simulate(*args, **kwargs)
        return seen["triple"]

    def recording_capitalize(payoff, y, x_paths, k_mat, k_horizon):
        seen["x"] = x_paths
        return capitalize(payoff, y, x_paths, k_mat, k_horizon)

    monkeypatch.setattr(cli, "simulate_optimal", recording_simulate)
    monkeypatch.setattr(cli, "davis_report", recording_capitalize)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"spec": {"psi_hat": {"times": [0.0, 2.5, 7.5], "values": [0.1, 0.03, 0.05]}}}))
    assert run_cli("davis", "--config", str(cfg), "--paths", "2000", "--out", str(tmp_path / "out")) == 0

    triple = seen["triple"]
    assert 7.5 in triple.grid.times
    plain = forward_yield.wealth_paths(
        triple.market, triple.grid, triple.batch, triple.rate_paths.integral, kappa=triple.spec.kappa_star
    )
    # davis keeps the columns at date 0, the maturity and the horizon
    read = [0, triple.grid.index_of(5.0), triple.grid.n_steps]
    assert np.max(np.abs(seen["x"] / plain[:, read] - 1.0)) < 1e-12


def test_verify_command_passes_and_reports(tmp_path):
    out = tmp_path / "out"
    code = run_cli("verify", "--paths", "50000", "--seed", "20240901", "--out", str(out))
    assert code == 0
    with (out / "verify.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["passed"] == "true" for r in rows)
    names = {r["check"] for r in rows}
    assert {"hjb_drift_residual", "first_order_identity", "perturbed_kappa_drift_t"} <= names


def test_verify_without_consumption_passes_without_consumption_rows(tmp_path):
    # scaling psi = 0 gives the optimal strategy itself, which no drift test can tell apart
    cfg = tmp_path / "psi0.json"
    cfg.write_text(json.dumps({"spec": {"psi_hat": 0.0}}))
    out = tmp_path / "out"
    code = run_cli("verify", "--config", str(cfg), "--paths", "50000", "--out", str(out))
    assert code == 0
    with (out / "verify.csv").open() as fh:
        names = {r["check"] for r in csv.DictReader(fh)}
    assert "perturbed_kappa_drift_t" in names
    assert not names & {"over_consumption_drift_t", "under_consumption_drift_t"}


def test_verify_on_a_trivial_subspace_passes_without_the_kappa_row(tmp_path):
    # with no admissible direction no kappa can move: a perturbed strategy
    # would be the optimum itself, which no drift test can tell apart
    cfg = tmp_path / "trivial.yaml"
    cfg.write_text("market: {subspace: {basis: []}, eta_r: [0.0, 0.0]}\nspec: {kappa_star: [0.0, 0.0]}\n")
    out = tmp_path / "out"
    code = run_cli("verify", "--config", str(cfg), "--paths", "20000", "--out", str(out))
    assert code == 0
    with (out / "verify.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["passed"] == "true" for r in rows)
    names = {r["check"] for r in rows}
    assert "perturbed_kappa_drift_t" not in names
    assert {"over_consumption_drift_t", "under_consumption_drift_t"} <= names


def test_verify_deterministic_market_has_no_sampling_error(tmp_path):
    # a constant rate and no volatility: the optimal row's intervals have no
    # sampling error, so its max t reads 0, with no warning from a zero spread
    cfg = tmp_path / "deterministic.yaml"
    cfg.write_text(
        "market: {rate: {model: constant, r: 0.03}, eta_r: [0, 0]}\n"
        "spec: {kappa_star: [0, 0], nu_star: [0, 0]}\n"
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli("verify", "--config", str(cfg), "--paths", "20000", "--out", str(out))
    assert code == 0
    with (out / "verify.csv").open() as fh:
        rows = {r["check"]: float(r["value"]) for r in csv.DictReader(fh)}
    assert rows["optimal_drift_max_t"] == 0.0
    assert rows["over_consumption_drift_t"] == rows["under_consumption_drift_t"] == -np.inf


def test_wall_clock_covers_simulation(tmp_path, monkeypatch):
    # verify simulates each block of paths in the function it maps over the blocks
    simulate = forward_yield.forward.simulate_optimal

    def slow_simulate(*args, **kwargs):
        time.sleep(0.2)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_optimal", slow_simulate)
    out = tmp_path / "out"
    assert run_cli("verify", "--paths", "200", "--out", str(out)) in (0, 1)
    manifest = json.loads((out / "manifest_verify.json").read_text())
    assert manifest["wall_clock_s"] >= 0.2


def test_verify_memory_does_not_grow_with_the_path_count(tmp_path):
    # verify walks the 8192-row blocks of the streams one at a time, so four
    # times the blocks must not add one block's five (rows, K+1) path arrays
    from forward_yield.brownian import _BLOCK
    from forward_yield.config import build_grid

    block_paths = 5 * _BLOCK * (build_grid(load_config(None)).n_steps + 1) * 8
    peaks = []
    for blocks in (2, 8):
        tracemalloc.start()
        try:
            out = str(tmp_path / f"blocks{blocks}")
            assert run_cli("verify", "--paths", str(blocks * _BLOCK), "--out", out) in (0, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < block_paths


def test_emit_table_empty_rows_header_only(tmp_path):
    path = emit_table([], "csv", tmp_path / "empty.csv", columns=["tenor", "rate"])
    assert path.read_text().strip() == "tenor,rate"
    path = emit_table([], "json", tmp_path / "empty.json")
    assert json.loads(path.read_text()) == []


def test_emit_table_quotes_fields_with_commas(tmp_path):
    path = emit_table([{"name": "a,b", "x": 1.0}], "csv", tmp_path / "q.csv")
    text = path.read_text()
    assert '"a,b"' in text


def test_emit_table_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        emit_table([{"a": 1}, {"b": 2}], "csv", tmp_path / "r.csv")


def test_config_hash_stable_and_sensitive():
    base = load_config(None)
    assert config_hash(base) == config_hash(load_config(None))
    tweaked = load_config(None)
    tweaked["simulation"]["seed"] += 1
    assert config_hash(tweaked) != config_hash(base)


def test_default_config_complete():
    # every block the handlers read exists in the defaults
    for block in ("market", "spec", "simulation", "output", "ramsey", "long_rate", "davis"):
        assert block in DEFAULT_CONFIG


class _RecordingConfig(dict):
    """A config whose blocks record the dotted path of every key read."""

    def __init__(self, data, seen, prefix=""):
        super().__init__(
            {k: _RecordingConfig(v, seen, f"{prefix}{k}.") if isinstance(v, dict) else v for k, v in data.items()}
        )
        self.seen, self.prefix = seen, prefix

    def __getitem__(self, key):
        self.seen.add(self.prefix + key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(self.prefix + key)
        return super().get(key, default)


def _leaves(block, prefix=""):
    for key, value in block.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_every_default_key_is_read_by_some_subcommand(tmp_path):
    # a default that no run reads is a key the user can set to no effect
    seen = set()
    for name in cli._SUBCOMMANDS:
        cfg = load_config(None)
        cfg["simulation"]["n_paths"] = 2000
        cfg["output"]["path"] = str(tmp_path / name)
        cli._run(name, _RecordingConfig(cfg, seen))
    assert [leaf for leaf in _leaves(DEFAULT_CONFIG) if leaf not in seen] == []


def test_yaml_config_roundtrip(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "simulation:\n  n_paths: 3000\n  seed: 11\n"
        "output:\n  tenors: [1.0, 2.0]\n"
    )
    out = tmp_path / "out"
    assert run_cli("forward-curve", "--config", str(cfg), "--out", str(out)) == 0
    with (out / "forward_curve.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows].count("marginal_mc") == 2
    assert {r["method"] for r in rows} == {"marginal_mc", "gaussian_closed", "risk_neutral"}


def test_yaml_reads_exponent_floats(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("market: {rate: {a: 1e-7}}\nlong_rate:\n  l0: 3E-2\nsimulation:\n  n_paths: 3000\n")
    loaded = load_config(cfg)
    assert loaded["market"]["rate"]["a"] == 1e-7
    assert loaded["long_rate"]["l0"] == 0.03
    assert loaded["simulation"]["n_paths"] == 3000
    assert isinstance(loaded["simulation"]["n_paths"], int)


def test_forward_curve_nested_asof(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "simulation": {"n_paths": 2000, "inner_paths": 256},
        "output": {"tenors": [2.0, 5.0], "asof": 1.0},
    }))
    out = tmp_path / "out"
    assert run_cli("forward-curve", "--config", str(cfg), "--out", str(out)) == 0
    assert "forward-curve: 2 tenors written" in capsys.readouterr().out
    with (out / "forward_curve_asof.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(r["method"] == "marginal_mc_nested" for r in rows)
    # nested estimates sit near the unconditional curve level
    assert 0.0 < float(rows[0]["rate"]) < 0.1


def test_forward_curve_slow_mean_reversion_agrees_with_closed_form(tmp_path):
    # a tau of 1e-7 at 1 y: the closed-form variance must not cancel away
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("market: {rate: {a: 1.0e-7}}\n")
    out = tmp_path / "out"
    assert run_cli("forward-curve", "--config", str(cfg), "--paths", "20000", "--out", str(out)) == 0
    with (out / "forward_curve_detail.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(abs(float(r["mc_minus_gaussian_t"])) <= 4.0 for r in rows)


NESTED_CURVE = {"output": {"asof": 2.0, "tenors": [1.0, 2.0, 3.0, 5.0, 7.5, 10.0]}}


def table_bytes(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if not p.name.startswith("manifest_")}


@pytest.mark.parametrize("command, overrides", [("forward-curve", NESTED_CURVE), ("davis", {})])
def test_reading_grid_tables_do_not_depend_on_n_steps(tmp_path, command, overrides):
    # with constant coefficients both configured grids give the same reading
    # grid, so the run simulates the same dates with the same draws
    tables = []
    for n_steps in (40, 80):
        cfg = tmp_path / f"cfg{n_steps}.json"
        cfg.write_text(json.dumps({**overrides, "simulation": {"n_steps": n_steps, "inner_paths": 64}}))
        out = tmp_path / f"out{n_steps}"
        assert run_cli(command, "--config", str(cfg), "--paths", "2000", "--out", str(out)) == 0
        tables.append(table_bytes(out))
    assert tables[0] == tables[1]
    assert len(tables[0]) >= 1


def nested_closed_form(cfg: dict) -> dict[float, float]:
    """Nested rate per tenor after output.asof: the closed-form conditional
    price averaged over the Vasicek law of r_t by Gauss-Hermite, as a yield."""
    from forward_yield.config import build_forward_spec, build_market
    from forward_yield.curves import zc_price_gaussian

    market = build_market(cfg)
    rate, t = market.rate, float(cfg["output"]["asof"])
    mean = float(rate.expected_rate(t))
    std = rate.sigma * np.sqrt(-np.expm1(-2.0 * rate.a * t) / (2.0 * rate.a))
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    nu = build_forward_spec(cfg, market).nu_star
    weights = weights / np.sqrt(2.0 * np.pi)
    rates = {}
    for tenor in (T for T in cfg["output"]["tenors"] if T > t):
        price = np.dot(weights, zc_price_gaussian(market, nu, t, tenor, r_t=mean + std * nodes))
        rates[tenor] = -float(np.log(price)) / (tenor - t)
    return rates


def test_outer_control_has_the_vasicek_mean():
    # the rate state at the curve date is the outer control; its known mean
    # must hold on the simulated reading grid, or the control would bias the curve
    cfg = load_config(None)
    cfg["market"]["rate"]["r0"] = 0.05
    market = build_market(cfg)
    spec = build_forward_spec(cfg, market)
    configured = build_grid(cfg)
    read = grid_indices(configured, NESTED_CURVE["output"]["tenors"] + [2.0], "output")
    grid = forward_yield.reading_grid(spec, market, configured, read)
    batch = forward_yield.sample_brownian(simulation_params(cfg)[1], grid, dim=market.dim, n_paths=20_000)
    triple = forward_yield.simulate_optimal(spec, market, grid, batch)
    mean, se = mean_stderr(triple.rate_paths.r[:, grid.index_of(2.0)])
    assert se > 0
    assert abs(mean - market.rate.expected_rate(2.0)) <= 4.0 * se


@pytest.mark.parametrize(
    "seed, rate",
    [(1, {}), (314, {}), (2718, {}), (7, {"r0": 0.05})],
    ids=["seed-1", "seed-314", "seed-2718", "r0-off-the-mean"],
)
def test_nested_rates_agree_with_closed_form(tmp_path, capsys, seed, rate):
    # both control variates leave the nested curve unbiased: each rate lies
    # within 4 of its stderrs from the closed form, and both levels report
    # their variance reduction; with r0 != b the outer control's mean moves
    # with the curve date
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**NESTED_CURVE, "market": {"rate": rate}}))
    out = tmp_path / "out"
    assert run_cli("forward-curve", "--config", str(cfg_path), "--paths", "2000", "--seed", str(seed), "--out", str(out)) == 0
    cfg = load_config(cfg_path)
    closed = nested_closed_form(cfg)
    with (out / "forward_curve_asof.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["tenor"]) for r in rows] == sorted(closed)
    for r in rows:
        assert 0.0 < float(r["stderr"]) < 1e-4
        assert abs(float(r["rate"]) - closed[float(r["tenor"])]) <= 4.0 * float(r["stderr"])
    (summary,) = json.loads((out / "manifest_forward_curve.json").read_text())["summary"]
    assert summary["nested_tenors"] == sorted(closed)
    assert min(summary["inner_variance_reduction"]) > 50.0
    assert min(summary["outer_variance_reduction"]) > 10.0
    assert "tenor 3: inner" in capsys.readouterr().out


@pytest.mark.parametrize(
    "overrides, paths, level",
    [
        ({"market": {"rate": {"model": "constant", "r": 0.03}}}, 2000, "outer"),
        ({"market": {"rate": {"sigma_r": 0.0}}}, 2000, "outer"),
        ({"market": {"eta_r": [0.0, 0.0]}, "spec": {"nu_star": [0.0, 0.0]}}, 2000, "inner"),
        ({"simulation": {"inner_paths": 2}}, 2000, "inner"),
        ({}, 2, "outer"),
    ],
    ids=["constant-rate", "sigma-r-0", "nu-eta-0", "inner-paths-2", "paths-2"],
)
def test_nested_curve_where_a_control_has_nothing_to_fit(tmp_path, overrides, paths, level):
    # a flat rate state, M = 1 on every path, or fewer than 3 samples: that
    # level's estimate is the plain one, reached without dividing by zero
    overrides = {**overrides, "output": {"asof": 2.0, "tenors": [3.0, 5.0]}}
    proc = _run_in_subprocess(tmp_path, "forward-curve", overrides, paths=paths, PYTHONWARNINGS="error::RuntimeWarning")
    assert proc.returncode == 0, proc.stderr
    with (tmp_path / "out" / "forward_curve_asof.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and all(np.isfinite(float(r["rate"])) for r in rows)
    (summary,) = json.loads((tmp_path / "out" / "manifest_forward_curve.json").read_text())["summary"]
    assert summary[f"{level}_variance_reduction"] == [1.0, 1.0]


def test_nested_curve_steps_only_through_the_read_dates(tmp_path, monkeypatch):
    # tenors 1, 2, 3, 5, 7.5 and 10 as of 2: 6 outer steps, and 4 inner
    # steps from 2 to 10, in place of 40 and 32 on the configured grid, for
    # every inner path of the 100 outer paths
    steps = {"outer": [], "inner": []}
    for module, key in ((forward_yield.forward, "outer"), (forward_yield.curves, "inner")):
        def counting(model, grid, batch, _original=module.simulate_short_rate, _key=key, **kwargs):
            steps[_key].append((grid.n_steps, batch.n_paths))
            return _original(model, grid, batch, **kwargs)

        monkeypatch.setattr(module, "simulate_short_rate", counting)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**NESTED_CURVE, "simulation": {"inner_paths": 64}}))
    assert run_cli("forward-curve", "--config", str(cfg), "--paths", "100", "--out", str(tmp_path / "out")) == 0
    assert steps["outer"] == [(6, 100)]
    assert {k for k, _ in steps["inner"]} == {4}
    assert sum(n for _, n in steps["inner"]) == 100 * 64


def test_ramsey_flat_without_volatility_reads_no_sampling_error(tmp_path):
    # every rate is the closed form up to rounding, which is not sampling error
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("ramsey: {sigma: 0.0}\n")
    out = tmp_path / "out"
    assert run_cli("ramsey-flat", "--config", str(cfg), "--paths", "2000", "--out", str(out)) == 0
    with (out / "ramsey_flat_detail.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    assert all(float(r["stderr"]) == 0.0 and float(r["deviation_t"]) == 0.0 for r in rows)
    assert all(abs(float(r["rate"]) - 0.02) < 1e-12 for r in rows)
    manifest = json.loads((out / "manifest_ramsey_flat.json").read_text())
    assert manifest["summary"][0]["max_spread_t"] == 0.0


def test_davis_at_maturity_zero_reads_no_sampling_error(tmp_path):
    # the payoff is paid at t = 0, so its price is deterministic
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("davis: {maturity: 0.0}\n")
    out = tmp_path / "out"
    assert run_cli("davis", "--config", str(cfg), "--paths", "2000", "--out", str(out)) == 0
    with (out / "davis.csv").open() as fh:
        (row,) = list(csv.DictReader(fh))
    assert float(row["value"]) == pytest.approx(0.1, abs=1e-15)
    assert float(row["stderr"]) == 0.0
