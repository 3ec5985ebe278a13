import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import forward_yield
from forward_yield import cli
from forward_yield.cli import main
from forward_yield.config import DEFAULT_CONFIG, config_hash, load_config, verify_thresholds
from forward_yield.tables import emit_table


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
    ],
)
def test_off_grid_time_or_negative_rate_names_field(tmp_path, capsys, monkeypatch, command, overrides, field):
    def no_simulation(*args, **kwargs):
        raise AssertionError("paths simulated before the config was validated")

    monkeypatch.setattr(cli, "sample_brownian", no_simulation)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(overrides))
    code = run_cli(command, "--config", str(cfg), "--paths", "100", "--out", str(tmp_path / "out"))
    assert code == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("kappa_star", [0.3, 0.2]), ("nu_star", [0.1, 0.1])])
def test_out_of_subspace_coefficient_exits_2_before_any_rate_simulation(tmp_path, capsys, monkeypatch, field, value):
    calls = []
    simulate = forward_yield.forward.simulate_short_rate

    def counting(*args, **kwargs):
        calls.append(1)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(forward_yield.forward, "simulate_short_rate", counting)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"spec": {field: value}}))
    code = run_cli("verify", "--config", str(cfg), "--paths", "100", "--out", str(tmp_path / "out"))
    assert code == 2
    assert "subspace" in capsys.readouterr().err
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
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(overrides))
    src = str(Path(forward_yield.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "forward_yield.cli", command, "--config", str(cfg), "--paths", "2000",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "error: " in proc.stderr


@pytest.mark.parametrize(
    "command, block",
    [
        ("davis", "davis"),
        ("verify", "verify"),
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


def test_thread_env_does_not_change_outputs(tmp_path, monkeypatch):
    out_a = tmp_path / "a"
    assert run_cli("ramsey-flat", "--paths", "4000", "--seed", "7", "--out", str(out_a)) == 0
    monkeypatch.setenv("FORWARD_YIELD_THREADS", "8")
    out_b = tmp_path / "b"
    assert run_cli("ramsey-flat", "--paths", "4000", "--seed", "7", "--out", str(out_b)) == 0
    assert (out_a / "ramsey_flat_curve.csv").read_bytes() == (out_b / "ramsey_flat_curve.csv").read_bytes()


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

    monkeypatch.setattr(cli, "sample_brownian", recording)
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
    assert float(row["superposition_residual"]) <= 1e-15
    assert abs(float(row["capitalization_t"])) < 4.0


def test_verify_command_passes_and_reports(tmp_path):
    out = tmp_path / "out"
    code = run_cli("verify", "--paths", "50000", "--seed", "20240901", "--out", str(out))
    assert code == 0
    with (out / "verify.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["passed"] == "true" for r in rows)
    names = {r["check"] for r in rows}
    assert {"hjb_drift_residual", "first_order_identity", "perturbed_kappa_drift_t"} <= names


def test_wall_clock_covers_simulation(tmp_path, monkeypatch):
    simulate = cli.simulate_optimal

    def slow_simulate(*args, **kwargs):
        time.sleep(0.2)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(cli, "simulate_optimal", slow_simulate)
    out = tmp_path / "out"
    assert run_cli("verify", "--paths", "200", "--out", str(out)) in (0, 1)
    manifest = json.loads((out / "manifest_verify.json").read_text())
    assert manifest["wall_clock_s"] >= 0.2


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
    for block in ("market", "spec", "simulation", "output", "ramsey", "long_rate", "davis", "verify"):
        assert block in DEFAULT_CONFIG


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
    cfg.write_text("verify:\n  identity_tol: 1e-9\nlong_rate:\n  l0: 3E-2\nsimulation:\n  n_paths: 3000\n")
    loaded = load_config(cfg)
    assert verify_thresholds(loaded).identity_tol == 1e-9
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
