"""Benchmark workloads and the correctness gate each run must pass.

Each workload is one CLI subcommand on the default config plus overrides.
The seed comes from the benchmark's ``--seed`` and reaches the program
through the CLI's ``--seed``.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    overrides: dict
    # Distinct simulation seeds per benchmark run.  Only a metric estimated
    # from a Monte Carlo stderr depends on the seed; spreading it over several
    # seeds keeps the seed-to-seed scatter of that estimate out of the run's
    # figure.
    seeds: int = 1


def child_seed(seed: int, j: int) -> int:
    """The j-th simulation seed of a run; the 0-th is the benchmark's seed."""
    if j == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{j}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# Why each workload was chosen is recorded in BENCHMARK.json and README.md:
# forward-verify makes few, very large calls; backward-horizon runs the dense
# O(nK^2) rate-integral matmul; nested-curve makes about a thousand small
# calls per layer, so its cost is per call, not per element.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "forward-verify",
            "verify",
            {"simulation": {"n_paths": 150_000}},
        ),
        Workload(
            "backward-horizon",
            "horizon",
            {"simulation": {"n_paths": 50_000}, "spec": {"t_horizons": [10.0, 30.0, 50.0]}},
        ),
        Workload(
            "nested-curve",
            "forward-curve",
            {"simulation": {"n_paths": 20_000}, "output": {"asof": 2.0, "tenors": [1.0, 2.0, 3.0, 5.0, 7.5, 10.0]}},
            seeds=3,
        ),
    )
}

HORIZON_PAIRS = {(10.0, 30.0), (10.0, 50.0), (30.0, 50.0)}
IDENTITY_TOL = 1e-9
STAT_BAND = 4.0
BP = 1e-4


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def output_digest(out_dir: Path) -> str:
    """sha256 over the emitted tables, leaving out the manifests, whose
    wall_clock_s varies from run to run."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name.startswith("manifest_"):
            continue
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def nested_closed_form(cfg: dict) -> dict[float, float]:
    """Expected nested rate per tenor after output.asof: the closed-form
    conditional price zc_price_gaussian(market, nu_star, t, T, r_t) averaged
    over the Vasicek law of r_t by Gauss-Hermite, as a yield over [t, T]."""
    from forward_yield.config import build_forward_spec, build_market
    from forward_yield.curves import zc_price_gaussian

    market = build_market(cfg)
    spec = build_forward_spec(cfg, market)
    rate = market.rate
    t = float(cfg["output"]["asof"])
    mean = float(rate.expected_rate(t))
    std = rate.sigma * np.sqrt(-np.expm1(-2.0 * rate.a * t) / (2.0 * rate.a))
    nodes, weights = np.polynomial.hermite_e.hermegauss(64)
    weights = weights / np.sqrt(2.0 * np.pi)
    out = {}
    for tenor in (float(x) for x in cfg["output"]["tenors"]):
        if tenor <= t:
            continue
        prices = zc_price_gaussian(market, spec.nu_star, t, tenor, r_t=mean + std * nodes)
        out[tenor] = -float(np.log(np.dot(weights, prices))) / (tenor - t)
    return out


def gate(workload: Workload, out_dir: Path, reference) -> tuple[list[str], dict]:
    """Failures of one run's outputs, and the figures the metrics need."""
    failures: list[str] = []
    figures: dict = {}
    if workload.command == "verify":
        for row in read_csv(out_dir / "verify.csv"):
            if row["passed"] != "true":
                failures.append(f"verify check {row['check']} failed: {row['value']}")
    elif workload.command == "horizon":
        rows = read_csv(out_dir / "horizon.csv")
        pairs = {(float(r["horizon_a"]), float(r["horizon_b"])) for r in rows}
        if pairs != HORIZON_PAIRS:
            failures.append(f"horizon pairs {sorted(pairs)} != {sorted(HORIZON_PAIRS)}")
        for r in rows:
            if not float(r["predicted_gap_residual"]) <= IDENTITY_TOL:
                failures.append(f"predicted_gap_residual {r['predicted_gap_residual']} > {IDENTITY_TOL}")
    elif workload.command == "forward-curve":
        for r in read_csv(out_dir / "forward_curve_detail.csv"):
            if not abs(float(r["mc_minus_gaussian_t"])) <= STAT_BAND:
                failures.append(f"tenor {r['tenor']}: mc_minus_gaussian_t {r['mc_minus_gaussian_t']}")
        nested = [r for r in read_csv(out_dir / "forward_curve_asof.csv") if r["method"] == "marginal_mc_nested"]
        if {float(r["tenor"]) for r in nested} != set(reference):
            failures.append(f"nested tenors {[r['tenor'] for r in nested]} != {sorted(reference)}")
        worst_t = 0.0
        for r in nested:
            rate, se = float(r["rate"]), float(r["stderr"])
            t_stat = (rate - reference.get(float(r["tenor"]), np.nan)) / se
            worst_t = max(worst_t, abs(t_stat))
            if not abs(t_stat) <= STAT_BAND:
                failures.append(f"nested tenor {r['tenor']}: rate {rate} is {t_stat:.2f} stderrs from closed form")
        figures["max_nested_stderr"] = max((float(r["stderr"]) for r in nested), default=float("nan"))
        figures["max_nested_abs_t"] = worst_t
    return failures, figures
