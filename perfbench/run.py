"""forward-yield benchmark: run CLI workloads in fresh child processes, check
their outputs and print end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload nested-curve --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 60          # every workload, rotating

Plain mode (--trace 0) prints the end-to-end metrics; traced mode (--trace 1)
alternates untraced and traced children and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import derives_from
from workloads import BP, WORKLOADS, Workload, child_seed, gate, nested_closed_form, output_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "time_to_1bp_s": "s"}

PER_LAYER = {
    "brownian.self_s": "s",
    "brownian.blocked_normals.self_s": "s",
    "brownian.blocked_normals.calls": "count",
    "brownian.normals_mb": "MiB",
    "rates.self_s": "s",
    "rates.simulate_short_rate.self_s": "s",
    "rates.simulate_short_rate.calls": "count",
    "market.self_s": "s",
    "market.wealth_paths.self_s": "s",
    "market.wealth_paths.calls": "count",
    "market.state_price_paths.self_s": "s",
    "market.path_out_mb": "MiB",
    "forward.self_s": "s",
    "forward.value_process.self_s": "s",
    "forward.first_order_check.self_s": "s",
    "forward.simulate_optimal.self_s": "s",
    "forward.consistency_drift_test.self_s": "s",
    "forward.hjb_residual.self_s": "s",
    "forward.representation_check.self_s": "s",
    "backward.self_s": "s",
    "backward.rate_integral_paths.self_s": "s",
    "backward.rate_integral_gflop": "GFLOP",
    "backward.backward_optimal_paths.self_s": "s",
    "backward.path_out_mb": "MiB",
    "backward.horizon_dependency_experiment.self_s": "s",
    "curves.self_s": "s",
    "curves.marginal_zc_mc.self_s": "s",
    "curves.inner_sims": "count",
    "curves.zc_price_gaussian.self_s": "s",
    "curves.zc_price_gaussian.calls": "count",
    "curves.pathwise_ramsey_report.self_s": "s",
    "curves.forward_marginal_consumption_paths.self_s": "s",
    "stats.self_s": "s",
    "stats.mean_stderr.self_s": "s",
    "stats.mean_stderr.calls": "count",
    "stats.interval_drift_report.self_s": "s",
    "tables.self_s": "s",
    "tables.emit_table.self_s": "s",
    "tables.emit_table.bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

# One thread everywhere: otherwise the matmul in rate_integral_paths takes
# every core OpenBLAS sees.
PINNED_ENV = {"FORWARD_YIELD_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5      # import-only children per run, after one warm-up
RUNS_PER_SEED = 2     # the digest needs two runs of one seed
CHILD_TIMEOUT_S = 150.0
HARD_STOP_S = 120.0   # start no child after this, so a run ends within 180 s


@dataclass
class Child:
    index: int
    seed: int
    traced: bool
    setup_s: float = float("nan")
    run_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    rc: int | None = None
    digest: str | None = None
    failures: list[str] = field(default_factory=list)
    figures: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)


@dataclass
class Session:
    """Children of one workload within one benchmark run."""

    workload: Workload
    config_path: Path
    config: dict
    reference: dict
    children: list[Child] = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    # Installed packages import from cached bytecode; let the warm-up child write it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(request: dict, log: Path) -> tuple[dict | None, float, int]:
    """Run one child to completion; returns (result, spawn time, exit code)."""
    result_path = Path(request["result"])
    with log.open("w") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            stdout=out, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
        )
        try:
            rc = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rc = -9
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    result = json.loads(result_path.read_text()) if rc == 0 and result_path.exists() else None
    return result, spawned, rc


def setup_probe(work: Path, i: int) -> float:
    result, spawned, rc = spawn({"result": str(work / f"setup_{i}.json"), "argv": None, "trace": None},
                                work / f"setup_{i}.log")
    if result is None:
        raise RuntimeError(f"import-only child exited with {rc}; see {work / f'setup_{i}.log'}")
    return result["ready"] - spawned


def run_child(session: Session, seed: int, work: Path, trace: bool) -> Child:
    """Children come in pairs on one seed, the second traced in traced mode;
    successive pairs cycle through the workload's seeds."""
    index = len(session.children)
    j = index // RUNS_PER_SEED % session.workload.seeds
    child = Child(index=index, seed=child_seed(seed, j), traced=trace and index % RUNS_PER_SEED == 1)
    base = work / session.workload.name / str(child.index)
    out_dir = base / "out"
    base.mkdir(parents=True)
    argv = [session.workload.command, "--config", str(session.config_path),
            "--seed", str(child.seed), "--out", str(out_dir)]
    request = {
        "result": str(base / "result.json"),
        "argv": argv,
        "trace": str(base / "spans.json") if child.traced else None,
        "run": f"{session.workload.name}/{child.index}",
    }
    result, spawned, rc = spawn(request, base / "child.log")
    if result is None:
        child.failures.append(f"child exited with code {rc}; see {base / 'child.log'}")
        return child
    child.setup_s = result["ready"] - spawned
    child.run_s = result["run_s"]
    child.peak_rss_mb = result["peak_rss_mb"]
    child.rc = result["rc"]
    child.layers = result.get("layers", {})
    child.missing = result.get("missing", [])
    if child.rc != 0:
        child.failures.append(f"{session.workload.command} returned {child.rc}")
    try:
        child.digest = output_digest(out_dir)
        failures, child.figures = gate(session.workload, out_dir, session.reference)
        child.failures += failures
    except (OSError, KeyError, ValueError) as exc:
        child.failures.append(f"unreadable outputs: {exc!r}")
    return child


def mark_digest_mismatches(children: list[Child]) -> None:
    """Runs of one code and seed must emit identical tables; a run whose
    digest differs from the most common one for its seed counts as failed."""
    for seed in {c.seed for c in children}:
        digests = [c.digest for c in children if c.seed == seed and c.digest]
        if not digests:
            continue
        common = max(set(digests), key=lambda d: (digests.count(d), -digests.index(d)))
        for c in children:
            if c.seed == seed and c.digest and c.digest != common:
                c.failures.append(f"output digest {c.digest[:12]} differs from {common[:12]} (seed {seed})")


def median(values) -> tuple[float, int]:
    """Median and sample count; NaN when there is no sample."""
    values = list(values)
    return (statistics.median(values) if values else float("nan")), len(values)


def end_to_end(session: Session, setup: list[float]) -> dict[str, tuple[float, int]]:
    # Timings of a run that fails its gate still count: the program did the
    # work.  A child that produced no result has no timings.
    plain = [c for c in session.children if not c.traced and c.rc is not None]
    metrics = {
        "run_s": median(c.run_s for c in plain),
        "setup_s": median(setup),
        "peak_rss_mb": median(c.peak_rss_mb for c in plain),
    }
    if session.workload.command == "forward-curve":
        # run time the worst nested tenor would need to reach a 1-bp stderr,
        # with the squared stderr averaged over the run's seeds
        factors = {c.seed: (c.figures["max_nested_stderr"] / BP) ** 2 for c in session.children if c.figures}
        run_s, n = metrics["run_s"]
        metrics["time_to_1bp_s"] = (run_s * statistics.fmean(factors.values()) if factors else float("nan"), n)
    else:
        # no published figure carries a Monte Carlo stderr in rate units
        metrics["time_to_1bp_s"] = metrics["run_s"]
    return metrics


def per_layer(session: Session, run_s_plain: float) -> tuple[dict[str, tuple[float, int]], list[str]]:
    traced = [c for c in session.children if c.traced and c.rc is not None]
    missing = sorted({m for c in traced for m in c.missing})
    metrics = {"trace.overhead_s": (median(c.run_s for c in traced)[0] - run_s_plain, len(traced))}
    for name in PER_LAYER:
        if name not in metrics and not derives_from(name, missing):
            metrics[name] = median(c.layers.get(name, 0.0) for c in traced)
    return metrics, missing


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "threads": PINNED_ENV,
    }


def prepare(names: list[str], work: Path, extra: dict | None = None) -> dict[str, Session]:
    from forward_yield.config import load_config

    sessions = {}
    for name in names:
        workload = WORKLOADS[name]
        overrides = {**workload.overrides}
        for block, values in (extra or {}).items():
            overrides[block] = {**overrides.get(block, {}), **values}
        path = work / f"{name}.json"
        path.write_text(json.dumps(overrides, indent=1))
        config = load_config(path)
        reference = nested_closed_form(config) if workload.command == "forward-curve" else {}
        sessions[name] = Session(workload, path, config, reference)
    return sessions


def measure(names: list[str], seed: int, seconds: float, trace: bool, work: Path, extra: dict | None = None):
    """Run the workloads' children one at a time, rotating the workload order
    between rounds, until the time is up; returns (sessions, setup samples)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    sessions = prepare(names, work, extra)
    start = time.monotonic()
    setup_probe(work, 0)  # warm-up: byte-compiles the package and fills the page cache
    setup = [setup_probe(work, i) for i in range(1, SETUP_PROBES + 1)]
    rounds = 0
    while True:
        round_start = time.monotonic()
        for name in names[rounds % len(names):] + names[: rounds % len(names)]:
            s = sessions[name]
            s.children.append(run_child(s, seed, work, trace))
        rounds += 1
        now = time.monotonic()
        short = any(len(s.children) < RUNS_PER_SEED * s.workload.seeds for s in sessions.values())
        if short and now - start < HARD_STOP_S:
            continue
        if now + (now - round_start) > start + seconds or now - start > HARD_STOP_S:
            break
    for s in sessions.values():
        mark_digest_mismatches(s.children)
        setup += [c.setup_s for c in s.children if c.rc is not None]
    return sessions, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=20240901)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind, so the running child is killed

    if not (SRC / "forward_yield" / "cli.py").is_file():
        print(f"perfbench: no forward_yield package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    sessions, setup = measure(names, args.seed, args.seconds, bool(args.trace), work)

    results = {"environment": environment(), "seed": args.seed, "workloads": {}}
    final: dict = {}
    attempted = failed = 0
    for name, s in sessions.items():
        fails = sum(1 for c in s.children if c.failures)
        attempted += len(s.children)
        failed += fails
        e2e = end_to_end(s, setup)
        layers, missing = per_layer(s, e2e["run_s"][0]) if args.trace else ({}, [])
        seeds = sorted({c.seed for c in s.children}, key=[c.seed for c in s.children].index)
        print(f"== {name} ({s.workload.command}), seeds {', '.join(map(str, seeds))}")
        for c in s.children:
            for f in c.failures:
                print(f"   run {c.index} FAILED: {f}")
        shown = {**e2e, **layers}
        units = {**END_TO_END, **PER_LAYER}
        for metric, (value, n) in shown.items():
            print(f"   {metric:<48} {value:>14.6g} {units[metric]:<6} median of {n}")
        print(f"   {'failed_runs':<48} {fails:>14d} count  of {len(s.children)} attempted")
        for m in missing:
            print(f"   MISSING target {m}: its per-layer metrics are not reported")
        chosen = layers if args.trace else e2e
        prefix = "" if len(sessions) == 1 else f"{name}."
        final.update({prefix + k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                      for k, (v, _) in chosen.items()})
        results["workloads"][name] = {
            "config": s.config,
            "metrics": {k: {"value": v, "unit": units[k], "n": n} for k, (v, n) in shown.items()},
            "failed_runs": fails,
            "missing": missing,
            "children": [c.__dict__ for c in s.children],
        }
    (work / "results.json").write_text(json.dumps(results, indent=1, default=str))
    print(f"environment: {json.dumps(results['environment'])}")
    print(f"results: {work / 'results.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
