"""Tiny-n smoke runs: every workload passes its gate, plain and traced, and
the metric names match BENCHMARK.json."""

import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, child_seed

TINY = {
    "forward-verify": {"simulation": {"n_paths": 60_000}},
    "backward-horizon": {"simulation": {"n_paths": 2_000}},
    "nested-curve": {"simulation": {"n_paths": 64, "inner_paths": 64}},
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_passes_its_gate(name, tmp_path):
    sessions, setup = run.measure([name], seed=20240901, seconds=0, trace=True, work=tmp_path, extra=TINY[name])
    session = sessions[name]
    workload = WORKLOADS[name]
    assert len(session.children) == run.RUNS_PER_SEED * workload.seeds
    assert [c.failures for c in session.children] == [[]] * len(session.children)
    assert [c.traced for c in session.children] == [False, True] * workload.seeds
    assert len({c.seed for c in session.children}) == workload.seeds
    # each (untraced, traced) pair shares a seed and its tables: tracing leaves the outputs unchanged
    assert len({(c.seed, c.digest) for c in session.children}) == workload.seeds

    e2e = run.end_to_end(session, setup)
    assert set(e2e) == set(run.END_TO_END)
    assert all(value > 0 for value, _ in e2e.values())
    layers, missing = run.per_layer(session, e2e["run_s"][0])
    assert missing == []
    assert set(layers) == set(run.PER_LAYER)
    assert layers["tables.emit_table.bytes"][0] > 0
    if name == "nested-curve":
        assert layers["curves.inner_sims"][0] == 4 * 64
        assert layers["rates.simulate_short_rate.calls"][0] == 4 * 64 + 1
    if name == "backward-horizon":
        assert layers["backward.rate_integral_gflop"][0] > 0
        assert layers["rates.simulate_short_rate.calls"][0] == 0


def test_benchmark_json_names_match():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_child_seeds_are_fixed_by_the_benchmark_seed():
    assert child_seed(7, 0) == 7
    assert child_seed(7, 1) == child_seed(7, 1) != child_seed(8, 1)
    assert len({child_seed(7, j) for j in range(5)}) == 5
    assert all(0 <= child_seed(2**64 - 1, j) < 2**63 for j in range(1, 5))


def test_digest_mismatch_fails_only_the_odd_run_of_its_seed():
    children = [run.Child(i, seed, False, digest=d) for i, (seed, d) in enumerate(
        [(1, "a"), (1, "a"), (2, "b"), (2, "c"), (1, "x")])]
    run.mark_digest_mismatches(children)
    assert [bool(c.failures) for c in children] == [False, False, False, True, True]
