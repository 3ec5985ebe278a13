"""Self-time arithmetic and namespace rebinding of the outside-in tracer."""

import sys
import types

import pytest

from tracer import ROOT, TARGETS, Span, Tracer, derives_from, layer_metrics, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_synthetic_nested_call():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 1.0
        tracer.wrap("stats.mean_stderr", leaf)()
        clock.now += 2.0

    def outer():
        clock.now += 0.5
        tracer.wrap("market.wealth_paths", middle)()
        tracer.wrap("stats.mean_stderr", leaf)()
        clock.now += 0.25

    tracer.begin(ROOT)
    clock.now += 1.0
    tracer.wrap("forward.simulate_optimal", outer)()
    tracer.end()

    assert [s.name for s in tracer.spans] == [
        ROOT, "forward.simulate_optimal", "market.wealth_paths", "stats.mean_stderr", "stats.mean_stderr",
    ]
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 2, 1]
    assert self_times(tracer.spans) == pytest.approx([1.0, 0.75, 3.0, 1.0, 1.0])

    metrics = layer_metrics(tracer.spans, tracer.counters)
    assert metrics["cli.self_s"] == pytest.approx(1.0)
    assert metrics["forward.simulate_optimal.self_s"] == pytest.approx(0.75)
    assert metrics["market.wealth_paths.self_s"] == pytest.approx(3.0)
    assert metrics["stats.mean_stderr.self_s"] == pytest.approx(2.0)
    assert metrics["stats.mean_stderr.calls"] == 2
    assert metrics["stats.self_s"] == pytest.approx(2.0)
    # self times partition the root span
    assert sum(self_times(tracer.spans)) == pytest.approx(tracer.spans[0].end - tracer.spans[0].start)


def test_self_time_clips_overlapping_children():
    spans = [
        Span("a.f", 0.0, 10.0, None, "r"),
        Span("a.g", 2.0, 6.0, 0, "r"),
        Span("a.h", 5.0, 12.0, 0, "r"),  # overlaps g and runs past its parent
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_span_recorded_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("stats.mean_stderr", boom)()
    assert [s.name for s in tracer.spans] == ["stats.mean_stderr"]
    assert tracer.open_names() == []


@pytest.fixture
def fake_package(monkeypatch):
    """A package whose brownian module defines one target and whose rates
    module binds it by direct import."""
    pkg = types.ModuleType("fakepkg")
    brownian = types.ModuleType("fakepkg.brownian")
    rates = types.ModuleType("fakepkg.rates")

    def blocked_normals(seed, purpose, n_rows, row_shape):
        import numpy as np

        return np.zeros((n_rows,) + tuple(row_shape))

    blocked_normals.__module__ = "fakepkg.brownian"
    brownian.blocked_normals = blocked_normals
    rates.blocked_normals = blocked_normals
    rates.simulate = lambda: rates.blocked_normals(0, 0, 4, (2,))
    for name, module in (("fakepkg", pkg), ("fakepkg.brownian", brownian), ("fakepkg.rates", rates)):
        monkeypatch.setitem(sys.modules, name, module)
    return brownian, rates


def test_install_rebinds_every_namespace_and_names_missing_targets(fake_package):
    brownian, rates = fake_package
    tracer = Tracer()
    missing = tracer.install("fakepkg")

    assert rates.blocked_normals is brownian.blocked_normals
    rates.simulate()
    assert [s.name for s in tracer.spans] == ["brownian.blocked_normals"]
    assert tracer.counters["brownian.normals_mb"] == pytest.approx(8 * 8 / 2**20)
    assert "brownian.blocked_normals" not in missing
    assert set(missing) == set(TARGETS) - {"brownian.blocked_normals"}
    assert not derives_from("brownian.normals_mb", missing)
    assert not derives_from("brownian.blocked_normals.self_s", missing)
    assert derives_from("curves.inner_sims", missing)
    assert derives_from("forward.value_process.self_s", missing)

