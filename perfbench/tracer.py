"""Outside-in span tracer for the forward_yield layers.

The tracer wraps the public functions of each layer module and rebinds the
wrapper in every ``forward_yield`` module namespace that holds the same
function object, so direct imports (``from .market import wealth_paths``)
and call-time imports (``curves._inner_ratios``) are traced alike.  Nothing
under ``src/`` changes: spans are recorded around the calls into each layer.

Spans are kept in memory as (name, start, end, parent, run) records and
written out once the traced run ends.  Self time is a span's duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# Layers are the modules under src/forward_yield/.  config, grids, subspace,
# utility and quadrature each take under 1% of run time and stay inside their
# callers' spans; cli is the root span around cli.main.
LAYERS = ("brownian", "rates", "market", "forward", "backward", "curves", "stats", "tables")
ROOT = "cli.main"
NESTED_PARENT = "curves.marginal_zc_mc"
INNER_SIM = "brownian.sample_brownian"

# Functions the per-layer metrics name.  A target missing from the package is
# reported by name instead of as zero.
TARGETS = (
    "brownian.blocked_normals",
    "brownian.sample_brownian",
    "rates.simulate_short_rate",
    "market.wealth_paths",
    "market.state_price_paths",
    "forward.value_process",
    "forward.first_order_check",
    "forward.simulate_optimal",
    "forward.consistency_drift_test",
    "forward.hjb_residual",
    "forward.representation_check",
    "backward.rate_integral_paths",
    "backward.backward_optimal_paths",
    "backward.horizon_dependency_experiment",
    "curves.marginal_zc_mc",
    "curves.zc_price_gaussian",
    "curves.pathwise_ramsey_report",
    "curves.forward_marginal_consumption_paths",
    "stats.mean_stderr",
    "stats.interval_drift_report",
    "tables.emit_table",
)

MIB = float(2**20)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None for a root
    run: str


def _array_bytes(obj) -> int:
    """Bytes held by an array or by the array fields of a result record."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    fields = getattr(obj, "__dict__", {})
    return sum(v.nbytes for v in fields.values() if isinstance(v, np.ndarray))


def _count_normals(tracer, result, args):
    tracer.counters["brownian.normals_mb"] += result.nbytes / MIB


def _count_market_out(tracer, result, args):
    tracer.counters["market.path_out_mb"] += _array_bytes(result) / MIB


def _count_gflop(tracer, result, args):
    # (n, K*dim) @ (K*dim, K): 2 n K dim K floating-point operations
    n, k, dim = args["batch"].n_paths, args["grid"].n_steps, args["spec"].market.dim
    tracer.counters["backward.rate_integral_gflop"] += 2.0 * n * k * dim * k / 1e9


def _count_backward_out(tracer, result, args):
    tracer.counters["backward.path_out_mb"] += _array_bytes(result) / MIB


def _count_table_bytes(tracer, result, args):
    tracer.counters["tables.emit_table.bytes"] += os.path.getsize(result)


def _count_inner_sims(tracer, result, args):
    if NESTED_PARENT in tracer.open_names():
        tracer.counters["curves.inner_sims"] += 1


# Counters recorded at the same boundaries as the spans, keyed by target.
HOOKS = {
    "brownian.blocked_normals": _count_normals,
    "brownian.sample_brownian": _count_inner_sims,
    "rates.simulate_short_rate": _count_market_out,
    "market.state_price_paths": _count_market_out,
    "market.wealth_paths": _count_market_out,
    "backward.rate_integral_paths": _count_gflop,
    "backward.backward_optimal_paths": _count_backward_out,
    "tables.emit_table": _count_table_bytes,
}

# Each counter and the targets whose calls feed it.
COUNTERS = {
    "brownian.normals_mb": ("brownian.blocked_normals",),
    "market.path_out_mb": ("rates.simulate_short_rate", "market.state_price_paths", "market.wealth_paths"),
    "backward.rate_integral_gflop": ("backward.rate_integral_paths",),
    "backward.path_out_mb": ("backward.backward_optimal_paths",),
    "tables.emit_table.bytes": ("tables.emit_table",),
    "curves.inner_sims": (INNER_SIM, NESTED_PARENT),
}


def derives_from(metric: str, targets) -> bool:
    """Whether a per-layer metric is measured at any of the given targets."""
    sources = COUNTERS.get(metric, ())
    return any(metric.startswith(t + ".") or t in sources for t in targets)


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self, run: str = "0", clock=time.perf_counter):
        self.run = run
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[tuple[int, str, float]] = []  # (index, name, start)
        self.installed: list[str] = []

    def open_names(self) -> list[str]:
        return [name for _, name, _ in self._open]

    def begin(self, name: str) -> None:
        index = len(self.spans)
        self.spans.append(None)  # reserve the slot so children see their parent index
        self._open.append((index, name, self.clock()))

    def end(self) -> None:
        end = self.clock()
        index, name, start = self._open.pop()
        parent = self._open[-1][0] if self._open else None
        self.spans[index] = Span(name, start, end, parent, self.run)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, result, bound.arguments)
            return result

        return traced

    def install(self, package: str = "forward_yield") -> list[str]:
        """Wrap every public function of each layer module, rebinding it in
        every loaded module of the package that binds the same object.

        Returns the target names (``TARGETS``) that were not found.
        """
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            if module is None:
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    for bound_name, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, bound_name, wrapper)
                self.installed.append(f"{layer}.{attr}")
        return [t for t in TARGETS if t not in self.installed]

    def records(self) -> list[dict]:
        return [s.__dict__.copy() for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


def layer_metrics(spans: list[Span], counters: dict[str, float]) -> dict[str, float]:
    """Self time and call count per traced function, self time per layer,
    plus the counters."""
    metrics: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        layer = "cli" if span.name == ROOT else span.name.split(".", 1)[0]
        metrics[f"{layer}.self_s"] += own
        if span.name != ROOT:
            metrics[f"{span.name}.self_s"] += own
            metrics[f"{span.name}.calls"] += 1
    for name in COUNTERS:
        metrics[name] += counters.get(name, 0.0)
    return dict(metrics)
