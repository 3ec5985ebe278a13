"""Monte Carlo drift statistics shared by the martingale/supermartingale tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .market import row_blocks

# The verdict bands, which no config changes: identities that hold exactly
# up to rounding are held to IDENTITY_TOL, and Monte Carlo statistics to
# STAT_BAND standard errors.
IDENTITY_TOL = 1e-9
STAT_BAND = 4.0


class Estimate(NamedTuple):
    """A Monte Carlo mean with its standard error; arrays for a reduction
    along an axis, and unpacked as (mean, stderr)."""

    mean: Any
    stderr: Any


def mean_stderr(x: np.ndarray, axis: int = 0, refill: Optional[Callable[[], None]] = None) -> Estimate:
    """Sample mean and standard error along an axis.

    A sample with zero range has stderr exactly 0; np.std gives it the
    rounding error of the mean instead.  Only a stderr within rounding of
    the mean can come from such a sample, so only then is the range taken,
    and random samples take no extra pass.  Each sample along a contiguous
    axis gets the bits that a call on it alone gives, whichever other
    samples trip the range check.

    se is np.std's (numpy's _var steps: subtract the mean, square, sum,
    divide by n - 1, sqrt), formed in a fresh array, or in x's own buffer
    when refill, a function that writes the samples into x again, is given:
    then no temporary of x's size is allocated, and the range check calls
    refill first, so it reads the samples rather than their squares.
    """
    n = x.shape[axis]
    m = np.mean(x, axis=axis)
    dev = np.subtract(x, np.expand_dims(m, axis), out=None if refill is None else x)
    se = np.sqrt(np.sum(np.square(dev, out=dev), axis=axis) / (n - 1)) / np.sqrt(n)
    del dev
    if np.any(se <= n * np.finfo(float).eps * np.abs(m)):
        if refill is not None:
            refill()
        se = se * (np.ptp(x, axis=axis) > 0)
    return Estimate(m, se)


def t_stat(gap, stderr, tol: float = IDENTITY_TOL):
    """gap / stderr, elementwise.  A zero stderr means no sampling error: a
    gap within tol then reads 0, and a larger one reads +-inf."""
    gap, stderr = np.asarray(gap, dtype=float), np.asarray(stderr, dtype=float)
    exact = np.where(np.abs(gap) <= tol, 0.0, np.copysign(np.inf, gap))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(stderr > 0, gap / stderr, exact)
    return float(t) if t.ndim == 0 else t


@dataclass(frozen=True)
class DriftReport:
    """Per-interval and total sample drift of a process that should be a
    (super)martingale, with standard errors and t statistics."""

    times: np.ndarray             # (K+1,)
    interval_drift: np.ndarray    # (K,) mean increment per interval
    interval_stderr: np.ndarray   # (K,)
    total_drift: float            # mean of terminal minus initial value
    total_stderr: float

    @property
    def interval_t(self) -> np.ndarray:
        # an interval without sampling error reads 0: its drift is then the
        # deterministic bias of the trapezoid rule, not a t statistic
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(self.interval_stderr > 0, self.interval_drift / self.interval_stderr, 0.0)
        return t

    @property
    def total_t(self) -> float:
        return t_stat(self.total_drift, self.total_stderr)

    @property
    def max_abs_t(self) -> float:
        return float(np.max(np.abs(self.interval_t), initial=0.0))


def interval_drift_report(
    value_rows: Callable[[int, int], np.ndarray], n_paths: int, times: np.ndarray
) -> DriftReport:
    """Drift statistics of a per-path process sampled at grid times.

    value_rows(b0, b1) gives rows b0:b1 of the (n_paths, K+1) values.  They
    are asked for in row blocks, so the values are never held whole: only
    their increments, in one (n_paths, K) buffer that the reduction reuses,
    and the total change of each path.  Increments are averaged across
    paths in path-index order (deterministic reduction).
    """
    times = np.asarray(times, dtype=float)
    increments = np.empty((n_paths, times.size - 1))
    totals = np.empty(n_paths)

    def fill() -> None:
        for b0, b1 in row_blocks(n_paths):
            values = value_rows(b0, b1)
            np.subtract(values[:, 1:], values[:, :-1], out=increments[b0:b1])
            np.subtract(values[:, -1], values[:, 0], out=totals[b0:b1])
            del values  # freed before the next block is formed

    fill()
    total, total_se = mean_stderr(totals, axis=0)
    drift, stderr = mean_stderr(increments, axis=0, refill=fill)
    return DriftReport(
        times=times,
        interval_drift=drift,
        interval_stderr=stderr,
        total_drift=float(total),
        total_stderr=float(total_se),
    )
