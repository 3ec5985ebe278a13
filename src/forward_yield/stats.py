"""Monte Carlo drift statistics shared by the martingale/supermartingale tests."""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Any, NamedTuple

import numpy as np

from .brownian import _BLOCK, stream_blocks

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


class Moments(NamedTuple):
    """Count, mean and sum of squared deviations from the mean of samples
    along an axis, and each sample's value where it has zero range (nan
    elsewhere): what a reduction over one block of paths keeps, so blocks
    can be merged."""

    n: int
    mean: Any
    m2: Any
    const: Any

    def merge(self, other: Moments) -> Moments:
        """The moments of both blocks' samples together, by the pairwise
        update of Chan, Golub & LeVeque (1979)."""
        n = self.n + other.n
        delta = other.mean - self.mean
        return Moments(
            n,
            self.mean + delta * (other.n / n),
            self.m2 + other.m2 + delta * delta * (self.n * other.n / n),
            np.where(self.const == other.const, self.const, np.nan),
        )

    def estimate(self) -> Estimate:
        """Mean and standard error; a sample with zero range has stderr
        exactly 0, where np.std gives it the rounding error of the mean; so
        does one sample, whose n - 1 = 0 is not divided by."""
        se = np.sqrt(self.m2 / max(self.n - 1, 1)) / np.sqrt(self.n)
        return Estimate(self.mean, se * np.isnan(self.const))


def moments(x: np.ndarray, axis: int = 0) -> Moments:
    """Moments of the samples along an axis, merged in order over its
    brownian.stream_blocks pieces, so a batch of paths gets the bits of the
    merge of map_blocks' blocks.

    A piece takes numpy's _var steps: np.mean, then subtract it, square and
    sum.  The range is taken only where the stderr is within rounding of the
    mean, as only a sample with zero range can give such a stderr, so random
    samples take no extra pass.  Each sample along a contiguous axis gets
    the bits of a call on it alone.  A one-row piece has zero range, and no
    n - 1 = 0 is divided by.
    """
    n = x.shape[axis]
    if n > _BLOCK:
        pieces = np.split(x, [b1 for _, b1 in stream_blocks(n)[:-1]], axis=axis)
        return functools.reduce(Moments.merge, (moments(piece, axis) for piece in pieces))
    m = np.mean(x, axis=axis)
    dev = np.subtract(x, np.expand_dims(m, axis))
    m2 = np.sum(np.square(dev, out=dev), axis=axis)
    del dev
    const = np.nan
    if n == 1:
        const = np.take(x, 0, axis=axis)
    elif np.any(np.sqrt(m2 / (n - 1)) / np.sqrt(n) <= n * np.finfo(float).eps * np.abs(m)):
        const = np.where(np.ptp(x, axis=axis) == 0, np.take(x, 0, axis=axis), np.nan)
    return Moments(n, m, m2, const)


def mean_stderr(x: np.ndarray, axis: int = 0) -> Estimate:
    """Sample mean and standard error along an axis, from moments(x): up to
    _BLOCK samples, se has np.std's bits (ddof 1, over sqrt(n)), except
    that a sample with zero range has se exactly 0."""
    return moments(x, axis).estimate()


def control_variate_estimate(y: np.ndarray, c: np.ndarray, mu) -> tuple[Estimate, Estimate]:
    """Mean of y along its last axis with the control c, whose mean mu is
    known exactly, and the plain estimate it improves on.

    The controlled mean is ybar - beta (cbar - mu), with beta fitted on the
    sample by least squares, and its stderr the residual sd with n - 2
    degrees of freedom over sqrt(n) (Glasserman 2004, section 4.1); c
    broadcasts against y.  The plain estimate is mean_stderr(y).  A sample
    of fewer than 3 values, or one whose control has zero range, gets the
    plain estimate for both: there is nothing to fit, and no zero spread is
    divided by.
    """
    c = np.broadcast_to(c, y.shape)
    n = y.shape[-1]
    flat = np.ptp(c, axis=-1) == 0
    ys = moments(y, axis=-1)
    plain = ys.estimate()
    if n < 3 or np.all(flat):
        return plain, plain
    c_mean = np.mean(c, axis=-1)
    dy, dc = y - ys.mean[..., None], c - c_mean[..., None]
    syc = np.einsum("...i,...i->...", dc, dy)
    beta = syc / np.where(flat, 1.0, np.einsum("...i,...i->...", dc, dc))
    # the residual sum of squares; it is rounding, and may read below 0,
    # where the control fits y exactly
    ssr = np.maximum(ys.m2 - beta * syc, 0.0)
    controlled = Estimate(ys.mean - beta * (c_mean - mu), np.sqrt(ssr / (n - 2)) / np.sqrt(n))
    if np.any(flat):
        controlled = Estimate(*np.where(flat, plain, controlled))
    return controlled, plain


def t_stat(gap, stderr):
    """gap / stderr, elementwise.  A zero stderr means no sampling error: a
    gap within IDENTITY_TOL then reads 0, and a larger one reads +-inf."""
    gap, stderr = np.asarray(gap, dtype=float), np.asarray(stderr, dtype=float)
    exact = np.where(np.abs(gap) <= IDENTITY_TOL, 0.0, np.copysign(np.inf, gap))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(stderr > 0, gap / stderr, exact)
    return float(t) if t.ndim == 0 else t


@dataclass(frozen=True)
class DriftReport:
    """Per-interval and total sample drift of a process that should be a
    (super)martingale, held as the moments of its increments across paths,
    with standard errors and t statistics centred on bias."""

    times: np.ndarray   # (K+1,)
    intervals: Moments  # of each interval's increment, (K,)
    totals: Moments     # of terminal minus initial value
    bias: Any = 0.0     # exact mean of each interval's increment, (K,) or 0

    def merge(self, other: DriftReport) -> DriftReport:
        """The report on both blocks' paths together."""
        return replace(self, intervals=self.intervals.merge(other.intervals), totals=self.totals.merge(other.totals))

    @property
    def interval_drift(self) -> np.ndarray:
        return self.intervals.mean

    @property
    def interval_stderr(self) -> np.ndarray:
        return self.intervals.estimate().stderr

    @property
    def total_drift(self) -> float:
        return float(self.totals.mean)

    @property
    def total_stderr(self) -> float:
        return float(self.totals.estimate().stderr)

    @property
    def interval_t(self) -> np.ndarray:
        return t_stat(self.interval_drift - self.bias, self.interval_stderr)

    @property
    def total_t(self) -> float:
        return t_stat(self.total_drift - np.sum(self.bias), self.total_stderr)

    @property
    def max_abs_t(self) -> float:
        return float(np.max(np.abs(self.interval_t), initial=0.0))


def linear_drift_reports(values: np.ndarray, times: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[DriftReport]:
    """Drift reports of the processes G^r with increments a[r, k] v_{k+1} -
    b[r, k] v_k = a dv_k + (a - b) v_k in the (n_paths, K+1) values v, from
    the moments of the columns v_k and dv_k, so no row forms its increments.
    The columns are summed as contiguous rows, pairwise, as a and b weigh
    them far above the increments; the transpose of a C-ordered
    (K+1, n_paths) array is not copied.  An increment or total of columns
    that all have zero range (moments' rule) has zero range."""
    cols = np.ascontiguousarray(values.T)
    v, dv = (moments(x, axis=1) for x in (cols, cols[1:] - cols[:-1]))
    const_v, const_dv = (np.broadcast_to(m.const, m.mean.shape) for m in (v, dv))
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    d = a - b
    # sum (a dev_{k+1} - b dev_k)^2, as dv_k's sum of squares is that of v_{k+1} and v_k
    # less twice their cross products; rounding may take it just below 0
    m2 = np.maximum(a * b * dv.m2 + d * (a * v.m2[1:] - b * v.m2[:-1]), 0.0)
    intervals = Moments(v.n, a * dv.mean + d * v.mean[:-1], m2, a * const_dv + d * const_v[:-1])
    weights = np.pad(a, ((0, 0), (1, 0))) - np.pad(b, ((0, 0), (0, 1)))  # G^r_K - G^r_0 = weights[r] . v
    totals = moments(weights @ cols, axis=1)._replace(const=weights @ const_v)
    rows = ([Moments(m.n, *(x[r] for x in m[1:])) for m in (intervals, totals)] for r in range(len(a)))
    return [DriftReport(np.asarray(times, dtype=float), *row) for row in rows]


def interval_drift_report(values: np.ndarray, times: np.ndarray) -> DriftReport:
    """Drift statistics of the (n_paths, K+1) values of a process sampled at
    grid times: linear_drift_reports' one row with a = b = 1."""
    ones = np.ones((1, values.shape[1] - 1))
    return linear_drift_reports(values, times, ones, ones)[0]
