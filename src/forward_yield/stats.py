"""Monte Carlo drift statistics shared by the martingale/supermartingale tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# tolerance of identities that hold exactly up to rounding
IDENTITY_TOL = 1e-9


def mean_stderr(x: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Sample mean and standard error along an axis.

    A sample with zero range has stderr exactly 0; np.std gives it the
    rounding error of the mean instead.  Only a stderr within rounding of
    the mean can come from such a sample, so only then is the range taken,
    and random samples take no extra pass.  Each sample along a contiguous
    axis gets the bits that a call on it alone gives, whichever other
    samples trip the range check.
    """
    n = x.shape[axis]
    m = np.mean(x, axis=axis)
    se = np.std(x, axis=axis, ddof=1) / np.sqrt(n)
    if np.any(se <= n * np.finfo(float).eps * np.abs(m)):
        se = se * (np.ptp(x, axis=axis) > 0)
    return m, se


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
    threshold: float              # number of standard errors used for flagging

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
    def flagged(self) -> np.ndarray:
        """Intervals whose drift is inconsistent with zero at the threshold."""
        return np.abs(self.interval_t) > self.threshold

    @property
    def max_abs_t(self) -> float:
        return float(np.max(np.abs(self.interval_t), initial=0.0))

    def is_martingale_like(self) -> bool:
        return not bool(np.any(self.flagged))


def interval_drift_report(values: np.ndarray, times: np.ndarray, threshold: float = 4.0) -> DriftReport:
    """Drift statistics of a per-path process sampled at grid times.

    values has shape (n_paths, K+1); increments are averaged across paths
    in path-index order (deterministic reduction).
    """
    values = np.asarray(values, dtype=float)
    increments = np.diff(values, axis=1)
    drift, stderr = mean_stderr(increments, axis=0)
    total, total_se = mean_stderr(values[:, -1] - values[:, 0], axis=0)
    return DriftReport(
        times=np.asarray(times, dtype=float),
        interval_drift=drift,
        interval_stderr=stderr,
        total_drift=float(total),
        total_stderr=float(total_se),
        threshold=float(threshold),
    )
