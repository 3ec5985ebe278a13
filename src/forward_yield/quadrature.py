"""Fixed Gauss-Legendre quadrature for smooth deterministic time integrals."""

from __future__ import annotations

import functools

import numpy as np


@functools.cache
def _nodes() -> tuple[np.ndarray, np.ndarray]:
    """The 128 Gauss-Legendre nodes and weights on [-1, 1], formed at first use."""
    return np.polynomial.legendre.leggauss(128)


def gauss_legendre(f, a: float, b: float) -> float:
    """Integral of f over [a, b] by the 128-node rule; f maps an array of times to values.

    Vector-valued integrands are reduced over the time axis, so the result
    has the shape of a single f evaluation.
    """
    if b < a:
        raise ValueError("requires a <= b")
    if b == a:
        probe = np.asarray(f(np.array([a])), dtype=float)
        return np.zeros(probe.shape[1:]) if probe.ndim > 1 else 0.0
    x, w = _nodes()
    t = 0.5 * (b - a) * x + 0.5 * (b + a)
    vals = np.asarray(f(t), dtype=float)
    scaled = 0.5 * (b - a) * w
    if vals.ndim == 1:
        return float(np.dot(scaled, vals))
    return np.tensordot(scaled, vals, axes=(0, 0))
