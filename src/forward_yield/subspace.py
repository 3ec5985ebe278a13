"""Orthogonal projections onto the admissible-portfolio subspace and its complement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalRangeError, SubspaceViolationError

_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class SubspaceR:
    """A linear subspace of R^dim given by orthonormal basis rows.

    The basis may be empty (trivial subspace, every vector is orthogonal)
    or square (full space, complete-market case).
    """

    basis: np.ndarray  # shape (k, dim), rows pairwise orthonormal
    dim: int

    def __post_init__(self) -> None:
        b = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if b.size == 0:
            b = np.zeros((0, self.dim))
        object.__setattr__(self, "basis", b)
        if b.shape[1] != self.dim:
            raise ValueError(f"basis vectors have length {b.shape[1]}, expected dim={self.dim}")
        if b.shape[0] > self.dim:
            raise ValueError("more basis vectors than dimensions")
        # a gram that overflows reads inf, which fails the test below
        with np.errstate(over="ignore", invalid="ignore"):
            gram = b @ b.T
        if not np.allclose(gram, np.eye(b.shape[0]), atol=_ORTHO_TOL):
            raise ValueError("basis rows must be pairwise orthonormal to 1e-12")

    @classmethod
    def span(cls, vectors, dim: int | None = None) -> "SubspaceR":
        """Orthonormalize the given spanning vectors (QR, near-zero columns dropped)."""
        v = np.atleast_2d(np.asarray(vectors, dtype=float))
        if dim is None:
            dim = v.shape[1]
        if v.size == 0:
            return cls(np.zeros((0, dim)), dim)
        q, r = np.linalg.qr(v.T)
        keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, np.abs(r).max())
        return cls(q.T[keep], dim)

    def project(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split v into (part in the subspace, part in the orthogonal complement).

        Works on batched input of shape (..., dim).
        """
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.dim:
            raise ValueError(f"vector has dimension {v.shape[-1]}, expected {self.dim}")
        if not np.all(np.isfinite(v)):
            raise NumericalRangeError("cannot project non-finite vectors")
        if self.basis.shape[0] == 0:
            v_in = np.zeros_like(v)
        else:
            v_in = (v @ self.basis.T) @ self.basis
        return v_in, v - v_in

    def component_in(self, v: np.ndarray) -> np.ndarray:
        return self.project(v)[0]

    def component_perp(self, v: np.ndarray) -> np.ndarray:
        return self.project(v)[1]

    def complement_direction(self) -> np.ndarray:
        """Unit vector along the largest row of the complement projector
        I - B^T B; rejects the full space, which has no such direction."""
        comp = np.eye(self.dim) - self.basis.T @ self.basis
        norms = np.linalg.norm(comp, axis=1)
        if norms.max() < 1e-12:
            raise ValueError("subspace is the full space; no orthogonal direction exists")
        direction = comp[int(np.argmax(norms))]
        return direction / np.linalg.norm(direction)

    def _part_within(self, v: np.ndarray, part: int, tol: float) -> bool:
        """Every row of project(v)[part] has norm <= tol max(1, largest row norm of v); v is
        first divided by its largest |entry|, so the norms of a finite v do not overflow."""
        v = np.atleast_2d(np.asarray(v, dtype=float))
        scale = max(1.0, float(np.max(np.abs(v), initial=0.0)))
        v = v / scale
        part_norm, v_norm = (np.max(np.linalg.norm(x, axis=-1), initial=0.0) for x in (self.project(v)[part], v))
        return part_norm <= tol * max(1.0 / scale, v_norm)

    def contains(self, v: np.ndarray, tol: float = 1e-9) -> bool:
        """True when every row of v lies in the subspace up to tol (relative)."""
        return self._part_within(v, 1, tol)

    def orthogonal_to(self, v: np.ndarray, tol: float = 1e-9) -> bool:
        """True when every row of v lies in the orthogonal complement up to tol."""
        return self._part_within(v, 0, tol)

    def require_contains(self, v: np.ndarray, what: str) -> None:
        if not self.contains(v):
            raise SubspaceViolationError(f"{what} must lie in the admissible subspace")

    def require_orthogonal(self, v: np.ndarray, what: str) -> None:
        if not self.orthogonal_to(v):
            raise SubspaceViolationError(f"{what} must lie in the orthogonal complement of the admissible subspace")
