import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forward_yield import NumericalRangeError, SubspaceR

TOL = 1e-12


def test_axis_projection():
    s = SubspaceR([[1.0, 0.0]], 2)
    v_in, v_perp = s.project(np.array([3.0, 4.0]))
    assert np.allclose(v_in, [3.0, 0.0])
    assert np.allclose(v_perp, [0.0, 4.0])


def test_trivial_subspace():
    s = SubspaceR([], 3)
    v = np.array([1.0, -2.0, 0.5])
    v_in, v_perp = s.project(v)
    assert np.allclose(v_in, 0.0)
    assert np.allclose(v_perp, v)


def test_full_subspace():
    s = SubspaceR(np.eye(3), 3)
    v = np.array([1.0, -2.0, 0.5])
    v_in, v_perp = s.project(v)
    assert np.allclose(v_in, v)
    assert np.allclose(v_perp, 0.0)


def test_projection_identities_random_vectors():
    rng = np.random.default_rng(7)
    s = SubspaceR.span(rng.standard_normal((2, 4)), dim=4)
    v = rng.standard_normal((1000, 4))
    w = rng.standard_normal((1000, 4))
    v_in, v_perp = s.project(v)
    w_in, w_perp = s.project(w)
    assert np.max(np.abs(v_in + v_perp - v)) < TOL
    # idempotence
    again_in, again_perp = s.project(v_in)
    assert np.max(np.abs(again_in - v_in)) < TOL
    assert np.max(np.abs(again_perp)) < TOL
    # orthogonality of the two components across arbitrary pairs
    assert np.max(np.abs(np.sum(v_in * w_perp, axis=1))) < 1e-11


def test_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        SubspaceR(np.array([[1.0, 1.0]]), 2)
    with pytest.raises(ValueError):
        SubspaceR(np.array([[1.0, 0.0], [1.0, 0.0]]), 2)


def test_span_orthonormalizes():
    s = SubspaceR.span(np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]]), dim=3)
    assert s.basis.shape == (2, 3)
    assert np.allclose(s.basis @ s.basis.T, np.eye(2), atol=TOL)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=3),
    st.integers(0, 2),
)
def test_projection_identities_hypothesis(vec, n_basis):
    rng = np.random.default_rng(12345)
    s = SubspaceR.span(rng.standard_normal((n_basis, 3)), dim=3) if n_basis else SubspaceR([], 3)
    v = np.array(vec)
    v_in, v_perp = s.project(v)
    scale = max(1.0, np.linalg.norm(v))
    assert np.linalg.norm(v_in + v_perp - v) < TOL * scale
    assert abs(np.dot(v_in, v_perp)) < 1e-9 * scale * scale


def test_membership_helpers():
    s = SubspaceR(np.eye(3)[:2], 3)
    assert s.contains(np.array([1.0, 2.0, 0.0]))
    assert not s.contains(np.array([1.0, 2.0, 0.1]))
    assert s.orthogonal_to(np.array([0.0, 0.0, 5.0]))
    assert not s.orthogonal_to(np.array([1e-3, 0.0, 5.0]))


def test_complement_direction_is_unit_and_orthogonal():
    s = SubspaceR.span(np.array([[1.0, 1.0, 0.0]]), dim=3)
    d = s.complement_direction()
    assert np.linalg.norm(d) == pytest.approx(1.0, abs=TOL)
    assert s.orthogonal_to(d, tol=TOL)
    with pytest.raises(ValueError):
        SubspaceR(np.eye(2), 2).complement_direction()


def test_projection_of_non_finite_vectors_is_a_range_error():
    sub = SubspaceR([[1.0, 0.0]], 2)
    for bad in ([np.inf, 0.0], [np.nan, 1.0]):
        with pytest.raises(NumericalRangeError, match="non-finite"):
            sub.project(np.array(bad))
