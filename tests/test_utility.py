import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forward_yield import PowerUtility

from conjugation_oracles import numeric_biconjugate, numeric_fenchel


def test_power_eval_reference_point():
    u = PowerUtility(alpha=0.5)
    val, marg, second = u.value(1.0), u.marginal(1.0), u.second(1.0)
    assert val == pytest.approx(2.0, abs=1e-15)
    assert marg == pytest.approx(1.0, abs=1e-15)
    assert second == pytest.approx(-0.5, abs=1e-15)


def test_marginal_strictly_decreasing_and_inada():
    u = PowerUtility(alpha=0.3)
    x = np.geomspace(1e-6, 1e6, 200)
    marg = u.marginal(x)
    assert np.all(np.diff(marg) < 0)
    assert u.value(1e-12) < 1e-7          # u(0+) = 0
    assert u.marginal(1e-12) > 1e3        # u_x(0+) = +inf
    assert u.marginal(1e12) < 1e-3        # u_x(inf) = 0


def test_power_eval_rejects_nonpositive():
    u = PowerUtility(alpha=0.5)
    with pytest.raises(ValueError):
        u.value(0.0)
    with pytest.raises(ValueError):
        u.conjugate(-1.0)


def test_alpha_domain():
    with pytest.raises(ValueError):
        PowerUtility(alpha=1.0)
    with pytest.raises(ValueError):
        PowerUtility(alpha=0.0)
    with pytest.raises(ValueError):
        PowerUtility(alpha=1.5)


def test_conjugate_matches_dense_maximization_oracle():
    # oracle: maximize u(x) - x y over a dense grid, independent of the
    # closed form under test
    u = PowerUtility(alpha=0.5)
    x_dense = np.geomspace(1e-6, 1e6, 2_000_001)
    vals = u.value(x_dense)
    for y in (0.3, 1.0, 4.0):
        oracle = np.max(vals - x_dense * y)
        conj = u.conjugate(y)
        assert conj == pytest.approx(oracle, rel=1e-6)
    conj_at_one = u.conjugate(1.0)
    assert conj_at_one == pytest.approx(1.0, abs=1e-12)  # max of 2 sqrt(x) - x


def test_inverse_marginal_identity():
    u = PowerUtility(alpha=0.37)
    y = np.geomspace(1e-3, 1e3, 100)
    slope = -np.power(y, -1.0 / u.alpha)  # the conjugate's slope
    assert np.max(np.abs(u.marginal(-slope) / y - 1.0)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.05, 0.95),
    st.floats(1e-3, 1e3),
)
def test_inverse_marginal_identity_hypothesis(alpha, y):
    u = PowerUtility(alpha=alpha)
    x = np.power(y, -1.0 / u.alpha)  # minus the conjugate's slope
    assert u.marginal(x) == pytest.approx(y, rel=1e-10)


def test_biduality_closed_form():
    u = PowerUtility(alpha=0.5)
    for x in (0.2, 1.0, 7.0):
        y_star = u.marginal(x)  # the infimum of utilde(y) + x y sits at u_x(x)
        assert u.conjugate(y_star) + x * y_star == pytest.approx(u.value(x), rel=1e-12)
        y_dense = np.geomspace(y_star * 1e-3, y_star * 1e3, 100_001)
        assert np.min(u.conjugate(y_dense) + x * y_dense) == pytest.approx(u.value(x), rel=1e-9)


def test_numeric_fenchel_matches_closed_form():
    u = PowerUtility(alpha=0.5)
    x_grid = np.geomspace(1e-4, 1e4, 4000)
    y_grid = np.geomspace(0.1, 10.0, 200)
    numeric = numeric_fenchel(u.value, x_grid, y_grid)
    closed = u.conjugate(y_grid)
    assert np.max(np.abs(numeric.values / closed - 1.0)) < 1e-4
    assert numeric.convexity_defect() > -1e-9
    assert numeric.is_decreasing()


def test_numeric_fenchel_linear_utility_flat_objective():
    x_grid = np.geomspace(1e-3, 1e3, 1000)
    numeric = numeric_fenchel(lambda x: x, x_grid, np.array([1.0]))
    assert abs(numeric.values[0]) < 1e-12


def test_numeric_fenchel_flags_nonconcave():
    x_grid = np.linspace(0.1, 10.0, 200)
    with pytest.raises(ValueError):
        numeric_fenchel(lambda x: x**2, x_grid, np.array([1.0]))


def test_double_transform_recovers_utility():
    u = PowerUtility(alpha=0.4)
    x_grid = np.geomspace(1e-4, 1e4, 4000)
    y_grid = np.geomspace(1e-4, 1e4, 4000)
    conj = numeric_fenchel(u.value, x_grid, y_grid)
    x_mid = np.geomspace(0.1, 10.0, 50)
    recovered = numeric_biconjugate(conj, x_mid)
    assert np.max(np.abs(recovered / u.value(x_mid) - 1.0)) < 1e-3

