import numpy as np

from forward_yield.stats import interval_drift_report, mean_stderr, t_stat


def test_zero_range_sample_has_zero_stderr():
    # 0.1 does not sum exactly, so np.std of the constant column is rounding noise
    x = np.column_stack([np.full(1000, 0.1), np.linspace(0.0, 1.0, 1000)])
    _, se = mean_stderr(x)
    assert se[0] == 0.0 and se[1] > 0.0
    assert mean_stderr(np.full(7, 0.1))[1] == 0.0


def test_zero_range_row_along_the_last_axis_matches_per_row_calls():
    # a constant row trips the zero-range guard for the whole array; the
    # random row must keep its own stderr bit for bit
    x = np.stack([np.full(1000, 0.1), np.random.default_rng(5).standard_normal(1000)])
    m, se = mean_stderr(x, axis=1)
    for row, (m_row, se_row) in enumerate(zip(m, se)):
        assert (m_row, se_row) == mean_stderr(x[row])
    assert se[0] == 0.0 and se[1] > 0.0


def test_t_stat_without_sampling_error():
    assert t_stat(1.0, 0.5) == 2.0
    assert t_stat(1e-12, 0.0) == 0.0
    assert t_stat(-1e-3, 0.0) == -np.inf
    assert np.array_equal(t_stat(np.array([1e-12, 1e-3]), np.array([0.0, 0.0])), [0.0, np.inf])


def test_deterministic_total_drift_is_detected():
    # every path loses the same amount: no sampling error, but the drift is real
    values = np.tile(np.linspace(1.0, 0.9, 5), (10, 1))
    report = interval_drift_report(values, np.linspace(0.0, 1.0, 5))
    assert report.total_stderr == 0.0
    assert report.total_t == -np.inf
