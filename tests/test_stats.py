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


def _np_std_reference(x, axis=0):
    n = x.shape[axis]
    m = np.mean(x, axis=axis)
    se = np.std(x, axis=axis, ddof=1) / np.sqrt(n)
    if np.any(se <= n * np.finfo(float).eps * np.abs(m)):
        se = se * (np.ptp(x, axis=axis) > 0)
    return m, se


def test_stderr_has_the_bits_of_np_std_in_a_fresh_or_in_place_buffer():
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    samples = [
        (np.column_stack([np.full(1000, 0.1), rng.standard_normal(1000), 5.0 + 1e-3 * rng.standard_normal(1000)]), 0),
        # two values symmetric about their mean: their squared deviations are
        # equal, but the range is not 0, so the range check must read the samples
        (np.array([[1.0 - eps, 0.1], [1.0 + eps, 0.1]]), 0),
        (rng.standard_normal(1001), 0),
        (np.full(7, 0.1), 0),
        (rng.standard_normal((3, 5, 257)), 2),
        (rng.standard_normal((40, 6)), 1),
    ]
    for x, axis in samples:
        m_ref, se_ref = _np_std_reference(x, axis)
        work = x.copy()
        for m, se in (mean_stderr(x, axis), mean_stderr(work, axis, refill=lambda: np.copyto(work, x))):
            assert np.array_equal(m, m_ref) and np.array_equal(se, se_ref)
    eps_row = mean_stderr(samples[1][0])[1]
    assert eps_row[0] == eps and eps_row[1] == 0.0


def test_t_stat_without_sampling_error():
    assert t_stat(1.0, 0.5) == 2.0
    assert t_stat(1e-12, 0.0) == 0.0
    assert t_stat(-1e-3, 0.0) == -np.inf
    assert np.array_equal(t_stat(np.array([1e-12, 1e-3]), np.array([0.0, 0.0])), [0.0, np.inf])


def test_deterministic_total_drift_is_detected():
    # every path loses the same amount: no sampling error, but the drift is real
    values = np.tile(np.linspace(1.0, 0.9, 5), (10, 1))
    report = interval_drift_report(lambda b0, b1: values[b0:b1], len(values), np.linspace(0.0, 1.0, 5))
    assert report.total_stderr == 0.0
    assert report.total_t == -np.inf
