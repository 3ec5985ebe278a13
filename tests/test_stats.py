import functools
import warnings

import numpy as np

from forward_yield.backward import HorizonGap
from forward_yield.brownian import _BLOCK, stream_blocks
from forward_yield.stats import (
    DriftReport,
    Moments,
    control_variate_estimate,
    interval_drift_report,
    linear_drift_reports,
    mean_stderr,
    merge,
    moments,
    t_stat,
)


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


def _merged(x, sizes, axis=0):
    """Moments of x's blocks of the given sizes along axis, merged in order."""
    bounds = np.cumsum([0, *sizes])
    assert bounds[-1] == x.shape[axis]
    parts = [moments(np.take(x, np.arange(b0, b1), axis=axis), axis) for b0, b1 in zip(bounds[:-1], bounds[1:])]
    return functools.reduce(Moments.merge, parts)


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
        before = x.copy()
        # mean_stderr, and the moments of x as one block merged with nothing
        for m, se in (mean_stderr(x, axis), _merged(x, [x.shape[axis]], axis).estimate()):
            assert np.array_equal(m, m_ref) and np.array_equal(se, se_ref)
        assert np.array_equal(x, before)
    eps_row = mean_stderr(samples[1][0])[1]
    assert eps_row[0] == eps and eps_row[1] == 0.0


def test_merged_blocks_match_the_whole_array():
    # blocks of unequal sizes, the last of one row, against one two-pass
    # reduction, for drifts some standard errors from 0 on several scales
    rng = np.random.default_rng(11)
    scale = np.array([1e-6, 1e-3, 1.0, 1e3, 1e6])
    x = scale * (rng.standard_normal((4 * 1000 + 1, 5)) + np.array([0.0, 0.01, 0.05, 0.1, -0.1]))
    m_ref, se_ref = mean_stderr(x)
    for sizes in ([1000] * 4 + [1], [1, 2500, 1499, 1], [4001]):
        m, se = _merged(x, sizes).estimate()
        assert np.max(np.abs(m / se - m_ref / se_ref)) <= 1e-12
        assert np.max(np.abs(se / se_ref - 1.0)) <= 1e-12


def test_moments_merge_the_stream_blocks_in_order():
    # three stream blocks, the last of one row: a whole sample gets the bits
    # of the in-order merge of its blocks' moments along either axis, and its
    # zero-range column keeps stderr exactly 0
    n = 2 * _BLOCK + 1
    x = np.random.default_rng(8).standard_normal((n, 3)) * [1.0, 1e3, 0.0] + [0.0, 5.0, 0.1]
    sizes = [b1 - b0 for b0, b1 in stream_blocks(n)]
    for sample, axis in ((x, 0), (np.ascontiguousarray(x.T), 1)):
        whole = moments(sample, axis)
        for a, b in zip(whole, _merged(sample, sizes, axis)):
            assert np.array_equal(a, b, equal_nan=True)
        _, se = whole.estimate()
        assert se[2] == 0.0 and np.all(se[:2] > 0.0)


def test_one_row_block_divides_by_nothing():
    x = np.random.default_rng(2).standard_normal((9, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        one = moments(x[:1])
        assert one.n == 1 and not one.m2.any() and np.array_equal(one.const, x[0])
        m, se = _merged(x, [8, 1]).estimate()
    assert np.all(se > 0)


def test_one_sample_has_zero_stderr_and_divides_by_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m, se = mean_stderr(np.array([0.7]))
    assert m == 0.7 and se == 0.0


def test_column_equal_on_every_path_across_blocks_has_zero_stderr():
    # blocks of different sizes round the mean of 0.1 differently, but the
    # column has zero range, so its stderr is exactly 0
    n = 3 * _BLOCK + 1
    x = np.column_stack([np.full(n, 0.1), np.random.default_rng(4).standard_normal(n)])
    _, se = _merged(x, [_BLOCK, _BLOCK, _BLOCK, 1]).estimate()
    assert se[0] == 0.0 and se[1] > 0.0
    # the same value in every block but one, which has zero range too
    x[_BLOCK : 2 * _BLOCK, 0] = 0.2
    _, se = _merged(x, [_BLOCK, _BLOCK, _BLOCK, 1]).estimate()
    assert se[0] > 0.0


def test_merge_keeps_a_nan_in_either_block():
    # a max over paths is np.maximum, which keeps a nan where Python's max may drop it
    gap = HorizonGap(1e-3, 2e-3, 1e-12)
    nan = gap._replace(max_rel_gap_x=np.nan, predicted_gap_residual=np.nan)
    for merged in (merge(gap, nan), merge(nan, gap)):
        assert isinstance(merged, HorizonGap)
        assert np.isnan(merged.max_rel_gap_x) and np.isnan(merged.predicted_gap_residual)
        assert merged.max_rel_gap_y == 2e-3


def test_merge_of_none_keeps_block_0s_value():
    # a value only block 0 computes is None in every later block
    head = (0.5, [1.0, 2.0])
    assert merge(head, None) is head
    x = np.random.default_rng(5).standard_normal(9)
    merged = merge((moments(x[:4]), head), (moments(x[4:]), None))
    assert merged[1] is head
    assert merge(None, None) is None


def test_merge_rebuilds_a_named_tuple_field_by_field():
    # a list and a NamedTuple keep their types; Moments, a NamedTuple with a
    # merge method, merges by that method and not field by field
    merged = merge([HorizonGap(1.0, 5.0, 3.0), 0.25], [HorizonGap(4.0, 2.0, 3.0), 0.5])
    assert type(merged) is list and type(merged[0]) is HorizonGap
    assert merged == [(4.0, 5.0, 3.0), 0.5]
    x = np.random.default_rng(6).standard_normal((7, 2))
    a, b = moments(x[:3]), moments(x[3:])
    for u, v in zip(merge((a,), (b,))[0], a.merge(b)):
        assert np.array_equal(u, v, equal_nan=True)
    assert merge((a,), (b,))[0].n == 7


def test_t_stat_without_sampling_error():
    assert t_stat(1.0, 0.5) == 2.0
    assert t_stat(1e-12, 0.0) == 0.0
    assert t_stat(-1e-3, 0.0) == -np.inf
    assert np.array_equal(t_stat(np.array([1e-12, 1e-3]), np.array([0.0, 0.0])), [0.0, np.inf])


def test_deterministic_total_drift_is_detected():
    # every path loses the same amount: no sampling error, but the drift is real
    # in one block of the streams, and in three merged blocks
    for n in (10, 2 * _BLOCK + 1):
        values = np.tile(np.linspace(1.0, 0.9, 5), (n, 1))
        blocks = (interval_drift_report(values[b0:b1]) for b0, b1 in stream_blocks(n))
        report = functools.reduce(DriftReport.merge, blocks)
        assert report.total_stderr == 0.0 and not report.interval_stderr.any()
        assert report.total_t == -np.inf


def test_linear_drift_reports_match_the_increments():
    # each row's moments from the column moments of v against the moments
    # of its own increments a v_{k+1} - b v_k and totals
    rng = np.random.default_rng(15)
    values = np.exp(np.cumsum(0.2 * rng.standard_normal((3000, 6)), axis=1))
    a, b = 1.0 + 0.1 * rng.random((3, 5)), 1.0 - 0.1 * rng.random((3, 5))
    for r, report in enumerate(linear_drift_reports(values, a, b)):
        increments = a[r] * values[:, 1:] - b[r] * values[:, :-1]
        mean, se = mean_stderr(increments)
        assert np.allclose(report.interval_drift, mean, rtol=1e-12, atol=0.0)
        assert np.allclose(report.interval_stderr, se, rtol=1e-12, atol=0.0)
        total, total_se = mean_stderr(increments.sum(axis=1))
        assert abs(report.total_drift / total - 1.0) < 1e-12 and abs(report.total_stderr / total_se - 1.0) < 1e-12
    plain = interval_drift_report(values)
    mean, se = mean_stderr(np.diff(values, axis=1))
    assert np.allclose(plain.interval_drift, mean, rtol=1e-12, atol=0.0)
    assert np.allclose(plain.interval_stderr, se, rtol=1e-12, atol=0.0)


def test_linear_drift_reports_with_zero_range_columns():
    # a column equal on every path has zero range, and so has each increment
    # and total of columns that all have zero range
    rng = np.random.default_rng(16)
    values = np.tile(np.array([1.0, 0.99, 0.98, 0.97]), (500, 1))
    values[:, 3] += 0.01 * rng.standard_normal(500)
    a, b = np.full((1, 3), 1.01), np.full((1, 3), 0.99)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (report,) = linear_drift_reports(values, a, b)
        assert np.array_equal(report.interval_stderr == 0.0, [True, True, False])
        assert report.total_stderr > 0.0
        (flat,) = linear_drift_reports(values[:, :3], a[:, :2], b[:, :2])
    assert flat.total_stderr == 0.0 and flat.total_t == np.inf


# ---------------------------------------------------------------------------
# control variates


def _bits(estimate):
    return tuple(np.asarray(v).tobytes() for v in estimate)


def test_control_variate_matches_the_regression_estimator():
    # y = 2 + 3 c + noise with E[c] = 0.5 known: ybar - beta (cbar - 0.5),
    # beta the least-squares slope, stderr the residual sd (n - 2) over sqrt(n)
    rng = np.random.default_rng(11)
    c = rng.random(5000)
    y = 2.0 + 3.0 * c + 0.01 * rng.standard_normal(5000)
    (mean, se), plain = control_variate_estimate(y, c, 0.5)
    beta, intercept = np.polyfit(c, y, 1)
    resid = y - (intercept + beta * c)
    assert abs(mean - (intercept + beta * 0.5)) < 1e-12
    assert abs(se - np.sqrt(resid @ resid / 4998) / np.sqrt(5000)) < 1e-9 * se
    assert _bits(plain) == _bits(mean_stderr(y))
    assert se < plain.stderr / 50


def test_control_variate_reduces_each_row_of_the_last_axis_alone():
    rng = np.random.default_rng(12)
    c = rng.random((3, 4, 200))
    y = np.exp(c) + 0.1 * rng.standard_normal(c.shape)
    (mean, se), _ = control_variate_estimate(y, c, 0.5)
    assert mean.shape == se.shape == (3, 4)
    for i, j in np.ndindex(3, 4):
        row, _ = control_variate_estimate(y[i, j], c[i, j], 0.5)
        assert abs(mean[i, j] - row.mean) < 1e-14 and abs(se[i, j] - row.stderr) < 1e-14 * row.stderr
    # a control shared by the rows broadcasts along the last axis
    shared, _ = control_variate_estimate(y[:, 0], c[0, 0], 0.5)
    assert abs(shared.mean[0] - control_variate_estimate(y[0, 0], c[0, 0], 0.5)[0].mean) < 1e-14


def test_control_variate_with_zero_range_control_is_the_plain_estimate():
    # a constant rate state, or M = 1 on every path: nothing to fit, and
    # no zero spread divided by
    y = np.random.default_rng(13).standard_normal((2, 500))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (np.full(500, 0.1), np.ones((2, 500))):
            controlled, plain = control_variate_estimate(y, c, 0.1)
            assert _bits(controlled) == _bits(plain) == _bits(mean_stderr(y, axis=-1))


def test_control_variate_flat_in_some_rows_only():
    # the control is flat for the first row alone: that row keeps the plain
    # bits, the other its regression estimate
    rng = np.random.default_rng(14)
    c = np.stack([np.ones(300), rng.random(300)])
    y = c + 0.01 * rng.standard_normal((2, 300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (mean, se), _ = control_variate_estimate(y, c, np.array([1.0, 0.5]))
    assert _bits((mean[0], se[0])) == _bits(mean_stderr(y[0]))
    assert _bits((mean[1], se[1])) == _bits(control_variate_estimate(y[1], c[1], 0.5)[0])


def test_control_variate_below_three_samples_is_the_plain_estimate():
    # a slope and a mean leave no degree of freedom with n = 2
    y = np.array([[0.3, 0.7], [1.0, 1.5]])
    c = np.array([[0.1, 0.2], [0.4, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        controlled, plain = control_variate_estimate(y, c, 0.0)
    assert _bits(controlled) == _bits(plain) == _bits(mean_stderr(y, axis=-1))
