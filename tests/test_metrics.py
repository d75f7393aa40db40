"""Coverage, Winkler score, and the two-stage metric aggregation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctsbench.conformal import IntervalMatrix
from ctsbench.metrics import (
    MetricRecord,
    aggregate,
    coverage_mask,
    joint_coverage,
    marginal_coverage,
    score_records,
    series_metrics,
    winkler,
    winkler_matrix,
)


def iv(lower, upper):
    return IntervalMatrix(lower=np.asarray(lower, dtype=np.float64), upper=np.asarray(upper, dtype=np.float64))


class TestCoverage:
    def test_two_of_three(self):
        m = iv([[0.0, 0.0, 0.0]], [[2.0, 2.0, 2.0]])
        assert marginal_coverage(m, [1.0, 3.0, 1.0]) == pytest.approx(2.0 / 3.0)

    def test_infinite_band_always_covers(self):
        m = iv([[-math.inf, -math.inf]], [[math.inf, math.inf]])
        assert marginal_coverage(m, [1e18, -1e18]) == 1.0

    def test_closed_endpoints(self):
        m = iv([[1.0]], [[2.0]])
        assert marginal_coverage(m, [1.0]) == 1.0
        assert marginal_coverage(m, [2.0]) == 1.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            lo = rng.standard_normal((1, 6))
            hi = lo + np.abs(rng.standard_normal((1, 6)))
            y = rng.standard_normal(6)
            c = float(rng.standard_normal())
            base = coverage_mask(iv(lo, hi), y)
            moved = coverage_mask(iv(lo + c, hi + c), y + c)
            assert np.array_equal(base, moved)

    def test_joint_coverage(self):
        full = iv([[0.0] * 12], [[2.0] * 12])
        assert joint_coverage(full, [1.0] * 12) == 1
        one_breach = [1.0] * 12
        one_breach[6] = 5.0
        assert joint_coverage(full, one_breach) == 0

    def test_joint_equals_marginal_at_h1(self):
        m = iv([[0.0]], [[2.0]])
        for y in (1.0, 5.0):
            assert joint_coverage(m, [y]) == int(marginal_coverage(m, [y]))

    def test_shape_mismatch_rejected(self):
        m = iv([[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError, match="shape"):
            marginal_coverage(m, [1.0, 2.0, 3.0])


class TestWinkler:
    def test_covered_equals_width(self):
        assert winkler((0.0, 2.0), 1.0, 0.1) == 2.0

    def test_breach_below(self):
        # width 2 plus (2/0.1) * distance 1
        assert winkler((0.0, 2.0), -1.0, 0.1) == pytest.approx(22.0)

    def test_breach_above(self):
        assert winkler((0.0, 2.0), 3.0, 0.1) == pytest.approx(22.0)

    def test_crossed_interval_rejected(self):
        with pytest.raises(ValueError):
            winkler((2.0, 0.0), 1.0, 0.1)

    def test_score_at_least_width_equality_iff_covered(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            lo = float(rng.standard_normal())
            hi = lo + float(np.abs(rng.standard_normal()))
            y = float(rng.standard_normal() * 2.0)
            alpha = float(rng.uniform(0.02, 0.5))
            s = winkler((lo, hi), y, alpha)
            w = hi - lo
            assert s >= w - 1e-12
            if lo <= y <= hi:
                assert s == pytest.approx(w)
            else:
                assert s > w

    def test_breach_slope_is_two_over_alpha(self):
        # finite-difference derivative outside the interval
        eps = 1e-6
        for alpha in (0.05, 0.1, 0.3):
            for y in (-3.0, 4.0):
                s1 = winkler((0.0, 2.0), y, alpha)
                y2 = y - eps if y < 0 else y + eps
                s2 = winkler((0.0, 2.0), y2, alpha)
                slope = (s2 - s1) / eps
                assert slope == pytest.approx(2.0 / alpha, abs=1e-9 / eps * 1e-6 + 1e-6)

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(2)
        lo = rng.standard_normal((2, 4))
        hi = lo + np.abs(rng.standard_normal((2, 4)))
        y = rng.standard_normal((2, 4))
        m = winkler_matrix(iv(lo, hi), y, 0.1)
        for i in range(2):
            for j in range(4):
                assert m[i, j] == pytest.approx(winkler((lo[i, j], hi[i, j]), y[i, j], 0.1))


class TestSeriesMetrics:
    def test_horizon_means(self):
        m = iv([[0.0, 0.0]], [[2.0, 2.0]])
        rec = series_metrics("s", "mscp", m, [1.0, 5.0], 0.1)
        assert rec.marginal_coverage == 0.5
        assert rec.mean_width == 2.0
        assert rec.joint_coverage == 0
        assert rec.n_cells == 2
        assert rec.winkler == pytest.approx((2.0 + 62.0) / 2.0)

    def test_per_horizon_mean_example(self):
        # two horizons covering (always, half): series coverage 0.75
        m = iv([[0.0, 0.0], [0.0, 0.0]], [[2.0, 2.0], [2.0, 2.0]])
        rec = series_metrics("s", "m", m, [[1.0, 1.0], [1.0, 5.0]], 0.1)
        assert rec.marginal_coverage == 0.75

    def test_infinite_cells_excluded_from_width(self):
        m = iv([[-math.inf, 0.0]], [[math.inf, 2.0]])
        rec = series_metrics("s", "m", m, [0.0, 1.0], 0.1)
        assert rec.infinite_cells == 1
        assert rec.mean_width == 2.0
        assert rec.marginal_coverage == 1.0

    def test_all_infinite_gives_nan_width(self):
        m = iv([[-math.inf]], [[math.inf]])
        rec = series_metrics("s", "m", m, [0.0], 0.1)
        assert math.isnan(rec.mean_width) and math.isnan(rec.winkler)
        assert rec.infinite_cells == 1

    def test_record_validation(self):
        with pytest.raises(ValueError):
            MetricRecord("s", "m", 1.2, 1.0, 1.0, 1, 0, 1)
        with pytest.raises(ValueError):
            MetricRecord("s", "m", 0.5, 1.0, 1.0, 2, 0, 1)


def one_record(series_id, method, intervals, truth, alpha):
    """Reference: one record's metrics from its own mask, widths and scores."""
    covered = coverage_mask(intervals, truth)
    widths = intervals.width
    finite = np.isfinite(widths)
    scores = winkler_matrix(intervals, truth, alpha)
    n_inf = int((~finite).sum())
    mean_width = float(widths[finite].mean()) if finite.any() else math.nan
    mean_winkler = float(scores[finite].mean()) if finite.any() else math.nan
    return MetricRecord(
        series_id=series_id,
        method=method,
        marginal_coverage=float(covered.mean()),
        mean_width=mean_width,
        winkler=mean_winkler,
        joint_coverage=int(bool(covered.all())),
        infinite_cells=n_inf,
        n_cells=int(widths.size),
    )


@st.composite
def record_stacks(draw):
    """Interval matrices of one or two shapes, with finite, half-infinite
    and fully infinite cells, some rows all infinite, and truths inside
    and outside; truths of one-row matrices are drawn 1-D or 2-D."""
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 40)), min_size=1, max_size=2))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inf_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    intervals, truths = {}, []
    for i in range(n):
        shape = shapes[int(rng.integers(len(shapes)))]
        scale = 10.0 ** rng.uniform(-3, 3)
        lo = scale * rng.standard_normal(shape)
        hi = lo + scale * rng.exponential(size=shape)
        lo[rng.random(shape) < inf_share] = -math.inf
        hi[rng.random(shape) < inf_share] = math.inf
        if rng.random() < 0.1:
            lo[:], hi[:] = -math.inf, math.inf
        truth = scale * 1.5 * rng.standard_normal(shape)
        intervals[f"s{i}"] = IntervalMatrix(lower=lo, upper=hi)
        truths.append(truth[0] if shape[0] == 1 and rng.random() < 0.5 else truth)
    alpha = draw(st.floats(0.01, 0.99))
    return intervals, truths, alpha


class TestScoreRecords:
    @settings(max_examples=150, deadline=None)
    @given(record_stacks())
    def test_each_record_is_the_lone_records(self, stack):
        intervals, truths, alpha = stack
        records = score_records("m", intervals, truths, alpha)
        expected = [one_record(sid, "m", iv, y, alpha) for (sid, iv), y in zip(intervals.items(), truths)]
        assert [repr(r) for r in records] == [repr(r) for r in expected]
        assert records == expected  # NaN means are the math.nan object, as a lone record's are

    @settings(max_examples=50, deadline=None)
    @given(record_stacks(), st.randoms(use_true_random=False))
    def test_permuted_input_permutes_the_records(self, stack, rnd):
        intervals, truths, alpha = stack
        order = list(range(len(intervals)))
        rnd.shuffle(order)
        ids = list(intervals)
        records = score_records("m", intervals, truths, alpha)
        permuted = score_records("m", {ids[i]: intervals[ids[i]] for i in order}, [truths[i] for i in order], alpha)
        assert [repr(r) for r in permuted] == [repr(records[i]) for i in order]

    def test_series_metrics_is_the_one_record_case(self):
        m = iv([[0.0, -math.inf, 1.0]], [[2.0, 3.0, 1.5]])
        rec = series_metrics("s", "m", m, [1.0, 4.0, 3.0], 0.2)
        assert repr(rec) == repr(score_records("m", {"s": m}, [[1.0, 4.0, 3.0]], 0.2)[0])
        assert score_records("m", {}, [], 0.2) == []

    def test_each_record_is_the_validated_record(self):
        intervals = {
            "a": iv([[0.0, 1.0, -math.inf]], [[2.0, 1.5, 0.0]]),
            "b": iv([[-math.inf, -math.inf]], [[math.inf, math.inf]]),
            "c": iv([[0.0, 0.0, 0.0]], [[1.0, 1.0, 1.0]]),
        }
        records = score_records("m", intervals, [[1.0, 2.0, -1.0], [0.0, 0.0], [0.5, 0.5, 0.5]], 0.1)
        for r in records:
            assert r == MetricRecord(**dataclasses.asdict(r))
            assert type(r.joint_coverage) is int
        assert [r.joint_coverage for r in records] == [0, 1, 1]

    @pytest.mark.parametrize(
        "truths, alpha, match",
        [
            ([[1.0, 2.0], [1.0, 2.0, 3.0]], 0.1, "truth shape"),
            ([[1.0, 2.0], [1.0, math.nan]], 0.1, "finite"),
            ([[1.0, 2.0], [1.0, 2.0]], 1.0, "alpha"),
            ([[1.0, 2.0]], 0.1, "1 truths for 2"),
        ],
    )
    def test_bad_input_rejected(self, truths, alpha, match):
        m = iv([[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError, match=match):
            score_records("m", {"a": m, "b": m}, truths, alpha)


class TestAggregate:
    def test_unweighted_mean_over_series(self):
        recs = [
            MetricRecord("a", "m", 1.0, 2.0, 3.0, 1, 0, 4),
            MetricRecord("b", "m", 0.5, 4.0, 5.0, 0, 0, 4),
        ]
        out = aggregate(recs)
        assert out["m"].coverage == 0.75
        assert out["m"].width == 3.0
        assert out["m"].winkler == 4.0
        assert out["m"].joint_coverage == 0.5
        assert out["m"].n_series == 2

    def test_nan_width_filtered_but_coverage_kept(self):
        recs = [
            MetricRecord("a", "m", 1.0, math.nan, math.nan, 1, 3, 3),
            MetricRecord("b", "m", 0.0, 2.0, 2.0, 0, 0, 3),
        ]
        out = aggregate(recs)
        assert out["m"].coverage == 0.5
        assert out["m"].width == 2.0
        assert out["m"].infinite_cells == 3

    def test_methods_sorted(self):
        recs = [
            MetricRecord("a", "zeta", 1.0, 1.0, 1.0, 1, 0, 1),
            MetricRecord("a", "alpha", 1.0, 1.0, 1.0, 1, 0, 1),
        ]
        assert list(aggregate(recs)) == ["alpha", "zeta"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
