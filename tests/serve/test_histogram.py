"""The shared latency histogram: buckets, quantiles, merge, thread safety.

The whole observability story rests on two properties pinned here:
bucket bounds are *fixed and shared* (so merging snapshots is lossless
element-wise addition — the router's cross-generation invariant), and
quantiles are deterministic functions of the counts alone (so client-
and server-side p95s computed from the same buckets agree exactly).
"""

from __future__ import annotations

import threading

import pytest

from repro.serve.histogram import (
    BUCKET_BOUNDS_S,
    BUCKET_MAX_S,
    BUCKET_MIN_S,
    BUCKETS_PER_DECADE,
    HistogramSnapshot,
    LatencyHistogram,
    bucket_index,
)

NUM_BUCKETS = len(BUCKET_BOUNDS_S) + 1  # + overflow


class TestBucketLayout:
    def test_bounds_are_log_spaced_and_cover_the_range(self):
        assert BUCKET_BOUNDS_S[0] == pytest.approx(BUCKET_MIN_S)
        assert BUCKET_BOUNDS_S[-1] == pytest.approx(BUCKET_MAX_S)
        ratio = 10.0 ** (1.0 / BUCKETS_PER_DECADE)
        for lo, hi in zip(BUCKET_BOUNDS_S, BUCKET_BOUNDS_S[1:]):
            assert hi / lo == pytest.approx(ratio, rel=1e-9)

    def test_bounds_strictly_increasing(self):
        assert list(BUCKET_BOUNDS_S) == sorted(set(BUCKET_BOUNDS_S))

    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (0.0, 0),
            (-1.0, 0),  # record() clamps, bucket_index must not blow up
            (BUCKET_MIN_S, 0),
            (BUCKET_MAX_S * 10, NUM_BUCKETS - 1),
            (float("inf"), NUM_BUCKETS - 1),
        ],
    )
    def test_edge_inputs(self, seconds, expected):
        assert bucket_index(seconds) == expected

    def test_every_bound_lands_in_its_own_bucket(self):
        """Upper edges are inclusive: bucket i covers (bounds[i-1], bounds[i]]."""
        for i, bound in enumerate(BUCKET_BOUNDS_S):
            assert bucket_index(bound) == i

    def test_values_just_past_a_bound_land_in_the_next_bucket(self):
        for i, bound in enumerate(BUCKET_BOUNDS_S[:-1]):
            assert bucket_index(bound * 1.000001) == i + 1

    def test_interior_points_respect_the_invariant(self):
        """Dense sweep: bucket_index(s) always satisfies lo < s <= hi."""
        import math

        steps = 2000
        lo_log = math.log10(BUCKET_MIN_S / 3)
        hi_log = math.log10(BUCKET_MAX_S * 3)
        for k in range(steps + 1):
            s = 10.0 ** (lo_log + (hi_log - lo_log) * k / steps)
            index = bucket_index(s)
            if index == NUM_BUCKETS - 1:
                assert s > BUCKET_BOUNDS_S[-1]
                continue
            assert s <= BUCKET_BOUNDS_S[index]
            if index > 0:
                assert s > BUCKET_BOUNDS_S[index - 1]


class TestRecorder:
    def test_record_and_snapshot(self):
        hist = LatencyHistogram()
        hist.record(0.001)
        hist.record(0.002)
        hist.record(0.5)
        snap = hist.snapshot()
        assert snap.count == 3 == len(hist)
        assert snap.sum_s == pytest.approx(0.503)
        assert sum(snap.counts) == 3
        assert len(snap.counts) == NUM_BUCKETS

    def test_negative_latency_clamps_to_zero(self):
        hist = LatencyHistogram()
        hist.record(-5.0)
        snap = hist.snapshot()
        assert snap.counts[0] == 1
        assert snap.sum_s == 0.0

    def test_exclude_counts_without_polluting_quantiles(self):
        hist = LatencyHistogram()
        hist.record(0.001)
        hist.exclude(3)
        snap = hist.snapshot()
        assert snap.excluded == 3
        assert snap.count == 1  # excluded requests never enter the buckets
        assert sum(snap.counts) == 1

    def test_concurrent_recording_loses_nothing(self):
        """8 threads x 500 records under contention: exact totals."""
        hist = LatencyHistogram()
        per_thread = 500
        values = [1e-4 * (1 + i % 50) for i in range(per_thread)]

        def pound():
            for v in values:
                hist.record(v)

        threads = [threading.Thread(target=pound) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = hist.snapshot()
        assert snap.count == 8 * per_thread
        assert sum(snap.counts) == 8 * per_thread
        assert snap.sum_s == pytest.approx(8 * sum(values))


class TestSnapshot:
    def test_empty_snapshot(self):
        snap = HistogramSnapshot.empty()
        assert snap.count == 0
        assert snap.quantile(0.5) == 0.0
        assert snap.p50_ms == 0.0
        assert snap.mean_ms == 0.0

    def test_quantile_bounds_the_recorded_value(self):
        """Any quantile of a single-value histogram lies in its bucket."""
        hist = LatencyHistogram()
        hist.record(0.0123)
        snap = hist.snapshot()
        i = bucket_index(0.0123)
        lower = BUCKET_BOUNDS_S[i - 1]
        upper = BUCKET_BOUNDS_S[i]
        for q in (0.0, 0.5, 0.95, 1.0):
            assert lower <= snap.quantile(q) <= upper

    def test_quantiles_are_monotone_in_q(self):
        hist = LatencyHistogram()
        for i in range(100):
            hist.record(1e-4 * (i + 1))
        snap = hist.snapshot()
        qs = [snap.quantile(q / 20) for q in range(21)]
        assert qs == sorted(qs)

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="quantile"):
            HistogramSnapshot.empty().quantile(1.5)

    def test_overflow_quantile_reports_the_last_finite_bound(self):
        hist = LatencyHistogram()
        hist.record(BUCKET_MAX_S * 50)
        assert hist.snapshot().quantile(0.99) == BUCKET_MAX_S

    def test_as_dict_shape(self):
        hist = LatencyHistogram()
        hist.record(0.01)
        hist.exclude()
        payload = hist.snapshot().as_dict()
        assert set(payload) == {
            "count", "excluded", "sum_ms", "mean_ms",
            "p50_ms", "p95_ms", "p99_ms", "le_ms", "counts",
        }
        assert payload["count"] == 1
        assert payload["excluded"] == 1
        assert len(payload["le_ms"]) == len(payload["counts"]) == NUM_BUCKETS
        assert payload["le_ms"][-1] is None  # the +Inf overflow bucket


class TestMerge:
    def test_merge_is_elementwise_addition(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        for i in range(40):
            a.record(1e-3 * (i + 1))
        for i in range(25):
            b.record(5e-2 * (i + 1))
        b.exclude(2)
        sa, sb = a.snapshot(), b.snapshot()
        merged = HistogramSnapshot.merge((sa, sb))
        assert merged.count == sa.count + sb.count
        assert merged.excluded == sa.excluded + sb.excluded
        assert merged.sum_s == pytest.approx(sa.sum_s + sb.sum_s)
        for i in range(NUM_BUCKETS):
            assert merged.counts[i] == sa.counts[i] + sb.counts[i]

    def test_merge_of_nothing_is_empty(self):
        assert HistogramSnapshot.merge(()) == HistogramSnapshot.empty()

    def test_merge_is_associative(self):
        snaps = []
        for k in range(3):
            hist = LatencyHistogram()
            for i in range(10 + k):
                hist.record(1e-4 * (i + 1) * (k + 1))
            snaps.append(hist.snapshot())
        left = HistogramSnapshot.merge(
            (HistogramSnapshot.merge(snaps[:2]), snaps[2])
        )
        right = HistogramSnapshot.merge(
            (snaps[0], HistogramSnapshot.merge(snaps[1:]))
        )
        assert left.counts == right.counts
        assert left.count == right.count
        assert left.sum_s == pytest.approx(right.sum_s)

    def test_merged_quantiles_bracket_the_inputs(self):
        """Merging cannot move a quantile outside the inputs' envelope."""
        fast, slow = LatencyHistogram(), LatencyHistogram()
        for _ in range(100):
            fast.record(1e-3)
            slow.record(1e-1)
        merged = HistogramSnapshot.merge((fast.snapshot(), slow.snapshot()))
        assert fast.snapshot().p50_ms <= merged.p50_ms <= slow.snapshot().p50_ms
        assert merged.p95_ms <= slow.snapshot().p95_ms

    def test_merge_rejects_foreign_bucket_layout(self):
        alien = HistogramSnapshot(counts=(1, 2, 3), count=6, sum_s=1.0)
        with pytest.raises(ValueError, match="bucket"):
            HistogramSnapshot.merge((HistogramSnapshot.empty(), alien))
