"""Fixed log-spaced-bucket latency histograms: the serving distributions.

``/stats`` carried only counters; production observability needs
*distributions* — a p95 under load is the number an SLO is written
against, and a mean hides exactly the tail that matters.  This module
is the one histogram implementation every serving layer records into:

* :class:`LatencyHistogram` — the mutable recorder.  Bucket boundaries
  are **fixed and shared by every instance** (log-spaced,
  :data:`BUCKETS_PER_DECADE` per decade from :data:`BUCKET_MIN_S` to
  :data:`BUCKET_MAX_S`), which is what makes snapshots *mergeable*:
  merging is element-wise addition, no resampling, no bucket loss —
  the property the load generator relies on to fold its per-lane
  histograms into one all-lanes distribution.
* :class:`HistogramSnapshot` — the frozen point-in-time view with
  p50/p95/p99 derivable via :meth:`~HistogramSnapshot.quantile`
  (linear interpolation inside the landing bucket, so quantiles are
  deterministic functions of the counts alone) and
  :meth:`~HistogramSnapshot.merge` for aggregation.

Recording is lock-cheap: one plain ``threading.Lock`` held for a
single list-index increment — no allocation, no syscall.  The bucket
index itself is a binary search of the bounds, *outside* the lock.
``excluded`` counts requests deliberately kept out of the distribution
(deadline-expired requests are failed, never served, so their
"latency" is not a service latency and must not pollute the
quantiles); it rides along in snapshots and merges so
consumers can always reconcile ``served == count`` and
``expired == excluded`` per lane.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "BUCKET_BOUNDS_S",
    "BUCKET_MIN_S",
    "BUCKET_MAX_S",
    "BUCKETS_PER_DECADE",
    "HistogramSnapshot",
    "LatencyHistogram",
]

#: log-spaced bucket resolution: ratio between adjacent upper bounds is
#: ``10 ** (1 / BUCKETS_PER_DECADE)`` (~1.33x), i.e. quantiles are exact
#: to within one-third of the value — plenty for p50/p95/p99 reporting
BUCKETS_PER_DECADE = 8
#: first upper bound: 10 microseconds (scheduler waits on a warm lane)
BUCKET_MIN_S = 1e-5
#: last finite upper bound: 100 seconds (anything slower is "+Inf")
BUCKET_MAX_S = 1e2

_DECADES = round(math.log10(BUCKET_MAX_S / BUCKET_MIN_S))

#: the shared finite upper bounds, in seconds; every histogram also has
#: one extra overflow (+Inf) bucket, so ``len(counts) == len(bounds)+1``
BUCKET_BOUNDS_S: tuple[float, ...] = tuple(
    BUCKET_MIN_S * 10.0 ** (i / BUCKETS_PER_DECADE)
    for i in range(_DECADES * BUCKETS_PER_DECADE + 1)
)

_NUM_BUCKETS = len(BUCKET_BOUNDS_S) + 1  # + overflow


def bucket_index(seconds: float) -> int:
    """The bucket a latency of ``seconds`` lands in (0-based).

    Bucket ``i < len(BUCKET_BOUNDS_S)`` covers ``(bounds[i-1], bounds[i]]``
    (bucket 0 covers ``[0, bounds[0]]``); the last bucket is the +Inf
    overflow.  Bounds are *upper* edges, hence ``bisect_left``.
    """
    return bisect.bisect_left(BUCKET_BOUNDS_S, seconds)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable histogram state: counts per bucket, total, sum, excluded.

    ``counts`` is per-bucket (NOT cumulative) and always
    ``len(BUCKET_BOUNDS_S) + 1`` long — the final entry is the +Inf
    overflow bucket.  ``sum_s`` is the sum of every recorded latency in
    seconds; ``excluded`` counts requests kept out of the distribution
    (deadline-expired), see the module docstring.
    """

    counts: tuple[int, ...]
    count: int
    sum_s: float
    excluded: int = 0

    @classmethod
    def empty(cls) -> "HistogramSnapshot":
        return cls(counts=(0,) * _NUM_BUCKETS, count=0, sum_s=0.0, excluded=0)

    @classmethod
    def merge(cls, snapshots: Iterable["HistogramSnapshot"]) -> "HistogramSnapshot":
        """Element-wise sum of ``snapshots`` (empty iterable -> empty).

        Because bucket bounds are fixed and shared, merging loses
        nothing: merged ``count`` equals the sum of the inputs' counts,
        bucket by bucket.
        """
        counts = [0] * _NUM_BUCKETS
        total = 0
        sum_s = 0.0
        excluded = 0
        for snap in snapshots:
            if len(snap.counts) != _NUM_BUCKETS:
                raise ValueError(
                    f"cannot merge a snapshot with {len(snap.counts)} buckets "
                    f"into the shared {_NUM_BUCKETS}-bucket layout"
                )
            for i, c in enumerate(snap.counts):
                counts[i] += c
            total += snap.count
            sum_s += snap.sum_s
            excluded += snap.excluded
        return cls(
            counts=tuple(counts), count=total, sum_s=sum_s, excluded=excluded
        )

    def quantile(self, q: float) -> float:
        """The ``q``-quantile latency in seconds (0 for an empty histogram).

        Linear interpolation inside the landing bucket between its lower
        and upper bound; the overflow bucket reports its lower bound
        (``BUCKET_MAX_S``) — there is no finite upper edge to
        interpolate toward, and under-reporting a blown-out tail is the
        conservative direction for an alerting threshold.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cumulative + c >= target:
                if i >= len(BUCKET_BOUNDS_S):  # overflow bucket
                    return BUCKET_MAX_S
                lower = BUCKET_BOUNDS_S[i - 1] if i > 0 else 0.0
                upper = BUCKET_BOUNDS_S[i]
                fraction = (target - cumulative) / c
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += c
        return BUCKET_MAX_S  # unreachable when counts are consistent

    @property
    def p50_ms(self) -> float:
        return self.quantile(0.50) * 1e3

    @property
    def p95_ms(self) -> float:
        return self.quantile(0.95) * 1e3

    @property
    def p99_ms(self) -> float:
        return self.quantile(0.99) * 1e3

    @property
    def mean_ms(self) -> float:
        return (self.sum_s / self.count) * 1e3 if self.count else 0.0

    def as_dict(self) -> dict:
        """JSON view for ``/stats``: quantiles up front, buckets in full.

        ``le_ms``/``counts`` are parallel arrays (``le_ms`` has a final
        ``null`` for the +Inf overflow bucket) so a consumer can rebuild
        the exact distribution; ``p50_ms``/``p95_ms``/``p99_ms`` are
        pre-derived for humans and dashboards.
        """
        return {
            "count": self.count,
            "excluded": self.excluded,
            "sum_ms": self.sum_s * 1e3,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "le_ms": [bound * 1e3 for bound in BUCKET_BOUNDS_S] + [None],
            "counts": list(self.counts),
        }


class LatencyHistogram:
    """Thread-safe recorder over the shared log-spaced bucket layout.

    ``record`` is the hot-path method: bucket search outside the lock, a
    single increment inside it.
    """

    __slots__ = ("_lock", "_counts", "_count", "_sum_s", "_excluded")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = [0] * _NUM_BUCKETS
        self._count = 0
        self._sum_s = 0.0
        self._excluded = 0

    def record(self, seconds: float) -> None:
        """Record one latency observation (negative values clamp to 0)."""
        if seconds < 0.0:
            seconds = 0.0
        index = bucket_index(seconds)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum_s += seconds

    def exclude(self, n: int = 1) -> None:
        """Count ``n`` requests as deliberately outside the distribution."""
        with self._lock:
            self._excluded += n

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                counts=tuple(self._counts),
                count=self._count,
                sum_s=self._sum_s,
                excluded=self._excluded,
            )

    def __len__(self) -> int:
        with self._lock:
            return self._count
