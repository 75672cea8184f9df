"""Priority-lane scheduler: the queueing/coalescing policy of the request path.

The :class:`Scheduler` owns every decision about *which* queued requests
leave together and *which* traffic class gets served first:

* **Named priority lanes.**  Each :class:`LaneConfig` is an independent
  FIFO with its own ``max_batch`` (rows per dispatched batch),
  ``max_wait_ms`` (urgency bound — see below), ``weight`` (drain share)
  and ``queue_depth`` (backpressure bound).  Batches never mix lanes:
  an ``interactive`` batch is sized by the interactive lane's knobs, a
  ``bulk`` batch by the bulk lane's.
* **Work-conserving coalescing.**  :meth:`Scheduler.next_batch` never
  holds a batch open: it pops the chosen lane's queued FIFO prefix (up
  to ``max_batch`` rows) and returns at once.  The caller is an idle
  executor, so a lone request is dispatched the moment it is queued;
  requests coalesce only while every executor is busy and parts pile
  up in their lanes.
* **Weighted anti-starvation draining.**  When several lanes hold work,
  the scheduler serves the lane with the smallest *virtual time* —
  stride scheduling: serving ``rows`` advances a lane's clock by
  ``rows / weight``, so a weight-4 lane drains 4 rows for every 1 a
  weight-1 lane drains, and an idle lane's clock is floored to the
  busy lanes' so it cannot bank unbounded credit.
* **Urgency preemption.**  A lane whose *oldest* queued item has waited
  longer than the lane's own ``max_wait_ms`` is *urgent* and is served
  before any weighted choice (the most overdue first).  This is the
  bound the serving layer advertises: an interactive request's
  scheduling delay is governed by the interactive lane's
  ``max_wait_ms``, never by the bulk lane's.
* **Deadlines fail loudly.**  ``put(..., deadline=...)`` attaches an
  absolute ``time.monotonic()`` deadline; an item still queued when it
  passes is *never served late* — it is removed (mid-queue included)
  and handed to the ``on_expired`` callback, and counted per lane in
  :meth:`stats`.

Within a lane, items leave in FIFO order and are never split (an item
that would overflow the batch waits for the next one); ``put`` is
bounded and applies backpressure; an empty poll window returns an
empty heartbeat batch; and close is drain-then-stop.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Generic, Protocol, Sequence, TypeVar

from .histogram import HistogramSnapshot, LatencyHistogram

__all__ = [
    "Batchable",
    "LaneConfig",
    "LaneStats",
    "ScheduledBatch",
    "Scheduler",
]


class Batchable(Protocol):
    """Anything the scheduler can coalesce: exposes its row count."""

    @property
    def rows(self) -> int: ...


ItemT = TypeVar("ItemT", bound=Batchable)


@dataclass(frozen=True)
class LaneConfig:
    """One named traffic class inside a :class:`Scheduler`.

    ``max_batch`` / ``max_wait_ms`` / ``queue_depth`` may be ``None``
    when the lane is declared inside a
    :class:`~repro.serve.types.ServeConfig`, meaning "inherit the
    server-wide knob" — :meth:`resolved` fills them in.  A
    :class:`Scheduler` only accepts fully resolved lanes.

    ``max_wait_ms`` is the lane's urgency bound: once the lane's oldest
    queued item has waited longer than that, the lane is served before
    any weighted choice.  It never delays a dispatch.

    ``weight`` is the lane's drain share relative to its peers: under
    contention a weight-4 lane is handed ~4 rows for every row a
    weight-1 lane gets (exact in the long run, bursty per batch since
    batches never mix lanes).
    """

    name: str
    max_batch: int | None = None
    max_wait_ms: float | None = None
    weight: float = 1.0
    queue_depth: int | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"lane name must be a non-empty string, got {self.name!r}")
        if self.max_batch is not None and self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms is not None and self.max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if not self.weight > 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")

    def resolved(
        self, max_batch: int, max_wait_ms: float, queue_depth: int
    ) -> "LaneConfig":
        """This lane with every ``None`` knob replaced by the given default."""
        return replace(
            self,
            max_batch=self.max_batch if self.max_batch is not None else max_batch,
            max_wait_ms=(
                self.max_wait_ms if self.max_wait_ms is not None else max_wait_ms
            ),
            queue_depth=(
                self.queue_depth if self.queue_depth is not None else queue_depth
            ),
        )


@dataclass(frozen=True)
class LaneStats:
    """Point-in-time counters for one lane (see :meth:`Scheduler.stats`).

    ``latency`` is the lane's queue-wait distribution — each taken
    item's wait from :meth:`Scheduler.put` until an executor takes its
    batch from :meth:`Scheduler.next_batch`.  Time a part spends queued
    while every executor is busy counts here.  It means the same whether
    executor threads or the submitting thread (``workers=0``) drain the
    scheduler.
    Expired items never enter it: they are counted in ``expired`` and
    mirrored in ``latency.excluded``, so quantiles are computed over
    taken traffic only.  ``served`` and ``failed`` count outcomes
    reported by :meth:`Scheduler.settle`.
    """

    name: str
    depth: int  #: items currently queued
    queued_rows: int  #: rows across those items
    submitted: int  #: items accepted by put() since construction
    served: int  #: items whose batch was settled answered
    served_rows: int
    batches: int  #: batches dispatched from this lane
    expired: int  #: items failed on deadline while queued (never served)
    failed: int = 0  #: items whose batch was settled failed
    #: latency distribution of served items (expired ones excluded)
    latency: HistogramSnapshot = field(default_factory=HistogramSnapshot.empty)


class ScheduledBatch(Generic[ItemT]):
    """One drained batch: the lane it came from plus its items.

    ``lane`` is ``None`` exactly for the empty heartbeat (a poll window
    that expired with nothing queued); ``bool(batch)`` is False then.
    """

    __slots__ = ("lane", "items")

    def __init__(self, lane: str | None, items: list[ItemT]) -> None:
        self.lane = lane
        self.items = items

    @property
    def rows(self) -> int:
        return sum(item.rows for item in self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)

    def __iter__(self):
        return iter(self.items)


class _Entry:
    """One queued item plus its scheduling metadata."""

    __slots__ = ("item", "rows", "enqueued", "deadline")

    def __init__(self, item, rows: int, enqueued: float, deadline: float | None):
        self.item = item
        self.rows = rows
        self.enqueued = enqueued
        self.deadline = deadline


class _LaneState:
    """Mutable per-lane scheduler state (internal)."""

    __slots__ = (
        "config", "q", "vtime", "deadlined",
        "submitted", "served", "served_rows", "batches", "expired", "failed",
        "hist",
    )

    def __init__(self, config: LaneConfig) -> None:
        self.config = config
        self.q: deque[_Entry] = deque()
        self.vtime = 0.0  #: stride-scheduling virtual clock
        self.deadlined = 0  #: queued entries carrying a deadline
        self.submitted = 0
        self.served = 0
        self.served_rows = 0
        self.batches = 0
        self.expired = 0
        self.failed = 0
        self.hist = LatencyHistogram()  #: put-to-batch-return wait per item

    @property
    def max_wait_s(self) -> float:
        return self.config.max_wait_ms / 1e3


class Scheduler(Generic[ItemT]):
    """Multi-lane bounded queue with weighted, urgency-aware draining.

    ``lanes`` orders the traffic classes; the first is the default lane
    :meth:`put` uses when none is named.  ``on_expired(item, lane_name)``
    is invoked (outside the scheduler lock, from whichever thread called
    :meth:`next_batch`) for every item whose deadline passed while it
    was queued; such items are never returned in a batch.
    """

    def __init__(
        self,
        lanes: Sequence[LaneConfig],
        on_expired: Callable[[ItemT, str], None] | None = None,
    ) -> None:
        lanes = tuple(lanes)
        if not lanes:
            raise ValueError("Scheduler needs at least one lane")
        names = [lane.name for lane in lanes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate lane names: {names}")
        for lane in lanes:
            if lane.max_batch is None or lane.max_wait_ms is None or (
                lane.queue_depth is None
            ):
                raise ValueError(
                    f"lane {lane.name!r} is not fully resolved (use "
                    "LaneConfig.resolved() to fill inherited knobs)"
                )
        self._states = [_LaneState(lane) for lane in lanes]
        self._by_name = {state.config.name: state for state in self._states}
        self._vclock = 0.0  #: system virtual time (stride scheduling)
        self.default_lane = lanes[0].name
        self._on_expired = on_expired
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return sum(len(state.q) for state in self._states)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def lane_names(self) -> tuple[str, ...]:
        return tuple(state.config.name for state in self._states)

    def lane_config(self, lane: str | None = None) -> LaneConfig:
        """The :class:`LaneConfig` for ``lane`` (default lane when None)."""
        state = self._resolve_lane(lane)
        return state.config

    def stats(self) -> tuple[LaneStats, ...]:
        """Per-lane counters, in lane declaration order."""
        with self._lock:
            return tuple(
                LaneStats(
                    name=state.config.name,
                    depth=len(state.q),
                    queued_rows=sum(entry.rows for entry in state.q),
                    submitted=state.submitted,
                    served=state.served,
                    served_rows=state.served_rows,
                    batches=state.batches,
                    expired=state.expired,
                    failed=state.failed,
                    latency=state.hist.snapshot(),
                )
                for state in self._states
            )

    def _resolve_lane(self, lane: str | None) -> _LaneState:
        name = self.default_lane if lane is None else lane
        state = self._by_name.get(name)
        if state is None:
            raise ValueError(
                f"unknown lane {name!r}; configured lanes: "
                f"{', '.join(self.lane_names)}"
            )
        return state

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def put(
        self,
        item: ItemT,
        lane: str | None = None,
        deadline: float | None = None,
        timeout: float | None = None,
    ) -> None:
        """Enqueue ``item`` on ``lane``, blocking while that lane is full.

        ``deadline`` is an absolute ``time.monotonic()`` instant; an item
        still queued when it passes is expired instead of served.  Raises
        ``ValueError`` for an unknown lane or an item wider than the
        lane's ``max_batch`` (the caller owns splitting),
        ``RuntimeError`` after :meth:`close`, and ``TimeoutError`` if
        ``timeout`` elapses while blocked on a full lane.
        """
        state = self._resolve_lane(lane)
        rows = item.rows
        if rows > state.config.max_batch:
            raise ValueError(
                f"item has {rows} rows > max_batch={state.config.max_batch} "
                f"for lane {state.config.name!r}; split it before enqueueing "
                "(UHDServer.submit does)"
            )
        wait_deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                if self._closed:
                    raise RuntimeError("scheduler is closed")
                if len(state.q) < state.config.queue_depth:
                    break
                remaining = (
                    None if wait_deadline is None
                    else wait_deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"queue_depth={state.config.queue_depth} items already "
                        f"waiting in lane {state.config.name!r}"
                    )
                self._not_full.wait(remaining)
            state.q.append(_Entry(item, rows, time.monotonic(), deadline))
            state.submitted += 1
            if deadline is not None:
                state.deadlined += 1
            self._not_empty.notify_all()

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def next_batch(self, poll_s: float = 0.1) -> "ScheduledBatch[ItemT] | None":
        """Pop the next batch according to lane policy, without waiting for more.

        The caller is an idle executor.  Blocks up to ``poll_s`` for a
        first item anywhere, then returns the chosen lane's queued FIFO
        prefix (up to ``max_batch`` rows) at once.  An expired empty
        poll window returns an empty :class:`ScheduledBatch` (a
        heartbeat: the executor may re-check its own state).
        Returns ``None`` exactly when the scheduler is closed *and*
        fully drained.  Expired-deadline items encountered along the way
        are reported through ``on_expired`` right before returning.
        """
        expired: list[tuple[ItemT, str]] = []
        try:
            with self._lock:
                return self._next_batch_locked(poll_s, expired)
        finally:
            if self._on_expired is not None:
                for item, lane_name in expired:
                    self._on_expired(item, lane_name)

    def _next_batch_locked(
        self, poll_s: float, expired: list
    ) -> "ScheduledBatch[ItemT] | None":
        poll_deadline = time.monotonic() + poll_s
        while True:
            now = time.monotonic()
            self._expire_locked(now, expired)
            state = self._pick_locked(now)
            if state is not None:
                break
            if self._closed:  # every lane is empty: closed and drained
                return None
            remaining = poll_deadline - now
            if remaining <= 0:
                return ScheduledBatch(None, [])
            self._not_empty.wait(remaining)

        cfg = state.config
        entries: list[_Entry] = []
        rows = 0
        # the queued FIFO prefix; an item that would overflow the batch
        # stays at the head for the next one
        while state.q and rows + state.q[0].rows <= cfg.max_batch:
            entries.append(self._pop_head_locked(state))
            rows += entries[-1].rows
        # stride accounting: the system clock only moves forward, and a
        # lane's clock is clamped up to it before the drain is charged —
        # so a lane that sat idle re-enters at "now", banking no credit
        self._vclock = max(self._vclock, state.vtime)
        state.vtime = max(state.vtime, self._vclock) + rows / cfg.weight
        state.batches += 1
        # queue wait: put() until an executor takes the batch
        for entry in entries:
            state.hist.record(now - entry.enqueued)
        self._not_full.notify_all()
        return ScheduledBatch(cfg.name, [entry.item for entry in entries])

    def settle(self, batch: "ScheduledBatch[ItemT]", failed: bool = False) -> None:
        """Record the outcome of a batch :meth:`next_batch` handed out.

        Its items count as ``served`` (answered) or ``failed``, so once
        nothing is queued or in flight every lane holds
        ``submitted == served + expired + failed``.
        """
        state = self._resolve_lane(batch.lane)
        with self._lock:
            if failed:
                state.failed += len(batch)
            else:
                state.served += len(batch)
                state.served_rows += batch.rows

    def _pop_head_locked(self, state: _LaneState) -> _Entry:
        entry = state.q.popleft()
        if entry.deadline is not None:
            state.deadlined -= 1
        return entry

    def _expire_locked(self, now: float, expired: list) -> None:
        """Remove every queued entry whose deadline passed (mid-queue too)."""
        for state in self._states:
            if not state.deadlined:
                continue
            kept: deque[_Entry] = deque()
            for entry in state.q:
                if entry.deadline is not None and entry.deadline <= now:
                    state.deadlined -= 1
                    state.expired += 1
                    # never recorded: an expired item has no service
                    # latency, only a refusal — keep quantiles clean
                    state.hist.exclude()
                    expired.append((entry.item, state.config.name))
                else:
                    kept.append(entry)
            if len(kept) != len(state.q):
                state.q = kept
                self._not_full.notify_all()

    def _pick_locked(self, now: float) -> _LaneState | None:
        """The lane to drain next: most-overdue urgent lane, else min vtime."""
        candidates = [s for s in self._states if s.q]
        if not candidates:
            return None
        best = None
        best_overdue = 0.0
        for state in candidates:
            overdue = now - (state.q[0].enqueued + state.max_wait_s)
            if overdue >= 0 and (best is None or overdue > best_overdue):
                best = state
                best_overdue = overdue
        if best is not None:
            return best
        return min(candidates, key=lambda s: s.vtime)

    def close(self) -> None:
        """Stop accepting new items; queued ones still drain via ``next_batch``."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
