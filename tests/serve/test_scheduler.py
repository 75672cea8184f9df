"""Scheduler policy: lanes, weighted draining, urgency, deadlines, close.

The single-lane FIFO/coalescing/bounds/close semantics are covered by
``tests/serve/test_batcher.py``; this file covers everything the lanes
add.
"""

from __future__ import annotations

import time
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro.serve.scheduler as scheduler_module
from repro.serve.scheduler import LaneConfig, ScheduledBatch, Scheduler


class Item:
    """Minimal Batchable: a row count and an identity."""

    def __init__(self, rows: int, tag: object = None) -> None:
        self.rows = rows
        self.tag = tag

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Item({self.rows}, {self.tag!r})"


def lane(name, max_batch=8, max_wait_ms=0.0, weight=1.0, queue_depth=64):
    return LaneConfig(
        name=name, max_batch=max_batch, max_wait_ms=max_wait_ms,
        weight=weight, queue_depth=queue_depth,
    )


class TestValidation:
    def test_needs_at_least_one_lane(self):
        with pytest.raises(ValueError, match="at least one lane"):
            Scheduler([])

    def test_duplicate_lane_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Scheduler([lane("a"), lane("a")])

    def test_unresolved_lane_rejected(self):
        with pytest.raises(ValueError, match="not fully resolved"):
            Scheduler([LaneConfig(name="a")])  # max_batch et al. still None

    def test_lane_config_validation(self):
        with pytest.raises(ValueError):
            LaneConfig(name="")
        with pytest.raises(ValueError):
            LaneConfig(name="a", max_batch=0)
        with pytest.raises(ValueError):
            LaneConfig(name="a", max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            LaneConfig(name="a", weight=0.0)
        with pytest.raises(ValueError):
            LaneConfig(name="a", queue_depth=0)

    def test_resolved_fills_only_none_fields(self):
        partial = LaneConfig(name="a", max_wait_ms=5.0)
        full = partial.resolved(max_batch=32, max_wait_ms=2.0, queue_depth=9)
        assert full.max_batch == 32
        assert full.max_wait_ms == 5.0  # kept, not overwritten
        assert full.queue_depth == 9

    def test_unknown_lane_on_put(self):
        scheduler = Scheduler([lane("only")])
        with pytest.raises(ValueError, match="unknown lane"):
            scheduler.put(Item(1), lane="nope")

    def test_oversize_checked_against_the_lane_not_the_widest(self):
        scheduler = Scheduler([lane("narrow", max_batch=2), lane("wide", max_batch=64)])
        with pytest.raises(ValueError, match="split it before"):
            scheduler.put(Item(3), lane="narrow")
        scheduler.put(Item(3), lane="wide")  # fine there


class TestLaneRouting:
    def test_default_lane_is_first(self):
        scheduler = Scheduler([lane("a"), lane("b")])
        scheduler.put(Item(1, "x"))  # no lane named
        batch = scheduler.next_batch(poll_s=0.1)
        assert batch.lane == "a"
        assert [i.tag for i in batch] == ["x"]

    def test_batches_never_mix_lanes(self):
        scheduler = Scheduler([lane("a", max_batch=8), lane("b", max_batch=8)])
        scheduler.put(Item(1, "a1"), lane="a")
        scheduler.put(Item(1, "b1"), lane="b")
        scheduler.put(Item(1, "a2"), lane="a")
        first = scheduler.next_batch(poll_s=0.1)
        second = scheduler.next_batch(poll_s=0.1)
        assert {first.lane, second.lane} == {"a", "b"}
        for batch in (first, second):
            want = {"a": ["a1", "a2"], "b": ["b1"]}[batch.lane]
            assert [i.tag for i in batch] == want  # FIFO within the lane

    def test_empty_heartbeat_has_no_lane(self):
        scheduler = Scheduler([lane("a")])
        batch = scheduler.next_batch(poll_s=0.01)
        assert isinstance(batch, ScheduledBatch)
        assert not batch and batch.lane is None and batch.rows == 0

    def test_per_lane_queue_depth_backpressure(self):
        scheduler = Scheduler(
            [lane("tiny", max_batch=1, queue_depth=1), lane("big", queue_depth=64)]
        )
        scheduler.put(Item(1), lane="tiny")
        with pytest.raises(TimeoutError, match="lane 'tiny'"):
            scheduler.put(Item(1), lane="tiny", timeout=0.05)
        scheduler.put(Item(1), lane="big")  # other lanes unaffected


class TestWeightedDraining:
    def test_weights_set_the_drain_ratio(self):
        """Weight 3 vs 1 with both lanes saturated: 3x the batches."""
        scheduler = Scheduler(
            [
                lane("heavy", max_batch=4, max_wait_ms=60_000.0, weight=3.0),
                lane("light", max_batch=4, max_wait_ms=60_000.0, weight=1.0),
            ]
        )
        for index in range(32):
            scheduler.put(Item(1, index), lane="heavy")
            scheduler.put(Item(1, index), lane="light")
        served = {"heavy": 0, "light": 0}
        for _ in range(8):
            batch = scheduler.next_batch(poll_s=0.1)
            served[batch.lane] += batch.rows
        assert served["heavy"] == 24
        assert served["light"] == 8

    def test_idle_lane_banks_no_credit(self):
        """A lane idle for many rounds must not monopolize once it wakes."""
        scheduler = Scheduler(
            [
                lane("busy", max_batch=4, max_wait_ms=60_000.0, weight=1.0),
                lane("idle", max_batch=4, max_wait_ms=60_000.0, weight=1.0),
            ]
        )
        for index in range(40):
            scheduler.put(Item(1, index), lane="busy")
        for _ in range(5):  # busy drains alone; its vtime advances
            assert scheduler.next_batch(poll_s=0.1).lane == "busy"
        for index in range(20):
            scheduler.put(Item(1, index), lane="idle")
        # equal weights from here on: strict alternation, not an idle binge
        lanes = [scheduler.next_batch(poll_s=0.1).lane for _ in range(4)]
        assert lanes.count("idle") == 2 and lanes.count("busy") == 2


class TestUrgencyAntiStarvation:
    def test_bulk_flood_cannot_stall_interactive_beyond_its_window(self):
        """The headline bound: interactive waits ~its own max_wait_ms even
        while a huge-weight bulk lane holds a deep backlog."""
        scheduler = Scheduler(
            [
                lane("bulk", max_batch=4, max_wait_ms=200.0, weight=1000.0),
                lane("interactive", max_batch=4, max_wait_ms=10.0, weight=1.0),
            ]
        )
        for index in range(60):  # < queue_depth: the flood fits, put never blocks
            scheduler.put(Item(1, index), lane="bulk")
        scheduler.put(Item(1, "urgent"), lane="interactive")
        start = time.monotonic()
        while True:
            batch = scheduler.next_batch(poll_s=0.1)
            if batch.lane == "interactive":
                break
            assert time.monotonic() - start < 2.0, "interactive lane starved"
        elapsed = time.monotonic() - start
        # bound: its own 10ms urgency bound plus scheduling noise — nowhere
        # near the bulk lane's 200ms bound (CI boxes get generous slack)
        assert elapsed < 0.15
        assert [i.tag for i in batch] == ["urgent"]


class TestDeadlines:
    def test_expired_mid_queue_is_failed_not_served(self):
        """An item whose deadline passes while a wide head blocks it must
        be expired out of the middle of the lane."""
        expired: list[tuple[Item, str]] = []
        scheduler = Scheduler(
            [lane("a", max_batch=4, max_wait_ms=0.0)],
            on_expired=lambda item, name: expired.append((item, name)),
        )
        scheduler.put(Item(3, "head"))
        scheduler.put(
            Item(2, "doomed"), deadline=time.monotonic() + 0.02
        )  # 3+2 > 4: cannot join head's batch
        time.sleep(0.05)
        batch = scheduler.next_batch(poll_s=0.1)
        assert [i.tag for i in batch] == ["head"]
        assert [(i.tag, name) for i, name in expired] == [("doomed", "a")]
        heartbeat = scheduler.next_batch(poll_s=0.01)
        assert not heartbeat  # doomed was never served
        scheduler.settle(batch)
        stats = {s.name: s for s in scheduler.stats()}
        assert stats["a"].expired == 1
        assert stats["a"].served == 1

    def test_already_expired_deadline_never_serves(self):
        expired = []
        scheduler = Scheduler(
            [lane("a")], on_expired=lambda item, name: expired.append(item.tag)
        )
        scheduler.put(Item(1, "late"), deadline=time.monotonic() - 1.0)
        assert not scheduler.next_batch(poll_s=0.05)
        assert expired == ["late"]

    def test_future_deadline_serves_normally(self):
        expired = []
        scheduler = Scheduler(
            [lane("a")], on_expired=lambda item, name: expired.append(item.tag)
        )
        scheduler.put(Item(1, "fine"), deadline=time.monotonic() + 30.0)
        batch = scheduler.next_batch(poll_s=0.1)
        assert [i.tag for i in batch] == ["fine"]
        assert expired == []

    def test_waiting_consumer_wakes_for_an_expiry(self):
        """next_batch blocked on an empty poll window must still fire the
        expiry of an item whose deadline passes mid-wait."""
        expired = []
        scheduler = Scheduler(
            [lane("a", max_wait_ms=0.0)],
            on_expired=lambda item, name: expired.append(item.tag),
        )
        scheduler.put(Item(1, "fleeting"), deadline=time.monotonic() + 0.05)
        start = time.monotonic()
        batch = scheduler.next_batch(poll_s=0.02)  # served: still fresh
        assert [i.tag for i in batch] == ["fleeting"]
        scheduler.put(Item(1, "gone"), deadline=time.monotonic() + 0.03)
        time.sleep(0.05)
        assert not scheduler.next_batch(poll_s=0.02)
        assert expired == ["gone"]
        assert time.monotonic() - start < 2.0


class TestOversizeSplitAcrossLanes:
    def test_each_lane_splits_to_its_own_max_batch(self):
        """The server-facing contract: parts are sized per lane, so an
        identical request splits differently on different lanes."""
        scheduler = Scheduler(
            [lane("small", max_batch=2), lane("large", max_batch=8)]
        )
        # simulate UHDServer.submit's split: chunk to the lane's bound
        for name, total in (("small", 5), ("large", 5)):
            bound = scheduler.lane_config(name).max_batch
            for offset in range(0, total, bound):
                scheduler.put(
                    Item(min(bound, total - offset), f"{name}{offset}"),
                    lane=name,
                )
        small_batches = []
        large_batches = []
        for _ in range(4):
            batch = scheduler.next_batch(poll_s=0.1)
            if not batch:
                break
            (small_batches if batch.lane == "small" else large_batches).append(
                batch.rows
            )
        assert small_batches == [2, 2, 1]  # 5 rows through a 2-row lane
        assert large_batches == [5]  # one batch through the 8-row lane


class TestCloseAndStats:
    def test_close_drains_every_lane_then_returns_none(self):
        scheduler = Scheduler([lane("a"), lane("b")])
        scheduler.put(Item(1, "a1"), lane="a")
        scheduler.put(Item(1, "b1"), lane="b")
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.put(Item(1), lane="a")
        drained = {scheduler.next_batch(poll_s=0.1).lane,
                   scheduler.next_batch(poll_s=0.1).lane}
        assert drained == {"a", "b"}
        assert scheduler.next_batch(poll_s=0.01) is None

    def test_stats_track_depth_and_served(self):
        scheduler = Scheduler([lane("a", max_batch=4), lane("b")])
        for index in range(6):
            scheduler.put(Item(1, index), lane="a")
        stats = {s.name: s for s in scheduler.stats()}
        assert stats["a"].depth == 6 and stats["a"].queued_rows == 6
        assert stats["a"].submitted == 6 and stats["a"].served == 0
        assert stats["b"].depth == 0
        batch = scheduler.next_batch(poll_s=0.1)
        stats = {s.name: s for s in scheduler.stats()}
        assert stats["a"].depth == 2 and stats["a"].batches == 1
        assert stats["a"].served == 0  # taken, not yet answered
        scheduler.settle(batch)
        stats = {s.name: s for s in scheduler.stats()}
        assert stats["a"].served == 4 and stats["a"].served_rows == 4
        assert stats["a"].failed == 0
        scheduler.settle(scheduler.next_batch(poll_s=0.1), failed=True)
        stats = {s.name: s for s in scheduler.stats()}
        assert stats["a"].failed == 2 and stats["a"].served == 4
        assert stats["a"].submitted == (
            stats["a"].served + stats["a"].expired + stats["a"].failed
        )

    def test_len_sums_all_lanes(self):
        scheduler = Scheduler([lane("a"), lane("b")])
        scheduler.put(Item(1), lane="a")
        scheduler.put(Item(1), lane="b")
        assert len(scheduler) == 2

    def test_lane_latency_is_queue_wait(self):
        """The recorded wait runs from put() until an executor takes the
        item: ~30 ms for an item left queued that long, well under the
        lane's bound for one taken at once."""
        waited = Scheduler([lane("a", max_wait_ms=5000.0)])
        waited.put(Item(1))
        time.sleep(0.03)
        assert len(waited.next_batch(poll_s=1.0)) == 1
        (stats,) = waited.stats()
        assert stats.latency.count == 1
        assert stats.latency.p50_ms >= 20.0

        prompt = Scheduler([lane("a", max_wait_ms=5000.0)])
        prompt.put(Item(1))
        assert len(prompt.next_batch(poll_s=1.0)) == 1
        (stats,) = prompt.stats()
        assert stats.latency.count == 1
        assert stats.latency.p50_ms < 50.0


class SchedulerMachine(RuleBasedStateMachine):
    """Random put / take / settle / clock / close / drain runs on a model.

    The scheduler reads a fake clock in whole milliseconds (its module's
    ``time`` is swapped for the run), so deadlines land exactly on
    ``now`` often and urgency is exact, and ``poll_s=0`` / ``timeout=0``
    never block.  Per lane, after every step: items leave
    in FIFO order, none is returned after its deadline, and
    ``submitted == served + expired + failed + depth + taken-but-unsettled``
    with every item that left the queue counted once in the latency
    histogram (``count + excluded``).
    """

    LANES = (
        lane("a", max_batch=4, max_wait_ms=1.0, weight=2.0, queue_depth=3),
        lane("b", max_batch=2, max_wait_ms=5.0, weight=1.0, queue_depth=3),
    )

    def __init__(self) -> None:
        super().__init__()
        self.ms = 0
        self._real_time = scheduler_module.time
        scheduler_module.time = SimpleNamespace(monotonic=lambda: self.now)
        self.expired: list = []
        self.scheduler = Scheduler(
            self.LANES, on_expired=lambda item, name: self.expired.append(item)
        )
        self.config = {cfg.name: cfg for cfg in self.LANES}
        self.queues: dict[str, list[Item]] = {cfg.name: [] for cfg in self.LANES}
        self.outcomes = {cfg.name: Counter() for cfg in self.LANES}
        self.unsettled: list[ScheduledBatch] = []
        self.closed = False

    def teardown(self) -> None:
        scheduler_module.time = self._real_time

    @property
    def now(self) -> float:
        return self.ms / 1e3

    @rule(
        name=st.sampled_from(["a", "b"]),
        rows=st.integers(1, 4),
        ttl_ms=st.one_of(st.none(), st.integers(0, 8)),
    )
    def put(self, name, rows, ttl_ms):
        item = Item(min(rows, self.config[name].max_batch))
        item.enqueued = self.now
        item.deadline = None if ttl_ms is None else (self.ms + ttl_ms) / 1e3
        queue = self.queues[name]
        if self.closed:
            with pytest.raises(RuntimeError, match="closed"):
                self.scheduler.put(item, lane=name, timeout=0)
        elif len(queue) >= self.config[name].queue_depth:
            with pytest.raises(TimeoutError):
                self.scheduler.put(item, lane=name, timeout=0)
        else:
            self.scheduler.put(item, lane=name, deadline=item.deadline, timeout=0)
            queue.append(item)

    @rule(dt_ms=st.integers(0, 4))
    def advance_clock(self, dt_ms):
        self.ms += dt_ms

    @rule()
    def take(self):
        self._take()

    def _take(self) -> "ScheduledBatch | None":
        self.expired.clear()
        batch = self.scheduler.next_batch(poll_s=0.0)
        now = self.now
        # every queued item past its deadline expires, mid-queue included
        due = [
            (name, item) for name, queue in self.queues.items()
            for item in queue if item.deadline is not None and item.deadline <= now
        ]
        assert sorted(map(id, self.expired)) == sorted(id(i) for _, i in due)
        for name, item in due:
            self.queues[name].remove(item)
            self.outcomes[name]["expired"] += 1
        if batch is None:
            assert self.closed and not any(self.queues.values())
            return None
        if not batch:
            assert not self.closed and not any(self.queues.values())
            return batch
        queue, cfg = self.queues[batch.lane], self.config[batch.lane]
        taken = len(batch)
        # FIFO: the batch is the longest head prefix that fits max_batch
        assert batch.items == queue[:taken]
        assert batch.rows <= cfg.max_batch
        if len(queue) > taken:
            assert batch.rows + queue[taken].rows > cfg.max_batch
        assert all(i.deadline is None or i.deadline > now for i in batch.items)
        # an overdue lane goes first, the most overdue of them
        overdue = {
            name: now - (q[0].enqueued + self.config[name].max_wait_ms / 1e3)
            for name, q in self.queues.items() if q
        }
        if max(overdue.values()) >= 0:
            assert overdue[batch.lane] == max(overdue.values())
        del queue[:taken]
        self.unsettled.append(batch)
        return batch

    @precondition(lambda self: self.unsettled)
    @rule(index=st.integers(0, 7), failed=st.booleans())
    def settle(self, index, failed):
        batch = self.unsettled.pop(index % len(self.unsettled))
        self.scheduler.settle(batch, failed=failed)
        self.outcomes[batch.lane]["failed" if failed else "served"] += len(batch)

    @rule()
    def close(self):
        self.scheduler.close()
        self.closed = True

    @precondition(lambda self: self.closed)
    @rule()
    def drain(self):
        while (batch := self._take()) is not None:
            self.unsettled.remove(batch)
            self.scheduler.settle(batch)
            self.outcomes[batch.lane]["served"] += len(batch)
        assert len(self.scheduler) == 0

    @invariant()
    def counters_conserved(self):
        in_flight = Counter()
        for batch in self.unsettled:
            in_flight[batch.lane] += len(batch)
        for stats in self.scheduler.stats():
            outcome = self.outcomes[stats.name]
            assert stats.depth == len(self.queues[stats.name])
            assert (stats.served, stats.expired, stats.failed) == (
                outcome["served"], outcome["expired"], outcome["failed"]
            )
            left = stats.served + stats.expired + stats.failed
            left += in_flight[stats.name]
            assert stats.submitted == left + stats.depth
            assert stats.latency.count + stats.latency.excluded == left


TestSchedulerMachine = SchedulerMachine.TestCase
TestSchedulerMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
