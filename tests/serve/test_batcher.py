"""One-lane scheduler semantics: coalescing, no hold, bounds, close.

The single-lane view of :class:`Scheduler` the server's dispatcher
relies on; ``test_scheduler.py`` covers what several lanes add.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve.scheduler import LaneConfig, Scheduler


class Item:
    """Minimal Batchable: a row count and an identity."""

    def __init__(self, rows: int, tag: object = None) -> None:
        self.rows = rows
        self.tag = tag


def single_lane(
    max_batch: int, max_wait_s: float, queue_depth: int = 256
) -> Scheduler:
    return Scheduler([
        LaneConfig(
            "default",
            max_batch=max_batch,
            max_wait_ms=max_wait_s * 1e3,
            queue_depth=queue_depth,
        )
    ])


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            single_lane(max_batch=0, max_wait_s=0.0)
        with pytest.raises(ValueError):
            single_lane(max_batch=1, max_wait_s=-1.0)
        with pytest.raises(ValueError):
            single_lane(max_batch=1, max_wait_s=0.0, queue_depth=0)

    def test_oversized_item_rejected_at_put(self):
        scheduler = single_lane(max_batch=4, max_wait_s=0.0)
        with pytest.raises(ValueError, match="split it before"):
            scheduler.put(Item(5))


class TestCoalescing:
    def test_empty_flush_on_timeout_returns_empty_list(self):
        scheduler = single_lane(max_batch=8, max_wait_s=0.05)
        start = time.monotonic()
        heartbeat = scheduler.next_batch(poll_s=0.02)
        assert heartbeat.items == [] and heartbeat.lane is None
        assert time.monotonic() - start < 1.0  # bounded wait, not a hang

    def test_single_item_batch(self):
        scheduler = single_lane(max_batch=8, max_wait_s=0.0)
        item = Item(1, tag="only")
        scheduler.put(item)
        batch = scheduler.next_batch(poll_s=0.1)
        assert [entry.tag for entry in batch] == ["only"]

    def test_queued_items_coalesce_up_to_max_batch(self):
        scheduler = single_lane(max_batch=4, max_wait_s=0.0)
        for index in range(6):
            scheduler.put(Item(1, tag=index))
        first = scheduler.next_batch(poll_s=0.1)
        second = scheduler.next_batch(poll_s=0.1)
        assert [i.tag for i in first] == [0, 1, 2, 3]  # FIFO, full batch
        assert [i.tag for i in second] == [4, 5]

    def test_overflow_item_left_for_next_batch(self):
        scheduler = single_lane(max_batch=4, max_wait_s=0.0)
        scheduler.put(Item(3, tag="a"))
        scheduler.put(Item(2, tag="b"))  # 3 + 2 > 4: must not join "a"
        assert [i.tag for i in scheduler.next_batch(poll_s=0.1)] == ["a"]
        assert [i.tag for i in scheduler.next_batch(poll_s=0.1)] == ["b"]

    def test_lone_item_is_returned_without_waiting(self):
        """max_wait_ms is an urgency bound, not a hold: a lone item
        leaves at once even under a 5 s bound."""
        scheduler = single_lane(max_batch=4, max_wait_s=5.0)
        scheduler.put(Item(1, tag="only"))
        start = time.monotonic()
        batch = scheduler.next_batch(poll_s=0.1)
        assert time.monotonic() - start < 1.0
        assert [i.tag for i in batch] == ["only"]

    def test_zero_wait_flushes_immediately(self):
        scheduler = single_lane(max_batch=64, max_wait_s=0.0)
        scheduler.put(Item(1, tag="a"))
        start = time.monotonic()
        batch = scheduler.next_batch(poll_s=0.1)
        assert time.monotonic() - start < 0.5
        assert [i.tag for i in batch] == ["a"]


class TestBoundsAndClose:
    def test_put_blocks_when_full_then_times_out(self):
        scheduler = single_lane(max_batch=1, max_wait_s=0.0, queue_depth=1)
        scheduler.put(Item(1))
        with pytest.raises(TimeoutError):
            scheduler.put(Item(1), timeout=0.05)

    def test_put_unblocks_when_batch_drained(self):
        scheduler = single_lane(max_batch=1, max_wait_s=0.0, queue_depth=1)
        scheduler.put(Item(1, tag="first"))
        unblocked = threading.Event()

        def blocked_put():
            scheduler.put(Item(1, tag="second"), timeout=5.0)
            unblocked.set()

        thread = threading.Thread(target=blocked_put)
        thread.start()
        assert scheduler.next_batch(poll_s=0.5).items[0].tag == "first"
        assert unblocked.wait(5.0)
        thread.join()
        assert scheduler.next_batch(poll_s=0.5).items[0].tag == "second"

    def test_close_rejects_put_but_drains_queue(self):
        scheduler = single_lane(max_batch=8, max_wait_s=0.0)
        scheduler.put(Item(1, tag="queued"))
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.put(Item(1))
        assert [i.tag for i in scheduler.next_batch(poll_s=0.1)] == ["queued"]
        assert scheduler.next_batch(poll_s=0.01) is None  # closed and drained

    def test_close_wakes_blocked_consumer(self):
        scheduler = single_lane(max_batch=8, max_wait_s=5.0)
        result = []

        def consume():
            result.append(scheduler.next_batch(poll_s=5.0))

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.05)
        scheduler.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result == [None]
