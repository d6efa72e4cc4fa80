"""Tests for repro.sim.events, driven through the Engine that owns the queue.

:class:`~repro.sim.events.EventQueue` is state plus compaction; every
push and pop happens in :class:`~repro.sim.engine.Engine`.  So these
tests schedule with ``call_at`` / ``post_at``, cancel with
:meth:`Event.cancel` and pop with ``run(until, max_events)``, and read the
queue's counters and free list only to pin its invariants.
"""

import random

import pytest

from repro.sim.engine import Engine
from repro.sim.events import (
    PRIORITY_EARLY,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    EventQueue,
)


def noop():
    pass


class TestEventQueueOrdering:
    def test_pops_in_time_order(self, engine):
        order = []
        engine.call_at(2.0, order.append, 2)
        engine.call_at(1.0, order.append, 1)
        engine.call_at(3.0, order.append, 3)
        engine.run()
        assert order == [1, 2, 3]

    def test_fifo_among_simultaneous(self, engine):
        order = []
        for tag in "abc":
            engine.call_at(1.0, order.append, tag)
        engine.run()
        assert order == ["a", "b", "c"]

    def test_priority_breaks_ties(self, engine):
        order = []
        engine.call_at(1.0, order.append, "normal")
        engine.call_at(1.0, order.append, "late", priority=PRIORITY_LATE)
        engine.call_at(1.0, order.append, "early", priority=PRIORITY_EARLY)
        engine.run()
        assert order == ["early", "normal", "late"]


class TestCancellation:
    def test_cancelled_event_not_popped(self, engine):
        fired = []
        event = engine.call_at(1.0, fired.append, 1)
        engine.call_at(2.0, fired.append, 2)
        event.cancel()
        engine.run()
        assert fired == [2]

    def test_len_excludes_cancelled(self, engine):
        event = engine.call_at(1.0, noop)
        engine.call_at(2.0, noop)
        assert engine.pending_events == 2
        event.cancel()
        assert engine.pending_events == 1

    def test_pop_empty_raises(self, engine):
        # The engine's pop on empty is not an error: it fires and counts
        # nothing.
        assert engine.run(max_events=1) == 0
        assert engine.events_processed == 0
        assert engine.now == 0.0

    def test_peek_time_skips_cancelled(self, engine):
        event = engine.call_at(1.0, noop)
        engine.call_at(5.0, noop)
        event.cancel()
        # The next single step lands on the first live event.
        assert engine.run(max_events=1) == 1
        assert engine.now == 5.0

    def test_peek_time_empty_is_none(self, engine):
        # Nothing pending: a bounded run fires nothing and idles the
        # clock forward to its horizon.
        assert engine.run(until=3.0) == 0
        assert engine.now == 3.0

    def test_clear(self, engine):
        handles = [engine.call_at(1.0, noop), engine.call_at(2.0, noop)]
        for handle in handles:
            handle.cancel()
        assert engine.pending_events == 0
        assert engine.run() == 0

    def test_cancel_after_clear_is_harmless(self, engine):
        event = engine.call_at(1.0, noop)
        event.cancel()
        engine.run()  # drains the dead entry; the handle is retained
        event.cancel()
        fired = []
        engine.call_at(2.0, fired.append, "live")
        assert engine.pending_events == 1
        engine.run()
        assert fired == ["live"]


class TestLiveCounterAccounting:
    """pending_events is backed by a live counter, not a heap scan —
    these pin the accounting through every cancel/pop interleaving."""

    def test_cancel_then_pop_accounting(self, engine):
        first = engine.call_at(1.0, noop)
        engine.call_at(2.0, noop)
        engine.call_at(3.0, noop)
        assert engine.pending_events == 3
        first.cancel()
        assert engine.pending_events == 2
        assert engine.run(max_events=1) == 1
        assert engine.now == 2.0
        assert engine.pending_events == 1
        assert engine.run(max_events=1) == 1
        assert engine.now == 3.0
        assert engine.pending_events == 0
        assert engine.run() == 0
        assert engine._queue._dead == 0

    def test_double_cancel_decrements_once(self, engine):
        event = engine.call_at(1.0, noop)
        engine.call_at(2.0, noop)
        event.cancel()
        event.cancel()
        assert engine.pending_events == 1

    def test_cancel_after_pop_is_a_no_op(self, engine):
        event = engine.call_at(1.0, noop)
        engine.call_at(2.0, noop)
        assert engine.run(max_events=1) == 1
        event.cancel()  # already fired: must not corrupt the counter
        assert engine.pending_events == 1
        assert engine.run(max_events=1) == 1
        assert engine.now == 2.0
        assert engine.pending_events == 0

    def test_pop_next_until_leaves_event_queued(self, engine):
        engine.call_at(5.0, noop)
        assert engine.run(until=1.0) == 0
        assert engine.pending_events == 1
        assert engine.now == 1.0
        assert engine.run(until=5.0) == 1
        assert engine.now == 5.0
        assert engine.pending_events == 0

    def test_pop_next_skips_cancelled_prefix(self, engine):
        fired = []
        dead = [engine.call_at(float(i), fired.append, i) for i in range(3)]
        engine.call_at(10.0, fired.append, "survivor")
        for event in dead:
            event.cancel()
        assert engine.run(max_events=1) == 1
        assert fired == ["survivor"]
        assert engine._queue._dead == 0
        assert engine.run() == 0


class TestHeapCompaction:
    """Dead entries are skipped lazily until they outnumber the live ones
    by at least ``COMPACT_MIN``; then one compaction drops them all."""

    def test_compaction_drops_dead_entries(self, engine):
        queue = engine._queue
        total = 10_000
        events = [engine.call_at(float(i), noop) for i in range(total)]
        for event in events[:7_500]:
            event.cancel()
        # The heap crossed the dead > live threshold mid-way through the
        # cancels, so it must have compacted: dead weight never exceeds
        # the live count once a heap is past COMPACT_MIN.
        assert engine.pending_events == 2_500
        heap_size = len(queue._heap)
        assert heap_size < total
        dead = heap_size - len(queue)
        assert dead == queue._dead
        assert dead < EventQueue.COMPACT_MIN
        assert dead <= heap_size * EventQueue.COMPACT_FRACTION

    def test_small_heaps_are_not_compacted(self, engine):
        size = EventQueue.COMPACT_MIN
        events = [engine.call_at(float(i), noop) for i in range(size)]
        for event in events[:-1]:
            event.cancel()
        # size - 1 dead entries: one short of COMPACT_MIN, lazy removal only.
        assert len(engine._queue._heap) == size
        assert engine.pending_events == 1

    def test_compaction_preserves_pop_order(self, engine):
        count = 3 * EventQueue.COMPACT_MIN
        fired = []
        events = [
            engine.call_at(float(i % 7), fired.append, i)
            for i in range(count)
        ]
        for i, event in enumerate(events):
            if i % 4:
                event.cancel()
        assert len(engine._queue._heap) < count  # compaction ran
        engine.run()
        survivors = [i for i in range(count) if i % 4 == 0]
        expected = sorted(
            survivors,
            key=lambda i: (events[i].time, events[i].priority,
                           events[i].sequence),
        )
        assert fired == expected


class TestFreeList:
    """Cancellable handles are recycled only when provably unreferenced."""

    def test_cancelled_unreferenced_handle_is_reused(self, engine):
        free = engine._queue._free
        for i in range(100):
            engine.call_at(10.0 + i * 1e-3, noop, i).cancel()
        fired = []
        engine.post_at(20.0, fired.append, "live")
        # Running past the dead prefix drains it onto the free list.
        engine.run()
        assert fired == ["live"]
        assert len(free) == 100
        pooled = free[-1]
        assert pooled.entry is None and not pooled.cancelled
        reused = engine.call_later(1.0, noop, "reused")
        assert reused is pooled
        assert len(free) == 99
        assert reused.time == 21.0 and reused.args == ("reused",)

    def test_retained_handle_is_never_recycled(self, engine):
        held = engine.call_at(10.0, noop, "held")
        held.cancel()
        engine.post_at(20.0, noop)
        engine.run()
        # The external reference vetoed recycling: the handle still
        # introspects truthfully instead of aliasing a new incarnation.
        assert held.cancelled
        assert held.time == 10.0
        assert held._queue is None
        assert all(event is not held for event in engine._queue._free)

    def test_retained_fired_handle_cancel_spares_later_event(self, engine):
        fired = []
        first = engine.call_at(1.0, fired.append, "first")
        engine.run()
        second = engine.call_at(2.0, fired.append, "second")
        assert first is not second
        first.cancel()  # late cancel of a fired handle: a no-op
        engine.run()
        assert fired == ["first", "second"]

    def test_retained_drained_handle_cancel_spares_later_event(self, engine):
        fired = []
        held = engine.call_at(1.0, fired.append, "held")
        held.cancel()
        engine.run()  # drains the dead entry past the retained handle
        second = engine.call_at(2.0, fired.append, "second")
        assert held is not second
        held.cancel()
        engine.run()
        assert fired == ["second"]

    def test_unreferenced_fired_handle_is_reused(self):
        engine = Engine()
        engine.call_at(1.0, noop)
        engine.run()
        assert len(engine._queue._free) == 1
        pooled = engine._queue._free[-1]
        assert pooled.entry is None and not pooled.cancelled
        assert engine.call_at(2.0, noop) is pooled


class TestRandomizedOrderingContract:
    """Fuzz the documented ordering contract: events fire in
    ``(time, priority, sequence)`` order — FIFO among equal-priority
    simultaneous events — with cancelled events silently absent."""

    PRIORITIES = (PRIORITY_EARLY, PRIORITY_NORMAL, PRIORITY_LATE)

    @pytest.mark.parametrize("seed", range(8))
    def test_firing_order_matches_contract(self, seed):
        rng = random.Random(seed)
        engine = Engine()
        fired: list[int] = []
        scheduled = []
        for tag in range(300):
            event = engine.call_at(
                float(rng.randrange(5)),  # heavy same-time collisions
                fired.append,
                tag,
                priority=rng.choice(self.PRIORITIES),
            )
            scheduled.append((event, tag))
            # Cancel a random earlier survivor now and then, so dead
            # entries interleave with live ones throughout the heap.
            if rng.random() < 0.3:
                victim, _ = rng.choice(scheduled)
                victim.cancel()
        engine.run()
        expected = [
            tag
            for event, tag in sorted(
                scheduled,
                key=lambda pair: (
                    pair[0].time, pair[0].priority, pair[0].sequence
                ),
            )
            if not event.cancelled
        ]
        assert fired == expected
