"""Event-queue ordering under adversarial schedules, plus an oracle fuzzer.

The fixture classes target the schedule shapes a bucketed timer design
is structurally tempted to get wrong, and pin that the binary heap gets
them right:

* same-instant FIFO and priorities among events far in the future,
* timers exactly at ``pop_next(until=...)``,
* far-future timers across eleven orders of magnitude, including ``inf``,
* schedule-cancel-reschedule storms (dead entries interleaved with live
  ones),
* ``clear()`` bookkeeping: it must reset the live/dead counters and
  cancel-detach every pending handle, so a queue is fully reusable.

Each of those cases runs twice, on a fresh queue (id ``heap``) and on a
queue whose ``Event`` free list is stocked first (id ``wheel``, the name
the case had when a timer wheel was the second event core), so every
push and every materialised post reuses a recycled handle.

The fuzzer drives :class:`~repro.sim.events.EventQueue` and a reference
model through one random op stream — ``push``, ``post``, ``cancel``,
``pop_next(until)``, ``peek_time``, ``len`` — and requires identical
observable streams.  The model is a plain list searched for its minimum
``(time, priority, sequence)`` key on every pop, so it shares no code
with the heap, its lazy cancellation, compaction or free list.  The
deltas cover same-instant collisions, sub-microsecond gaps, times nine
orders of magnitude ahead and ``inf``.
"""

import random

import pytest

from repro.sim.events import (
    PRIORITY_EARLY,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
    EventQueue,
)


#: Spacing, in seconds, between the schedule's clusters of timers.
SPAN = 8.0

#: The smallest time step the cases below resolve.
TICK = 1.0e-6

#: Timers from half a second to ~285 years ahead.
REGION_TIMES = (0.5, 100.0, 1.0e4, 1.0e6, 9.0e9)

#: Recycled handles stocked on the free list of a ``wheel`` queue.
STOCK = 256


def fresh_queue():
    return EventQueue()


def recycling_queue():
    """A queue whose free list already holds ``STOCK`` recycled events."""
    queue = EventQueue()
    for i in range(STOCK):
        queue.push(float(i), lambda: None, (i,)).cancel()
    assert queue.peek_time() is None  # pops the dead entries, recycling them
    assert len(queue._free) == STOCK
    return queue


QUEUES = {"heap": fresh_queue, "wheel": recycling_queue}


@pytest.fixture(params=sorted(QUEUES))
def queue(request):
    """A fresh queue and a recycling one; every fixture case runs on each."""
    return QUEUES[request.param]()


def drain(queue):
    """Pop everything and return the observable (time, prio, seq, tag) rows."""
    rows = []
    while True:
        event = queue.pop_next()
        if event is None:
            return rows
        rows.append(
            (event.time, event.priority, event.sequence, event.args[0])
        )


class TestCascadeBoundaryFifo:
    def test_same_tick_fifo_across_cascade(self, queue):
        # 60 events at one far instant, interleaved with near and far
        # traffic.  FIFO among the equal-key events must hold.
        instant = 2.5 * SPAN
        tags = []
        for i in range(60):
            queue.push(instant, lambda: None, (("same", i),))
            tags.append(("same", i))
            if i % 3 == 0:
                queue.push(1.0 + i * 1e-3, lambda: None, (("near", i),))
            if i % 7 == 0:
                queue.push(instant * 10, lambda: None, (("far", i),))
        rows = drain(queue)
        same = [tag for _, _, _, tag in rows if tag[0] == "same"]
        assert same == tags
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))

    def test_priorities_hold_across_cascade(self, queue):
        instant = 3.0 * SPAN
        queue.push(instant, lambda: None, ("normal",), priority=PRIORITY_NORMAL)
        queue.push(instant, lambda: None, ("late",), priority=PRIORITY_LATE)
        queue.push(instant, lambda: None, ("early",), priority=PRIORITY_EARLY)
        assert [tag for _, _, _, tag in drain(queue)] \
            == ["early", "normal", "late"]

    def test_window_boundary_times_stay_ordered(self, queue):
        # Exactly on, one tick below and one tick above a span boundary,
        # pushed in reverse: the pop order must be seamless.
        for tag, time in [
            ("above", SPAN + TICK),
            ("on", SPAN),
            ("below", SPAN - TICK),
        ]:
            queue.push(time, lambda: None, (tag,))
        assert [tag for _, _, _, tag in drain(queue)] \
            == ["below", "on", "above"]


class TestUntilBoundary:
    def test_event_exactly_at_until_is_popped(self, queue):
        queue.push(7.0, lambda: None, ("at",))
        queue.push(7.0 + TICK, lambda: None, ("after",))
        event = queue.pop_next(until=7.0)
        assert event is not None and event.args == ("at",)
        assert queue.pop_next(until=7.0) is None
        assert len(queue) == 1  # the later event stayed queued

    def test_until_at_far_event_after_window_advance(self, queue):
        # `until` exactly at a far event's time is inclusive; one tick
        # earlier leaves it queued.
        far = 5.0 * SPAN
        queue.push(far, lambda: None, ("far",))
        assert queue.pop_next(until=far - TICK) is None
        assert len(queue) == 1
        event = queue.pop_next(until=far)
        assert event is not None and event.time == far
        assert len(queue) == 0

    def test_peek_time_after_denied_until(self, queue):
        queue.push(3.0 * SPAN, lambda: None, ("x",))
        assert queue.pop_next(until=1.0) is None
        assert queue.peek_time() == 3.0 * SPAN


class TestFarFutureTimers:
    def test_every_wheel_region_pops_in_order(self, queue):
        rng = random.Random(11)
        times = [t for t in REGION_TIMES for _ in range(5)]
        rng.shuffle(times)
        for i, time in enumerate(times):
            queue.push(time, lambda: None, (i,))
        rows = drain(queue)
        assert [row[0] for row in rows] == sorted(times)
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))

    def test_infinity_fires_last(self, queue):
        queue.push(float("inf"), lambda: None, ("inf",))
        queue.push(9.0e9, lambda: None, ("huge",))
        queue.push(0.25, lambda: None, ("soon",))
        assert [tag for _, _, _, tag in drain(queue)] \
            == ["soon", "huge", "inf"]

    def test_post_reaches_every_region(self, queue):
        fired = []
        for i, time in enumerate(REGION_TIMES):
            queue.post(time, fired.append, (i,))
        while queue:
            queue.pop().fire()
        assert fired == list(range(len(REGION_TIMES)))


class TestRescheduleStorm:
    def test_schedule_cancel_reschedule_storm(self, queue):
        # DPD-reset shape over a wide time range: each round cancels the
        # previous handle and re-arms elsewhere.  Exactly one survivor
        # per chain may fire, in global key order.
        rng = random.Random(23)
        chains = {}
        for round_no in range(600):
            chain = rng.randrange(40)
            if chain in chains:
                chains[chain][0].cancel()
            time = rng.choice(REGION_TIMES) + rng.random()
            event = queue.push(time, lambda: None, ((chain, round_no),))
            chains[chain] = (event, time)
        assert len(queue) == len(chains)
        rows = drain(queue)
        assert len(rows) == len(chains)
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
        survivors = {tag[0] for _, _, _, tag in rows}
        assert survivors == set(chains)

    def test_storm_live_counter_stays_exact(self, queue):
        events = []
        for i in range(500):
            events.append(queue.push(0.1 + (i % 9) * SPAN,
                                     lambda: None, (i,)))
            if i % 2:
                events[i // 2].cancel()
        expected = sum(1 for e in events if not e.cancelled)
        assert len(queue) == expected
        assert len(drain(queue)) == expected


class OracleQueue:
    """The ordering contract written out longhand.

    Pending entries are ``[time, priority, sequence, tag, handle]`` lists;
    ``handle`` is the queue's :class:`Event` for pushes (``None`` for
    posts), so a cancel on the real handle can be mirrored here.
    """

    def __init__(self):
        self.pending = []
        self.sequence = 0

    def schedule(self, time, priority, tag, handle):
        self.pending.append([time, priority, self.sequence, tag, handle])
        self.sequence += 1

    def cancel(self, handle):
        self.pending = [e for e in self.pending if e[4] is not handle]

    def _earliest(self):
        if not self.pending:
            return None
        return min(self.pending, key=lambda e: (e[0], e[1], e[2]))

    def pop_next(self, until):
        entry = self._earliest()
        if entry is None or (until is not None and entry[0] > until):
            return None
        self.pending.remove(entry)
        return entry

    def peek_time(self):
        entry = self._earliest()
        return None if entry is None else entry[0]

    def __len__(self):
        return len(self.pending)


class TestCoreParityFuzzer:
    """Drive the queue and the oracle through an identical op stream.

    Every observable — pop results (including handle identity), denied
    pops, peek times, lengths — must match exactly.
    """

    DELTAS = (0.0, 1e-6, 0.5, 7.999999, 8.0, 9.5, 300.0, 2.0e4, 9.0e9,
              float("inf"))
    PRIORITIES = (PRIORITY_EARLY, PRIORITY_NORMAL, PRIORITY_LATE)

    @pytest.mark.parametrize("seed", range(80))
    def test_lockstep_streams_identical(self, seed):
        rng = random.Random(seed)
        queue, oracle = EventQueue(), OracleQueue()
        handles = []
        cursor = 0.0

        def check_pop(until):
            event = queue.pop_next(until=until)
            expected = oracle.pop_next(until)
            if expected is None:
                assert event is None
                return
            assert event is not None
            assert (event.time, event.priority, event.sequence,
                    event.args[0]) == tuple(expected[:4])
            if expected[4] is not None:
                assert event is expected[4]
            return event.time

        for _ in range(300):
            op = rng.random()
            if op < 0.45:
                time = cursor + rng.choice(self.DELTAS)
                priority = rng.choice(self.PRIORITIES)
                tag = len(handles)
                event = queue.push(time, lambda: None, (tag,),
                                   priority=priority)
                oracle.schedule(time, priority, tag, event)
                handles.append(event)
            elif op < 0.60:
                time = cursor + rng.choice(self.DELTAS)
                queue.post(time, lambda: None, ("post",))
                oracle.schedule(time, PRIORITY_NORMAL, "post", None)
            elif op < 0.75 and handles:
                victim = rng.choice(handles)
                victim.cancel()
                oracle.cancel(victim)
            elif op < 0.90:
                until = (
                    None if rng.random() < 0.3
                    else cursor + rng.choice(self.DELTAS)
                )
                time = check_pop(until)
                # Only finite times advance the cursor, so one popped
                # `inf` does not collapse the rest of the stream onto it.
                if time is not None and time != float("inf"):
                    cursor = max(cursor, time)
            else:
                assert queue.peek_time() == oracle.peek_time()
            assert len(queue) == len(oracle)
        while len(oracle):
            check_pop(None)
        assert queue.pop_next() is None
        assert len(queue) == 0


class TestClearBookkeeping:
    """``clear()`` must leave the queue indistinguishable from a fresh
    one (modulo the monotone sequence counter and the free list)."""

    def test_clear_resets_live_and_dead_counters(self, queue):
        events = [
            queue.push(0.1 + (i % 7) * SPAN, lambda: None, (i,))
            for i in range(100)
        ]
        for event in events[:30]:
            event.cancel()
        queue.clear()
        assert len(queue) == 0
        assert not queue
        assert queue._live == 0
        assert queue._dead == 0
        assert queue.peek_time() is None
        assert queue.pop_next() is None

    def test_clear_cancel_detaches_retained_handles(self, queue):
        handles = [
            queue.push(0.5 + i * SPAN, lambda: None, (i,))
            for i in range(5)
        ]
        queue.clear()
        # A handle retained across the clear tells the truth: the event
        # will never fire.  A late cancel must stay a no-op rather than
        # driving the live counter negative.
        for handle in handles:
            assert handle.cancelled
            handle.cancel()
        assert len(queue) == 0
        queue.push(1.0, lambda: None, ("fresh",))
        assert len(queue) == 1

    def test_clear_resets_window_for_reuse(self, queue):
        # Leave a far event pending behind a denied pop, then clear: an
        # early push on the reused queue must be the next to pop.
        queue.push(1.0e6, lambda: None, ("far",))
        assert queue.pop_next(until=1.0e6 - 1.0) is None
        queue.clear()
        queue.push(0.25, lambda: None, ("early",))
        assert queue.peek_time() == 0.25
        event = queue.pop_next()
        assert event is not None and event.args == ("early",)

    def test_clear_empties_every_wheel_structure(self):
        queue = recycling_queue()
        for time in REGION_TIMES + (float("inf"),):
            queue.push(time, lambda: None, (time,))
            queue.post(time, lambda: None, (time,))
        queue.clear()
        assert queue._heap == []
        assert len(queue._free) == STOCK - len(REGION_TIMES) - 1

    def test_reuse_after_clear_preserves_ordering(self, queue):
        for i in range(50):
            queue.push(float(i % 5), lambda: None, (("old", i),))
        queue.clear()
        for i in range(50):
            queue.push(float((i * 7) % 13) + 0.5, lambda: None, (("new", i),))
        rows = drain(queue)
        assert len(rows) == 50
        assert all(tag[0] == "new" for _, _, _, tag in rows)
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
