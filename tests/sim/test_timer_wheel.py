"""Engine event ordering under adversarial schedules, plus an oracle fuzzer.

Every case drives :class:`~repro.sim.engine.Engine` — the one scheduler
and popper — through ``call_at`` / ``post_at``, :meth:`Event.cancel` and
``run(until, max_events)``.  The fixture classes target the schedule
shapes a bucketed timer design is structurally tempted to get wrong, and
pin that the binary heap gets them right:

* same-instant FIFO and priorities among events far in the future,
* timers exactly at a ``run(until=...)`` horizon (inclusive),
* far-future timers across eleven orders of magnitude, including ``inf``,
* schedule-cancel-reschedule storms (dead entries interleaved with live
  ones),
* clearing by cancelling every pending handle: the run that drains them
  must reset the live/dead counters and detach every retained handle, so
  an engine is fully reusable.

Each of those cases runs twice, on a fresh engine (id ``heap``) and on
one whose ``Event`` free list is stocked first (id ``wheel``, the name
the case had when a timer wheel was the second event core), so every
``call_at`` reuses a recycled handle.

The fuzzer drives an engine and a reference model through one random op
stream — ``call_at``, ``post_at``, ``cancel``, single-event
``run(until, max_events=1)``, bounded ``run(until)`` and the live count
— and requires identical observable streams, including the clock.  The
model is a plain list searched for its minimum ``(time, priority,
sequence)`` key on every pop, so it shares no code with the heap, its
lazy cancellation, compaction or free list.  The deltas cover
same-instant collisions, sub-microsecond gaps, times nine orders of
magnitude ahead and ``inf``.
"""

import random

import pytest

from repro.sim.engine import Engine
from repro.sim.events import (
    PRIORITY_EARLY,
    PRIORITY_LATE,
    PRIORITY_NORMAL,
)


#: Spacing, in seconds, between the schedule's clusters of timers.
SPAN = 8.0

#: The smallest time step the cases below resolve.
TICK = 1.0e-6

#: Timers from half a second to ~285 years ahead.
REGION_TIMES = (0.5, 100.0, 1.0e4, 1.0e6, 9.0e9)

#: Recycled handles stocked on the free list of a ``wheel`` engine.
STOCK = 256


def noop(*args):
    pass


class Sim:
    """An engine plus a log of what fired, with each entry's order key.

    ``sequence`` here counts this harness's schedules; the engine's own
    counter may start higher (a ``wheel`` engine spent some on stocking)
    but advances in the same order, so the keys sort identically.
    """

    def __init__(self, engine):
        self.engine = engine
        self.sequence = 0
        self.rows = []

    def _key(self, time, priority):
        key = (time, priority, self.sequence)
        self.sequence += 1
        return key

    def _fire(self, key, tag):
        assert self.engine.now == key[0]
        self.rows.append((*key, tag))

    def call_at(self, time, tag, priority=PRIORITY_NORMAL):
        key = self._key(time, priority)
        return self.engine.call_at(time, self._fire, key, tag,
                                   priority=priority)

    def post_at(self, time, tag, priority=PRIORITY_NORMAL):
        key = self._key(time, priority)
        self.engine.post_at(time, self._fire, key, tag, priority=priority)

    def drain(self, until=None, max_events=None):
        """Run and return the ``(time, prio, seq, tag)`` rows that fired."""
        start = len(self.rows)
        fired = self.engine.run(until=until, max_events=max_events)
        rows = self.rows[start:]
        assert fired == len(rows)
        return rows

    @property
    def pending(self):
        return self.engine.pending_events


def fresh_sim():
    return Sim(Engine())


def recycling_sim():
    """An engine whose free list already holds ``STOCK`` recycled events."""
    engine = Engine()
    for i in range(STOCK):
        engine.call_at(float(i), noop, i).cancel()
    assert engine.run() == 0  # drains the dead entries, recycling them
    assert len(engine._queue._free) == STOCK
    assert engine.now == 0.0
    return Sim(engine)


SIMS = {"heap": fresh_sim, "wheel": recycling_sim}


@pytest.fixture(params=sorted(SIMS))
def sim(request):
    """A fresh engine and a recycling one; every fixture case runs on each."""
    return SIMS[request.param]()


def tags(rows):
    return [row[3] for row in rows]


def in_key_order(rows):
    return rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))


class TestCascadeBoundaryFifo:
    def test_same_tick_fifo_across_cascade(self, sim):
        # 60 events at one far instant, interleaved with near and far
        # traffic.  FIFO among the equal-key events must hold.
        instant = 2.5 * SPAN
        expected = []
        for i in range(60):
            sim.call_at(instant, ("same", i))
            expected.append(("same", i))
            if i % 3 == 0:
                sim.call_at(1.0 + i * 1e-3, ("near", i))
            if i % 7 == 0:
                sim.call_at(instant * 10, ("far", i))
        rows = sim.drain()
        assert [tag for tag in tags(rows) if tag[0] == "same"] == expected
        assert in_key_order(rows)

    def test_priorities_hold_across_cascade(self, sim):
        instant = 3.0 * SPAN
        sim.call_at(instant, "normal", priority=PRIORITY_NORMAL)
        sim.call_at(instant, "late", priority=PRIORITY_LATE)
        sim.call_at(instant, "early", priority=PRIORITY_EARLY)
        assert tags(sim.drain()) == ["early", "normal", "late"]

    def test_window_boundary_times_stay_ordered(self, sim):
        # Exactly on, one tick below and one tick above a span boundary,
        # scheduled in reverse: the firing order must be seamless.
        for tag, time in [
            ("above", SPAN + TICK),
            ("on", SPAN),
            ("below", SPAN - TICK),
        ]:
            sim.call_at(time, tag)
        assert tags(sim.drain()) == ["below", "on", "above"]


class TestUntilBoundary:
    def test_event_exactly_at_until_is_popped(self, sim):
        sim.call_at(7.0, "at")
        sim.call_at(7.0 + TICK, "after")
        assert tags(sim.drain(until=7.0)) == ["at"]
        assert sim.drain(until=7.0) == []
        assert sim.pending == 1  # the later event stayed queued
        assert sim.engine.now == 7.0

    def test_until_at_far_event_after_window_advance(self, sim):
        # `until` exactly at a far event's time is inclusive; one tick
        # earlier leaves it queued.
        far = 5.0 * SPAN
        sim.call_at(far, "far")
        assert sim.drain(until=far - TICK) == []
        assert sim.pending == 1
        assert [row[0] for row in sim.drain(until=far)] == [far]
        assert sim.pending == 0

    def test_peek_time_after_denied_until(self, sim):
        # A denied horizon idles the clock to it; the next single step
        # still lands on the queued event's own time.
        sim.call_at(3.0 * SPAN, "x")
        assert sim.drain(until=1.0) == []
        assert sim.engine.now == 1.0
        assert tags(sim.drain(max_events=1)) == ["x"]
        assert sim.engine.now == 3.0 * SPAN


class TestFarFutureTimers:
    def test_every_wheel_region_pops_in_order(self, sim):
        rng = random.Random(11)
        times = [t for t in REGION_TIMES for _ in range(5)]
        rng.shuffle(times)
        for i, time in enumerate(times):
            sim.call_at(time, i)
        rows = sim.drain()
        assert [row[0] for row in rows] == sorted(times)
        assert in_key_order(rows)

    def test_infinity_fires_last(self, sim):
        sim.call_at(float("inf"), "inf")
        sim.call_at(9.0e9, "huge")
        sim.call_at(0.25, "soon")
        assert tags(sim.drain()) == ["soon", "huge", "inf"]

    def test_post_reaches_every_region(self, sim):
        for i, time in enumerate(REGION_TIMES):
            sim.post_at(time, i)
        assert tags(sim.drain()) == list(range(len(REGION_TIMES)))


class TestRescheduleStorm:
    def test_schedule_cancel_reschedule_storm(self, sim):
        # DPD-reset shape over a wide time range: each round cancels the
        # previous handle and re-arms elsewhere.  Exactly one survivor
        # per chain may fire, in global key order.
        rng = random.Random(23)
        chains = {}
        for round_no in range(600):
            chain = rng.randrange(40)
            if chain in chains:
                chains[chain].cancel()
            time = rng.choice(REGION_TIMES) + rng.random()
            chains[chain] = sim.call_at(time, (chain, round_no))
        assert sim.pending == len(chains)
        rows = sim.drain()
        assert len(rows) == len(chains)
        assert in_key_order(rows)
        assert {tag[0] for tag in tags(rows)} == set(chains)

    def test_storm_live_counter_stays_exact(self, sim):
        events = []
        for i in range(500):
            events.append(sim.call_at(0.1 + (i % 9) * SPAN, i))
            if i % 2:
                events[i // 2].cancel()
        expected = sum(1 for e in events if not e.cancelled)
        assert sim.pending == expected
        assert len(sim.drain()) == expected


class OracleQueue:
    """The ordering contract written out longhand.

    Pending entries are ``[time, priority, sequence, tag, handle]`` lists;
    ``handle`` is the engine's :class:`Event` for ``call_at`` schedules
    (``None`` for posts), so a cancel on the real handle can be mirrored
    here.
    """

    def __init__(self):
        self.pending = []
        self.sequence = 0

    def schedule(self, time, priority, tag, handle):
        self.pending.append([time, priority, self.sequence, tag, handle])
        self.sequence += 1

    def cancel(self, handle):
        self.pending = [e for e in self.pending if e[4] is not handle]

    def earliest(self):
        if not self.pending:
            return None
        return min(self.pending, key=lambda e: (e[0], e[1], e[2]))

    def pop_next(self, until):
        entry = self.earliest()
        if entry is None or (until is not None and entry[0] > until):
            return None
        self.pending.remove(entry)
        return entry

    def __len__(self):
        return len(self.pending)


class TestCoreParityFuzzer:
    """Drive the engine and the oracle through an identical op stream.

    Every observable — what fired and in which order, the clock after
    each run, fired handles' own fields, denied steps, live counts — must
    match exactly.
    """

    DELTAS = (0.0, 1e-6, 0.5, 7.999999, 8.0, 9.5, 300.0, 2.0e4, 9.0e9,
              float("inf"))
    #: Horizons stay finite until the final drain, so the clock never
    #: reaches ``inf`` and collapses the rest of the stream onto it.
    HORIZONS = DELTAS[:-1]
    PRIORITIES = (PRIORITY_EARLY, PRIORITY_NORMAL, PRIORITY_LATE)

    @pytest.mark.parametrize("seed", range(80))
    def test_lockstep_streams_identical(self, seed):
        rng = random.Random(seed)
        engine, oracle = Engine(), OracleQueue()
        fired = []
        handles = []

        def check_run(until, max_events):
            """Run the engine once and match it against the oracle."""
            before = engine.now
            start = len(fired)
            count = engine.run(until=until, max_events=max_events)
            expected = []
            while max_events is None or len(expected) < max_events:
                entry = oracle.pop_next(until)
                if entry is None:
                    break
                expected.append(entry)
            assert count == len(expected)
            assert fired[start:] == [tuple(e[:4]) for e in expected]
            for entry in expected:
                if entry[4] is not None:
                    # A retained handle keeps its entry once fired: it
                    # was neither recycled nor re-armed.
                    assert entry[4].time == entry[0]
                    assert entry[4]._queue is None
            if until is not None and len(expected) != max_events:
                # Not stopped by max_events: the clock idles to `until`.
                assert engine.now == max(before, until)
            elif expected:
                assert engine.now == expected[-1][0]
            else:
                assert engine.now == before

        def record(time, priority, sequence, tag):
            assert engine.now == time
            fired.append((time, priority, sequence, tag))

        for _ in range(300):
            op = rng.random()
            cursor = engine.now
            if op < 0.45:
                time = cursor + rng.choice(self.DELTAS)
                priority = rng.choice(self.PRIORITIES)
                tag = len(handles)
                event = engine.call_at(time, record, time, priority,
                                       oracle.sequence, tag,
                                       priority=priority)
                oracle.schedule(time, priority, tag, event)
                handles.append(event)
            elif op < 0.60:
                time = cursor + rng.choice(self.DELTAS)
                engine.post_at(time, record, time, PRIORITY_NORMAL,
                               oracle.sequence, "post")
                oracle.schedule(time, PRIORITY_NORMAL, "post", None)
            elif op < 0.75 and handles:
                # Victims include fired and already-cancelled handles:
                # cancelling those must be a no-op.
                victim = rng.choice(handles)
                victim.cancel()
                oracle.cancel(victim)
            elif op < 0.90:
                # One step, bounded or not.  An unbounded step that
                # would fire an `inf` event is bounded instead.
                until = cursor + rng.choice(self.HORIZONS)
                nxt = oracle.earliest()
                if rng.random() < 0.3 and (nxt is None
                                           or nxt[0] != float("inf")):
                    until = None
                check_run(until, max_events=1)
            else:
                check_run(cursor + rng.choice(self.HORIZONS), None)
            assert engine.pending_events == len(oracle)
        check_run(None, None)
        assert engine.pending_events == 0
        assert engine._queue._heap == []
        assert engine._queue._dead == 0


class TestClearBookkeeping:
    """Clearing an engine means cancelling every pending handle.  The
    run that drains them must leave the queue indistinguishable from a
    fresh one (modulo the monotone sequence counter and the free list)."""

    def test_clear_resets_live_and_dead_counters(self, sim):
        events = [
            sim.call_at(0.1 + (i % 7) * SPAN, i) for i in range(100)
        ]
        for event in events[:30]:
            event.cancel()
        for event in events:
            event.cancel()
        queue = sim.engine._queue
        assert sim.pending == 0
        assert queue._dead == 100
        assert sim.drain() == []
        assert queue._live == 0
        assert queue._dead == 0
        assert queue._heap == []

    def test_clear_cancel_detaches_retained_handles(self, sim):
        handles = [sim.call_at(0.5 + i * SPAN, i) for i in range(5)]
        for handle in handles:
            handle.cancel()
        assert sim.drain() == []
        # A handle retained across the drain tells the truth: the event
        # will never fire.  A late cancel must stay a no-op rather than
        # driving the live counter negative.
        for handle in handles:
            assert handle.cancelled
            assert handle._queue is None
            handle.cancel()
        assert sim.pending == 0
        sim.call_at(1.0, "fresh")
        assert sim.pending == 1

    def test_clear_resets_window_for_reuse(self, sim):
        # Leave a far event pending behind a denied run, then clear: an
        # early schedule on the reused engine must be the next to fire.
        far = sim.call_at(1.0e6, "far")
        assert sim.drain(until=1.0e6 - 1.0) == []
        far.cancel()
        sim.call_at(sim.engine.now + 0.25, "early")
        rows = sim.drain(max_events=1)
        assert tags(rows) == ["early"]
        assert rows[0][0] == 1.0e6 - 0.75
        assert sim.drain() == []

    def test_clear_empties_every_wheel_structure(self):
        sim = recycling_sim()
        handles = [
            sim.call_at(time, ("call", time))
            for time in REGION_TIMES + (float("inf"),)
        ]
        for time in REGION_TIMES + (float("inf"),):
            sim.post_at(time, ("post", time))
        for handle in handles:
            handle.cancel()
        rows = sim.drain()
        assert [tag[0] for tag in tags(rows)] == ["post"] * len(handles)
        queue = sim.engine._queue
        assert queue._heap == []
        assert (queue._live, queue._dead) == (0, 0)
        # The retained handles pin their pooled events; nothing else is
        # missing from the stock.
        assert len(queue._free) == STOCK - len(handles)

    def test_reuse_after_clear_preserves_ordering(self, sim):
        old = [sim.call_at(float(i % 5), ("old", i)) for i in range(50)]
        for handle in old:
            handle.cancel()
        for i in range(50):
            sim.call_at(float((i * 7) % 13) + 0.5, ("new", i))
        rows = sim.drain()
        assert len(rows) == 50
        assert all(tag[0] == "new" for tag in tags(rows))
        assert in_key_order(rows)
