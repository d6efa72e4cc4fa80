"""Tests for repro.sim.process (SimProcess and Timer)."""

import pytest

from repro.sim.events import EventQueue
from repro.sim.process import SimProcess, Timer


class TestSimProcess:
    def test_now_tracks_engine(self, engine):
        process = SimProcess(engine, "x")
        engine.call_later(3.0, lambda: None)
        engine.run()
        assert process.now == 3.0

    def test_trace_records_with_name(self, engine):
        process = SimProcess(engine, "worker")
        process.trace("did_thing", value=7)
        record = engine.trace.last(source="worker")
        assert record is not None
        assert record.kind == "did_thing"
        assert record.detail["value"] == 7

    def test_call_later_helper(self, engine):
        process = SimProcess(engine, "x")
        fired = []
        process.call_later(1.0, fired.append, "ok")
        engine.run()
        assert fired == ["ok"]


class TestTimer:
    def test_ticks_at_interval(self, engine):
        ticks = []
        timer = Timer(engine, 1.0, lambda: ticks.append(engine.now))
        timer.start()
        engine.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_first_delay_override(self, engine):
        ticks = []
        timer = Timer(engine, 1.0, lambda: ticks.append(engine.now))
        timer.start(first_delay=0.25)
        engine.run(until=2.5)
        assert ticks == [0.25, 1.25, 2.25]

    def test_stop(self, engine):
        ticks = []
        timer = Timer(engine, 1.0, lambda: ticks.append(engine.now))
        timer.start()
        engine.run(until=1.5)
        timer.stop()
        engine.run(until=5.0)
        assert ticks == [1.0]
        assert not timer.running

    def test_stop_from_inside_callback_stays_stopped(self, engine):
        """Regression: a callback calling stop() must not be re-armed."""
        ticks = []
        timer = Timer(engine, 1.0, lambda: (ticks.append(engine.now), timer.stop()))
        timer.start()
        engine.run(until=10.0)
        assert ticks == [1.0]

    def test_restart_from_inside_callback_respected(self, engine):
        ticks = []

        def callback():
            ticks.append(engine.now)
            if len(ticks) == 1:
                timer.start(first_delay=0.5)  # take control once

        timer = Timer(engine, 1.0, callback)
        timer.start()
        engine.run(until=3.0)
        assert ticks == [1.0, 1.5, 2.5]

    def test_reset_restarts_period(self, engine):
        ticks = []
        timer = Timer(engine, 1.0, lambda: ticks.append(engine.now))
        timer.start()
        engine.call_later(0.75, timer.reset)
        engine.run(until=2.0)
        assert ticks == [1.75]

    def test_reset_churn_fires_once_and_keeps_live_count_exact(self, engine):
        # Enough resets to cross the compaction threshold twice: every
        # reset cancels its predecessor, so exactly one timer event stays
        # live however many dead entries pile up in the heap.
        resets = 2 * EventQueue.COMPACT_MIN
        ticks = []
        pending = []
        last_reset = []
        timer = Timer(engine, 1.0, lambda: ticks.append(engine.now))

        def churn(remaining):
            timer.reset()
            pending.append(engine.pending_events)
            if remaining > 1:
                engine.post_later(1e-4, churn, remaining - 1)
            else:
                last_reset.append(engine.now)

        timer.start()
        engine.post_later(1e-4, churn, resets)
        engine.run(until=resets * 1e-4 + 1.5)
        assert len(pending) == resets
        assert set(pending) == {1}
        assert ticks == [last_reset[0] + 1.0]
        assert engine.pending_events == 1

    def test_reset_when_stopped_is_noop(self, engine):
        timer = Timer(engine, 1.0, lambda: None)
        timer.reset()
        assert not timer.running

    def test_rejects_bad_interval(self, engine):
        with pytest.raises(ValueError, match="interval"):
            Timer(engine, 0.0, lambda: None)
