"""Deterministic discrete-event simulation engine (system S1).

The engine is a classic event-heap simulator:

* :class:`~repro.sim.engine.Engine` owns the virtual clock and the event
  heap and runs callbacks in ``(time, priority, insertion order)`` order,
  which makes every run fully deterministic.
* :class:`~repro.sim.events.Event` is a cancellable scheduled callback.
* :class:`~repro.sim.process.SimProcess` is the base class for simulated
  entities (hosts, links, adversaries) that need to schedule work.
* :class:`~repro.sim.process.Timer` is a recurring timer built on top.
* :class:`~repro.sim.trace.TraceRecorder` captures a structured log of
  everything that happened, for debugging and for assertions in tests.

Example::

    from repro.sim import Engine

    engine = Engine()
    ticks = []
    engine.call_later(1.0, lambda: ticks.append(engine.now))
    engine.run()
    assert ticks == [1.0]
"""

from repro.sim.engine import Engine, EngineEventLimitError
from repro.sim.events import Event
from repro.sim.process import SimProcess, Timer
from repro.sim.trace import NULL_TRACE, NullTraceRecorder, TraceRecord, TraceRecorder

__all__ = [
    "Engine",
    "EngineEventLimitError",
    "Event",
    "NULL_TRACE",
    "NullTraceRecorder",
    "SimProcess",
    "Timer",
    "TraceRecord",
    "TraceRecorder",
]
