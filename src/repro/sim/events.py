"""Scheduled events and the event queue's state (one binary heap).

Events are ordered by ``(time, priority, sequence)``.  ``priority`` breaks
ties between events scheduled for the same instant (lower runs first), and
``sequence`` (a monotonically increasing insertion counter) guarantees FIFO
order among equal-priority simultaneous events — the property that makes
simulation runs reproducible.

:class:`EventQueue` is the state of a single binary heap of
``(time, priority, sequence, event, callback, args)`` tuples: tuple
comparison is a single C call that short-circuits on ``time`` and can
never reach the ``event`` slot because ``sequence`` is unique.  The
:class:`~repro.sim.engine.Engine` is the only code that pushes onto and
pops off it (``call_at`` / ``post_at`` and ``run``); the queue itself
keeps the counters and the one operation :meth:`Event.cancel` reaches,
compaction.  Cancellation is lazy — a cancelled entry stays in the heap,
flagged, until it reaches the top or a compaction drops it.

**Zero-alloc hot path.**  Two mechanisms remove per-event allocation:

* :meth:`~repro.sim.engine.Engine.post_at` / ``post_later`` schedule a
  fire-and-forget callback with *no* :class:`Event` object at all — the
  entry tuple is the event.  Internal hot paths that never cancel (link
  deliveries, one-shot bookkeeping) use them.
* Cancellable events drawn through
  :meth:`~repro.sim.engine.Engine.call_at` / ``call_later`` come from a
  per-queue free list when possible.  ``Engine.run`` only recycles an
  event when ``sys.getrefcount`` proves the run loop holds the last
  reference — a handle retained anywhere (a
  :class:`~repro.sim.process.Timer`, test code, a stale variable) pins the
  object and it is simply not reused, so the pinned contract
  "``cancel()`` after fire is harmless" can never alias a new incarnation.
"""

from __future__ import annotations

import sys as _sys
from heapq import heapify
from sys import getrefcount
from typing import Any, Callable

#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Priority for bookkeeping that must run before normal events at the same time.
PRIORITY_EARLY = -10
#: Priority for bookkeeping that must run after normal events at the same time.
PRIORITY_LATE = 10

#: Maximum events kept on the free list (bounds stale-reference pinning).
#: Recycling is gated on refcount semantics, which only CPython provides;
#: a zero cap disables the free list entirely elsewhere.
_POOL_CAP = 4096 if _sys.implementation.name == "cpython" else 0


def _probe_direct_refs() -> int:
    """Refcount of an object held only in the calling frame's local.

    The recycling guard in ``Engine.run`` asks "does anything besides
    this loop still reference the event?".  What count that corresponds
    to depends on the interpreter's calling convention (whether passing
    the local to ``getrefcount`` adds a reference), so the sole-reference
    baseline is probed at import rather than hardcoded.
    """
    # Held in a local while passed, exactly as the run loop holds
    # `event` — passing a temporary instead would let the interpreter
    # hand over the sole reference and the probe would read one short.
    probe = object()
    return getrefcount(probe)


#: getrefcount() value meaning "the caller's local is the only reference"
#: when the holder of the local calls ``getrefcount`` directly — the form
#: the engine's run loop uses.
_DIRECT_RECLAIM_REFS = _probe_direct_refs()


class Event:
    """A cancellable callback scheduled at a simulated time.

    Instances are created by :meth:`repro.sim.engine.Engine.call_at` /
    ``call_later``; user code normally only keeps them around to call
    :meth:`cancel`.

    The scheduling fields live in :attr:`entry` — the exact
    ``(time, priority, sequence, event, callback, args)`` tuple the queue
    orders — and are exposed read-only as properties.  Holding the one
    tuple instead of five separate slots makes (re)arming a pooled handle
    a single store, which is what keeps the cancellable path within reach
    of the zero-alloc ``post_at`` path.
    """

    __slots__ = ("entry", "cancelled", "_queue")

    @property
    def time(self) -> float:
        """Scheduled time in simulated seconds."""
        return self.entry[0]

    @property
    def priority(self) -> int:
        """Tie-break priority (lower fires first)."""
        return self.entry[1]

    @property
    def sequence(self) -> int:
        """Insertion counter (FIFO tie-break among equal priorities)."""
        return self.entry[2]

    @property
    def callback(self) -> Callable[..., None]:
        """The scheduled callable."""
        return self.entry[4]

    @property
    def args(self) -> tuple[Any, ...]:
        """Positional arguments passed to :attr:`callback`."""
        return self.entry[5]

    def cancel(self) -> None:
        """Prevent this event from firing (no-op if already fired)."""
        # The counter bookkeeping is inlined rather than delegated to the
        # queue: cancellation is on the timer-churn hot path (every
        # re-armed inactivity timer cancels its predecessor).
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is None:
            return
        queue._live -= 1
        dead = queue._dead = queue._dead + 1
        if dead > queue._live and dead >= queue.COMPACT_MIN:
            queue._compact()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entry = self.entry
        if entry is None:
            return "<Event (pooled)>"
        name = getattr(entry[4], "__qualname__", repr(entry[4]))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={entry[0]:.9f} prio={entry[1]} {name}{state}>"


#: Entry layout (and the reason mixed call/post entries sort together:
#: comparison never reaches index 3).
Entry = tuple  # (time, priority, sequence, Event | None, callback, args)

#: Events are allocated as bare shells whose three slots the engine fills
#: inline — cheaper than a constructor call frame on a free-list miss.
_new_event = Event.__new__


class EventQueue:
    """The event heap and its counters, owned by one engine.

    ``len()`` is O(1): ``_live`` counts live entries (the
    engine's schedule paths increment it; :meth:`Event.cancel` and the
    run loop decrement it) and ``_dead`` counts cancelled entries still
    in the heap.  ``_free`` is the event free list (refcount-guarded
    recycling; see module doc).
    """

    #: Compact once at least this many dead entries outnumber the live
    #: ones (i.e. the dead fraction exceeds COMPACT_FRACTION).  Below it,
    #: dead entries are cheaper to skip at the top than to filter out.
    COMPACT_MIN = 4096
    #: The effective dead-fraction threshold of the ``dead > live``
    #: trigger in :meth:`Event.cancel`.
    COMPACT_FRACTION = 0.5

    __slots__ = ("_heap", "_seq", "_live", "_dead", "_free")

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._seq = 0
        self._live = 0
        self._dead = 0
        self._free: list[Event] = []

    def __len__(self) -> int:
        return self._live

    def _compact(self) -> None:
        """Rebuild the heap from live entries only.

        Ordering keys are immutable, so heapify restores exactly the same
        ``(time, priority, sequence)`` pop order minus the dead entries.
        The list is mutated in place — never rebound — because the
        engine's run loop holds a direct reference to it.
        """
        heap = self._heap
        heap[:] = [e for e in heap if e[3] is None or not e[3].cancelled]
        self._dead = 0
        heapify(heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EventQueue live={self._live} dead={self._dead} "
            f"heap={len(self._heap)}>"
        )
