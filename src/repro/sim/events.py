"""Scheduled events and the event queue (one binary heap).

Events are ordered by ``(time, priority, sequence)``.  ``priority`` breaks
ties between events scheduled for the same instant (lower runs first), and
``sequence`` (a monotonically increasing insertion counter) guarantees FIFO
order among equal-priority simultaneous events — the property that makes
simulation runs reproducible.

:class:`EventQueue` is a single binary heap of
``(time, priority, sequence, event, callback, args)`` tuples: tuple
comparison is a single C call that short-circuits on ``time`` and can
never reach the ``event`` slot because ``sequence`` is unique.
Cancellation is lazy — a cancelled entry stays in the heap, flagged, until
it reaches the top or a compaction drops it.

**Zero-alloc hot path.**  Two mechanisms remove per-event allocation:

* :meth:`EventQueue.post` schedules a fire-and-forget callback with *no*
  :class:`Event` object at all — the entry tuple is the event.  Internal
  hot paths that never cancel (link deliveries, one-shot bookkeeping)
  use it via :meth:`~repro.sim.engine.Engine.post_at` / ``post_later``.
* Cancellable events drawn through :meth:`EventQueue.push` come from a
  per-queue free list when possible.  An event is only recycled when
  ``sys.getrefcount`` proves the queue holds the last reference — a
  handle retained anywhere (a :class:`~repro.sim.process.Timer`, test
  code, a stale variable) pins the object and it is simply not reused, so
  the pinned contract "``cancel()`` after fire/clear is harmless" can
  never alias a new incarnation.
"""

from __future__ import annotations

import sys as _sys
from heapq import heapify, heappop, heappush
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


def _probe_reclaim_refs() -> int:
    """Refcount observed through ``_reclaim``'s exact call shape.

    The recycling guard asks "does anything outside this call chain still
    reference the event?".  What count that corresponds to depends on the
    interpreter's calling convention (CPython 3.11 steals argument
    references from the caller's stack; older versions kept an extra one),
    so the sole-reference baseline is probed at import rather than
    hardcoded.
    """

    def consume(obj: object) -> int:
        return getrefcount(obj)

    # The caller must HOLD the object in a local while passing it — that
    # is the shape of every real _reclaim() call site.  Passing a
    # temporary instead would let the interpreter hand over the sole
    # reference and the probe would read one short.
    probe = object()
    return consume(probe)


#: getrefcount() value meaning "the caller's local is the only reference"
#: when observed from inside a helper the caller passed the object to.
_RECLAIM_REFS = _probe_reclaim_refs()

#: The same sole-reference baseline when the holder of the local calls
#: ``getrefcount`` directly (one fewer frame in the chain) — the form the
#: engine's inlined run loop uses.
_DIRECT_RECLAIM_REFS = _RECLAIM_REFS - 1

#: Expected count in :meth:`EventQueue._reclaim` for a queue-drained
#: event: the helper baseline plus the event's own :attr:`Event.entry`
#: back-reference (the entry tuple holds the event at index 3).
_RECLAIM_REFS_ENTRY = _RECLAIM_REFS + 1


class Event:
    """A cancellable callback scheduled at a simulated time.

    Instances are created by :class:`EventQueue.push` /
    :meth:`repro.sim.engine.Engine.call_at`; user code normally only keeps
    them around to call :meth:`cancel`.

    The scheduling fields live in :attr:`entry` — the exact
    ``(time, priority, sequence, event, callback, args)`` tuple the queue
    orders — and are exposed read-only as properties.  Holding the one
    tuple instead of five separate slots makes (re)arming a pooled handle
    a single store, which is what keeps the cancellable push path within
    reach of the zero-alloc :meth:`EventQueue.post` path.
    """

    __slots__ = ("entry", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.entry: tuple | None = (time, priority, sequence, self,
                                    callback, args)
        self.cancelled = False
        self._queue: EventQueue | None = None

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

    def fire(self) -> None:
        """Invoke the callback (the engine calls this; not user code)."""
        entry = self.entry
        entry[4](*entry[5])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        entry = self.entry
        if entry is None:
            return "<Event (pooled)>"
        name = getattr(entry[4], "__qualname__", repr(entry[4]))
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={entry[0]:.9f} prio={entry[1]} {name}{state}>"


#: Entry layout (and the reason mixed push/post entries sort together:
#: comparison never reaches index 3).
Entry = tuple  # (time, priority, sequence, Event | None, callback, args)

#: Allocating an Event *shell* and filling its slots inline is ~3x
#: cheaper than running ``Event.__init__`` (the ctor call frame costs
#: more than the three slot stores).  Free-list misses use this; the
#: ctor remains for ordinary construction.
_new_event = Event.__new__


class EventQueue:
    """Binary-heap priority queue of scheduled callbacks.

    ``len()`` / ``bool()`` are O(1): the queue tracks a live-entry counter
    that :meth:`push`/:meth:`post` increment and :meth:`Event.cancel` /
    the pop paths decrement.
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
        # Event free list (refcount-guarded recycling; see module doc).
        self._free: list[Event] = []

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at ``time`` and return the event."""
        sequence = self._seq
        self._seq = sequence + 1
        free = self._free
        if free:
            # Free-list invariant: recycled events arrive with
            # cancelled=False, _queue already bound to this queue, and
            # entry=None — so re-arming is the single entry store below.
            event = free.pop()
        else:
            event = _new_event(Event)
            event.cancelled = False
            event._queue = self
        entry = (time, priority, sequence, event, callback, args)
        event.entry = entry
        self._live += 1
        heappush(self._heap, entry)
        return event

    def post(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Schedule a fire-and-forget callback with no :class:`Event`.

        The zero-alloc fast path: the entry tuple is the whole event.  Use
        for schedules that are never cancelled (deliveries, one-shot
        bookkeeping); there is no handle to cancel.  Ordering is identical
        to :meth:`push` at the same instant — posts and pushes share one
        sequence counter.
        """
        sequence = self._seq
        self._seq = sequence + 1
        self._live += 1
        heappush(self._heap, (time, priority, sequence, None, callback, args))

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _reclaim(self, event: Event) -> None:
        """Recycle a cancelled, drained event if nothing else holds it.

        Refcount proof: the caller has just popped the entry tuple off the
        heap, so the expected references are the caller's local, this
        call's plumbing, and the event's own ``entry`` back-reference
        (:data:`_RECLAIM_REFS_ENTRY`).  Any surplus is an external handle,
        which vetoes recycling.  Vetoed handles keep their ``entry`` for
        introspection; only recycled events are stripped.
        """
        if (len(self._free) < _POOL_CAP
                and getrefcount(event) == _RECLAIM_REFS_ENTRY):
            event.entry = None
            event.cancelled = False
            event._queue = self
            self._free.append(event)
        else:
            event._queue = None

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

    # ------------------------------------------------------------------
    # Popping
    # ------------------------------------------------------------------
    def _prune(self) -> bool:
        """Drop (and recycle) dead entries off the top of the heap.

        Returns ``False`` when the queue holds no live events.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[3]
            if event is None or not event.cancelled:
                return True
            heappop(heap)
            self._dead -= 1
            del entry
            self._reclaim(event)
        return False

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises:
            IndexError: if the queue holds no live events.
        """
        event = self.pop_next()
        if event is None:
            raise IndexError("pop from empty EventQueue")
        return event

    def pop_next(self, until: float | None = None) -> Event | None:
        """Pop the earliest live event, or ``None``.

        When ``until`` is given and the earliest live event is strictly
        after it, the event is left queued and ``None`` is returned.
        Entries scheduled through :meth:`post` are materialised into an
        :class:`Event` here — the engine's inlined run loop fires entries
        directly and never pays this cost.
        """
        if not self._prune():
            return None
        heap = self._heap
        entry = heap[0]
        if until is not None and entry[0] > until:
            return None
        heappop(heap)
        self._live -= 1
        event = entry[3]
        if event is None:
            free = self._free
            if free:
                event = free.pop()
            else:
                event = _new_event(Event)
                event.cancelled = False
            event.entry = entry
        event._queue = None
        return event

    def peek_time(self) -> float | None:
        """Return the time of the earliest live event, or ``None`` if empty."""
        if not self._prune():
            return None
        return self._heap[0][0]

    def clear(self) -> None:
        """Drop all pending events.

        Every pending event is *cancel-detached*: flagged ``cancelled``
        and unlinked, so a handle retained across the clear reports the
        truth (the event will never fire) and a late ``cancel()`` stays a
        harmless no-op instead of corrupting the live counter.
        """
        heap = self._heap
        for entry in heap:
            event = entry[3]
            if event is not None:
                event.cancelled = True
                event._queue = None
        heap.clear()
        self._live = 0
        self._dead = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EventQueue live={self._live} dead={self._dead} "
            f"heap={len(self._heap)}>"
        )
