"""Outside-in span tracing: wrappers around the library's public entry points.

The library itself is never edited.  :func:`traced` patches a fixed set
of public callables (class methods and module-level names) with wrappers
that record one span per call into a :class:`SpanRecorder`, and restores
the originals on exit.  Install it *before* a harness is built: a few
callables are bound at build time (``Link(sink=receiver.on_receive)``),
and a wrapper installed later would miss them.

Spans nest on one stack (the simulator is single-threaded), so a span's
self time is its duration minus the durations of its direct children.
Every call folds into per-layer totals; only the first
:data:`KEEP_SPANS` raw spans are kept, so a long traced run stays small
in memory.  Time spent in private code between wrapped calls is
attributed to the nearest wrapped ancestor: ``Link._deliver`` and the
reorder stage run straight off the event heap, so their time lands in
``sim`` self time, and scenario glue outside any span is reported as
unattributed.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

#: Raw spans kept per recorder; later calls still count in the totals.
KEEP_SPANS = 20_000

#: Per-layer counters the wrappers maintain besides time.
COUNTERS = (
    "sim.events",
    "sender.sent",
    "sender.suppressed",
    "ipsec.window_updates",
    "ipsec.window_discards",
    "ipsec.integrity_failures",
    "net.offered",
    "net.dropped",
    "receiver.processed",
    "receiver.buffered",
    "audit.calls",
    "store.saves",
    "store.fetches",
    "store.aborted",
)


class SpanRecorder:
    """Nested spans with per-layer self-time totals.

    ``totals[layer]`` is ``[calls, self_s, total_s]``; ``spans`` holds
    ``(span_id, parent_id, layer, start, end, session)`` tuples, times in
    ``perf_counter`` seconds.  ``session`` is the benchmark's session
    index, set by the timed loop, so the spans of one session share it.
    """

    def __init__(self) -> None:
        self.keep = KEEP_SPANS
        self.totals: dict[str, list[float]] = {}
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.session = 0
        #: Summed duration of root spans: what the trace attributes.
        self.root_s = 0.0
        #: Open spans, innermost last: ``[child_s, span_id]``.
        self.stack: list[list[Any]] = []
        self.ids = itertools.count()

    def self_s(self, layer: str) -> float:
        return float(self.totals.get(layer, (0, 0.0))[1])

    def total_s(self, layer: str) -> float:
        return float(self.totals.get(layer, (0, 0.0, 0.0))[2])

    def write(self, path: Path, meta: dict[str, Any]) -> None:
        """Write the kept spans as JSON lines after one header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"meta": meta, "totals": self.totals}) + "\n")
            for span_id, parent, layer, start, end, session in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "name": layer,
                    "start": start, "end": end, "session": session,
                }) + "\n")


Hook = Callable[..., Any]


def _wrap(
    rec: SpanRecorder, layer: str, fn: Callable[..., Any],
    before: Hook | None = None, after: Hook | None = None,
    on_error: Hook | None = None,
) -> Callable[..., Any]:
    """Record one span per call of ``fn``.

    ``before(args)`` returns a token handed to ``after(rec, args, result,
    token)``, which updates counters; ``on_error(rec, exc)`` sees an
    exception before it propagates.  The span bookkeeping is inlined: it
    runs hundreds of thousands of times per traced second.
    """
    stack, spans, keep, ids = rec.stack, rec.spans, rec.keep, rec.ids
    totals = rec.totals.setdefault(layer, [0, 0.0, 0.0])
    clock = time.perf_counter

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = before(args) if before is not None else None
        frame = [0.0, next(ids)]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if on_error is not None:
                on_error(rec, exc)
            raise
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            totals[0] += 1
            totals[1] += duration - frame[0]
            totals[2] += duration
            if stack:
                parent = stack[-1]
                parent[0] += duration
                parent_id = parent[1]
            else:
                rec.root_s += duration
                parent_id = -1
            if len(spans) < keep:
                spans.append((frame[1], parent_id, layer, start, end, rec.session))
        if after is not None:
            after(rec, args, result, token)
        return result

    return wrapper


# ----------------------------------------------------------------------
# Counter hooks (``args[0]`` is ``self`` for wrapped methods)
# ----------------------------------------------------------------------
def _bump(name: str) -> Hook:
    def after(rec: SpanRecorder, _args: tuple, _result: Any, _token: Any) -> None:
        rec.counts[name] += 1
    return after


def _events(rec: SpanRecorder, _args: tuple, fired: int, _token: Any) -> None:
    rec.counts["sim.events"] += fired


def _sent_one(rec: SpanRecorder, _args: tuple, sent: bool, _token: Any) -> None:
    rec.counts["sender.sent" if sent else "sender.suppressed"] += 1


def _sent_batch(rec: SpanRecorder, args: tuple, sent: int, _token: Any) -> None:
    rec.counts["sender.sent"] += sent
    rec.counts["sender.suppressed"] += max(0, args[1] - sent)


def _integrity_failure(rec: SpanRecorder, exc: BaseException) -> None:
    from repro.core.encap import IntegrityError

    if isinstance(exc, IntegrityError):
        rec.counts["ipsec.integrity_failures"] += 1


def _verdict(rec: SpanRecorder, _args: tuple, verdict: Any, _token: Any) -> None:
    rec.counts["ipsec.window_updates"] += 1
    if not verdict.accepted:
        rec.counts["ipsec.window_discards"] += 1


def _link_dropped(args: tuple) -> int:
    return args[0].dropped


def _offered(batch: bool) -> Hook:
    def after(rec: SpanRecorder, args: tuple, _result: Any, dropped: int) -> None:
        rec.counts["net.offered"] += len(args[1]) if batch else 1
        rec.counts["net.dropped"] += args[0].dropped - dropped
    return after


def _waiting(args: tuple) -> bool:
    receiver = args[0]
    return receiver.is_up and receiver.wait


def _received(rec: SpanRecorder, _args: tuple, _result: Any, buffered: bool) -> None:
    rec.counts["receiver.processed"] += 1
    if buffered:
        rec.counts["receiver.buffered"] += 1


def _aborted(rec: SpanRecorder, _args: tuple, aborted: int, _token: Any) -> None:
    rec.counts["store.aborted"] += aborted


def _patch_plan(rec: SpanRecorder) -> list[tuple[Any, str, Callable[..., Any]]]:
    """``(owner, attribute, wrapper)`` for every traced entry point."""
    from repro.core import protocol, receiver, sender
    from repro.core.audit import DeliveryAuditor
    from repro.core.persistent import PersistentStore
    from repro.fleet import aggregate, runner, spec
    from repro.fleet.results import ResultStore
    from repro.gateway.core import Gateway
    from repro.gateway.store import SharedStore
    from repro.ipsec.replay_window import ArrayReplayWindow, BitmapReplayWindow
    from repro.ipsec.replay_window_blocked import BlockedReplayWindow
    from repro.net.link import Link
    from repro.sim.engine import Engine

    plan: list[tuple[Any, str, Callable[..., Any]]] = [
        (Engine, "run", _wrap(rec, "sim", Engine.run, after=_events)),
        (sender.BaseSender, "send_one",
         _wrap(rec, "sender", sender.BaseSender.send_one, after=_sent_one)),
        (sender.BaseSender, "send_batch",
         _wrap(rec, "sender", sender.BaseSender.send_batch, after=_sent_batch)),
        (sender, "seal", _wrap(rec, "ipsec.seal", sender.seal)),
        (receiver, "open_packet", _wrap(
            rec, "ipsec.open", receiver.open_packet, on_error=_integrity_failure)),
        (Link, "send", _wrap(
            rec, "net.send", Link.send, before=_link_dropped, after=_offered(False))),
        (Link, "offer_many", _wrap(
            rec, "net.send", Link.offer_many, before=_link_dropped, after=_offered(True))),
        (receiver.BaseReceiver, "on_receive", _wrap(
            rec, "receiver", receiver.BaseReceiver.on_receive,
            before=_waiting, after=_received)),
        (DeliveryAuditor, "register_send", _wrap(
            rec, "audit", DeliveryAuditor.register_send, after=_bump("audit.calls"))),
        (DeliveryAuditor, "note_processed", _wrap(
            rec, "audit", DeliveryAuditor.note_processed, after=_bump("audit.calls"))),
        (PersistentStore, "begin_save", _wrap(
            rec, "store", PersistentStore.begin_save, after=_bump("store.saves"))),
        (PersistentStore, "fetch", _wrap(
            rec, "store", PersistentStore.fetch, after=_bump("store.fetches"))),
        (PersistentStore, "crash", _wrap(
            rec, "store", PersistentStore.crash, after=_aborted)),
        (SharedStore, "reserve_save", _wrap(rec, "store", SharedStore.reserve_save)),
        (SharedStore, "reserve_fetch", _wrap(rec, "store", SharedStore.reserve_fetch)),
        (Gateway, "__init__", _wrap(rec, "gateway.setup", Gateway.__init__)),
        (Gateway, "score", _wrap(rec, "gateway.score", Gateway.score)),
        (protocol.ProtocolHarness, "score",
         _wrap(rec, "harness.score", protocol.ProtocolHarness.score)),
        (spec.CampaignSpec, "tasks", _wrap(rec, "fleet.expand", spec.CampaignSpec.tasks)),
        (runner.FleetRunner, "run",
         _wrap(rec, "fleet.dispatch_wait", runner.FleetRunner.run)),
        (ResultStore, "append", _wrap(rec, "fleet.append", ResultStore.append)),
        (aggregate, "aggregate_store",
         _wrap(rec, "fleet.aggregate", aggregate.aggregate_store)),
    ]
    for window in (ArrayReplayWindow, BitmapReplayWindow, BlockedReplayWindow):
        plan.append((window, "update",
                     _wrap(rec, "ipsec.window", window.update, after=_verdict)))
    # ``build_protocol`` is imported by name into several modules; patch
    # every module-level reference so each call site goes through the span.
    build = protocol.build_protocol
    wrapped_build = _wrap(rec, "harness.build", build)
    for module in list(sys.modules.values()):
        if getattr(module, "build_protocol", None) is build:
            plan.append((module, "build_protocol", wrapped_build))
    return plan


@contextmanager
def traced(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the wrappers for the duration of the block, then restore."""
    plan = _patch_plan(rec)
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in plan]
    try:
        for owner, name, wrapper in plan:
            setattr(owner, name, wrapper)
        yield rec
    finally:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)
