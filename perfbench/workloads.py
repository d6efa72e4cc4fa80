"""The benchmark's four workloads, driven through ``repro``'s public API.

Each workload turns a seed into a *plan*: the fixed list of session
parameters one pass runs.  A pass puts one reset at every offset of the
SAVE cycle, so the paper's per-reset quantities average over the whole
cycle and barely move between seeds; the seed picks which cycle each
reset lands in, the crash points, the simulator RNG seeds and the fleet
``base_seed``.  The simulator receives only those generated inputs.  A
run repeats the pass until its time is up, so every session of a later
pass must reproduce its pass-1 twin exactly.

Every session is a closed batch: it starts when the previous one ends,
with the tracing recorder off (``NULL_TRACE``) and the obs hub off, the
configuration the experiments run in.  Only ``fleet_mixed`` starts
worker processes.

``run_item`` returns one :class:`Outcome` per session: the simulated
counters the digest hashes, the paper's quantities, and the correctness
gate's findings.  ``fault`` forwards ablation switches (``leap_factor``,
``skip_wake_save``) to the endpoints through public arguments, which is
how the tests show that the gate fires.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.core.protocol import ProtocolHarness, build_protocol
from repro.core.reset import reset_at_count
from repro.fleet import CampaignSpec, FleetRunner, ResultStore, ScenarioGrid
from repro.fleet import aggregate as fleet_aggregate
from repro.gateway import Gateway, GatewayCrash
from repro.gateway.store import STORE_POLICIES
from repro.net.loss import BernoulliLoss
from repro.sim.trace import NULL_TRACE
from repro.workloads.scenarios import (
    run_receiver_reset_scenario,
    run_sender_reset_scenario,
)

#: SAVE interval and window of the single-SA workloads (the paper's values).
K = 25
W = 64

#: Receiver down time: shorter than one send interval, so no message
#: arrives while the host is down and every fresh message the receiver
#: discards after waking is one Claim (ii) bounds.
RECEIVER_DOWN = 1e-6


@dataclass
class Outcome:
    """One finished session (or fleet task), as the benchmark scores it.

    Attributes:
        stats: JSON-safe simulated counters, hashed into ``key`` and then
            dropped, so a long run's memory does not grow with them.
        fresh: fresh messages sent.
        attempts: send attempts (fresh plus suppressed); fleet records
            carry no suppressed count, so there it equals ``fresh``.
        delivered: fresh messages delivered.
        lost: sequence numbers lost, one entry per sender reset.
        discarded: fresh messages discarded, one entry per receiver reset.
        gaps: Fig. 1 / Fig. 2 gap per reset: the last used (sender) or
            received (receiver) sequence number minus the fetched one.
        replays: replayed messages accepted (must be 0).
        store_busy: simulated seconds the persistent device was busy.
        store_wait: longest simulated wait for the shared device.
        spreads: simulated seconds from the first to the last SA resuming,
            one entry per gateway crash.
        problems: the correctness gate's findings (empty = passed).
        seconds: host seconds of the session: build, run and score (for a
            fleet task, the worker's ``wall_time``).
        errored: a fleet task that raised instead of finishing.
        key: digest of ``stats`` (host timings are never part of it).
    """

    stats: InitVar[dict[str, Any]]
    fresh: int
    attempts: int
    delivered: int
    lost: list[int] = field(default_factory=list)
    discarded: list[int] = field(default_factory=list)
    gaps: list[int] = field(default_factory=list)
    replays: int = 0
    store_busy: float = 0.0
    store_wait: float = 0.0
    spreads: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    seconds: float = 0.0
    errored: bool = False
    key: str = field(init=False)

    def __post_init__(self, stats: dict[str, Any]) -> None:
        text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
        self.key = hashlib.sha256(text.encode()).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _cycle_start(rng: random.Random, first: int, cycles: int) -> int:
    """The first send of one of ``cycles`` SAVE cycles after ``first``."""
    return first + K * rng.randrange(cycles)


def harness_stats(harness: ProtocolHarness) -> dict[str, Any]:
    """The public counters of one wired pair (the digest's raw material)."""
    sender, receiver, link = harness.sender, harness.receiver, harness.link
    return {
        "sent": sender.sent_total,
        "suppressed": sender.sends_suppressed,
        "link": [link.offered, link.dropped, link.delivered, link.injected],
        "verdicts": {v.value: n for v, n in receiver.verdict_counts.items()},
        "audit": dataclasses.asdict(harness.auditor.report()),
        "sender_resets": [dataclasses.asdict(r) for r in sender.reset_records],
        "receiver_resets": [dataclasses.asdict(r) for r in receiver.reset_records],
    }


def _private_busy(harness: ProtocolHarness) -> float:
    return sum(
        end.store.busy_time
        for end in (harness.sender, harness.receiver)
        if getattr(end, "store", None) is not None
    )


def _pair_outcome(harness: ProtocolHarness, report: Any, seconds: float) -> Outcome:
    """Score one single-SA session with exactly one reset."""
    receiver_reset = bool(harness.receiver.reset_records)
    return Outcome(
        seconds=seconds,
        stats=harness_stats(harness),
        fresh=harness.sender.sent_total,
        attempts=harness.sender.sent_total + harness.sender.sends_suppressed,
        delivered=report.audit.delivered_uids,
        lost=list(report.lost_seqnums_per_reset),
        discarded=[report.fresh_discarded] if receiver_reset else [],
        gaps=report.gaps_sender + report.gaps_receiver,
        replays=report.replays_accepted,
        store_busy=_private_busy(harness),
    )


def _fault_args(fault: Mapping[str, Any] | None, *allowed: str) -> dict[str, Any]:
    return {k: v for k, v in (fault or {}).items() if k in allowed}


class Workload:
    """A named workload: ``plan(seed)`` items, each run by ``run_item``.

    ``run_item`` returns the item's sessions and the host seconds they
    count toward the rates: the sessions' own build-run-score time, or a
    whole fleet campaign including its pool, store appends and
    aggregation.
    """

    name = ""
    #: Tail percentile reported when at least ten sessions lie beyond it.
    tail_q = 95.0

    def __init__(self, workdir: Path, fault: Mapping[str, Any] | None = None) -> None:
        self.workdir = workdir
        self.fault = dict(fault or {})

    def plan(self, seed: int) -> list[dict[str, Any]]:
        raise NotImplementedError

    def warmup_item(self, plan: list[dict[str, Any]]) -> dict[str, Any]:
        return plan[0]

    def run_item(self, item: dict[str, Any]) -> tuple[list[Outcome], float]:
        raise NotImplementedError


class SaResetStream(Workload):
    """One SA, plain encap, lossless in-order link, one reset per session."""

    name = "sa_reset_stream"
    tail_q = 90.0
    #: Resets land in one of CYCLES SAVE cycles starting at FIRST; every
    #: session sends LENGTH messages.
    FIRST = 1000
    CYCLES = 20
    LENGTH = 2500

    def plan(self, seed: int) -> list[dict[str, Any]]:
        rng = _rng(self.name, seed)
        items = []
        for offset in range(K):
            for side in ("sender", "receiver"):
                reset_after = _cycle_start(rng, self.FIRST, self.CYCLES) + offset
                items.append({
                    "side": side,
                    "reset_after": reset_after,
                    "after": self.LENGTH - reset_after,
                    "seed": rng.getrandbits(32),
                })
        return items

    def run_item(self, item: dict[str, Any]) -> tuple[list[Outcome], float]:
        started = time.perf_counter()
        if item["side"] == "sender":
            result = run_sender_reset_scenario(
                k=K, w=W, reset_after_sends=item["reset_after"],
                messages_after_reset=item["after"], seed=item["seed"],
                **_fault_args(self.fault, "leap_factor", "skip_wake_save"),
            )
        else:
            result = run_receiver_reset_scenario(
                k=K, w=W, reset_after_receives=item["reset_after"],
                messages_after_reset=item["after"], down_time=RECEIVER_DOWN,
                seed=item["seed"], **_fault_args(self.fault, "leap_factor"),
            )
        seconds = time.perf_counter() - started
        outcome = _pair_outcome(result.harness, result.report, seconds)
        # The scenarios score with check_bounds=True: Section 5's bounds.
        if not result.report.converged:
            outcome.problems.extend(result.report.bound_violations)
        return [outcome], seconds


class GatewayStorm(Workload):
    """64 SAs on one gateway, one correlated crash, rotating store policy."""

    name = "gateway_storm"
    tail_q = 75.0
    N_SAS = 64
    #: Send attempts per SA: fixed, so the workload does not grow with N.
    BUDGET = 300

    def plan(self, seed: int) -> list[dict[str, Any]]:
        rng = _rng(self.name, seed)
        # The crash lands mid-stream, jittered by a few sends that stay
        # clear of every policy's SAVE boundaries (multiples of 50 here):
        # crossing one would swing the sequence numbers lost by K.
        return [
            {
                "side": side,
                "policy": policy,
                "crash_after": self.BUDGET // 2 + 10 + rng.randrange(5),
                "seed": rng.getrandbits(32),
            }
            for side in ("sender", "receiver") for policy in STORE_POLICIES
        ]

    def run_item(self, item: dict[str, Any]) -> tuple[list[Outcome], float]:
        started = time.perf_counter()
        gateway = Gateway(
            n_sas=self.N_SAS, side=item["side"], store_policy=item["policy"],
            seed=item["seed"],
            **_fault_args(self.fault, "leap_factor", "skip_wake_save"),
        )
        down = RECEIVER_DOWN if item["side"] == "receiver" else None
        GatewayCrash(after_sends=item["crash_after"], down_time=down).apply(gateway)
        gateway.start_traffic(count=self.BUDGET)
        gateway.run()
        report = gateway.score()
        seconds = time.perf_counter() - started
        pairs = [unit.harness for unit in gateway.sas]
        reports = [o.report for o in report.sa_outcomes]
        store = report.store_stats
        outcome = Outcome(
            stats={
                "sas": [harness_stats(h) for h in pairs],
                "store": store,
                "spreads": report.recovery_spreads,
            },
            fresh=sum(h.sender.sent_total for h in pairs),
            attempts=sum(h.sender.sent_total + h.sender.sends_suppressed for h in pairs),
            delivered=sum(r.audit.delivered_uids for r in reports),
            lost=[lost for r in reports for lost in r.lost_seqnums_per_reset],
            discarded=(
                [r.fresh_discarded for r in reports]
                if item["side"] == "receiver" else []
            ),
            gaps=[g for r in reports for g in r.gaps_sender + r.gaps_receiver],
            replays=report.replays_accepted,
            store_busy=store["busy_time"],
            store_wait=max(store["max_save_wait"], store["max_fetch_wait"]),
            spreads=list(report.recovery_spreads),
            seconds=seconds,
        )
        if not report.converged:
            outcome.problems.extend(report.bound_violations[:5] or ["not converged"])
        return [outcome], seconds


class EspReorder(Workload):
    """One SA with real ESP integrity under loss and bounded reordering."""

    name = "esp_reorder"
    tail_q = 90.0
    #: Reorder degrees on both sides of the window size W, cycled over
    #: the reset offsets.
    DEGREES = (8, 32, 60, 72, 128, 200)
    FIRST = 600
    CYCLES = 8
    MESSAGES = 1600
    LOSS = 0.01
    REORDER_PROBABILITY = 0.1

    def plan(self, seed: int) -> list[dict[str, Any]]:
        rng = _rng(self.name, seed)
        return [
            {
                "degree": self.DEGREES[offset % len(self.DEGREES)],
                "side": side,
                "reset_after": _cycle_start(rng, self.FIRST, self.CYCLES) + offset,
                "seed": rng.getrandbits(32),
            }
            for offset in range(K) for side in ("sender", "receiver")
        ]

    def run_item(self, item: dict[str, Any]) -> tuple[list[Outcome], float]:
        started = time.perf_counter()
        harness = build_protocol(
            trace=NULL_TRACE, encap="esp", k_p=K, k_q=K, w=W,
            seed=item["seed"], loss=BernoulliLoss(self.LOSS),
            reorder_degree=item["degree"],
            reorder_probability=self.REORDER_PROBABILITY,
            **_fault_args(self.fault, "leap_factor", "skip_wake_save"),
        )
        target = harness.sender if item["side"] == "sender" else harness.receiver
        down = 2 * harness.sender.costs.t_save if item["side"] == "sender" else RECEIVER_DOWN
        reset_at_count(target, item["reset_after"], down_for=down)
        harness.sender.start_traffic(count=self.MESSAGES)
        harness.run()
        assert harness.reorder_stage is not None
        harness.reorder_stage.flush()
        harness.run()
        # Loss and reordering void the Section 5 hypotheses; what must
        # still hold is that no replay is ever accepted.
        report = harness.score(check_bounds=False)
        seconds = time.perf_counter() - started
        outcome = _pair_outcome(harness, report, seconds)
        if report.replays_accepted:
            outcome.problems.append(f"{report.replays_accepted} replays accepted")
        return [outcome], seconds


class FleetMixed(Workload):
    """A mixed campaign of short sessions through ``FleetRunner(jobs=2)``."""

    name = "fleet_mixed"
    tail_q = 95.0
    JOBS = 2
    FIRST = 100
    CYCLES = 4
    AFTER = 150

    def __init__(self, workdir: Path, fault: Mapping[str, Any] | None = None) -> None:
        super().__init__(workdir, fault)
        self.jobs = self.JOBS
        self._batches = 0

    def plan(self, seed: int) -> list[dict[str, Any]]:
        rng = _rng(self.name, seed)
        def offsets() -> list[int]:
            start = _cycle_start(rng, self.FIRST, self.CYCLES)
            return [start + offset for offset in range(K)]

        fault = _fault_args(self.fault, "leap_factor", "skip_wake_save")
        grids = [
            ScenarioGrid("sender_reset", {
                "reset_after_sends": offsets(),
                "messages_after_reset": self.AFTER, **fault,
            }),
            ScenarioGrid("receiver_reset", {
                "reset_after_receives": offsets(),
                "messages_after_reset": self.AFTER,
                "down_time": RECEIVER_DOWN, "replay_history_after": True,
                **_fault_args(fault, "leap_factor"),
            }),
            ScenarioGrid("loss_reset", {
                "reset_after_sends": offsets(),
                "messages_after_reset": self.AFTER, "loss_rate": 0.02,
            }),
            ScenarioGrid("gateway_crash", {
                "n_sas": [2, 3, 4], "store_policy": list(STORE_POLICIES),
                "crash_after_sends": self.FIRST + 10,
                "messages_after_reset": self.AFTER,
            }),
        ]
        spec = CampaignSpec(
            name=self.name, grids=tuple(grids), base_seed=rng.getrandbits(32),
        )
        spec.tasks()  # validates the grids; expansion counts as set-up
        return [{"spec": spec.to_dict()}]

    def warmup_item(self, plan: list[dict[str, Any]]) -> dict[str, Any]:
        spec = CampaignSpec.from_dict(plan[0]["spec"])
        first = ScenarioGrid(spec.grids[0].scenario, {
            axis: (value[:1] if isinstance(value, list) else value)
            for axis, value in spec.grids[0].params.items()
        })
        warm = CampaignSpec(name="warmup", grids=(first, first), base_seed=spec.base_seed)
        return {"spec": warm.to_dict()}

    def run_item(self, item: dict[str, Any]) -> tuple[list[Outcome], float]:
        spec = CampaignSpec.from_dict(item["spec"])
        self._batches += 1
        path = self.workdir / f"batch-{self._batches}.jsonl"
        started = time.perf_counter()
        try:
            store = ResultStore(path)
            run = FleetRunner(spec, store, jobs=self.jobs).run()
            summary = fleet_aggregate.aggregate_store(store).summary()
            seconds = time.perf_counter() - started
        finally:
            path.unlink(missing_ok=True)
        outcomes = [_record_outcome(record) for record in run.executed]
        if summary.tasks != len(outcomes) or summary.ok != summary.converged:
            outcomes[0].problems.append(
                f"aggregate disagrees: {summary.tasks} tasks, {summary.ok} ok, "
                f"{summary.converged} converged"
            )
        return outcomes, seconds


def _record_outcome(record: Any) -> Outcome:
    """Score one fleet task record (its flattened ConvergenceReport)."""
    stats = record.to_dict()
    stats.pop("wall_time")
    metrics = record.metrics
    outcome = Outcome(stats=stats, fresh=0, attempts=0, delivered=0,
                      seconds=record.wall_time, errored=record.status != "ok")
    if outcome.errored:
        outcome.problems.append(f"{record.task_id}: {record.error}")
        return outcome
    outcome.fresh = outcome.attempts = metrics["fresh_sent"]
    outcome.delivered = metrics["delivered_uids"]
    outcome.lost = list(metrics["lost_seqnums_per_reset"])
    if metrics["receiver_resets"] and not metrics["sender_resets"]:
        outcome.discarded = [metrics["fresh_discarded"]]
    outcome.gaps = metrics["gaps_sender"] + metrics["gaps_receiver"]
    outcome.replays = metrics["replays_accepted"]
    store = metrics.get("store")
    if store:
        outcome.store_busy = store["busy_time"]
        outcome.store_wait = max(store["max_save_wait"], store["max_fetch_wait"])
        outcome.spreads = list(metrics["recovery_spreads"])
    if not metrics["converged"]:
        outcome.problems.append(
            f"{record.task_id}: {metrics['bound_violations'][:3] or 'not converged'}"
        )
    return outcome


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SaResetStream, GatewayStorm, EspReorder, FleetMixed)
}


def make_workload(
    name: str, workdir: Path, fault: Mapping[str, Any] | None = None
) -> Workload:
    """Build a workload by name (``workdir`` holds fleet result stores)."""
    try:
        cls = WORKLOADS[name]
    except KeyError:
        known = ", ".join(WORKLOADS)
        raise ValueError(f"unknown workload {name!r}; known: {known}") from None
    return cls(workdir, fault)
