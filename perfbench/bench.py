"""The benchmark's measurement: set-up, the timed loop, metrics, digest, provenance.

:func:`measure` runs one workload for a wall-clock budget and returns
the result object ``run.py`` prints.  With ``trace=False`` it reports the
end-to-end metrics; with ``trace=True`` it spends half the budget
untraced and half traced (a third each for ``fleet_mixed``: untraced,
traced with two workers, traced in-process) and reports the per-layer
metrics plus the tracing overhead.

Host time is wall time on the benchmark machine; ``sim_*`` metrics are
simulated quantities computed over the first pass of the plan, so they
repeat exactly for a given seed and move only when the protocol's
behaviour does.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.tracing import COUNTERS, SpanRecorder, traced
from perfbench.workloads import Outcome, Workload, make_workload

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Set-up repetitions; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Modules the import probe loads in a fresh interpreter.
IMPORT_PROBE = "import repro, repro.fleet, repro.gateway, repro.workloads.scenarios"

#: Tail percentiles tried, highest first, when the workload's own has
#: fewer than ten sessions beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Metric units, keyed by the names BENCHMARK.json lists, in its order.
E2E_UNITS = {
    "msgs_per_s": "1/s",
    "tasks_per_s": "1/s",
    "session_ms_p50": "ms",
    "session_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "sim_lost_per_reset": "count",
    "sim_discarded_per_reset": "count",
    "sim_gap_per_reset": "count",
    "sim_delivered_frac": "frac",
}

LAYER_UNITS = {
    "sim.events": "count",
    "sim.self_s": "s",
    "sim.ns_per_event": "ns",
    "sender.sent": "count",
    "sender.suppressed": "count",
    "sender.useful_frac": "frac",
    "sender.self_s": "s",
    "ipsec.seal_s": "s",
    "ipsec.open_s": "s",
    "ipsec.window_s": "s",
    "ipsec.window_updates": "count",
    "ipsec.window_discards": "count",
    "ipsec.integrity_failures": "count",
    "net.offered": "count",
    "net.dropped": "count",
    "net.delivered_frac": "frac",
    "net.send_s": "s",
    "receiver.processed": "count",
    "receiver.buffered": "count",
    "receiver.self_s": "s",
    "audit.calls": "count",
    "audit.self_s": "s",
    "store.saves": "count",
    "store.fetches": "count",
    "store.aborted_frac": "frac",
    "store.self_s": "s",
    "store.busy_sim_s": "s",
    "store.max_wait_sim_s": "s",
    "gateway.setup_s": "s",
    "gateway.recovery_spread_sim_s": "s",
    "gateway.score_s": "s",
    "harness.build_s": "s",
    "harness.score_s": "s",
    "fleet.expand_s": "s",
    "fleet.exec_s": "s",
    "fleet.dispatch_wait_s": "s",
    "fleet.append_s": "s",
    "fleet.aggregate_s": "s",
    "fleet.pool_efficiency": "frac",
    "fleet.task_errors": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "frac",
}

#: Span layers whose self time each ``*_s`` per-layer metric reports.
SELF_TIME = {
    "sim.self_s": "sim",
    "sender.self_s": "sender",
    "ipsec.seal_s": "ipsec.seal",
    "ipsec.open_s": "ipsec.open",
    "ipsec.window_s": "ipsec.window",
    "net.send_s": "net.send",
    "receiver.self_s": "receiver",
    "audit.self_s": "audit",
    "store.self_s": "store",
    "gateway.setup_s": "gateway.setup",
    "gateway.score_s": "gateway.score",
    "harness.build_s": "harness.build",
    "harness.score_s": "harness.score",
    "fleet.expand_s": "fleet.expand",
    "fleet.dispatch_wait_s": "fleet.dispatch_wait",
    "fleet.append_s": "fleet.append",
    "fleet.aggregate_s": "fleet.aggregate",
}


@dataclass
class Phase:
    """The sessions one timed phase ran, and its pass-1 digest."""

    outcomes: list[Outcome] = field(default_factory=list)
    host_s: float = 0.0
    pass_size: int = 0

    @property
    def first_pass(self) -> list[Outcome]:
        return self.outcomes[: self.pass_size]

    @property
    def digest(self) -> str:
        keys = "\n".join(outcome.key for outcome in self.first_pass)
        return hashlib.sha256(keys.encode()).hexdigest()

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.problems)

    def rate(self, workload: Workload) -> float:
        if workload.name == "fleet_mixed":
            return len(self.outcomes) / self.host_s
        return sum(o.fresh for o in self.outcomes) / self.host_s


def run_phase(workload: Workload, plan: list[dict[str, Any]], seconds: float,
              recorder: SpanRecorder | None = None) -> Phase:
    """Run whole passes of ``plan`` until ``seconds`` of host time are spent.

    At least one pass always completes.  Every later session is checked
    against its pass-1 twin: a different digest is a failed session.
    """
    phase = Phase()
    started = time.perf_counter()
    first: list[str] = []
    index = 0
    while index < len(plan) or time.perf_counter() - started < seconds:
        if recorder is not None:
            recorder.session = len(phase.outcomes)
        outcomes, host_s = workload.run_item(plan[index % len(plan)])
        phase.host_s += host_s
        for outcome in outcomes:
            if index < len(plan):
                first.append(outcome.key)
            elif outcome.key != first[len(phase.outcomes) % len(first)]:
                outcome.problems.append("session differs from its pass-1 twin")
            phase.outcomes.append(outcome)
        index += 1
    phase.pass_size = len(first)
    return phase


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(preferred: float, n: int) -> float:
    """The preferred tail percentile, or the highest one below it with at
    least ten of ``n`` sessions beyond it."""
    for q in (preferred,) + tuple(q for q in TAIL_LADDER if q < preferred):
        if n * (1 - q / 100.0) >= 10:
            return q
    return 50.0


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb() -> float:
    """Max RSS of this process and of its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload: Workload, phase: Phase, setup_s: float) -> tuple[dict[str, float], float]:
    """The end-to-end metrics of one untraced phase, and the tail used."""
    outcomes = phase.outcomes
    times = [o.seconds for o in outcomes]
    q = tail_percentile(workload.tail_q, len(times))
    first = phase.first_pass
    attempts = sum(o.attempts for o in first)
    values = {
        "msgs_per_s": sum(o.fresh for o in outcomes) / phase.host_s,
        "tasks_per_s": len(outcomes) / phase.host_s,
        "session_ms_p50": statistics.median(times) * 1e3,
        "session_ms_tail": _percentile(times, q) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - phase.failed / len(outcomes),
        "sim_lost_per_reset": _mean([x for o in first for x in o.lost]),
        "sim_discarded_per_reset": _mean([x for o in first for x in o.discarded]),
        "sim_gap_per_reset": _mean([x for o in first for x in o.gaps]),
        "sim_delivered_frac": (
            sum(o.delivered for o in first) / attempts if attempts else 0.0
        ),
    }
    return values, q


def per_layer(rec: SpanRecorder, phase: Phase, fleet_rec: SpanRecorder | None,
              fleet_phase: Phase | None, overhead: float, jobs: int) -> dict[str, float]:
    """The per-layer metrics of a traced phase (fleet layers from their own)."""
    counts = rec.counts
    values: dict[str, float] = {name: 0.0 for name in LAYER_UNITS}
    for name, layer in SELF_TIME.items():
        if not name.startswith("fleet."):
            values[name] = rec.self_s(layer)
    for name in COUNTERS:
        if name in values:
            values[name] = counts[name]
    if counts["sim.events"]:
        values["sim.ns_per_event"] = rec.self_s("sim") / counts["sim.events"] * 1e9
    attempts = counts["sender.sent"] + counts["sender.suppressed"]
    if attempts:
        values["sender.useful_frac"] = counts["sender.sent"] / attempts
    if counts["net.offered"]:
        values["net.delivered_frac"] = 1.0 - counts["net.dropped"] / counts["net.offered"]
    if counts["store.saves"]:
        values["store.aborted_frac"] = counts["store.aborted"] / counts["store.saves"]
    first = phase.first_pass
    values["store.busy_sim_s"] = _mean([o.store_busy for o in first])
    values["store.max_wait_sim_s"] = max(o.store_wait for o in first)
    values["gateway.recovery_spread_sim_s"] = _mean([x for o in first for x in o.spreads])
    if fleet_rec is not None and fleet_phase is not None:
        for name, layer in SELF_TIME.items():
            if name.startswith("fleet."):
                values[name] = fleet_rec.self_s(layer)
        exec_s = sum(o.seconds for o in fleet_phase.outcomes)
        runner_s = fleet_rec.total_s("fleet.dispatch_wait")
        values["fleet.exec_s"] = exec_s
        values["fleet.pool_efficiency"] = exec_s / (jobs * runner_s) if runner_s else 0.0
        values["fleet.task_errors"] = sum(
            1 for o in fleet_phase.outcomes if o.errored
        )
    values["trace.wall_s"] = phase.host_s
    values["trace.unattributed_s"] = phase.host_s - rec.root_s
    values["trace.overhead_frac"] = overhead
    return values


def measure_setup(workload: Workload, seed: int) -> tuple[float, list[dict[str, Any]]]:
    """Median of repeated set-ups: a cold import of the library in a fresh
    interpreter, plan expansion and one warm-up session (for the fleet, a
    small campaign, which starts the worker pool)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    plan: list[dict[str, Any]] = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                       cwd=ROOT, timeout=120)
        plan = workload.plan(seed)
        workload.run_item(workload.warmup_item(plan))
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), plan


def provenance() -> dict[str, Any]:
    """Where and on what code a run happened."""
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_sha": git_sha,
        "source_sha256": source.hexdigest(),
    }


def _layer_table(rec: SpanRecorder, wall: float) -> list[str]:
    lines = [f"  {'layer':<22}{'calls':>10}{'self_s':>10}{'share':>8}"]
    for layer, (calls, self_s, _total) in sorted(
        rec.totals.items(), key=lambda item: -item[1][1]
    ):
        if not calls:
            continue
        lines.append(f"  {layer:<22}{int(calls):>10}{self_s:>10.3f}{self_s / wall:>8.1%}")
    lines.append(f"  {'(unattributed)':<22}{'':>10}{wall - rec.root_s:>10.3f}"
                 f"{(wall - rec.root_s) / wall:>8.1%}")
    return lines


def measure(name: str, seed: int, seconds: float, trace: bool
            ) -> tuple[dict[str, Any], list[str]]:
    """Run one workload; returns the result object and report lines.

    Writes the result, with provenance and the plan, and in a traced run
    the kept spans, under ``perfbench/out/``.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="stores-") as workdir:
        return _measure(make_workload(name, Path(workdir)), seed, seconds, trace)


def _measure(workload: Workload, seed: int, seconds: float, trace: bool
             ) -> tuple[dict[str, Any], list[str]]:
    info = provenance()
    setup_s, plan = measure_setup(workload, seed)
    lines = [
        f"workload {workload.name} seed {seed} seconds {seconds} trace {int(trace)}",
        "provenance " + json.dumps(info, sort_keys=True),
        f"setup_s {setup_s:.4f} (median of {SETUP_REPEATS})",
    ]
    fleet = workload.name == "fleet_mixed"
    budget = seconds / (3 if trace and fleet else 2 if trace else 1)
    untraced = run_phase(workload, plan, budget)
    phases = [untraced]
    problems = [p for o in untraced.outcomes for p in o.problems]
    replays = sum(o.replays for o in untraced.outcomes)
    record: dict[str, Any] = {"provenance": info, "plan": plan,
                              "digest": untraced.digest}
    if not trace:
        values, q = end_to_end(workload, untraced, setup_s)
        units = E2E_UNITS
        lines.append(
            f"sessions {len(untraced.outcomes)} in {untraced.host_s:.2f} host s; "
            f"tail = p{q:g} ({len(untraced.outcomes) * (1 - q / 100):.0f} beyond)"
        )
    else:
        rec = SpanRecorder()
        with traced(rec):
            traced_phase = run_phase(workload, plan, budget, rec)
        fleet_rec = fleet_phase = None
        layer_rec, layer_phase = rec, traced_phase
        if fleet:
            # Workers' spans die with them: the parent-side fleet layers
            # come from the two-worker phase, the layers inside the tasks
            # from an in-process pass over the same plan.
            fleet_rec, fleet_phase = rec, traced_phase
            layer_rec = SpanRecorder()
            workload.jobs = 1
            with traced(layer_rec):
                layer_phase = run_phase(workload, plan, budget, layer_rec)
            workload.jobs = workload.JOBS
        phases += [traced_phase] + ([layer_phase] if fleet else [])
        overhead = 1.0 - traced_phase.rate(workload) / untraced.rate(workload)
        values = per_layer(layer_rec, layer_phase, fleet_rec, fleet_phase,
                           overhead, workload.JOBS if fleet else 1)
        units = LAYER_UNITS
        for phase in phases[1:]:
            problems += [p for o in phase.outcomes for p in o.problems]
            replays += sum(o.replays for o in phase.outcomes)
            if phase.digest != untraced.digest:
                problems.append(f"traced digest {phase.digest[:16]} differs "
                                f"from untraced {untraced.digest[:16]}")
        lines.append(f"per-layer self time ({layer_phase.host_s:.2f} traced host s):")
        lines += _layer_table(layer_rec, layer_phase.host_s)
        if fleet_rec is not None:
            lines.append(f"parent-side fleet layers ({fleet_phase.host_s:.2f} host s):")
            lines += _layer_table(fleet_rec, fleet_phase.host_s)
        lines.append(f"trace overhead {overhead:.1%} (traced vs untraced "
                     f"{'tasks' if fleet else 'msgs'}/s)")
        layer_rec.write(OUT / f"{workload.name}-s{seed}.spans.jsonl",
                        {"workload": workload.name, "seed": seed, **info})
    attempted = sum(len(p.outcomes) for p in phases)
    failed = sum(p.failed for p in phases)
    correct = not problems and replays == 0
    lines.append(f"digest {untraced.digest[:16]} over {untraced.pass_size} "
                 f"pass-1 sessions")
    for problem in problems[:10]:
        lines.append(f"FAIL {problem}")
    if replays:
        lines.append(f"INVALID: {replays} replayed messages accepted")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    record.update(result)
    path = OUT / f"{workload.name}-s{seed}-t{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result, lines
