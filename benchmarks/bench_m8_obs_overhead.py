"""Bench M8 — live-telemetry overhead: streamed vs stream-off campaigns.

Runs the same serial campaign through :class:`FleetRunner` twice — once
with the v2 streaming plane on (progress ledger, worker heartbeats,
resource snapshots) and once stream-off — and gates the fractional
slowdown at the documented budget (DESIGN.md "Observability": <= 5%).
Stream-off must also stay byte-identical to the pre-streaming runner,
which ``tests/obs/test_obs_parity.py`` pins; this bench owns the
throughput side of the same contract.

Both variants use best-of-N wall time (min is the noise-robust
estimator of a repeated timing).

Also runnable standalone, printing the comparison directly::

    PYTHONPATH=src python benchmarks/bench_m8_obs_overhead.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import perf
from repro.fleet import CampaignSpec, FleetRunner, ResultStore, ScenarioGrid
from repro.obs.stream import StreamConfig

SESSIONS = 32
ROUNDS = 3

#: Max fractional slowdown the streaming plane may cost per campaign.
OVERHEAD_BUDGET = 0.05


def _bench_spec(sessions: int) -> CampaignSpec:
    """Long enough streams that per-session compute dominates process
    startup, so the per-task emit/flush cost is measured against real
    work rather than against fixed overhead."""
    half = sessions // 2
    return CampaignSpec(
        name="bench-m8",
        base_seed=31337,
        grids=(
            ScenarioGrid(
                scenario="sender_reset",
                params={
                    "k": 25,
                    "reset_after_sends": [200, 300, 400],
                    "messages_after_reset": 400,
                },
                sessions=sessions - half,
            ),
            ScenarioGrid(
                scenario="loss_reset",
                params={
                    "k": 25,
                    "loss_rate": [0.0, 0.02, 0.05],
                    "reset_after_sends": 300,
                    "messages_after_reset": 400,
                },
                sessions=half,
            ),
        ),
    )


def _run_campaign(streamed: bool, workdir: str) -> None:
    spec = _bench_spec(SESSIONS)
    store = ResultStore(Path(workdir) / "results.jsonl")
    stream = (
        StreamConfig(ledger_path=Path(workdir) / "progress.jsonl")
        if streamed
        else None
    )
    outcome = FleetRunner(spec, store, jobs=1, stream=stream).run()
    assert len(outcome.executed) == SESSIONS
    assert all(record.status == "ok" for record in outcome.executed)


def _best_of(streamed: bool, workdir: str, rounds: int = ROUNDS) -> float:
    _run_campaign(streamed, tempfile.mkdtemp(dir=workdir))  # warmup
    best = float("inf")
    for _ in range(rounds):
        with perf.Stopwatch() as clock:
            _run_campaign(streamed, tempfile.mkdtemp(dir=workdir))
        best = min(best, clock.elapsed)
    return best


def bench_obs_stream_overhead(benchmark, report_rate):
    """Stream-on campaign under the timer; stream-off measured inline
    and the on/off delta gated at :data:`OVERHEAD_BUDGET`."""
    with tempfile.TemporaryDirectory() as workdir:
        off_best = _best_of(False, workdir)
        benchmark.pedantic(
            lambda: _run_campaign(True, tempfile.mkdtemp(dir=workdir)),
            rounds=ROUNDS, iterations=1, warmup_rounds=1,
        )
    on_best = benchmark.stats.stats.min
    overhead = on_best / off_best - 1.0
    benchmark.extra_info.update({
        "stream_off_s": off_best,
        "stream_on_s": on_best,
        "overhead_fraction": overhead,
        "overhead_budget": OVERHEAD_BUDGET,
    })
    report_rate("sessions/s", SESSIONS)
    print(f"stream-off best {off_best:.3f}s, stream-on best {on_best:.3f}s "
          f"-> overhead {overhead * 100:+.2f}% (budget "
          f"{OVERHEAD_BUDGET * 100:.0f}%)")
    assert overhead <= OVERHEAD_BUDGET, (
        f"streaming telemetry costs {overhead * 100:.2f}% "
        f"(> {OVERHEAD_BUDGET * 100:.0f}% budget): "
        f"stream-off {off_best:.3f}s vs stream-on {on_best:.3f}s"
    )


def main() -> None:
    print(f"obs streaming overhead, {SESSIONS}-session serial campaign "
          f"(best of {ROUNDS})")
    with tempfile.TemporaryDirectory() as workdir:
        results: dict[bool, float] = {}
        for streamed in (False, True):
            elapsed = _best_of(streamed, workdir)
            results[streamed] = elapsed
            label = "stream-on " if streamed else "stream-off"
            report = perf.measure_rate(
                f"fleet {label}", "sessions/s", SESSIONS, elapsed
            )
            print(f"  {report.format()}")
        overhead = results[True] / results[False] - 1.0
        verdict = "OK" if overhead <= OVERHEAD_BUDGET else "OVER BUDGET"
        print(f"  streaming overhead: {overhead * 100:+.2f}% "
              f"(budget {OVERHEAD_BUDGET * 100:.0f}%) {verdict}")


if __name__ == "__main__":
    main()
