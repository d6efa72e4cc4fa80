"""Tests of the benchmark itself: determinism, the correctness gate, the
metric names it prints and the command's failure mode.

Each test runs a short slice of a workload's plan, not a timed run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.bench import end_to_end, per_layer, run_phase
from perfbench.tracing import SpanRecorder, traced
from perfbench.workloads import WORKLOADS, _record_outcome, make_workload
from repro.fleet import CampaignSpec
from repro.fleet.runner import execute_task

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def names(kind: str) -> list[str]:
    return [metric["name"] for metric in BENCHMARK[kind]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_is_a_function_of_the_seed(name: str, tmp_path: Path) -> None:
    workload = make_workload(name, tmp_path)
    assert workload.plan(7) == workload.plan(7)
    assert workload.plan(7) != workload.plan(8)


@pytest.mark.parametrize("name", ["sa_reset_stream", "esp_reorder"])
def test_digest_repeats_for_a_seed_and_differs_between_seeds(
    name: str, tmp_path: Path
) -> None:
    workload = make_workload(name, tmp_path)

    def digest(seed: int) -> str:
        return run_phase(workload, workload.plan(seed)[:2], 0.0).digest

    assert digest(1) == digest(1)
    assert digest(1) != digest(2)


def test_traced_and_untraced_runs_agree(tmp_path: Path) -> None:
    workload = make_workload("esp_reorder", tmp_path)
    plan = workload.plan(3)[:2]
    untraced = run_phase(workload, plan, 0.0)
    rec = SpanRecorder()
    with traced(rec):
        traced_phase = run_phase(workload, plan, 0.0, rec)
    assert traced_phase.digest == untraced.digest
    assert rec.self_s("ipsec.open") > 0 and rec.counts["sim.events"] > 0
    # Self times plus the unattributed rest add up to the root spans.
    assert sum(t[1] for t in rec.totals.values()) == pytest.approx(rec.root_s)


def test_printed_metric_names_match_benchmark_json(tmp_path: Path) -> None:
    workload = make_workload("sa_reset_stream", tmp_path)
    plan = workload.plan(1)[:2]
    rec = SpanRecorder()
    with traced(rec):
        phase = run_phase(workload, plan, 0.0, rec)
    values, _q = end_to_end(workload, phase, setup_s=1.0)
    assert list(values) == names("end_to_end")
    layers = per_layer(rec, phase, None, None, overhead=0.0, jobs=1)
    assert list(layers) == names("per_layer")


def test_gate_passes_unmodified_code_and_fires_on_seeded_fault(tmp_path: Path) -> None:
    clean = make_workload("sa_reset_stream", tmp_path)
    faulty = make_workload("sa_reset_stream", tmp_path, fault={"leap_factor": 0})
    senders = [item for item in clean.plan(5) if item["side"] == "sender"][:2]
    assert run_phase(clean, senders, 0.0).failed == 0
    phase = run_phase(faulty, senders, 0.0)
    assert phase.failed == len(senders)
    values, _q = end_to_end(faulty, phase, setup_s=1.0)
    assert values["ok_frac"] == 0.0


def test_gateway_gate_fires_on_seeded_fault(tmp_path: Path) -> None:
    workload = make_workload("gateway_storm", tmp_path, fault={"leap_factor": 0})
    workload.N_SAS = 4
    item = workload.plan(1)[0]
    assert item["side"] == "sender"
    outcomes, _seconds = workload.run_item(item)
    assert outcomes[0].problems


def test_fleet_gate_fires_on_seeded_fault(tmp_path: Path) -> None:
    fault = {"skip_wake_save": True, "leap_factor": 0}
    spec_data = make_workload("fleet_mixed", tmp_path, fault=fault).plan(2)[0]["spec"]
    task = CampaignSpec.from_dict(spec_data).tasks()[0]
    assert task.scenario == "sender_reset"
    assert _record_outcome(execute_task(task)).problems
    clean = CampaignSpec.from_dict(
        make_workload("fleet_mixed", tmp_path).plan(2)[0]["spec"]
    ).tasks()[0]
    assert not _record_outcome(execute_task(clean)).problems


def test_command_fails_without_the_library(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "sa_reset_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_benchmark_json_contract() -> None:
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
