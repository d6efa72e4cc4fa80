"""CLI surfaces that feed the run warehouse, plus the extended
``obs <run-dir> --check`` (progress ledger + flight recorder dumps).

Two entry points land snapshots in the same archive: the warehouse
verbs themselves (covered in test_regression_gate) and ``fleet
--archive`` after a campaign.  These drive the latter end-to-end
through its real argument parser.
"""

import json

import pytest

from repro.__main__ import main
from repro.obs.archive import KIND_FLEET, RunArchive
from repro.obs.flightrec import FLIGHT_SCHEMA
from repro.obs.stream import PROGRESS_SCHEMA


def write_spec(tmp_path):
    spec = {
        "name": "cli-archive",
        "base_seed": 2003,
        "grids": [{
            "scenario": "sender_reset",
            "sessions": 4,
            "params": {"k": 25, "messages_after_reset": 30,
                       "reset_after_sends": [40, 60]},
        }],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


class TestFleetArchive:
    def test_campaign_lands_in_warehouse(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out = tmp_path / "runs"
        warehouse = tmp_path / "wh"
        code = main(["fleet", str(spec), "--out", str(out),
                     "--archive", str(warehouse)])
        captured = capsys.readouterr().out
        assert code == 0
        assert "archived:" in captured
        entries = RunArchive(warehouse).index()
        assert len(entries) == 1
        assert entries[0]["kind"] == KIND_FLEET
        assert entries[0]["name"] == "cli-archive"

    def test_rerun_dedups_by_content(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out = tmp_path / "runs"
        warehouse = tmp_path / "wh"
        assert main(["fleet", str(spec), "--out", str(out),
                     "--archive", str(warehouse)]) == 0
        capsys.readouterr()
        # Second run resumes from the store, re-aggregates identical
        # content, and the warehouse recognizes the hash.
        assert main(["fleet", str(spec), "--out", str(out),
                     "--archive", str(warehouse)]) == 0
        assert "already archived" in capsys.readouterr().out
        assert len(RunArchive(warehouse).index()) == 1

    def test_no_archive_flag_no_warehouse(self, tmp_path, capsys):
        spec = write_spec(tmp_path)
        out = tmp_path / "runs"
        assert main(["fleet", str(spec), "--out", str(out)]) == 0
        capsys.readouterr()
        assert not (tmp_path / "run_archive").exists()


@pytest.fixture()
def checked_run(tmp_path, capsys):
    """An observed run produced through the CLI itself (so the on-disk
    layout is exactly what --check validates)."""
    run_dir = tmp_path / "run"
    assert main(["obs", str(run_dir), "--scenario", "gateway_crash",
                 "--params", json.dumps({"n_sas": 2,
                                         "crash_after_sends": 20,
                                         "messages_after_reset": 20}),
                 "--seed", "2003"]) == 0
    capsys.readouterr()
    return run_dir


def valid_ledger_lines():
    return [
        {"kind": "campaign_started", "time": 0.0,
         "schema": PROGRESS_SCHEMA, "data": {"total": 1}},
        {"kind": "task_started", "time": 0.1, "task_id": "t0"},
        {"kind": "task_finished", "time": 0.2, "task_id": "t0"},
    ]


def valid_flight_dump(worker="w0"):
    return {
        "schema": FLIGHT_SCHEMA,
        "worker": worker,
        "reason": "task_errored",
        "events": [{"kind": "task_started", "task_id": "t0"}],
        "recorded": 1,
        "dropped": 0,
        "resources": {"rss_bytes": 1},
    }


class TestObsOldHistogramLayout:
    def test_one_bucket_per_octave_metrics_file_is_refused(
        self, checked_run, capsys
    ):
        # A metrics.jsonl from before histograms were QuantileSketches:
        # its bucket indices mean other ranges, so it must not be read.
        metrics = checked_run / "metrics.jsonl"
        lines = [json.loads(line) for line in metrics.read_text().splitlines()]
        for line in lines:
            if line["kind"] == "histogram":
                line.pop("relative_error")
                line.pop("underflow")
                line["buckets"] = {"21": line["count"]}
        metrics.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert main(["obs", str(checked_run)]) == 2
        assert "relative_error" in capsys.readouterr().err


    def test_history_over_an_old_layout_snapshot_is_refused(
        self, tmp_path, capsys
    ):
        from repro.obs.archive import KIND_OBS, RunArchive, RunSnapshot

        snapshot = RunSnapshot(kind=KIND_OBS, name="old")
        snapshot.signals["histograms"]["recovery_latency"] = {
            "buckets": {"21": 8}, "count": 8, "max": 0.0018, "min": 0.0011,
            "total": 0.0116,
        }
        RunArchive(tmp_path / "wh").add(snapshot)
        assert main(["obs", "history", "--archive", str(tmp_path / "wh")]) == 2
        assert "relative_error" in capsys.readouterr().err


class TestObsCheckStreamingArtifacts:
    def write_ledger(self, run_dir, lines, torn=False):
        text = "".join(json.dumps(line) + "\n" for line in lines)
        if torn:
            text += '{"kind": "task_started", "time": 0.3, "ta'
        (run_dir / "progress.jsonl").write_text(text)

    def test_valid_artifacts_pass(self, checked_run, capsys):
        self.write_ledger(checked_run, valid_ledger_lines())
        (checked_run / "flight_w0.json").write_text(
            json.dumps(valid_flight_dump()))
        assert main(["obs", str(checked_run), "--check"]) == 0
        out = capsys.readouterr().out
        assert "schema check OK" in out
        assert "progress.jsonl" in out
        assert "flight_w0.json" in out

    def test_torn_ledger_warns_not_fails(self, checked_run, capsys):
        self.write_ledger(checked_run, valid_ledger_lines(), torn=True)
        assert main(["obs", str(checked_run), "--check"]) == 0
        captured = capsys.readouterr()
        assert "WARN" in captured.err
        assert "schema check OK" in captured.out

    def test_invalid_ledger_fails(self, checked_run, capsys):
        lines = valid_ledger_lines()
        lines[1]["kind"] = "task_teleported"
        self.write_ledger(checked_run, lines)
        assert main(["obs", str(checked_run), "--check"]) == 1
        assert "SCHEMA FAIL" in capsys.readouterr().err

    def test_invalid_flight_dump_fails(self, checked_run, capsys):
        dump = valid_flight_dump()
        del dump["worker"]
        (checked_run / "flight_w1.json").write_text(json.dumps(dump))
        assert main(["obs", str(checked_run), "--check"]) == 1
        err = capsys.readouterr().err
        assert "flight_w1.json" in err
        assert "worker" in err

    def test_unparseable_flight_dump_fails(self, checked_run, capsys):
        (checked_run / "flight_w2.json").write_text("{not json")
        assert main(["obs", str(checked_run), "--check"]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_absent_streaming_artifacts_still_ok(self, checked_run, capsys):
        # A run that never streamed has neither file; --check only
        # validates what the run dir actually carries.
        assert main(["obs", str(checked_run), "--check"]) == 0
        out = capsys.readouterr().out
        assert "schema check OK" in out
        assert "progress.jsonl" not in out
