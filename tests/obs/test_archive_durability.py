"""Archive durability: crashes mid-ingest, torn indexes, backend parity.

The warehouse's ordering contract — snapshot file first (atomic), index
line second (fsynced, salvageable) — means any crash leaves an archive
that reads correctly and that re-ingesting the same run heals
completely.  These tests drive each failure point explicitly, plus the
backend-parity acceptance: the same campaign through the jsonl and
sharded result stores archives to diffable snapshots that self-diff
all-GREEN.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.archive import KIND_OBS, RunArchive, RunSnapshot
from repro.obs.compare import diff_runs
from repro.obs.health import HealthState


def make_snapshot(counter=1, name="run"):
    snapshot = RunSnapshot(kind=KIND_OBS, name=name)
    snapshot.signals["counters"]["events"] = counter
    return snapshot


class TestTornIndex:
    def test_torn_tail_salvaged(self, tmp_path):
        archive = RunArchive(tmp_path / "wh")
        first = make_snapshot(1)
        second = make_snapshot(2)
        archive.add(first)
        archive.add(second)
        # Tear the last index line mid-write (crash during fsync window).
        text = archive.index_path.read_text()
        archive.index_path.write_text(text[: len(text) - 17])
        entries = archive.index()
        assert [e["run_id"] for e in entries] == [first.run_id]
        # Re-ingest repairs the missing line without duplicating files.
        assert archive.add(second) is False
        assert [e["run_id"] for e in archive.index()] \
            == [first.run_id, second.run_id]

    def test_garbage_line_skipped(self, tmp_path):
        archive = RunArchive(tmp_path / "wh")
        snapshot = make_snapshot()
        archive.add(snapshot)
        with archive.index_path.open("a") as handle:
            handle.write("{utterly broken\n")
        later = make_snapshot(2)
        archive.add(later)
        assert [e["run_id"] for e in archive.index()] \
            == [snapshot.run_id, later.run_id]


class TestCrashBetweenWriteAndIndex:
    def test_snapshot_without_index_line_heals(self, tmp_path):
        archive = RunArchive(tmp_path / "wh")
        indexed = make_snapshot(1)
        archive.add(indexed)
        # Simulate the crash window: snapshot file landed, index append
        # never ran.
        orphan = make_snapshot(2)
        path = archive.snapshot_path(orphan.run_id)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(orphan.as_dict()))
        assert len(archive.index()) == 1  # orphan invisible until healed
        created = archive.add(orphan)
        assert created is False  # content already on disk
        assert [e["run_id"] for e in archive.index()] \
            == [indexed.run_id, orphan.run_id]
        assert archive.load(orphan.run_id).run_id == orphan.run_id


KILL_DRIVER = """
import json, sys
from repro.obs.archive import KIND_OBS, RunArchive, RunSnapshot

root = sys.argv[1]
archive = RunArchive(root)
for counter in range(1, 1000):
    snapshot = RunSnapshot(kind=KIND_OBS, name="kill-run")
    snapshot.signals["counters"]["events"] = counter
    archive.add(snapshot)
    print("added", counter, flush=True)
"""


class TestSigkillMidIngest:
    @pytest.mark.parametrize("after", [1, 3])
    def test_killed_ingest_loop_leaves_salvageable_archive(
        self, tmp_path, after
    ):
        root = tmp_path / "wh"
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = f"{src}:{env.get('PYTHONPATH', '')}"
        proc = subprocess.Popen(
            [sys.executable, "-c", KILL_DRIVER, str(root)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        seen = 0
        for line in proc.stdout:
            if line.startswith("added"):
                seen += 1
                if seen >= after:
                    proc.send_signal(signal.SIGKILL)
                    break
        proc.wait()
        proc.stdout.close()
        archive = RunArchive(root)
        entries = archive.index()  # salvage walk must not raise
        assert len(entries) >= after
        for entry in entries:
            loaded = archive.load(entry["run_id"])
            assert loaded is not None  # index never points at nothing
            assert loaded.run_id == entry["run_id"]
        # Re-ingesting every acknowledged run is a no-op (idempotent).
        for counter in range(1, seen + 1):
            snapshot = RunSnapshot(kind=KIND_OBS, name="kill-run")
            snapshot.signals["counters"]["events"] = counter
            assert archive.add(snapshot) is False


def run_backend_campaign(tmp_path, backend):
    from repro.fleet import CampaignSpec, run_campaign
    from repro.fleet.aggregate import aggregate_store
    from repro.fleet.results import make_store

    spec = CampaignSpec.from_dict({
        "name": "backend-parity",
        "base_seed": 2003,
        "grids": [{
            "scenario": "sender_reset",
            "sessions": 6,
            "params": {"k": 25, "messages_after_reset": 40,
                       "reset_after_sends": [40, 50, 60]},
        }],
    })
    out = tmp_path / backend
    out.mkdir()
    store = make_store(backend, out)
    try:
        run_campaign(spec, store=store)
        aggregate = aggregate_store(store)
    finally:
        close = getattr(store, "close", None)
        if close is not None:
            close()
    payload = aggregate.summary().as_dict()
    if aggregate.sketch.count:
        payload["sketch"] = aggregate.sketch.as_dict()
    (out / "aggregate.json").write_text(json.dumps(payload))
    return out


class TestBackendParity:
    @pytest.mark.parametrize("backend", ["jsonl", "sharded"])
    def test_self_diff_green_on_every_backend(self, tmp_path, backend):
        from repro.obs.archive import snapshot_from_fleet_run

        out = run_backend_campaign(tmp_path, backend)
        snapshot = snapshot_from_fleet_run(out)
        diff = diff_runs(snapshot, snapshot)
        assert diff.verdict is HealthState.GREEN
        assert diff.regressions == []

    def test_backends_archive_to_identical_content(self, tmp_path):
        from repro.obs.archive import snapshot_from_fleet_run

        snapshots = [
            snapshot_from_fleet_run(
                run_backend_campaign(tmp_path, backend), name="parity"
            )
            for backend in ("jsonl", "sharded")
        ]
        ids = {snapshot.run_id for snapshot in snapshots}
        assert len(ids) == 1, "backends disagreed on campaign content"
        # And cross-backend diffs are all-GREEN by construction.
        diff = diff_runs(snapshots[0], snapshots[1])
        assert diff.verdict is HealthState.GREEN
