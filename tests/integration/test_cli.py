"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "CONVERGED" in out

    def test_spec_savefetch(self, capsys):
        assert main(["spec", "savefetch"]) == 0
        out = capsys.readouterr().out
        assert "protocol savefetch" in out
        assert "process p" in out

    def test_spec_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["spec", "quantum"])

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "e08"]) == 0
        out = capsys.readouterr().out
        assert "E8" in out and "staggered-vulnerable" in out

    def test_experiments_unknown_id(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            main(["experiments", "e99"])

    def test_experiments_only_flag(self, capsys):
        assert main(["experiments", "--only", "e13"]) == 0
        out = capsys.readouterr().out
        assert "E13" in out and "completed in" in out

    def test_experiments_jobs_flag_parallel(self, capsys):
        assert main(["experiments", "--only", "e13", "--jobs", "2"]) == 0
        assert "E13" in capsys.readouterr().out

    def test_experiments_jobs_must_be_positive(self, capsys):
        assert main(["experiments", "--only", "e13", "--jobs", "0"]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_experiments_resume_persists_store(self, tmp_path, capsys):
        args = ["experiments", "--only", "e13", "--resume", "--out", str(tmp_path)]
        assert main(args) == 0
        store = tmp_path / "e13.jsonl"
        assert store.exists()
        size_after_first = store.stat().st_size
        capsys.readouterr()
        # Re-run: everything resumes from the store, nothing re-executes,
        # and the rendered table is identical.
        assert main(args) == 0
        assert store.stat().st_size == size_after_first
        assert "E13" in capsys.readouterr().out

    def test_gateway_compares_all_policies(self, capsys):
        args = ["gateway", "--sas", "4", "--crash-after", "80",
                "--messages", "80"]
        assert main(args) == 0
        out = capsys.readouterr().out
        for policy in ("serial", "batched", "write_ahead"):
            assert policy in out
        assert "spread" in out

    def test_gateway_pinned_policy(self, capsys):
        args = ["gateway", "--sas", "2", "--policy", "batched",
                "--crash-after", "60", "--messages", "60"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "batched" in out and "serial" not in out

    def test_gateway_rejects_zero_sas(self, capsys):
        assert main(["gateway", "--sas", "0"]) == 2
        assert "--sas must be >= 1" in capsys.readouterr().err

    def test_gateway_rejects_bad_crash_after(self, capsys):
        assert main(["gateway", "--crash-after", "0"]) == 2
        assert "--crash-after must be >= 1" in capsys.readouterr().err

    def test_fleet_sample_includes_gateway_grid(self, capsys):
        assert main(["fleet", "--sample"]) == 0
        out = capsys.readouterr().out
        assert '"gateway_crash"' in out
        assert '"store_policy"' in out

    def write_small_spec(self, tmp_path):
        import json

        from repro.fleet.spec import example_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(example_spec(sessions=8).to_dict()))
        return spec_path

    def test_fleet_runs_on_sharded_store_and_writes_aggregate(
        self, tmp_path, capsys
    ):
        import json

        spec_path = self.write_small_spec(tmp_path)
        out_dir = tmp_path / "runs"
        args = ["fleet", str(spec_path), "--out", str(out_dir),
                "--store", "sharded", "--shard-bits", "2"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "[sharded]" in out
        assert (out_dir / "results.shards" / "store_meta.json").exists()
        aggregate = json.loads((out_dir / "aggregate.json").read_text())
        assert aggregate["tasks"] == 8
        assert aggregate["errors"] == 0
        assert aggregate["percentile_mode"] == "exact"
        # Resume autodetects the backend without --store and reruns nothing.
        assert main(["fleet", str(spec_path), "--out", str(out_dir)]) == 0
        assert "(8 resumed from store)" in capsys.readouterr().out

    def test_fleet_sqlite_store(self, tmp_path, capsys):
        # The SQLite backend is gone: `--store sqlite` is refused, and an
        # --out dir still holding its database exits 2 instead of
        # silently starting a second, empty JSONL store beside it.
        spec_path = self.write_small_spec(tmp_path)
        out_dir = tmp_path / "runs"
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", str(spec_path), "--out", str(out_dir),
                  "--store", "sqlite"])
        assert excinfo.value.code == 2
        out_dir.mkdir()
        (out_dir / "results.sqlite").write_bytes(b"")
        assert main(["fleet", str(spec_path), "--out", str(out_dir)]) == 2
        assert "results.sqlite" in capsys.readouterr().err
        assert not (out_dir / "results.jsonl").exists()

    def test_fleet_sample_count_runs_subsample(self, tmp_path, capsys):
        import json

        from repro.fleet.spec import example_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(example_spec(sessions=40).to_dict()))
        out_dir = tmp_path / "runs"
        args = ["fleet", str(spec_path), "--out", str(out_dir),
                "--sample", "10", "--store", "sharded"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "sampled of 40" in out
        aggregate = json.loads((out_dir / "aggregate.json").read_text())
        assert 0 < aggregate["tasks"] < 40

    def test_fleet_bare_sample_with_spec_is_an_error(self, tmp_path, capsys):
        spec_path = self.write_small_spec(tmp_path)
        assert main(["fleet", str(spec_path), "--sample"]) == 2
        assert "--sample needs a session count" in capsys.readouterr().err

    def test_check_small_budget(self, capsys):
        assert main(["check", "--budget", "3000"]) == 0
        out = capsys.readouterr().out
        assert "COUNTEREXAMPLE" in out  # unprotected cases fail fast
        assert "unprotected / p resets" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
