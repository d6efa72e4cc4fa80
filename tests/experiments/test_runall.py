"""Tests for the experiment registry/runner and cross-run determinism."""

import pytest

from repro.experiments import e05_unbounded, e08_dual_reset
from repro.experiments.runall import EXPERIMENTS, run_all


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {
            "e01", "e02", "e03", "e04", "e05", "e06", "e06b", "e07",
            "e08", "e09", "e10", "e11", "e12", "e13", "e14", "e15",
            "e16",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_id_rejected(self):
        with pytest.raises(SystemExit, match="unknown experiment"):
            run_all(["e99"])

    def test_run_subset(self, capsys):
        results = run_all(["e08"])
        assert len(results) == 1
        assert results[0].experiment_id == "E8"
        out = capsys.readouterr().out
        assert "staggered-vulnerable" in out
        assert "completed in" in out


class TestDeterminism:
    def test_experiments_bit_identical_across_runs(self):
        first = e05_unbounded.run(traffic_volumes=[100, 300])
        second = e05_unbounded.run(traffic_volumes=[100, 300])
        assert first.rows == second.rows

    def test_e08_deterministic(self):
        assert e08_dual_reset.run(k=25).rows == e08_dual_reset.run(k=25).rows
