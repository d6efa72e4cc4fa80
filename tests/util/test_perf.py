"""Tests for repro.perf (timers, rate reports and the paired A/B verdict)."""

import json
import shutil
import subprocess

import pytest

from repro import perf
from repro.obs.health import HealthState
from repro.perf import (
    RateReport,
    Stopwatch,
    current_git_sha,
    judge,
    judge_workload,
    measure_rate,
)


class TestStopwatch:
    def test_measures_elapsed_time(self):
        with Stopwatch() as clock:
            pass
        assert clock.elapsed >= 0

    def test_running_read_is_monotonic(self):
        with Stopwatch() as clock:
            first = clock.elapsed
            second = clock.elapsed
            assert second >= first

    def test_unstarted_read_raises(self):
        with pytest.raises(RuntimeError, match="not been started"):
            Stopwatch().elapsed

    def test_reusable(self):
        clock = Stopwatch()
        with clock:
            pass
        first = clock.elapsed
        with clock:
            pass
        assert clock.elapsed is not None
        assert first is not None


class TestRateReport:
    def test_rate_math(self):
        report = RateReport(
            name="bench_x", metric="events/s", count=1000, seconds=0.5,
        )
        assert report.rate == 2000.0

    def test_format_is_one_line_with_name_and_metric(self):
        report = measure_rate("bench_y", "sessions/s", 10, 2.0)
        line = report.format()
        assert "\n" not in line
        assert "bench_y" in line
        assert "sessions/s" in line

    def test_as_dict_round_trips_through_json(self):
        report = measure_rate("bench_z", "events/s", 100, 1.0)
        data = json.loads(json.dumps(report.as_dict()))
        assert data["name"] == "bench_z"
        assert data["rate"] == pytest.approx(100.0)

    def test_as_dict_carries_provenance(self):
        report = RateReport(
            name="bench_x", metric="events/s", count=10, seconds=1.0,
            git_sha="abc123",
        )
        data = report.as_dict()
        assert data["metric"] == "events/s"
        assert data["git_sha"] == "abc123"

    def test_measure_rate_stamps_current_sha(self):
        report = measure_rate("bench_x", "events/s", 10, 1.0)
        assert report.git_sha == current_git_sha()


class TestGitShaProvenance:
    def test_github_sha_env_wins(self, monkeypatch):
        monkeypatch.setenv("GITHUB_SHA", "feed" * 10)
        assert current_git_sha() == "feed" * 10

    def test_falls_back_to_git(self, monkeypatch):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        sha = current_git_sha()
        # This test runs inside the repo, so git answers (40 hex chars);
        # the contract either way is "a sha or None", never an exception.
        assert sha is None or len(sha) == 40

    def test_no_repo_no_git_is_none(self, monkeypatch, tmp_path):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PATH", str(tmp_path))  # git unreachable
        assert current_git_sha() is None


#: Six paired values around 100 with a 2% spread.
STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0]

RATE = {"name": "msgs_per_s", "better": "higher", "bound": 0.25}
LOST = {"name": "sim_lost_per_reset", "better": "lower", "bound": 0.1}


def runs(values, metric="msgs_per_s", correct=True, failed=0):
    return [{"correct": correct, "failed": failed,
             "metrics": {metric: value}} for value in values]


class TestJudge:
    def test_identical_is_green(self):
        state, delta, low, high = judge(STEADY, STEADY, "higher", 0.25)
        assert state is HealthState.GREEN
        assert delta == 0.0
        assert low <= 0.0 <= high

    def test_tight_forty_percent_drop_is_red(self):
        slower = [value * 0.6 for value in STEADY]
        state, delta, low, high = judge(STEADY, slower, "higher", 0.25)
        assert state is HealthState.RED
        assert delta == pytest.approx(-0.4)
        assert high < -0.25

    def test_wide_spread_is_yellow(self):
        # The median is 30% worse, but two fast runs keep the interval
        # from clearing the bound: unresolved, not a regression.
        spread = [70.0, 70.0, 70.0, 71.0, 140.0, 140.0]
        state, delta, low, high = judge(STEADY, spread, "higher", 0.25)
        assert state is HealthState.YELLOW
        assert delta < -0.25
        assert high > -0.25

    def test_sim_metric_beyond_its_bound_is_red(self):
        # Simulated quantities repeat exactly for a seed, so a moved
        # value gives a zero-width interval: 12 -> 14 lost per reset is
        # 17% worse against a 10% bound.
        state, delta, low, high = judge([12.0] * 6, [14.0] * 6, "lower", 0.1)
        assert state is HealthState.RED
        assert delta == pytest.approx(-2.0 / 12.0)
        assert low == pytest.approx(high)

    def test_better_result_is_green(self):
        faster = [value * 1.4 for value in STEADY]
        state, delta, _, _ = judge(STEADY, faster, "higher", 0.25)
        assert state is HealthState.GREEN
        assert delta == pytest.approx(0.4)
        fewer_lost = judge([12.0] * 6, [6.0] * 6, "lower", 0.1)
        assert fewer_lost[0] is HealthState.GREEN
        assert fewer_lost[1] == pytest.approx(0.5)

    def test_zero_base_counts_absolute_change(self):
        state, delta, _, _ = judge([0.0] * 6, [1.0] * 6, "lower", 0.1)
        assert state is HealthState.RED
        assert delta == pytest.approx(-1.0)


class TestJudgeWorkload:
    def test_rows_per_metric_then_correct(self):
        rows = judge_workload("w", runs(STEADY), runs(STEADY), [RATE])
        assert [(row.metric, row.state) for row in rows] == [
            ("msgs_per_s", HealthState.GREEN),
            ("correct", HealthState.GREEN),
        ]
        assert "msgs_per_s" in rows[0].format()
        assert rows[0].as_dict()["state"] == "GREEN"

    def test_incorrect_head_run_is_red(self):
        head = runs(STEADY)
        head[3]["correct"] = False
        rows = judge_workload("w", runs(STEADY), head, [RATE])
        assert rows[-1].state is HealthState.RED
        assert rows[-1].note.startswith("1 of 6")

    def test_more_failed_sessions_than_the_pair_is_red(self):
        base = runs(STEADY, failed=1)
        head = runs(STEADY, failed=1)
        assert judge_workload("w", base, head, [RATE])[-1].state \
            is HealthState.GREEN
        head[0]["failed"] = 2
        assert judge_workload("w", base, head, [RATE])[-1].state \
            is HealthState.RED


BENCHMARK = {
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [RATE],
}


class StubRunner:
    """Records the run order; head runs go at ``head_factor`` speed."""

    def __init__(self, head_factor=1.0, fail_on=None):
        self.calls = []
        self.head_factor = head_factor
        self.fail_on = fail_on

    def __call__(self, tree, workload):
        self.calls.append((tree.name, workload))
        if len(self.calls) == self.fail_on:
            return None
        index = sum(1 for call in self.calls if call == (tree.name, workload))
        value = STEADY[index - 1]
        if tree.name == "head":
            value *= self.head_factor
        return runs([value])[0]


class TestRunPairs:
    def compare(self, tmp_path, runner):
        return perf.compare_trees(tmp_path / "base", tmp_path / "head",
                                  BENCHMARK, runner)

    def test_sides_alternate_which_goes_first(self, tmp_path):
        runner = StubRunner()
        self.compare(tmp_path, runner)
        assert len(runner.calls) == 2 * 2 * perf.AB_PAIRS
        first = [runner.calls[i][0] for i in range(0, 2 * perf.AB_PAIRS, 2)]
        assert first == ["base", "head"] * (perf.AB_PAIRS // 2)
        assert [workload for _, workload in runner.calls] == (
            ["w1"] * 2 * perf.AB_PAIRS + ["w2"] * 2 * perf.AB_PAIRS
        )

    def test_exit_0_when_nothing_is_red(self, tmp_path):
        code, verdicts, payload = self.compare(tmp_path, StubRunner())
        assert code == perf.EXIT_OK == 0
        assert len(verdicts) == 4  # (msgs_per_s, correct) x 2 workloads
        assert len(payload["runs"]["w1"]["head"]) == perf.AB_PAIRS
        assert len(payload["verdicts"]) == 4

    def test_exit_1_on_a_red_metric(self, tmp_path):
        code, verdicts, _ = self.compare(tmp_path, StubRunner(0.6))
        assert code == perf.EXIT_REGRESSION == 1
        assert {row.workload for row in verdicts
                if row.state is HealthState.RED} == {"w1", "w2"}

    def test_exit_2_when_a_run_gives_no_result(self, tmp_path):
        code, verdicts, payload = self.compare(tmp_path,
                                               StubRunner(fail_on=3))
        assert code == perf.EXIT_MISSING_BENCH == 2
        assert verdicts == []
        assert payload["error"] == "no result from head run 2 of w1"

    def test_exit_2_when_a_run_lacks_a_metric(self, tmp_path):
        def runner(tree, workload):
            return runs([1.0], metric="other")[0]

        code, _, payload = self.compare(tmp_path, runner)
        assert code == perf.EXIT_MISSING_BENCH
        assert "w1/msgs_per_s" in payload["error"]


def git(root, *args):
    subprocess.run(["git", "-C", str(root), "-c", "user.name=t",
                    "-c", "user.email=t@example.com", *args],
                   check=True, capture_output=True)


@pytest.fixture()
def repo(tmp_path):
    """A throwaway repository whose one commit holds a benchmark."""
    if shutil.which("git") is None:
        pytest.skip("needs the git binary")
    root = tmp_path / "repo"
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    git(tmp_path, "init", "-q", str(root))
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "benchmark")
    return root


class TestCli:
    def test_exit_code_constants(self):
        assert (perf.EXIT_OK, perf.EXIT_REGRESSION,
                perf.EXIT_MISSING_BENCH) == (0, 1, 2)

    def test_unknown_rev_exits_2(self, capsys):
        assert perf.main(["ab", "no-such-rev-for-ab"]) == 2
        assert "does not resolve" in capsys.readouterr().err

    def test_base_without_perfbench_exits_2(self, repo, capsys):
        git(repo, "rm", "-q", "-r", "perfbench")
        git(repo, "commit", "-q", "-m", "drop the benchmark")
        assert perf.ab("HEAD", root=repo, runner=StubRunner()) == 2
        assert "has no perfbench/run.py" in capsys.readouterr().err

    def test_ab_runs_base_in_a_worktree_and_removes_it(self, repo, capsys):
        seen = []

        def runner(tree, workload):
            seen.append(tree)
            assert (tree / "perfbench" / "run.py").exists()
            return runs([100.0])[0]

        assert perf.ab("HEAD", root=repo, runner=runner) == 0
        base_trees = {tree for tree in seen if tree != repo}
        assert len(base_trees) == 1
        assert not base_trees.pop().exists()
        listed = subprocess.run(["git", "-C", str(repo), "worktree", "list"],
                                capture_output=True, text=True, check=True)
        assert len(listed.stdout.splitlines()) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("ab: head")
        assert [line.split()[:3] for line in lines[1:-1]] == [
            ["w1", "msgs_per_s", "GREEN"], ["w1", "correct", "GREEN"],
            ["w2", "msgs_per_s", "GREEN"], ["w2", "correct", "GREEN"],
        ]
        payload = json.loads(lines[-1])
        assert payload["exit"] == 0
        assert payload["pairs"] == perf.AB_PAIRS
