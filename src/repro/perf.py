"""Benchmark timing helpers and the one perf verdict, ``ab``.

* :class:`Stopwatch` — a ``with``-block wall-clock timer.
* :class:`RateReport` / :func:`measure_rate` — the one-line throughput
  report every ``benchmarks/bench_m*`` file prints (raw items/s on this
  host, with the commit it was measured at).
* ``python -m repro.perf ab BASE`` — whether this tree's code is slower
  than ``BASE``'s.  It checks ``BASE`` out into a temporary
  ``git worktree`` and, for every workload ``BENCHMARK.json`` declares,
  byte-compiles both trees, then runs each tree's own
  ``perfbench/run.py`` :data:`AB_PAIRS` times, alternating which side
  goes first, on the same host.  Each
  ``end_to_end`` metric is judged by :func:`judge` against its
  ``BENCHMARK.json`` bound:

  - the delta is the signed relative change of the medians (positive =
    better, per the metric's ``better``);
  - the interval is :func:`repro.obs.compare.bootstrap_delta_ci` of the
    head and base values, divided by the base median and signed the
    same way;
  - RED when the whole interval is worse than ``-bound``, YELLOW
    (unresolved) when only the median is, GREEN otherwise.

  A head run that reports ``correct: false``, or more failed sessions
  than the base run of its pair, makes the workload's ``correct`` row
  RED.  The output is one line per (workload, metric), then one JSON
  line with every run's values and every verdict.  Exit codes (see
  ``EXIT_*``): 0 no RED, 1 any RED, 2 a run gave no result or ``BASE``
  does not resolve to a commit with ``perfbench/``.

Pairing on one host is what makes the verdict hold on a noisy runner:
both sides see the same machine at nearly the same moment, so host
speed cancels instead of having to be calibrated away.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.obs.compare import bootstrap_delta_ci
from repro.obs.health import HealthState


def current_git_sha() -> str | None:
    """The commit the working tree is at, or ``None`` outside a repo.

    Prefers ``GITHUB_SHA`` (set on every Actions runner, and correct in
    detached checkouts) over asking git, so provenance works even when
    the ``git`` binary is unavailable.  Stamped into every
    :class:`RateReport` and every archived run snapshot.
    """
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5.0, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


class Stopwatch:
    """Wall-clock context-manager timer.

    ``elapsed`` reads the running total mid-block and the final duration
    after the block exits::

        with Stopwatch() as clock:
            work()
        rate = jobs / clock.elapsed
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self._elapsed: float | None = None

    def __enter__(self) -> "Stopwatch":
        self._elapsed = None
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        assert self._start is not None
        self._elapsed = time.perf_counter() - self._start

    @property
    def elapsed(self) -> float:
        """Seconds elapsed (running total while the block is active)."""
        if self._elapsed is not None:
            return self._elapsed
        if self._start is None:
            raise RuntimeError("Stopwatch has not been started")
        return time.perf_counter() - self._start


# ----------------------------------------------------------------------
# Rate reporting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RateReport:
    """One benchmark's throughput on this host.

    Attributes:
        name: benchmark identifier (the ``bench_*`` function name).
        metric: unit of ``count`` per second (``"events/s"``, ...).
        count: work items completed in ``seconds``.
        seconds: wall time for ``count`` items.
        git_sha: the commit the numbers were captured at (provenance;
            ``None`` outside a repo).
    """

    name: str
    metric: str
    count: int
    seconds: float
    git_sha: str | None = None

    @property
    def rate(self) -> float:
        """Raw items per second."""
        return self.count / self.seconds

    def format(self) -> str:
        """The stable one-line report all bench files print."""
        return f"{self.name}: {self.rate:,.0f} {self.metric}"

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe export, carried into pytest-benchmark ``extra_info``."""
        return {
            "name": self.name,
            "metric": self.metric,
            "count": self.count,
            "seconds": self.seconds,
            "rate": self.rate,
            "git_sha": self.git_sha,
        }


def measure_rate(
    name: str, metric: str, count: int, seconds: float
) -> RateReport:
    """Build a :class:`RateReport` stamped with the current commit."""
    return RateReport(
        name=name, metric=metric, count=count, seconds=seconds,
        git_sha=current_git_sha(),
    )


# ----------------------------------------------------------------------
# The paired A/B verdict
# ----------------------------------------------------------------------
#: ``ab`` exit codes.
EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_MISSING_BENCH = 2

#: Runs per side and workload, the per-run budget (seconds) and the
#: perfbench seed of every ``ab`` run.  Six pairs of 2 s runs take about
#: four minutes for the four workloads on two CPUs.
AB_PAIRS = 6
AB_SECONDS = 2
AB_SEED = 1

#: One perfbench run, parsed: ``{"correct", "failed", "metrics"}`` with
#: ``metrics`` mapping each end-to-end metric name to its value.
Run = dict[str, Any]
Runner = Callable[[Path, str], Run | None]


@dataclass(frozen=True)
class Verdict:
    """One ``ab`` row: head against base on one (workload, metric).

    ``delta``, ``low`` and ``high`` are relative to the base median and
    signed so positive is better; ``note`` replaces them on the
    ``correct`` row.
    """

    workload: str
    metric: str
    state: HealthState
    delta: float = 0.0
    low: float = 0.0
    high: float = 0.0
    bound: float = 0.0
    note: str = ""

    def format(self) -> str:
        detail = self.note or (
            f"{self.delta:+7.1%}  [{self.low:+.1%}, {self.high:+.1%}]  "
            f"bound {self.bound:.0%}"
        )
        return (f"{self.workload:16s} {self.metric:24s} "
                f"{self.state.label:6s} {detail}")

    def as_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload, "metric": self.metric,
            "state": self.state.label, "delta": self.delta,
            "low": self.low, "high": self.high, "bound": self.bound,
            "note": self.note,
        }


def judge(
    base: list[float], head: list[float], better: str, bound: float
) -> tuple[HealthState, float, float, float]:
    """Verdict on one metric's paired values: ``(state, delta, low, high)``.

    A zero base median leaves the changes absolute, so a count that
    leaves zero still registers.
    """
    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    scale = abs(base_median) or 1.0
    delta = sign * (statistics.median(head) - base_median) / scale
    low, high = sorted(
        sign * end / scale for end in bootstrap_delta_ci(base, head)
    )
    if high < -bound:
        state = HealthState.RED
    elif delta < -bound:
        state = HealthState.YELLOW
    else:
        state = HealthState.GREEN
    return state, delta, low, high


def judge_workload(
    workload: str,
    base_runs: list[Run],
    head_runs: list[Run],
    end_to_end: list[dict[str, Any]],
) -> list[Verdict]:
    """Every verdict for one workload: one per declared end-to-end
    metric, then the ``correct`` row."""
    rows = []
    for spec in end_to_end:
        name, bound = spec["name"], float(spec["bound"])
        state, delta, low, high = judge(
            [run["metrics"][name] for run in base_runs],
            [run["metrics"][name] for run in head_runs],
            spec["better"], bound,
        )
        rows.append(Verdict(workload, name, state, delta, low, high, bound))
    bad = sum(
        1 for base, head in zip(base_runs, head_runs)
        if not head["correct"] or head["failed"] > base["failed"]
    )
    rows.append(Verdict(
        workload, "correct",
        HealthState.RED if bad else HealthState.GREEN,
        note=(f"{bad} of {len(head_runs)} head runs incorrect or with "
              "more failed sessions than base"),
    ))
    return rows


def run_perfbench(tree: Path, workload: str) -> Run | None:
    """Run ``tree``'s own ``perfbench/run.py`` once; ``None`` if it gave
    no parseable result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(tree / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(AB_SEED),
             "--seconds", str(AB_SECONDS), "--trace", "0"],
            cwd=tree, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        return {
            "correct": bool(result["correct"]),
            "failed": int(result["failed"]),
            "metrics": {name: float(metric["value"])
                        for name, metric in result["metrics"].items()},
        }
    except (OSError, IndexError, KeyError, TypeError, ValueError):
        return None


def run_pairs(
    base_tree: Path,
    head_tree: Path,
    workloads: list[str],
    runner: Runner = run_perfbench,
) -> dict[str, tuple[list[Run], list[Run]]] | str:
    """``{workload: (base_runs, head_runs)}``, or the description of the
    first run that gave no result.  Even pairs run base first, odd pairs
    head first, so drift on the host hits both sides alike."""
    results = {}
    for workload in workloads:
        base_runs: list[Run] = []
        head_runs: list[Run] = []
        sides = [("base", base_tree, base_runs),
                 ("head", head_tree, head_runs)]
        for pair in range(AB_PAIRS):
            for side, tree, runs in sides if pair % 2 == 0 else sides[::-1]:
                run = runner(tree, workload)
                if run is None:
                    return f"{side} run {pair + 1} of {workload}"
                runs.append(run)
        results[workload] = (base_runs, head_runs)
    return results


def compare_trees(
    base_tree: Path,
    head_tree: Path,
    benchmark: dict[str, Any],
    runner: Runner = run_perfbench,
) -> tuple[int, list[Verdict], dict[str, Any]]:
    """Run the pairs and judge them: ``(exit code, verdicts, payload)``."""
    workloads = [spec["name"] for spec in benchmark["workloads"]]
    end_to_end = benchmark["end_to_end"]
    names = [spec["name"] for spec in end_to_end]
    pairs = run_pairs(base_tree, head_tree, workloads, runner)
    if isinstance(pairs, str):
        return EXIT_MISSING_BENCH, [], {"error": f"no result from {pairs}"}
    missing = [
        f"{workload}/{name}"
        for workload, (base_runs, head_runs) in pairs.items()
        for name in names
        if any(name not in run["metrics"] for run in base_runs + head_runs)
    ]
    if missing:
        return EXIT_MISSING_BENCH, [], {
            "error": f"metrics missing from runs: {', '.join(missing)}"
        }
    verdicts = [
        row
        for workload, (base_runs, head_runs) in pairs.items()
        for row in judge_workload(workload, base_runs, head_runs, end_to_end)
    ]
    code = (EXIT_REGRESSION if any(row.state is HealthState.RED
                                   for row in verdicts) else EXIT_OK)
    payload = {
        "runs": {workload: {"base": base_runs, "head": head_runs}
                 for workload, (base_runs, head_runs) in pairs.items()},
        "verdicts": [row.as_dict() for row in verdicts],
    }
    return code, verdicts, payload


def _git(root: Path, *args: str) -> subprocess.CompletedProcess:
    """Run git in ``root``; a missing git binary reads as a failed call."""
    try:
        return subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True, check=False)
    except OSError as exc:
        return subprocess.CompletedProcess(args, 127, "", str(exc))


def ab(base_rev: str, root: Path | None = None,
       runner: Runner = run_perfbench) -> int:
    """``python -m repro.perf ab BASE``: this checkout against ``BASE``.

    ``root`` is the checkout to judge (default: the git top level of
    the working directory); its ``BENCHMARK.json`` supplies the
    workloads, metrics and bounds.
    """
    if root is None:
        top = _git(Path.cwd(), "rev-parse", "--show-toplevel")
        root = Path(top.stdout.strip() or ".")
    resolved = _git(root, "rev-parse", "--verify", "--quiet",
                    f"{base_rev}^{{commit}}")
    if resolved.returncode != 0:
        print(f"error: {base_rev!r} does not resolve to a commit in {root}",
              file=sys.stderr)
        return EXIT_MISSING_BENCH
    base_sha = resolved.stdout.strip()
    if _git(root, "cat-file", "-e", f"{base_sha}:perfbench/run.py").returncode:
        print(f"error: {base_rev} ({base_sha[:12]}) has no perfbench/run.py",
              file=sys.stderr)
        return EXIT_MISSING_BENCH
    try:
        benchmark = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {root / 'BENCHMARK.json'}: {exc}",
              file=sys.stderr)
        return EXIT_MISSING_BENCH
    print(f"ab: head {root} vs base {base_sha[:12]} ({base_rev}); "
          f"{AB_PAIRS} alternating pairs per workload, perfbench seed "
          f"{AB_SEED}, {AB_SECONDS} s per run", flush=True)
    scratch = Path(tempfile.mkdtemp(prefix="repro-ab-"))
    base_tree = scratch / "base"
    try:
        added = _git(root, "worktree", "add", "--detach", str(base_tree),
                     base_sha)
        if added.returncode != 0:
            print(f"error: git worktree add failed: {added.stderr.strip()}",
                  file=sys.stderr)
            return EXIT_MISSING_BENCH
        # A fresh worktree has no bytecode, and PYTHONDONTWRITEBYTECODE
        # would keep it that way: compile both trees up front so neither
        # side's runs pay for compiling at import.
        for tree in (base_tree, root):
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            "src", "perfbench"],
                           cwd=tree, capture_output=True, check=False)
        code, verdicts, payload = compare_trees(base_tree, root, benchmark,
                                                runner)
    finally:
        _git(root, "worktree", "remove", "--force", str(base_tree))
        shutil.rmtree(scratch, ignore_errors=True)
    for row in verdicts:
        print(row.format())
    payload.update(base=base_sha, head=current_git_sha(), pairs=AB_PAIRS,
                   seconds=AB_SECONDS, seed=AB_SEED, exit=code)
    print(json.dumps(payload, sort_keys=True))
    if code == EXIT_MISSING_BENCH:
        print(f"error: {payload['error']}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="paired end-to-end perf verdict (see module docstring)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_ab = sub.add_parser(
        "ab", help="run perfbench on this tree and on BASE in alternating "
                   "pairs; exit 1 on any RED metric",
    )
    p_ab.add_argument("base", help="git revision to compare against")
    args = parser.parse_args(argv)
    return ab(args.base)


if __name__ == "__main__":
    sys.exit(main())
