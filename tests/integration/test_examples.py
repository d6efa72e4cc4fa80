"""Every example script must run clean and print its headline."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"

CASES = [
    ("quickstart.py", "CONVERGED"),
    ("replay_attack_demo.py", "rejects every replay"),
    ("reset_storm.py", "converged                  : True"),
    ("rekey_vs_savefetch.py", "speedup"),
    ("prolonged_outage.py", "session recovered            : True"),
    ("dead_peer_detection.py", "traffic-based"),
]


@pytest.mark.parametrize("script,expected", CASES, ids=[c[0] for c in CASES])
def test_example_runs_clean(script, expected):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout


def test_model_check_example_runs_clean():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "model_check_protocols.py")],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("SAFE") >= 4
    assert result.stdout.count("COUNTEREXAMPLE") >= 4
