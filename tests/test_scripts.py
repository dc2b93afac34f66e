"""Smoke tests for the experiment scripts: each runs and prints a known line."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["cycle_identity_scan.py", "7"], "K_7 7 -106740 360 360 False True"),
        (["kn_table_experiment.py", "5"], "5 893/924 0.9664502 +0.0807359 -0.0549784 0.2356067"),
        (["small_graph_oracle.py"], "K_{3,2} n=5 m=6 E[L] = 51/35 = 1.4571428571"),
    ],
    ids=["cycle_identity_scan", "kn_table_experiment", "small_graph_oracle"],
)
def test_script_runs(tmp_path, argv, expected):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert expected in [" ".join(line.split()) for line in proc.stdout.splitlines()]
