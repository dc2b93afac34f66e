"""Smoke tests for the experiment scripts and the README's examples."""

import importlib.util
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mstlength import enumeration
from mstlength.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["cycle_identity_scan.py", "7"], "K_7 7 -106740 360 360 False True"),
        (["kn_table_experiment.py", "5"], "5 893/924 0.9664502 +0.0807359 -0.0549784 0.2356067"),
    ],
    ids=["cycle_identity_scan", "kn_table_experiment"],
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


def test_limits_table_runs_each_graph_in_its_own_process(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "limits_table.py"), "grid 3 3", "complete-minus-matching 6 1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[:3] == ["graph", "m", "result"]
    # graph, m, result and peak states; the time and the peak RSS vary
    assert [row.split()[:-3] for row in rows] == [
        ["grid", "3", "3", "12", "computes", "5"],
        ["complete-minus-matching", "6", "1", "14", "computes", "5"],
    ]


def test_limits_table_reports_the_refusing_edge(monkeypatch):
    spec = importlib.util.spec_from_file_location("limits_table", SCRIPTS / "limits_table.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(enumeration, "MAX_FRONTIER_BYTES", 0)
    monkeypatch.setattr(enumeration, "_combine_counts", enumeration._combine_counts)
    row = script.measure("grid 3 3")
    assert (row["m"], row["result"], row["peak"]) == (12, "refused at edge 1", 0)


def test_mc_throughput_prints_each_graph_and_its_form(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "mc_throughput.py"), "--trials", "5", "--repeats", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["graph", "m", "form", "best/s", "median/s"]
    # graph, m and form; the rates vary, and the best is never below the median
    assert [row.split()[:-2] for row in rows] == [
        ["K_4", "6", "union-find"],
        ["K_8", "28", "union-find"],
        ["K_11", "55", "union-find"],
        ["gnm_12_30_2", "30", "union-find"],
        ["C_30", "30", "sorted"],
        ["P_30", "29", "sorted"],
        ["C_29+pendant", "30", "union-find"],
    ]
    rates = [[float(rate) for rate in row.split()[-2:]] for row in rows]
    assert all(best >= median > 0 for best, median in rates)


def test_readme_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, str(README), "exec"), {})


def test_readme_command_line_examples_run(capsys, monkeypatch):
    section = README.read_text().split("\n## Command line\n", 1)[1]
    lines = section.split("```\n", 2)[1].splitlines()
    commands = [line.split("#", 1)[0] for line in lines if line.startswith("mstlength ")]
    assert len(commands) == 8

    def run(stage: str, stdin: str) -> str:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = main(shlex.split(stage)[1:])
        captured = capsys.readouterr()
        assert code == 0, (stage, captured.err)
        return captured.out

    for command in commands:
        out = ""
        for stage in command.split("|"):  # each stage reads the one before
            out = run(stage, out)

    # the annotation under the first example is compute's output
    (arrow,) = [line.strip() for line in lines if line.lstrip().startswith("->")]
    p, num, den, decimal = re.fullmatch(
        r"-> p = (\[.*\]), E = (\d+)/(\d+) = ([\d.]+)", arrow
    ).groups()
    assert commands[0].startswith("mstlength compute ")
    payload = json.loads(run(commands[0], ""))
    assert json.loads(p) == payload["p"]
    assert payload["expectation"] == {"num": num, "den": den, "decimal": decimal}
