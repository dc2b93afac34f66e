"""Whole-output pins: CLI stdout must match the committed golden files byte for byte.

Each file under ``tests/golden/`` is the exact stdout of one command; the
table below names the arguments that produced it.
"""

from pathlib import Path

import pytest

from mstlength.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

GRAPHS = {
    "k32": ("bipartite", "3", "2"),
    "k5": ("complete", "5"),
    "c6": ("cycle", "6"),
    "p5": ("path", "5"),
    "k33": ("bipartite", "3", "3"),
}

COMMANDS = {
    "compute": ("compute",),
    "coeffs": ("coeffs", "--route", "all"),
    "census": ("census",),
    "verify": ("verify",),
}

CASES = {
    f"{command}_{graph}": (*argv, "--gen", *gen)
    for command, argv in COMMANDS.items()
    for graph, gen in GRAPHS.items()
}
CASES["kn-table_6"] = ("kn-table", "--max-n", "6")


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="ascii")
