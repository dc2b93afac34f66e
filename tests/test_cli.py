import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mstlength import cli, enumeration, expectation
from mstlength.census import build_census
from mstlength.cli import HYPERBOLA_POINTS, main
from mstlength.coefficients import all_routes, route_failures
from mstlength.enumeration import RankTable, build_rank_table
from mstlength.graphs import bipartite_graph, complete_graph, path_graph

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_k32(capsys):
    code, out, _ = run_cli(capsys, "compute", "--gen", "bipartite", "3", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == [4, -6, 0, 0, 3, 0, -1]
    assert payload["expectation"]["num"] == "51"
    assert payload["expectation"]["den"] == "35"


def test_compute_plain(capsys):
    code, out, _ = run_cli(capsys, "compute", "--gen", "complete", "2", "--format", "plain")
    assert code == 0
    assert "E[L] = 1/2" in out


def test_compute_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("2 1\n0 1\n"))
    code, out, _ = run_cli(capsys, "compute", "-")
    assert code == 0
    assert json.loads(out)["expectation"]["num"] == "1"


def test_compute_file_and_parse_error(tmp_path, capsys):
    good = tmp_path / "k32.txt"
    good.write_text("5 6\n0 3\n0 4\n1 3\n1 4\n2 3\n2 4\n")
    code, out, _ = run_cli(capsys, "compute", str(good))
    assert code == 0 and json.loads(out)["m"] == 6

    bad = tmp_path / "bad.txt"
    bad.write_text("3 3\n0 1\n0 2\n1 1\n")
    code, _, err = run_cli(capsys, "compute", str(bad))
    assert code == 2 and "line 4" in err


def test_missing_source_is_input_error(capsys):
    code, _, err = run_cli(capsys, "compute")
    assert code == 2 and "no graph" in err


def test_both_sources_rejected(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("2 1\n0 1\n")
    code, _, err = run_cli(capsys, "compute", str(f), "--gen", "complete", "3")
    assert code == 2


def test_cap_refusal_exit_code(capsys):
    code, _, err = run_cli(capsys, "compute", "--gen", "complete", "9")
    assert code == 3 and "cap" in err
    assert "--cap 36" in err and "simulate --cap 0" in err


def test_frontier_overflow_is_cap_refusal(capsys, monkeypatch):
    # K_6 peaks at the 5 partitions of its first three vertices
    monkeypatch.setattr(enumeration, "MAX_FRONTIER_STATES", 4)
    code, out, err = run_cli(capsys, "compute", "--gen", "complete", "6")
    assert code == 3 and out == ""
    assert "budget of 4 partition states" in err and "simulate --cap 0" in err
    assert "method=" not in err


def test_corrupt_rank_table_is_an_internal_error(capsys, monkeypatch):
    # A sweep that miscounts is a bug, not an input problem: exit 4, not 2.
    counts = enumeration._frontier_counts(bipartite_graph(3, 2))
    corrupted = {**counts, (1, 1): counts[(1, 1)] - 1}
    monkeypatch.setattr(enumeration, "_frontier_counts", lambda g: corrupted)
    code, out, err = run_cli(capsys, "compute", "--gen", "bipartite", "3", "2")
    assert code == 4 and out == ""
    assert "rank table of the sweep is corrupt: row 1 sums to 5, expected C(6,1)" in err


def test_cap_override(capsys):
    code, out, _ = run_cli(capsys, "compute", "--gen", "cycle", "30", "--cap", "30")
    assert code == 0
    # cycle law: n/2 - n/(n+1) = 435/31 for n = 30
    expectation = json.loads(out)["expectation"]
    assert (expectation["num"], expectation["den"]) == ("435", "31")


def test_verify_passes_on_generators(capsys):
    for gen in (["complete", "5"], ["cycle", "6"], ["bipartite", "3", "3"]):
        code, out, _ = run_cli(capsys, "verify", "--gen", *gen)
        assert code == 0
        payload = json.loads(out)
        assert payload["all_pass"] is True
        assert all(check["pass"] for check in payload["checks"])


def test_verify_reports_failures_on_a_corrupted_table(capsys, monkeypatch):
    table = build_rank_table(bipartite_graph(3, 2))
    corrupted = RankTable(table.n, table.m, {**table.counts, (3, 2): 40})
    monkeypatch.setattr(expectation, "build_rank_table", lambda g, cap: corrupted)
    code, out, _ = run_cli(capsys, "verify", "--gen", "bipartite", "3", "2")
    payload = json.loads(out)
    assert code == 4 and payload["all_pass"] is False
    tutte = [
        f"{check}@t={t}"
        for t in HYPERBOLA_POINTS
        for check in ("tutte-closed-form", "tutte-partial-form", "integrand-ratio")
    ]
    assert [c["name"] for c in payload["checks"] if not c["pass"]] == [
        "row-sums",
        "route-agreement",
        *tutte,
        "rank-cycle-correction@l=3",
        *(f"cycle-identities@i={i}" for i in range(3, 7)),
    ]


def test_coeffs_exits_4_when_the_routes_disagree(capsys, monkeypatch):
    table = build_rank_table(bipartite_graph(3, 2))
    corrupted = RankTable(table.n, table.m, {**table.counts, (3, 2): 40})
    monkeypatch.setattr(expectation, "build_rank_table", lambda g, cap: corrupted)
    code, out, err = run_cli(capsys, "coeffs", "--gen", "bipartite", "3", "2")
    assert code == 4 and out == ""
    assert "coefficient routes disagree (rank, structural, nullity)" in err
    assert all(f"{route}=[" in err for route in ("direct", "eq2", "rank", "structural"))


def test_verify_reports_failures_when_a_cell_passes_the_nullity(capsys, monkeypatch):
    # One count of P_5 moved from (3, 3) to (3, 2): a cycle in a tree.  The
    # Tutte polynomial then has a y-term above the graph's nullity 0.
    table = build_rank_table(path_graph(5))
    moved = {**table.counts, (3, 3): table.counts[(3, 3)] - 1, (3, 2): 1}
    monkeypatch.setattr(expectation, "build_rank_table", lambda g, cap: RankTable(5, 4, moved))
    code, out, err = run_cli(capsys, "verify", "--gen", "path", "5", "--format", "plain")
    assert code == 4 and err == ""
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL  route-agreement",
        "FAIL  rank-cycle-correction@l=3",
        "FAIL  cycle-identities@i=3",
        "FAIL  cycle-identities@i=4",
    ]
    assert out.splitlines()[-1] == "CHECK FAILURES PRESENT"


def test_verify_reports_a_corrupted_census(capsys, monkeypatch):
    g = complete_graph(5)
    census = build_census(g)
    corrupted = dataclasses.replace(census, k4=census.k4 + 1)
    monkeypatch.setattr(expectation, "build_census", lambda g: corrupted)
    code, out, _ = run_cli(capsys, "verify", "--gen", "complete", "5")
    payload = json.loads(out)
    assert code == 4 and payload["all_pass"] is False
    assert [c["name"] for c in payload["checks"] if not c["pass"]] == [
        "route-agreement",
        "rank-cycle-correction@l=6",
        "cycle-identities@i=6",
    ]
    table = build_rank_table(g)
    assert route_failures(table, all_routes(table, corrupted)) == ["structural"]


@pytest.mark.parametrize("command", ["compute", "coeffs", "verify"])
def test_verify_disconnected_exit_2(tmp_path, capsys, command):
    # every exact command refuses a disconnected graph with the same message
    doc = tmp_path / "disc.txt"
    doc.write_text("4 2\n0 1\n2 3\n")
    code, out, err = run_cli(capsys, command, str(doc))
    assert code == 2 and out == ""
    assert err == "error: exact results require a connected graph\n"


@pytest.mark.parametrize("command", ["compute", "coeffs", "verify"])
def test_a_corrupt_full_rank_is_an_internal_error(capsys, monkeypatch, command):
    # The sweep puts K_{3,2}'s full edge set at rank 3, not 4.  The table
    # still passes validate(); it is a bug in the sweep, exit 4, not a
    # disconnected input.
    counts = dict(enumeration._frontier_counts(bipartite_graph(3, 2)))
    counts[(6, 3)] = counts.pop((6, 4))
    RankTable(5, 6, counts).validate()  # passes: only the full-rank check sees it
    monkeypatch.setattr(enumeration, "_frontier_counts", lambda g: counts)
    code, out, err = run_cli(capsys, command, "--gen", "bipartite", "3", "2")
    assert code == 4 and out == ""
    assert err == (
        "error: rank table of the sweep is corrupt: "
        "the full edge set has rank counts {3: 1}, expected {4: 1}\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["compute"], ["coeffs"], ["verify"], ["simulate", "--trials", "1000"]],
    ids=["compute", "coeffs", "verify", "simulate"],
)
def test_each_command_builds_one_table_and_one_census(capsys, monkeypatch, argv):
    calls = {"build_rank_table": 0, "build_census": 0}

    def counted(name):
        original = getattr(expectation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(expectation, name, counted(name))
    code, _, _ = run_cli(capsys, *argv, "--gen", "complete", "4")
    assert code == 0
    assert calls == {"build_rank_table": 1, "build_census": 1}


def test_compute_refuses_a_graph_with_too_few_edges_to_connect(tmp_path, capsys):
    doc = tmp_path / "huge.txt"
    doc.write_text("20000000 1\n0 1\n")
    code, out, err = run_cli(capsys, "compute", str(doc))
    assert code == 2 and "connected" in err and out == ""


def test_census_k32(capsys):
    code, out, _ = run_cli(capsys, "census", "--gen", "bipartite", "3", "2")
    assert code == 0
    payload = json.loads(out)
    assert (payload["c3"], payload["c4"], payload["c5"], payload["c6"]) == (0, 3, 0, 0)
    assert payload["k4"] == 0 and payload["k32"] == 1


def test_coeffs_single_route(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--gen", "complete", "4", "--route", "structural")
    assert code == 0
    payload = json.loads(out)
    assert payload["routes"] == {"structural": [4, -6, 0, 4, 3, -6, 2]}


def test_coeffs_all_routes_agree(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--gen", "cycle", "5")
    assert code == 0
    routes = json.loads(out)["routes"]
    assert routes["direct"] == routes["eq2"] == routes["rank"]


def test_simulate_json(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--gen", "complete", "3", "--trials", "20000", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 20000
    assert payload["pass"] is True
    assert payload["exact_num"] == "3" and payload["exact_den"] == "4"


def test_threads_is_a_simulate_option_only(capsys):
    with pytest.raises(SystemExit) as rejected:
        main(["compute", "--gen", "complete", "3", "--threads", "2"])
    assert rejected.value.code == 2
    assert "--threads" in capsys.readouterr().err
    code, out, _ = run_cli(
        capsys, "simulate", "--gen", "complete", "3", "--trials", "2000", "--threads", "2"
    )
    assert code == 0 and json.loads(out)["trials"] == 2000


@pytest.mark.parametrize(
    "command, flag",
    [
        (["census", "--gen", "complete", "3"], ["--cap", "0"]),
        (["census", "--gen", "complete", "3"], ["--digits", "7"]),
        (["coeffs", "--gen", "complete", "3"], ["--digits", "7"]),
        (["verify", "--gen", "complete", "3"], ["--digits", "7"]),
        (["simulate", "--gen", "complete", "3", "--trials", "100"], ["--digits", "7"]),
    ],
    ids=["census-cap", "census-digits", "coeffs-digits", "verify-digits", "simulate-digits"],
)
def test_flags_a_command_would_ignore_are_rejected(capsys, command, flag):
    with pytest.raises(SystemExit) as rejected:
        main([*command, *flag])
    captured = capsys.readouterr()
    assert rejected.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag[0]}" in captured.err
    code, _, _ = run_cli(capsys, *command)
    assert code == 0


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_simulate_rejects_worker_count_below_one(capsys, threads):
    code, out, err = run_cli(
        capsys, "simulate", "--gen", "complete", "3", "--trials", "100",
        "--threads", threads, "--cap", "0",
    )
    assert code == 2 and out == ""
    assert "threads" in err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_simulate_rejects_seed_outside_64_bits(capsys, seed):
    code, out, err = run_cli(
        capsys, "simulate", "--gen", "complete", "3", "--trials", "100", "--seed", seed
    )
    assert code == 2 and out == ""
    assert "[0, 2**64)" in err


def test_simulate_seed_reproducibility(capsys):
    _, out1, _ = run_cli(capsys, "simulate", "--gen", "complete", "4", "--trials", "5000", "--seed", "3")
    _, out2, _ = run_cli(capsys, "simulate", "--gen", "complete", "4", "--trials", "5000", "--seed", "3")
    assert json.loads(out1) == json.loads(out2)


def _no_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_simulate_infinite_z_is_null_in_json(capsys):
    # One trial has stderr 0 and a nonzero gap, so z is infinite: JSON says
    # null there, plain output keeps inf, and both fail the comparison.
    argv = ["simulate", "--gen", "complete", "4", "--trials", "1"]
    code, out, _ = run_cli(capsys, *argv)
    payload = json.loads(out, parse_constant=_no_constant)
    assert code == 1
    assert payload["z_vs_exact"] is None and payload["pass"] is False
    code, out, _ = run_cli(capsys, *argv, "--format", "plain")
    assert code == 1 and "z = inf, FAIL" in out


@pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "0"])
def test_simulate_z_threshold_refused_while_parsing(capsys, threshold):
    with pytest.raises(SystemExit) as rejected:
        main(["simulate", "--gen", "complete", "4", "--trials", "100", "--z-threshold", threshold])
    captured = capsys.readouterr()
    assert rejected.value.code == 2 and captured.out == ""
    assert "--z-threshold: must be finite and > 0" in captured.err


def test_kn_table(capsys):
    code, out, _ = run_cli(capsys, "kn-table", "--max-n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta3"] == "1.2020569"
    assert [row["n"] for row in payload["rows"]] == [2, 3, 4, 5]
    assert payload["rows"][2]["num"] == "31"
    assert payload["rows"][3]["increasing"] is True
    assert payload["rows"][3]["concave"] is True


def _no_rows(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kn-table computed a row before refusing")

    monkeypatch.setattr(expectation, "expected_mst_length", refuse)


def test_kn_table_cap_refusal_before_any_row(capsys, monkeypatch):
    _no_rows(monkeypatch)
    started = time.monotonic()
    code, out, err = run_cli(capsys, "kn-table", "--max-n", "10", "--cap", "40")
    assert time.monotonic() - started < 1.0
    assert code == 3 and out == ""
    assert "--cap 45" in err and "simulate --cap 0" in err


def test_kn_table_edge_limit_refusal_before_any_row(capsys, monkeypatch):
    _no_rows(monkeypatch)
    started = time.monotonic()
    code, out, err = run_cli(capsys, "kn-table", "--max-n", "12", "--cap", "66")
    assert time.monotonic() - started < 1.0
    assert code == 2 and out == ""
    assert "63-edge limit" in err


def test_generator_edge_limit_refusal_before_building(capsys, monkeypatch):
    _no_rows(monkeypatch)
    monkeypatch.setattr(cli, "expected_mst_length", expectation.expected_mst_length)
    started = time.monotonic()
    code, out, err = run_cli(capsys, "compute", "--gen", "path", "3000000")
    assert time.monotonic() - started < 1.0
    assert code == 2 and out == ""
    assert "63-edge limit" in err


@pytest.mark.parametrize(
    "command", [["compute", "--gen", "complete", "3"], ["kn-table", "--max-n", "4"]]
)
@pytest.mark.parametrize("digits", ["-1", str(sys.get_int_max_str_digits() + 1)])
def test_digits_out_of_range_refused_while_parsing(capsys, monkeypatch, command, digits):
    _no_rows(monkeypatch)
    monkeypatch.setattr(cli, "expected_mst_length", expectation.expected_mst_length)
    with pytest.raises(SystemExit) as rejected:
        main([*command, "--digits", digits])
    captured = capsys.readouterr()
    assert rejected.value.code == 2 and captured.out == ""
    assert f"must be in 0..{sys.get_int_max_str_digits()}, got {digits}" in captured.err


def test_digits_at_the_ends_of_the_range(capsys):
    top = sys.get_int_max_str_digits()
    code, out, _ = run_cli(capsys, "compute", "--gen", "complete", "3", "--digits", "0")
    assert code == 0 and json.loads(out)["expectation"]["decimal"] == "1"
    code, out, _ = run_cli(capsys, "compute", "--gen", "complete", "3", "--digits", str(top))
    assert code == 0 and json.loads(out)["expectation"]["decimal"] == "0.75" + "0" * (top - 2)


def test_gen_round_trip(capsys):
    code, out, _ = run_cli(capsys, "gen", "cycle", "5")
    assert code == 0
    from mstlength.graphs import cycle_graph, parse_graph

    assert parse_graph(out) == cycle_graph(5)


def test_gen_json(capsys):
    code, out, _ = run_cli(capsys, "gen", "complete", "3", "--format", "json")
    assert json.loads(out) == {"n": 3, "m": 3, "edges": [[0, 1], [0, 2], [1, 2]]}


def test_gen_invalid_params(capsys):
    code, _, err = run_cli(capsys, "gen", "cycle", "2")
    assert code == 2


def test_console_module_invocation():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "mstlength", "compute", "--gen", "bipartite", "3", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["expectation"]["num"] == "51"


def test_parser_is_built_once_and_keeps_no_flags_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    first = run_cli(capsys, "compute", "--gen", "complete", "5")
    refused = run_cli(capsys, "compute", "--gen", "complete", "5", "--format", "plain", "--cap", "5")
    again = run_cli(capsys, "compute", "--gen", "complete", "5")
    assert first[0] == 0 and json.loads(first[1])["m"] == 10
    assert refused[0] == 3 and refused[1] == ""
    assert again == first
    plain = run_cli(capsys, "census", "--gen", "cycle", "4", "--format", "plain")
    as_json = run_cli(capsys, "census", "--gen", "cycle", "4")
    assert "c4 = 1" in plain[1].splitlines()
    assert json.loads(as_json[1])["c4"] == 1
