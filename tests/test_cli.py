import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mstlength import enumeration
from mstlength.cli import main

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
    monkeypatch.setattr(enumeration, "MAX_FRONTIER_STATES", 4)
    code, out, err = run_cli(capsys, "compute", "--gen", "complete", "5")
    assert code == 3 and out == ""
    assert "budget of 4 partition states" in err and "simulate --cap 0" in err
    assert "method=" not in err


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


def test_verify_disconnected_exit_2(tmp_path, capsys):
    doc = tmp_path / "disc.txt"
    doc.write_text("4 2\n0 1\n2 3\n")
    code, _, err = run_cli(capsys, "verify", str(doc))
    assert code == 2 and "connected" in err


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


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_simulate_rejects_worker_count_below_one(capsys, threads):
    code, out, err = run_cli(
        capsys, "simulate", "--gen", "complete", "3", "--trials", "100",
        "--threads", threads, "--cap", "0",
    )
    assert code == 2 and out == ""
    assert "threads" in err


def test_simulate_seed_reproducibility(capsys):
    _, out1, _ = run_cli(capsys, "simulate", "--gen", "complete", "4", "--trials", "5000", "--seed", "3")
    _, out2, _ = run_cli(capsys, "simulate", "--gen", "complete", "4", "--trials", "5000", "--seed", "3")
    assert json.loads(out1) == json.loads(out2)


def test_kn_table(capsys):
    code, out, _ = run_cli(capsys, "kn-table", "--max-n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["zeta3"] == "1.2020569"
    assert [row["n"] for row in payload["rows"]] == [2, 3, 4, 5]
    assert payload["rows"][2]["num"] == "31"
    assert payload["rows"][3]["increasing"] is True
    assert payload["rows"][3]["concave"] is True


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
