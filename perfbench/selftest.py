"""Self-test of the benchmark harness on small graphs (a few seconds).

    python3 perfbench/selftest.py

Checks that a traced pass prints byte-identical outputs to an untraced pass,
that the tracer removes every wrapper it installed, and that a deliberately
wrong reference makes the run report failures, so the correctness check is
live.  Exits non-zero on the first broken property.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import tracer as tracing

EXACT = ("K4", "K4_6")


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def outputs(cli, paths) -> list[str]:
    return [
        run.run_cli(cli, [command, "--cap", run.CAP, paths[name]])[1]
        for command in run.EXACT_COMMANDS
        for name in EXACT
    ]


def traced_matches_untraced(workdir) -> None:
    pkg, graphs, paths = run.setup(EXACT, 5, workdir)
    cli = sys.modules["mstlength.cli"]
    plain = outputs(cli, paths)
    plain_mc = pkg.simulate(graphs["K4"], 5000, 3)
    originals = {
        (namespace.__name__, key): value
        for namespace in tracing.package_modules()
        for key, value in vars(namespace).items()
        if callable(value)
    }

    tracer = tracing.Tracer()
    tracer.install()
    try:
        check(cli.main is not originals[("mstlength.cli", "main")], "cli.main was not wrapped")
        check(len(tracing.installed_wrappers()) > len(tracing.TARGETS), "too few wrappers")
        traced = outputs(cli, paths)
        traced_mc = pkg.simulate(graphs["K4"], 5000, 3)
    finally:
        tracer.remove()

    check(traced == plain, "traced CLI output differs from untraced output")
    check(traced_mc == plain_mc, "traced simulate result differs from untraced result")
    check(tracer.calls()[("enumeration", "build_rank_table")] == 2 * len(EXACT), "spans missing")
    check(not tracing.installed_wrappers(), "wrappers left after remove()")
    for namespace in tracing.package_modules():
        for key, value in vars(namespace).items():
            if (namespace.__name__, key) in originals:
                check(value is originals[(namespace.__name__, key)], f"{key} not restored")


def failures(kind, names, refs, workdir, trace: bool = False) -> list[str]:
    result, _, messages = run.run_graphs(kind, names, 9, 0.1, trace, refs, workdir)
    check(result["attempted"] > 0, "a run attempted nothing")
    return messages


def wrong_references_fail(refs, workdir) -> None:
    for trace in (False, True):
        check(not failures("exact", EXACT, refs, workdir, trace), f"pristine run failed, trace={trace}")
    check(not failures("mc", ("K4",), refs, workdir), "pristine mc run failed")

    # Adding t - 3t^2 + 2t^3 keeps the integral, p(0) and p(1), so only the
    # comparison with the program's output can notice it.
    bad = copy.deepcopy(refs)
    for i, c in enumerate((0, 1, -3, 2)):
        bad["graphs"]["K4_6"]["p"][i] += c
    found = failures("exact", ("K4_6",), bad, workdir)
    check(found and all(m.startswith("compute K4_6") for m in found), "wrong p(t) went unnoticed")

    bad = copy.deepcopy(refs)
    bad["graphs"]["K4"]["num"] = str(int(bad["graphs"]["K4"]["num"]) + 1)
    found = failures("exact", ("K4",), bad, workdir)
    check(any(m.startswith("reference for K4") for m in found), "reference cross-check is dead")
    check(any(m.startswith("compute K4") for m in found), "wrong E went unnoticed")

    bad = copy.deepcopy(refs)
    bad["mc"]["means"]["K4"] += 1e-12
    found = failures("mc", ("K4",), bad, workdir)
    check(found and all(m.startswith("simulate K4 seed 0") for m in found), "wrong MC mean went unnoticed")


def main() -> None:
    sys.path.insert(0, str(run.SOURCE))
    refs = json.loads(run.REFERENCES.read_text())
    build = run.ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-selftest-", dir=build))
    try:
        traced_matches_untraced(workdir)
        wrong_references_fail(refs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest ok")


if __name__ == "__main__":
    main()
