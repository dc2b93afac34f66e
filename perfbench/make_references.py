"""Regenerate perfbench/references.json from the program in src/.

    python3 perfbench/make_references.py

Run it only at a commit whose answers are trusted: the benchmark judges every
later commit against this file.  It records, for every benchmark graph, the
integrand p(t) and E[L] as an exact fraction, and, for the Monte Carlo
graphs, the mean of ``simulate`` at the default seed.  run.py cross-checks the
exact references against closed forms on every run.
"""

from __future__ import annotations

import json
import sys

import run

MC_TRIALS = 16384
DEFAULT_SEED = 0


def main() -> None:
    sys.path.insert(0, str(run.SOURCE))
    pkg = run.import_package()
    refs = {"graphs": {}, "mc": {}}
    for name in run.GRAPHS:
        g = run.build_graph(pkg, name)
        result = pkg.expected_mst_length(g, cap=int(run.CAP))
        refs["graphs"][name] = {
            "n": g.n,
            "m": g.m,
            "p": list(result.polynomial.coefficients),
            "num": str(result.expectation.numerator),
            "den": str(result.expectation.denominator),
        }
    mc_names = run.WORKLOADS["mc"][1]
    refs["mc"] = {
        "trials": MC_TRIALS,
        "default_seed": DEFAULT_SEED,
        "generator_id": sys.modules["mstlength.mc"].GENERATOR_ID,
        "means": {
            name: pkg.simulate(run.build_graph(pkg, name), MC_TRIALS, DEFAULT_SEED).mean
            for name in mc_names
        },
    }
    # One graph per line keeps the file short and its diffs readable.
    graphs = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in refs["graphs"].items())
    run.REFERENCES.write_text(
        f'{{"graphs": {{\n{graphs}\n}},\n"mc": {json.dumps(refs["mc"])}}}\n'
    )


if __name__ == "__main__":
    main()
