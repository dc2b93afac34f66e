#!/usr/bin/env python3
"""Where the rank-table sweep stops: result, peak states, time and memory.

Usage: python scripts/limits_table.py [SPEC ...]

Each SPEC names one graph: a ``--gen`` kind and its parameters, such as
``"grid 6 6"`` or ``"gnm 20 63 1"``, or ``"complete-minus-matching N K"``
for K_N without the K edges (0, 1), (2, 3), ...  Without a SPEC the script
runs the limits set: the 6x6 grid, K_12 minus a 3-edge matching, K_{7,9},
and G(n, 63) at seed 1 for n = 16, 20, 25, 30 and 40.

Each graph runs ``build_rank_table`` in a fresh process, one process at a
time, so that its peak RSS (``ru_maxrss``) is its own.  A row gives the
result (computes, or refused at edge k), the most partition states any
admitted step held, the wall time of the call and the peak RSS.
"""

import json
import pathlib
import resource
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mstlength import enumeration
from mstlength.errors import FrontierOverflowError
from mstlength.graphs import Graph, complete_graph, generate

LIMITS_SET = [
    "grid 6 6",
    "complete-minus-matching 12 3",
    "bipartite 7 9",
    *(f"gnm {n} 63 1" for n in (16, 20, 25, 30, 40)),
]


def build(spec: str) -> Graph:
    kind, *params = spec.split()
    numbers = [int(p) for p in params]
    if kind == "complete-minus-matching":
        n, k = numbers
        matching = {(2 * i, 2 * i + 1) for i in range(k)}
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in matching]
        return Graph(n, tuple(edges))
    return generate(kind, *numbers)


def measure(spec: str) -> dict:
    """Run one sweep in this process and report it."""
    g = build(spec)
    peak = 0
    combine = enumeration._combine_counts

    def counting_combine(*args):
        nonlocal peak
        peak = max(peak, len(args[-1]))  # the runs of distinct states
        return combine(*args)

    enumeration._combine_counts = counting_combine
    started = time.perf_counter()
    try:
        enumeration.build_rank_table(g)
        result = "computes"
    except FrontierOverflowError as exc:
        result = "refused at edge " + str(exc).split(" at edge ", 1)[1].split("/", 1)[0]
    elapsed = time.perf_counter() - started
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"spec": spec, "m": g.m, "result": result, "peak": peak, "seconds": elapsed, "rss_mb": rss_mb}


def main() -> None:
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(measure(sys.argv[2])))
        return
    print(f"{'graph':<30} {'m':>3} {'result':<18} {'peak states':>11} {'time':>9} {'peak RSS':>9}")
    for spec in sys.argv[1:] or LIMITS_SET:
        proc = subprocess.run(
            [sys.executable, __file__, "--one", spec], capture_output=True, text=True, check=True
        )
        row = json.loads(proc.stdout)
        print(
            f"{row['spec']:<30} {row['m']:>3} {row['result']:<18} {row['peak']:>11} "
            f"{row['seconds']:>8.3f}s {row['rss_mb']:>6.0f} MB"
        )


if __name__ == "__main__":
    main()
