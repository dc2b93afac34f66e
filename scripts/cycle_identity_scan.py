#!/usr/bin/env python3
"""Experimental scan of the cycle-transform identity beyond its proven range.

For i = 3..6 the alternating binomial transform of cycles-plus-free-edges
counts provably collapses to c_i, and the library asserts it.  Whether the
same identity extends to i >= 7 is open; this script evaluates it on a corpus
of graphs and reports the outcomes without asserting anything.

Two readings are evaluated.  The literal one keeps the inner sum's lower
bound at the minimum rank for l edges (which starts excluding triangles at
l = 7); the other starts the inner sum at 3.  They coincide on the proven
range.  Observed: the literal reading fails already for i = 7 on K_7 and on a
7-cycle with one chord, while the all-cycles reading holds on every graph
tried here.

Usage: python scripts/cycle_identity_scan.py [MAX_I]
"""

import pathlib
import random
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mstlength.census import build_census
from mstlength.coefficients import cycle_transform_value
from mstlength.graphs import Graph, bipartite_graph, complete_graph, cycle_graph


def corpus() -> list[tuple[str, Graph]]:
    cases: list[tuple[str, Graph]] = [
        ("C_7", cycle_graph(7)),
        ("C_8", cycle_graph(8)),
        ("C_9", cycle_graph(9)),
        ("C_7 + chord", Graph(7, cycle_graph(7).edges + ((0, 2),))),
        ("C_8 + chord", Graph(8, cycle_graph(8).edges + ((0, 3),))),
        ("K_7", complete_graph(7)),
        ("K_8", complete_graph(8)),
        ("K_{4,3}", bipartite_graph(4, 3)),
        ("K_{4,4}", bipartite_graph(4, 4)),
    ]
    rng = random.Random(7)
    for idx in range(6):
        n = rng.randint(7, 9)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        rng.shuffle(pool)
        edges.update(pool[: rng.randint(2, 6)])
        cases.append((f"random #{idx} (n={n}, m={len(edges)})", Graph(n, tuple(sorted(edges)))))
    return cases


def main() -> None:
    max_i = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    print(
        f"{'graph':>24} {'i':>3} {'min-rank form':>14} {'all-cycles form':>16} "
        f"{'c_i':>8} {'match':>6} {'match(all)':>10}"
    )
    for name, g in corpus():
        census = build_census(g, max_cycle_len=min(max_i, g.n))
        for i in range(7, min(max_i, g.n) + 1):
            transform = cycle_transform_value(census, i)
            transform_all = cycle_transform_value(census, i, all_cycles=True)
            c_i = census.cycle_count(i)
            print(
                f"{name:>24} {i:>3} {transform:>14} {transform_all:>16} {c_i:>8} "
                f"{str(transform == c_i):>6} {str(transform_all == c_i):>10}"
            )
    print("\n(report only: the i >= 7 extension is an open question; the literal")
    print(" minimum-rank reading fails on dense graphs, the all-cycles reading")
    print(" holds on every graph in this corpus, and at i = 7 on every connected")
    print(" graph with 7 vertices: tests/test_atlas.py checks all 853)")


if __name__ == "__main__":
    main()
