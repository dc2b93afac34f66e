#!/usr/bin/env python3
"""Monte Carlo throughput: trials per second of ``simulate`` on one thread.

Usage: python scripts/mc_throughput.py [--trials T] [--repeats N] [--seed S]

Runs ``simulate(g, T, S)`` on K_4, K_8, K_11, C_30, P_30 and C_29 with a
pendant edge, in one process.  The graphs take turns, one call each per
round, for N rounds, so a drift of the host reaches every graph alike; a
row gives the graph's edge count, the kernel form it takes (``sorted`` when
every trial keeps its lightest edges, ``union-find`` otherwise) and T over
its best call time.  Defaults: 16384 trials, 40 rounds, seed 0.
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mstlength.graphs import Graph, complete_graph, cycle_graph, edge_rank, is_uniform, path_graph
from mstlength.mc import simulate

GRAPHS = {
    "K_4": complete_graph(4),
    "K_8": complete_graph(8),
    "K_11": complete_graph(11),
    "C_30": cycle_graph(30),
    "P_30": path_graph(30),
    "C_29+pendant": Graph(30, cycle_graph(29).edges + ((0, 29),)),
}


def best_times(trials: int, repeats: int, seed: int) -> dict[str, float]:
    """Least wall time of ``simulate`` per graph over interleaved rounds."""
    best = dict.fromkeys(GRAPHS, float("inf"))
    for _ in range(repeats):
        for name, g in GRAPHS.items():
            start = time.perf_counter()
            simulate(g, trials, seed)
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--trials", type=int, default=16384)
    parser.add_argument("--repeats", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.trials < 1 or args.repeats < 1:
        parser.error("--trials and --repeats must be at least 1")
    best = best_times(args.trials, args.repeats, args.seed)
    print(f"{'graph':<14}{'m':>4}  {'form':<11}{'trials/s':>12}")
    for name, g in GRAPHS.items():
        form = "sorted" if is_uniform(g, edge_rank(g)) else "union-find"
        print(f"{name:<14}{g.m:>4}  {form:<11}{args.trials / best[name]:>12.0f}")


if __name__ == "__main__":
    main()
