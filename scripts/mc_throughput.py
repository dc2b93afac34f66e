#!/usr/bin/env python3
"""Monte Carlo throughput: trials per second of ``simulate`` on one thread.

Usage: python scripts/mc_throughput.py [--trials T] [--repeats N] [--seed S]

Runs ``simulate(g, T, S)`` on K_4, K_8, K_11, ``gnm 12 30 2``, C_30, P_30
and C_29 with a pendant edge, in one process.  The graphs take turns, one
call each per round, for N rounds, so a drift of the host reaches every
graph alike; a row gives the graph's edge count, the kernel form it takes
(``sorted`` when every trial keeps its lightest edges, ``union-find``
otherwise), and T over its best and over its median call time: the host can
drift by a third, so the best alone may flatter.  Defaults: 16384 trials,
40 rounds, seed 0.
"""

import argparse
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mstlength.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    edge_rank,
    gnm_graph,
    is_uniform,
    path_graph,
)
from mstlength.mc import simulate

GRAPHS = {
    "K_4": complete_graph(4),
    "K_8": complete_graph(8),
    "K_11": complete_graph(11),
    "gnm_12_30_2": gnm_graph(12, 30, 2),
    "C_30": cycle_graph(30),
    "P_30": path_graph(30),
    "C_29+pendant": Graph(30, cycle_graph(29).edges + ((0, 29),)),
}


def call_times(trials: int, repeats: int, seed: int) -> dict[str, list[float]]:
    """Wall time of each ``simulate`` call per graph, over interleaved rounds."""
    times: dict[str, list[float]] = {name: [] for name in GRAPHS}
    for _ in range(repeats):
        for name, g in GRAPHS.items():
            start = time.perf_counter()
            simulate(g, trials, seed)
            times[name].append(time.perf_counter() - start)
    return times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--trials", type=int, default=16384)
    parser.add_argument("--repeats", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.trials < 1 or args.repeats < 1:
        parser.error("--trials and --repeats must be at least 1")
    times = call_times(args.trials, args.repeats, args.seed)
    print(f"{'graph':<14}{'m':>4}  {'form':<11}{'best/s':>12}{'median/s':>12}")
    for name, g in GRAPHS.items():
        form = "sorted" if is_uniform(g, edge_rank(g)) else "union-find"
        best, median = min(times[name]), statistics.median(times[name])
        print(f"{name:<14}{g.m:>4}  {form:<11}{args.trials / best:>12.0f}{args.trials / median:>12.0f}")


if __name__ == "__main__":
    main()
