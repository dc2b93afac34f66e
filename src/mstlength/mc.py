"""Monte Carlo oracle: simulate uniform edge weights and Kruskal's algorithm.

Reproducibility contract: trial i draws its weights from a Philox4x64 counter
stream keyed by (seed, i // BLOCK_TRIALS), row i % BLOCK_TRIALS -- a pure
function of the seed and the trial index.  Block boundaries are fixed, worker
processes only ever split on block boundaries, and aggregation uses exact
summation (math.fsum), so the estimate is bit-identical for any worker count.

Floating point is confined to this module; everything exact lives elsewhere.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DisconnectedGraphError
from .graphs import Graph, is_connected

BLOCK_TRIALS = 4096
GENERATOR_ID = f"philox4x64-keyed-blocks-{BLOCK_TRIALS}"


@dataclass(frozen=True)
class McEstimate:
    trials: int
    seed: int
    mean: float
    stderr: float
    min_length: float
    max_length: float
    generator_id: str = GENERATOR_ID

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "mean": self.mean,
            "stderr": self.stderr,
            "min": self.min_length,
            "max": self.max_length,
            "generator_id": self.generator_id,
        }


def _block_weights(seed: int, block: int, m: int) -> np.ndarray:
    """Uniform weights for one block of trials, shape (BLOCK_TRIALS, m)."""
    bits = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), block]))
    return bits.random((BLOCK_TRIALS, m))


def find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def mst_length_for_weights(g: Graph, weights: list[float]) -> float:
    """MST total length for one explicit weight assignment.

    Reference implementation of the per-trial step: greedy over the total
    order (weight, edge index), so the result depends only on the assignment,
    not on edge enumeration order.
    """
    if len(weights) != g.m:
        raise ValueError(f"expected {g.m} weights, got {len(weights)}")
    parent = list(range(g.n))
    total = 0.0
    picked = 0
    for _, e in sorted((w, e) for e, w in enumerate(weights)):
        u, v = g.edges[e]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
            total += weights[e]
            picked += 1
            if picked == g.n - 1:
                break
    return total


def _simulate_blocks(
    n: int,
    edges: tuple[tuple[int, int], ...],
    seed: int,
    first_block: int,
    first_trial: int,
    last_trial: int,
) -> list[float]:
    """MST lengths for trials [first_trial, last_trial) of the global stream."""
    m = len(edges)
    eu = [u for u, v in edges]
    ev = [v for u, v in edges]
    tree_edges = n - 1
    lengths: list[float] = []
    block = first_block
    trial = first_trial
    while trial < last_trial:
        weights = _block_weights(seed, block, m)
        # Stable argsort breaks weight ties by edge index.
        order = np.argsort(weights, axis=1, kind="stable")
        row_lo = trial - block * BLOCK_TRIALS
        row_hi = min(BLOCK_TRIALS, last_trial - block * BLOCK_TRIALS)
        for row in range(row_lo, row_hi):
            w = weights[row].tolist()
            parent = list(range(n))
            total = 0.0
            picked = 0
            for e in order[row].tolist():
                u = eu[e]
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                v = ev[e]
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                if u != v:
                    parent[u] = v
                    total += w[e]
                    picked += 1
                    if picked == tree_edges:
                        break
            lengths.append(total)
        trial = (block + 1) * BLOCK_TRIALS
        block += 1
    return lengths


def simulate(g: Graph, trials: int, seed: int, *, threads: int = 1) -> McEstimate:
    """Estimate E[L(g)] from `trials` independent uniform weight draws."""
    if not is_connected(g):
        raise DisconnectedGraphError("Monte Carlo MST length requires a connected graph")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    n_blocks = -(-trials // BLOCK_TRIALS)
    workers = min(threads, n_blocks, os.cpu_count() or 1)
    if workers <= 1:
        lengths = _simulate_blocks(g.n, g.edges, seed, 0, 0, trials)
    else:
        # Split on block boundaries only; concatenation in block order makes
        # the gathered lengths identical to the serial run.
        bounds = [n_blocks * i // workers for i in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _simulate_blocks,
                    g.n,
                    g.edges,
                    seed,
                    bounds[i],
                    bounds[i] * BLOCK_TRIALS,
                    min(bounds[i + 1] * BLOCK_TRIALS, trials),
                )
                for i in range(workers)
            ]
            lengths = []
            for future in futures:
                lengths.extend(future.result())

    mean = math.fsum(lengths) / trials
    if trials > 1:
        variance = math.fsum((x - mean) ** 2 for x in lengths) / (trials - 1)
        stderr = math.sqrt(variance / trials)
    else:
        stderr = 0.0
    return McEstimate(
        trials=trials,
        seed=seed,
        mean=mean,
        stderr=stderr,
        min_length=min(lengths),
        max_length=max(lengths),
    )


@dataclass(frozen=True)
class McComparison:
    """Distance between an exact expectation and a Monte Carlo estimate."""

    exact: Fraction
    z: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.z <= self.threshold

    def to_json_dict(self) -> dict:
        return {
            "exact_num": str(self.exact.numerator),
            "exact_den": str(self.exact.denominator),
            "z_vs_exact": self.z,
            "threshold": self.threshold,
            "pass": self.passed,
        }


def compare(exact: Fraction, estimate: McEstimate, z_threshold: float = 4.0) -> McComparison:
    """Report |mean - exact| in standard-error units against a z threshold."""
    gap = abs(estimate.mean - float(exact))
    if estimate.stderr > 0:
        z = gap / estimate.stderr
    else:
        z = 0.0 if gap == 0 else math.inf
    return McComparison(exact=Fraction(exact), z=z, threshold=z_threshold)
