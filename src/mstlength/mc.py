"""Monte Carlo oracle: simulate uniform edge weights and Kruskal's algorithm.

Reproducibility contract: trial i draws its weights from a Philox4x64 counter
stream keyed by (seed, i // BLOCK_TRIALS), row i % BLOCK_TRIALS -- a pure
function of the seed and the trial index.  The seed is one 64-bit key word,
so it must lie in [0, 2**64).  Block boundaries are fixed, worker
processes only ever split on block boundaries, and the statistics come from
exact integer sums, which do not depend on order, so the estimate is
bit-identical for any worker count.

Every weight is an integer tick on the 2**-53 lattice, as numpy's
``Generator.random()`` makes it from the same 64-bit word, so one block is one
tick matrix, a row per trial.  Kruskal runs across all of its rows at once
(``_mst_lengths``): each tick is packed with its edge index into one integer
sort key, one in-place row sort ranks every row's edges, then the rank columns
are taken in turn, each one a handful of array operations over every row.
Components are kept as a label matrix, one contiguous row of labels per edge
endpoint and a column per trial: an accepted edge renames the larger of its two
labels to the smaller in its trial's column.  Each row adds its accepted weights
in rank order, exactly as the scalar reference ``mst_length_for_weights`` does,
so every per-trial length is the same float.  Every length is k * 2**-53 for
an integer k, so ``simulate`` sums k and k**2 exactly in integers and rounds
the total and the sample variance once each.

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
from .graphs import Graph, find, is_connected

BLOCK_TRIALS = 4096
GENERATOR_ID = f"philox4x64-keyed-blocks-{BLOCK_TRIALS}"
_LIMB_BITS = 20
_SUM_ROWS = 2**16


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


def _block_ticks(seed: int, block: int, m: int) -> np.ndarray:
    """Weight ticks for one block of trials: uint64, shape (BLOCK_TRIALS, m).

    ``Generator.random()`` returns ``(next_uint64 >> 11) * 2**-53``, so each
    weight is an integer tick below 2**53 on the 2**-53 lattice; this draws the
    same 64-bit words and keeps the ticks, tick t standing for weight t * 2**-53
    exactly.
    """
    key = np.array([seed, block], dtype=np.uint64)
    ticks = np.random.Philox(key=key).random_raw((BLOCK_TRIALS, m))
    ticks >>= 11
    return ticks


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


def _mst_lengths(n: int, edges: tuple[tuple[int, int], ...], ticks: np.ndarray) -> np.ndarray:
    """MST length of every row of ``ticks`` (uint64, shape (rows, m)), by Kruskal.

    Row r's weights are ``ticks[r] * 2**-53``.  The kernel consumes its
    argument: it builds the sort keys in place in ``ticks``, key = tick << 6 |
    edge index.  A tick is below 2**53 and an edge index below 2**6, since a
    Graph has m <= MAX_EDGES = 63 edges, so a key is below 2**59: it fits in
    uint64 (and in int64, which the kernel views it as), and the tick and the
    index never overlap.  The keys of a row are unique, so one in-place row
    sort puts its edges in the reference's total order: by weight, ties going
    to the lower edge index.

    Trial r's components are column r of a label matrix ``comp`` that has
    one contiguous row per edge endpoint, so every operation runs along the
    trial axis.  Only endpoints are labelled: a Graph has at most
    2 * MAX_EDGES = 126 of them, so every label (0..125) and every difference
    of two labels fits in int8, whatever n is.  Column k of the sorted keys is
    each trial's k-th lightest edge: one gather gives the edge (key & 63) and
    its weight ((key >> 6) * 2**-53, exact, as the tick is below 2**53), two
    more give its endpoints' labels cu and cv.  Where they differ the edge
    joins two components: its weight is added to the trial's total, and
    ``comp -= (comp == hi) * (hi - lo)``, hi and lo the larger and smaller of
    cu and cv, renames hi to lo in that trial's column (a no-op where they
    are equal).  So every total sums the same weights in the same order as
    ``mst_length_for_weights`` and is bit-identical to it.  The columns stop
    once every trial has n - 1 tree edges; every later edge of a finished
    trial is a loop, so it stays in the matrix and adds nothing.  A trial
    that never gets n - 1 tree edges (a disconnected graph) ends with its
    spanning forest's length, as the reference does.

    Every length is k * 2**-53 for an integer k <= m * 2**53 < 2**59.  A
    float sum of multiples of 2**-53 rounds to one: below 1 it is j * 2**-53
    with j < 2**53, a float, and from 1 up the float spacing is 2**-52 or
    more.  A total adds at most n - 1 <= m weights, each below 1, and
    rounding is monotone, so after j additions it is at most j: the length
    is at most m <= MAX_EDGES = 63 < 2**6.
    """
    rows, m = ticks.shape
    keys = ticks.view(np.int64)
    keys <<= 6
    keys |= np.arange(m)
    keys.sort(axis=1)
    label: dict[int, int] = {}  # endpoints numbered in order of first appearance
    ends = [label.setdefault(w, len(label)) for edge in edges for w in edge]
    comp = np.repeat(np.arange(len(label), dtype=np.int8)[:, None], rows, axis=1)
    flat = comp.ravel()
    first = np.array(ends, dtype=np.intp).reshape(m, 2) * rows  # each end's first cell in flat
    fu, fv = first[:, 0], first[:, 1]
    row = np.arange(rows)
    total = np.zeros(rows)
    picked = np.zeros(rows, dtype=np.intp)
    for k in range(m):
        key = keys[:, k]
        e = key & 63
        cu = flat[fu[e] + row]
        cv = flat[fv[e] + row]
        join = cu != cv
        np.add(total, (key >> 6) * 2**-53, out=total, where=join)
        hi = np.maximum(cu, cv)
        lo = np.minimum(cu, cv)
        comp -= (comp == hi) * (hi - lo)
        picked += join
        if k >= n - 2 and (picked == n - 1).all():
            break
    return total


def _simulate_blocks(
    n: int,
    edges: tuple[tuple[int, int], ...],
    seed: int,
    first_trial: int,
    last_trial: int,
) -> np.ndarray:
    """MST lengths for trials [first_trial, last_trial) of the global stream."""
    lengths = []
    block = first_trial // BLOCK_TRIALS
    trial = first_trial
    while trial < last_trial:
        row_lo = trial - block * BLOCK_TRIALS
        row_hi = min(BLOCK_TRIALS, last_trial - block * BLOCK_TRIALS)
        ticks = _block_ticks(seed, block, len(edges))[row_lo:row_hi]
        lengths.append(_mst_lengths(n, edges, ticks))
        trial = (block + 1) * BLOCK_TRIALS
        block += 1
    return np.concatenate(lengths)


def _lattice_sums(lengths: np.ndarray) -> tuple[int, int]:
    """Exact sums of k and k**2 over ``lengths``, where length = k * 2**-53.

    k < 2**59 (``_mst_lengths``) splits into three L = _LIMB_BITS = 20 bit
    limbs, k = a + b * 2**L + c * 2**2L, so k**2 = a*a + 2ab * 2**L +
    (b*b + 2ac) * 2**2L + 2bc * 2**3L + c*c * 2**4L: six limb products, each
    below 2**40.  One int64 sum takes at most _SUM_ROWS = 2**16 rows, so it
    stays below 2**56 < 2**63 and never wraps (2**23 rows would still fit;
    2**16 keeps each temporary at 512 KB).  The slices are combined as Python
    ints, so any number of lengths sums exactly, in any order.
    """
    bits = _LIMB_BITS
    mask = (1 << bits) - 1
    total = square = 0
    for start in range(0, len(lengths), _SUM_ROWS):
        k = (lengths[start : start + _SUM_ROWS] * 2**53).astype(np.int64)
        a, b, c = k & mask, (k >> bits) & mask, k >> 2 * bits
        total += int(a.sum()) + (int(b.sum()) << bits) + (int(c.sum()) << 2 * bits)
        square += (
            int(a @ a)
            + (int(a @ b) << bits + 1)
            + ((int(b @ b) + 2 * int(a @ c)) << 2 * bits)
            + (int(b @ c) << 3 * bits + 1)
            + (int(c @ c) << 4 * bits)
        )
    return total, square


def simulate(g: Graph, trials: int, seed: int, *, threads: int = 1) -> McEstimate:
    """Estimate E[L(g)] from `trials` independent uniform weight draws.

    The mean is the exact total of the lengths, rounded once, over `trials`;
    the standard error is sqrt(s**2 / trials), s**2 the exact sample variance
    rounded once.  Both come from the integer sums of ``_lattice_sums``.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("Monte Carlo MST length requires a connected graph")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")

    n_blocks = -(-trials // BLOCK_TRIALS)
    workers = min(threads, n_blocks, os.cpu_count() or 1)
    if workers <= 1:
        per_trial = _simulate_blocks(g.n, g.edges, seed, 0, trials)
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
                    bounds[i] * BLOCK_TRIALS,
                    min(bounds[i + 1] * BLOCK_TRIALS, trials),
                )
                for i in range(workers)
            ]
            per_trial = np.concatenate([future.result() for future in futures])
    total, square = _lattice_sums(per_trial)
    mean = math.ldexp(float(total), -53) / trials
    if trials > 1:
        variance = Fraction(trials * square - total * total, trials * (trials - 1) << 106)
        stderr = math.sqrt(float(variance) / trials)
    else:
        stderr = 0.0
    return McEstimate(
        trials=trials,
        seed=seed,
        mean=mean,
        stderr=stderr,
        min_length=float(per_trial.min()),
        max_length=float(per_trial.max()),
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
            "z_vs_exact": self.z if math.isfinite(self.z) else None,
            "threshold": self.threshold,
            "pass": self.passed,
        }


def compare(exact: Fraction, estimate: McEstimate, z_threshold: float = 4.0) -> McComparison:
    """Report |mean - exact| in standard-error units against a z threshold.

    The threshold must be finite and above 0: NaN would fail every comparison
    and infinity pass every one.
    """
    if not (math.isfinite(z_threshold) and z_threshold > 0):
        raise ValueError(f"z_threshold must be finite and > 0, got {z_threshold}")
    gap = abs(estimate.mean - float(exact))
    if estimate.stderr > 0:
        z = gap / estimate.stderr
    else:
        z = 0.0 if gap == 0 else math.inf
    return McComparison(exact=Fraction(exact), z=z, threshold=z_threshold)
