"""Monte Carlo oracle: simulate uniform edge weights and Kruskal's algorithm.

Reproducibility contract: trial i draws its weights from a Philox4x64 counter
stream keyed by (seed, i // BLOCK_TRIALS), row i % BLOCK_TRIALS -- a pure
function of the seed and the trial index.  The seed is one 64-bit key word,
so it must lie in [0, 2**64).  A block is the unit of work: ``_block_sums``
returns the exact integer sums of its trials and its least and greatest
length.  A serial run maps it over the blocks in turn, and ``threads`` > 1
gives each worker process one contiguous run of blocks.  Integer sums, a
minimum and a maximum do not depend on order, so the estimate is
bit-identical for any worker count.

Every weight is an integer tick on the 2**-53 lattice, as numpy's
``Generator.random()`` makes it from the same 64-bit word, so one block is one
tick matrix, a row per trial.  Kruskal runs across all of its rows at once
(``_mst_lengths``).  On a forest, or one cycle and isolated vertices, every
trial keeps its edge-rank lightest edges, so one in-place row sort of the
ticks and a sum over the lightest columns give every length.  On any other
graph each tick is packed with its edge index into one integer sort key, one
in-place row sort ranks every row's edges, then the rank columns are taken in
turn, each one a handful of array operations over every row.  Components are
kept as a label matrix, one contiguous row of labels per edge endpoint and a
column per trial: an accepted edge renames the larger of its two labels to the
smaller in its trial's column.  A trial is one component exactly when its
column is all 0, so the columns stop when the matrix is; once at most an
eighth of the rows are unfinished, they are copied out once and run on alone.
Either way each row adds its accepted ticks in rank order, as a float counted
in ticks and scaled by 2**-53 once at the end.  That rounds exactly as the
scalar reference ``mst_length_for_weights`` adds the weights, since scaling by
a power of two commutes with rounding where nothing underflows or overflows,
so every per-trial length is the same float.  Every length is k * 2**-53 for
an integer k, so each block sums k and k**2 exactly in integers, and
``simulate`` adds the blocks' sums and rounds the total and the sample
variance once each.

Floating point is confined to this module; everything exact lives elsewhere.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .errors import DisconnectedGraphError
from .graphs import Graph, edge_rank, find, is_connected, is_uniform

BLOCK_TRIALS = 4096
GENERATOR_ID = f"philox4x64-keyed-blocks-{BLOCK_TRIALS}"
_LIMB_BITS = 20


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


def _block_ticks(seed: int, block: int, m: int, rows: int) -> np.ndarray:
    """Weight ticks for the first ``rows`` trials of one block: uint64, shape
    (rows, m), the first rows of the block's whole (BLOCK_TRIALS, m) draw.

    ``Generator.random()`` returns ``(next_uint64 >> 11) * 2**-53``, so each
    weight is an integer tick below 2**53 on the 2**-53 lattice; this draws the
    same 64-bit words and keeps the ticks, tick t standing for weight t * 2**-53
    exactly.
    """
    key = np.array([seed, block], dtype=np.uint64)
    ticks = np.random.Philox(key=key).random_raw((rows, m))
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


@lru_cache(maxsize=16)
def _kruskal_plan(
    n: int, edges: tuple[tuple[int, int], ...]
) -> int | tuple[int, np.ndarray, np.ndarray]:
    """How ``_mst_lengths`` runs Kruskal on ``Graph(n, edges)``.  Cached: every
    block of a run asks about the same graph.

    When every set of edge-rank many edges is independent
    (``graphs.is_uniform``), the plan is that rank, and the kernel takes the
    sorted form.  Otherwise it is the endpoint slot table of the union-find
    loop: the slot count, ``iu`` and ``dv``.  Only edge endpoints get a slot,
    numbered in order of first appearance; edge e's first end has slot
    ``iu[e]`` and its second end slot ``iu[e] + dv[e]``.  Every call shares
    the two arrays, so they are read-only.
    """
    g = Graph(n, edges)
    rank = edge_rank(g)
    if is_uniform(g, rank):
        return rank
    label: dict[int, int] = {}
    ends = np.array([label.setdefault(w, len(label)) for edge in edges for w in edge], dtype=np.intp)
    iu = ends[0::2].copy()
    dv = ends[1::2] - iu
    iu.flags.writeable = dv.flags.writeable = False
    return len(label), iu, dv


def _mst_lengths(n: int, edges: tuple[tuple[int, int], ...], ticks: np.ndarray) -> np.ndarray:
    """MST length of every row of ``ticks`` (uint64, shape (rows, m)), by Kruskal.

    Row r's weights are ``ticks[r] * 2**-53``.  The kernel consumes its
    argument: it sorts it in place.

    Each row's total is kept in ticks, a float that adds the row's accepted
    ticks in rank order, and is scaled by 2**-53 once, at the end.  That is
    the reference's float bit for bit: a tick is below 2**53, so it is an
    exact float; a total stays below 2**59 ticks, and its least nonzero value,
    1 tick, is a normal float after the scale, so nothing underflows or
    overflows; and round-to-nearest commutes with a power-of-two scale
    wherever nothing does.  So every addition rounds in ticks exactly as the
    reference's addition of the scaled weights rounds, and the scale is exact.

    When every ``rank`` edges of the graph are independent
    (``graphs.is_uniform``: a forest, or one cycle and isolated vertices),
    Kruskal keeps each trial's ``rank`` lightest edges, a cycle dropping its
    heaviest, whatever the weights.  Then one in-place row sort of the ticks
    ranks every row, and columns 0 .. rank - 1 are added into the totals one
    at a time: the reference's weights in the reference's order, so every
    length is bit-identical to ``mst_length_for_weights``.  Tied edges have
    equal weights, so which of them ranks first changes no sum, and no edge
    index is packed.  No component is tracked.

    Otherwise the kernel builds sort keys in place in ``ticks``:
    key = tick << 6 | edge index.  A tick is below 2**53 and an edge index
    below 2**6, since a Graph has m <= MAX_EDGES = 63 edges, so a key is below
    2**59: it fits in uint64 (and in int64, which the kernel views it as), and
    the tick and the index never overlap.  The keys of a row are unique, so
    one in-place row sort puts its edges in the reference's total order: by
    weight, ties going to the lower edge index.

    Trial r's components are column r of a label matrix ``comp`` that has
    one contiguous row per edge endpoint (``_kruskal_plan``'s slots), so every
    operation runs along the trial axis.  Only endpoints are labelled: a
    Graph has at most 2 * MAX_EDGES = 126 of them, so every label (0..125)
    and every difference of two labels fits in int8, whatever n is.  Column k
    of the sorted keys is each trial's k-th lightest edge.  It is copied out
    once, contiguous: ``key & 63`` is the edge, and ``key >>= 6`` leaves its
    tick.  One flat index finds both endpoints' labels cu and cv: the edge's
    first end's cell, then that plus ``dv[e] * rows``.  Where cu and cv differ
    the edge joins two components: the tick, times that test, is added to
    the total (a loop adds 0, which changes no float), and
    ``comp -= (comp == hi) * (hi - lo)``, hi and lo the larger and smaller of
    cu and cv, renames hi to lo in that trial's column (a no-op where they
    are equal).  So every total sums the same weights in the same order as
    ``mst_length_for_weights``.

    A label only ever falls to the least label of its component, so slot 0's
    label stays 0 and a trial is one component exactly when its column is
    all 0; then every later edge is a loop that adds nothing.  That takes
    slots - 1 joins, so no trial is one component before column slots - 2;
    from there on each column counts the trials still unfinished.  The first time they are at most an
    eighth of the rows, their keys, label columns and totals are copied out,
    once, and the remaining columns run on them alone; their totals are
    scattered back at the end.  The loop stops when the label matrix is all
    0.  A trial that is never one component (a disconnected graph) runs
    every column and ends with its spanning forest's length, as the
    reference does.

    Every length is k * 2**-53 for an integer k <= m * 2**53 < 2**59.  A
    float sum of multiples of 2**-53 rounds to one: below 1 it is j * 2**-53
    with j < 2**53, a float, and from 1 up the float spacing is 2**-52 or
    more.  A total adds at most n - 1 <= m weights, each below 1, and
    rounding is monotone, so after j additions it is at most j: the length
    is at most m <= MAX_EDGES = 63 < 2**6.
    """
    rows, m = ticks.shape
    plan = _kruskal_plan(n, edges)
    lengths = total = np.zeros(rows)  # in ticks until the final scale
    if isinstance(plan, int):
        ticks.sort(axis=1)  # column k: each trial's k-th lightest weight
        for k in range(plan):
            total += ticks[:, k]
        total *= 2**-53
        return total
    slots, iu, dv = plan
    keys = ticks.view(np.int64)
    keys <<= 6
    keys |= np.arange(m)
    keys.sort(axis=1)
    comp = np.repeat(np.arange(slots, dtype=np.int8)[:, None], rows, axis=1)
    first, step, row, flat = iu * rows, dv * rows, np.arange(rows), comp.ravel()
    left = None  # the unfinished rows, once compacted
    for k in range(m):
        key = keys[:, k].copy()
        e = key & 63
        key >>= 6
        at = first[e]
        at += row
        cu = flat[at]
        at += step[e]
        cv = flat[at]
        join = cu != cv
        key *= join
        total += key
        hi = np.maximum(cu, cv)
        lo = np.minimum(cu, cv)
        comp -= (comp == hi) * (hi - lo)
        if k < slots - 2:
            continue
        unfinished = comp.any(axis=0)
        count = np.count_nonzero(unfinished)
        if not count:
            break
        if left is None and count * 8 <= rows:
            left = np.flatnonzero(unfinished)
            keys, total = keys[left], total[left]
            comp = np.ascontiguousarray(comp[:, left])
            width = len(left)
            first, step, row, flat = iu * width, dv * width, np.arange(width), comp.ravel()
    if left is not None:
        lengths[left] = total
    lengths *= 2**-53
    return lengths


def _lattice_sums(lengths: np.ndarray) -> tuple[int, int]:
    """Exact sums of k and k**2 over ``lengths``, where length = k * 2**-53.

    k < 2**59 (``_mst_lengths``) splits into three L = _LIMB_BITS = 20 bit
    limbs, k = a + b * 2**L + c * 2**2L, so k**2 = a*a + 2ab * 2**L +
    (b*b + 2ac) * 2**2L + 2bc * 2**3L + c*c * 2**4L: six limb products, each
    below 2**40.  ``lengths`` holds at most BLOCK_TRIALS = 2**12 rows, so
    every int64 sum stays below 2**52 < 2**63 and never wraps.  The limb sums
    are combined as Python ints.
    """
    bits = _LIMB_BITS
    mask = (1 << bits) - 1
    k = (lengths * 2**53).astype(np.int64)
    a, b, c = k & mask, (k >> bits) & mask, k >> 2 * bits
    total = int(a.sum()) + (int(b.sum()) << bits) + (int(c.sum()) << 2 * bits)
    square = (
        int(a @ a)
        + (int(a @ b) << bits + 1)
        + ((int(b @ b) + 2 * int(a @ c)) << 2 * bits)
        + (int(b @ c) << 3 * bits + 1)
        + (int(c @ c) << 4 * bits)
    )
    return total, square


def _block_sums(
    n: int, edges: tuple[tuple[int, int], ...], seed: int, trials: int, block: int
) -> tuple[int, int, float, float]:
    """Exact sums of k and k**2, and the least and greatest length, over the
    trials of one block: BLOCK_TRIALS rows, or fewer in the last block of a
    run of ``trials``."""
    rows = min(BLOCK_TRIALS, trials - block * BLOCK_TRIALS)
    lengths = _mst_lengths(n, edges, _block_ticks(seed, block, len(edges), rows))
    return (*_lattice_sums(lengths), float(lengths.min()), float(lengths.max()))


def simulate(g: Graph, trials: int, seed: int, *, threads: int = 1) -> McEstimate:
    """Estimate E[L(g)] from `trials` independent uniform weight draws.

    The mean is the exact total of the lengths, rounded once, over `trials`;
    the standard error is sqrt(s**2 / trials), s**2 the exact sample variance
    rounded once.  Both come from the integer sums of ``_block_sums``.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("Monte Carlo MST length requires a connected graph")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")

    blocks = -(-trials // BLOCK_TRIALS)
    workers = min(threads, blocks, os.cpu_count() or 1)
    per_block = partial(_block_sums, g.n, g.edges, seed, trials)
    if workers <= 1:
        sums = list(map(per_block, range(blocks)))
    else:
        # imported here: only a pool needs multiprocessing, slow to import
        from concurrent.futures import ProcessPoolExecutor

        # each worker takes one contiguous run of blocks
        with ProcessPoolExecutor(max_workers=workers) as pool:
            sums = list(pool.map(per_block, range(blocks), chunksize=-(-blocks // workers)))
    totals, squares, lows, highs = zip(*sums)
    total, square = sum(totals), sum(squares)
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
        min_length=min(lows),
        max_length=max(highs),
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
