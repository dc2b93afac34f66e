"""Structural subgraph counting: cycles, chorded cycles, cliques, bipartite blocks.

Counts are of labeled subgraphs inside a fixed host graph: a cycle is a vertex
subset with a cyclic edge structure counted once (not per rotation or
direction); a "cycle with one chord" is a (cycle, present chord) incidence
pair; the diamond count (4-cycle plus chord) doubles as the number of 5-edge
rank-3 spanning subgraphs, which ties this module to the rank table.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .graphs import Graph


def _walk_cycles(g: Graph, max_len: int) -> Iterator[tuple[int, ...]]:
    """Each cycle of length 3..max_len once, as its canonical vertex sequence.

    DFS from each start vertex s over vertices larger than s, closing back to
    s; each cycle is found exactly once by requiring the second vertex to be
    smaller than the last (fixing the direction).
    """
    adjacency = g.adjacency
    for start in range(g.n):
        closing = set(adjacency[start])
        path = [start]
        on_path = {start}
        pending = [iter(adjacency[start])]
        while pending:
            for nxt in pending[-1]:
                if nxt == start:
                    if len(path) >= 3 and path[1] < path[-1]:
                        yield tuple(path)
                elif nxt > start and nxt not in on_path:
                    if len(path) + 1 < max_len:
                        path.append(nxt)
                        on_path.add(nxt)
                        pending.append(iter(adjacency[nxt]))
                        break
                    # a path at full length can only close, so skip its walk
                    if len(path) >= 2 and nxt in closing and path[1] < nxt:
                        yield (*path, nxt)
            else:
                pending.pop()
                on_path.discard(path.pop())


def count_cycles(g: Graph, max_len: int) -> dict[int, int]:
    """Number of cycles of each length 3..max_len."""
    if max_len < 3:
        return {}
    counts = {length: 0 for length in range(3, max_len + 1)}
    for cycle in _walk_cycles(g, max_len):
        counts[len(cycle)] += 1
    return counts


def _cycles_of_length(g: Graph, length: int) -> list[tuple[int, ...]]:
    """All cycles of exactly this length, as canonical vertex sequences."""
    return [cycle for cycle in _walk_cycles(g, length) if len(cycle) == length]


def _chords(cycle: tuple[int, ...]) -> list[tuple[int, int]]:
    """Vertex pairs of the cycle that are not consecutive on it."""
    length = len(cycle)
    out = []
    for a in range(length):
        for b in range(a + 1, length):
            if b - a != 1 and not (a == 0 and b == length - 1):
                out.append((cycle[a], cycle[b]))
    return out


def _present_chords(g: Graph, cycle: tuple[int, ...]) -> int:
    """Number of the cycle's chords that are edges of g."""
    return sum(1 for u, v in _chords(cycle) if g.has_edge(u, v))


def count_chorded_cycles(g: Graph, length: int) -> int:
    """Number of (cycle of given length, present chord) incidence pairs."""
    return sum(_present_chords(g, cycle) for cycle in _cycles_of_length(g, length))


def count_chorded_cycles_plus_edge(g: Graph) -> int:
    """Triples (4-cycle, present chord, extra edge).

    The extra edge ranges over edges of g that are neither on the cycle nor a
    chord of that same cycle.
    """
    total = 0
    for cycle in _cycles_of_length(g, 4):
        chords = _present_chords(g, cycle)
        total += chords * (g.m - 4 - chords)
    return total


def _neighbour_masks(g: Graph) -> list[int]:
    """Bit w of entry v is set when v and w are adjacent."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def count_k4(g: Graph) -> int:
    """Number of 4-vertex subsets inducing all six edges.

    Triangle extension over neighbour bitsets: for each edge (u, v) with
    u < v, every common neighbour w > v closes a triangle, and each common
    neighbour x > w of all three completes a K_4.  The ordering u < v < w < x
    counts each K_4 once.  Cost O(m * n) big-int operations on words of n bits.
    """
    masks = _neighbour_masks(g)
    total = 0
    for u, v in g.edges:
        common = (masks[u] & masks[v]) >> (v + 1) << (v + 1)
        while common:
            low = common & -common
            common ^= low
            w = low.bit_length() - 1
            total += (common & masks[w]).bit_count()
    return total


def count_k32(g: Graph) -> int:
    """Number of complete-bipartite K_{3,2} edge subgraphs.

    Counted as (3-set, 2-set) pairs of disjoint vertex sets with all six cross
    edges present; the part sizes differ, so no pair is counted twice.  Each
    2-set {u, v} pairs with any 3 of its common neighbours, so the count is
    the sum over vertex pairs of C(|N(u) & N(v)|, 3), taken over neighbour
    bitsets.  Only vertices of degree >= 3 can be on the 2-side, so the cost
    is O(n_3^2) big-int operations, n_3 being the number of such vertices.
    """
    masks = [mask for mask in _neighbour_masks(g) if mask.bit_count() >= 3]
    return sum(comb((a & b).bit_count(), 3) for a, b in combinations(masks, 2))


def diamond_count(g: Graph) -> int:
    """4-cycles with a present chord: the only 5-edge rank-3 subgraph shape."""
    return count_chorded_cycles(g, 4)


@dataclass(frozen=True)
class SubgraphCensus:
    """All structural counts used by the coefficient formulas."""

    n: int
    m: int
    max_cycle_len: int
    cycles: dict[int, int]
    chorded_cycles: dict[int, int]
    chorded_plus_edge: int
    k4: int
    k32: int

    def cycle_count(self, length: int) -> int:
        """c_length, with 0 for lengths below 3 or above the scan limit."""
        return self.cycles.get(length, 0)

    @property
    def diamonds(self) -> int:
        return self.chorded_cycles.get(4, 0)

    def to_json_dict(self) -> dict:
        out: dict = {"n": self.n, "m": self.m}
        for length in range(3, self.max_cycle_len + 1):
            out[f"c{length}"] = self.cycles.get(length, 0)
        out["c41"] = self.chorded_cycles.get(4, 0)
        out["c51"] = self.chorded_cycles.get(5, 0)
        out["cbar41"] = self.chorded_plus_edge
        out["k4"] = self.k4
        out["k32"] = self.k32
        out["diamond"] = self.diamonds
        return out


def build_census(g: Graph, max_cycle_len: int = 6) -> SubgraphCensus:
    """Run the full structural census with cycles scanned up to max_cycle_len.

    One cycle walk, to at least length 5, yields the cycle counts and the
    chorded 4- and 5-cycle counts together.
    """
    limit = min(max_cycle_len, g.n)
    cycles = {length: 0 for length in range(3, limit + 1)}
    chorded = {4: 0, 5: 0}
    chorded_plus_edge = 0
    for cycle in _walk_cycles(g, min(max(limit, 5), g.n)):
        length = len(cycle)
        if length <= limit:
            cycles[length] += 1
        if length in chorded:
            chords = _present_chords(g, cycle)
            chorded[length] += chords
            if length == 4:
                chorded_plus_edge += chords * (g.m - 4 - chords)
    return SubgraphCensus(
        n=g.n,
        m=g.m,
        max_cycle_len=max_cycle_len,
        cycles=cycles,
        chorded_cycles=chorded,
        chorded_plus_edge=chorded_plus_edge,
        k4=count_k4(g),
        k32=count_k32(g),
    )
