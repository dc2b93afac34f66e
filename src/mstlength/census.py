"""Structural subgraph counting: cycles, chorded cycles, cliques, bipartite blocks.

Counts are of labeled subgraphs inside a fixed host graph: a cycle is a vertex
subset with a cyclic edge structure counted once (not per rotation or
direction); a "cycle with one chord" is a (cycle, present chord) incidence
pair; the diamond count (4-cycle plus chord) doubles as the number of 5-edge
rank-3 spanning subgraphs, which ties this module to the rank table.

``build_census`` reads c3..c6, the chorded 4- and 5-cycle counts and the K_4
and K_{3,2} counts off one set of products of the adjacency matrix
(Harary-Manvel for c3..c5, the antipodal 3-path pairs of Alon-Yuster-Zwick
for c6, common-neighbour counts for the rest), with no cycle enumeration.
That is the only algorithm here for each of those counts: ``count_k4``,
``count_k32``, ``count_chorded_cycles`` and ``count_chorded_cycles_plus_edge``
each return one field of ``build_census``.  The cycle walk (``count_cycles``)
serves only cycle lengths above 6 and is the oracle c3..c6 are tested
against; the chorded-cycle walk is a test oracle, not part of the package.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

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


def count_chorded_cycles(g: Graph, length: int) -> int:
    """Number of (cycle, present chord) incidence pairs: c41 or c51.

    Read off the census's adjacency products (``_adjacency_counts``); only
    lengths 4 and 5 are counted there.
    """
    if length not in (4, 5):
        raise ValueError(f"chorded cycles are counted for lengths 4 and 5, not {length}")
    return build_census(g).chorded_cycles[length]


def count_chorded_cycles_plus_edge(g: Graph) -> int:
    """Triples (4-cycle, present chord, extra edge): cbar41.

    The extra edge ranges over edges of g that are neither on the cycle nor a
    chord of that same cycle.  Read off the census (see ``build_census``).
    """
    return build_census(g).chorded_plus_edge


def count_k4(g: Graph) -> int:
    """Number of 4-vertex subsets inducing all six edges.

    Read off the census's adjacency products (``_adjacency_counts``): each
    K_4 is an edge uv plus an edge inside the common neighbourhood of u and v.
    """
    return build_census(g).k4


def count_k32(g: Graph) -> int:
    """Number of complete-bipartite K_{3,2} edge subgraphs.

    Counted as (3-set, 2-set) pairs of disjoint vertex sets with all six cross
    edges present; the part sizes differ, so no pair is counted twice.  Each
    2-set {u, v} pairs with any 3 of its common neighbours, so the count is
    the sum over vertex pairs of C(B_uv, 3), read off the census's adjacency
    products (``_adjacency_counts``).
    """
    return build_census(g).k32


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
        """c_length, with 0 for lengths below 3; a length above the scan limit
        was not counted, so it is refused rather than read as 0."""
        if length > self.max_cycle_len:
            raise ValueError(
                f"c{length} needs cycle counts up to {length}, "
                f"census scanned up to {self.max_cycle_len}"
            )
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


def _adjacency_counts(g: Graph) -> tuple[dict[int, int], int, int, int, int]:
    """c3..c6, c41, c51, k4 and k32 from products of the adjacency matrix.

    A is the adjacency matrix over the non-isolated vertices only (so a huge
    vertex range with few edges costs nothing), B = A^2 and C = A^3 count
    walks, d holds the degrees, and sums run over ordered vertex pairs.

    - c3 = tr C / 6 and c4 = (sum B o B - 2 sum d^2 + 2m) / 8.
    - c5 = (tr CB - 5 tr C - 5 sum_v (d_v - 2) C_vv) / 10 (Harary-Manvel).
    - c41 = sum over edges uv of C(B_uv, 2): a diamond is an edge plus two of
      its common neighbours.
    - P = C - A o (d_u + d_v - 1), zero on the diagonal, counts the u-x-y-v
      paths on four distinct vertices.  c51 = sum over edges uv of
      B_uv (P_uv + 2) - sum_w A_uw A_vw (B_wv + B_uw): a 5-cycle with chord
      uv is a common neighbour w of u and v plus a u..v 3-path that avoids
      w, and B_wv - 1 + B_uw - 1 of the P_uv paths pass through w.
    - c6: two internally disjoint u..v 3-paths close a 6-cycle on which u
      and v are antipodal, and each 6-cycle has three antipodal pairs, so
      c6 = 1/3 sum_{u<v} [C(P_uv, 2) - meet_uv], meet counting the path
      pairs that share an inner vertex.  Write a path as (x, y).  The shared
      vertex is x = x', y = y', x = y' or y = x'; only the swap (x, y)/(y, x)
      meets twice.  Counting ordered pairs, meet = (E1 + E1^T + 2 E3 - I) / 2
      with E1 (x = x') = A(B o B) - (2A + 1) o C + 2A o d_u
      - A o (d_v - 1)(d_v - 2), E3 (x = y') = (A o B)^2
      - A o (A(A o B) + (A o B)A) + A o B, and I = 2 W W^T (the swaps), where
      W[u, e] = 1 when both ends of edge e are neighbours of u.
    - k4 = sum A o W W^T / 12: (W W^T)_uv counts the edges inside the common
      neighbourhood of u and v, each closing a K_4 with the edge uv, and a
      K_4 is reached from each of its 12 ordered edges once.
    - k32 = sum_{u != v} C(B_uv, 3) / 2: a 2-set and any 3 of its common
      neighbours.

    Widths: a Graph has at most 63 edges, so at most 126 non-isolated
    vertices and degrees at most 63.  Then B <= 63, C <= 63^2, P^2 < 2^24,
    W W^T <= 63, B(B - 1)(B - 2) < 63^3 < 2^18, and every other entry is at
    most 126 * 63^2 < 2^19 (A(B o B), (A o B)^2, C o B); every sum adds at
    most 126^2 < 2^14 such entries, so no intermediate reaches 2^40, far
    inside int64.
    """
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    vertices, index = np.unique(ends, return_inverse=True)
    ends = index.reshape(-1, 2)
    size = len(vertices)
    a = np.zeros((size, size), dtype=np.int64)
    a[ends[:, 0], ends[:, 1]] = 1
    a[ends[:, 1], ends[:, 0]] = 1
    d = a.sum(axis=1)
    b = a @ a
    c = b @ a
    trace_c = int(np.trace(c))
    ab = a * b
    p = c - a * (d[:, None] + d[None, :] - 1)
    np.fill_diagonal(p, 0)

    c3 = trace_c // 6
    c4 = (int((b * b).sum()) - 2 * int((d * d).sum()) + 2 * g.m) // 8
    c5 = (int((c * b).sum()) - 5 * trace_c - 5 * int(((d - 2) * np.diagonal(c)).sum())) // 10
    c41 = int((ab * (b - 1)).sum()) // 4
    sides = a @ ab + ab @ a
    c51 = int((a * (b * (p + 2) - sides)).sum()) // 2

    e1 = a @ (b * b) - (2 * a + 1) * c + 2 * a * d[:, None] - a * ((d - 1) * (d - 2))[None, :]
    e3 = ab @ ab - a * sides + ab
    w = a[:, ends[:, 0]] * a[:, ends[:, 1]]
    ww = w @ w.T
    # sum of meet over u != v, E1 and E1^T having the same sum
    meet = e1 + e3 - ww
    c6 = (int((p * (p - 1)).sum()) // 2 - int(meet.sum() - meet.trace())) // 6
    k4 = int((a * ww).sum()) // 12
    triples = b * (b - 1) * (b - 2)
    k32 = int(triples.sum() - triples.trace()) // 12
    return {3: c3, 4: c4, 5: c5, 6: c6}, c41, c51, k4, k32


def build_census(g: Graph, max_cycle_len: int = 6) -> SubgraphCensus:
    """Run the full structural census with cycles scanned up to max_cycle_len.

    c3..c6, the chorded 4- and 5-cycle counts, k4 and k32 all come from one
    pass of adjacency-matrix products (``_adjacency_counts``); a 4-cycle has
    at most two chords, and one with both spans a K_4 that holds three of
    them, so the chord-plus-edge count is (m - 5) c41 - 6 k4.  Only cycle
    lengths above 6 walk the cycles.
    """
    limit = min(max_cycle_len, g.n)
    short, c41, c51, k4, k32 = _adjacency_counts(g)
    cycles = {length: short[length] for length in range(3, min(limit, 6) + 1)}
    if limit > 6:
        cycles.update((length, count) for length, count in count_cycles(g, limit).items() if length > 6)
    return SubgraphCensus(
        n=g.n,
        m=g.m,
        max_cycle_len=max_cycle_len,
        cycles=cycles,
        chorded_cycles={4: c41, 5: c51},
        chorded_plus_edge=(g.m - 5) * c41 - 6 * k4,
        k4=k4,
        k32=k32,
    )
