"""Independent oracles used as ground truth.

Each keeps its own naive algorithm on purpose: none of them shares code with
the library paths they check.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from mstlength.graphs import Graph


def mst_expectation_by_rank_enumeration(g: Graph) -> Fraction:
    """Exact E[L(g)] by enumerating all m! weight orderings.

    Conditioned on the ordering, Kruskal accepts a fixed set of weight ranks,
    and the k-th smallest of m uniforms has mean k/(m+1).  Practical m <= 8.
    """
    m = g.m
    total = Fraction(0)
    for order in permutations(range(m)):
        parent = list(range(g.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        picked = 0
        for rank, idx in enumerate(order, start=1):
            u, v = g.edges[idx]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                total += Fraction(rank, m + 1)
                picked += 1
                if picked == g.n - 1:
                    break
    return total / factorial(m)


def spanning_tree_count_kirchhoff(g: Graph) -> int:
    """Number of spanning trees via the Laplacian minor determinant."""
    if g.n == 1:
        return 1
    size = g.n - 1
    lap = [[Fraction(0)] * size for _ in range(size)]
    for u, v in g.edges:
        for w in (u, v):
            if w < size:
                lap[w][w] += 1
        if u < size and v < size:
            lap[u][v] -= 1
            lap[v][u] -= 1
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if lap[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            lap[col], lap[pivot] = lap[pivot], lap[col]
            det = -det
        det *= lap[col][col]
        for r in range(col + 1, size):
            factor = lap[r][col] / lap[col][col]
            if factor:
                for c in range(col, size):
                    lap[r][c] -= factor * lap[col][c]
    assert det.denominator == 1
    return int(det)


def count_cycles_brute(g: Graph, length: int) -> int:
    """Cycles of a given length by checking every vertex subset directly."""
    count = 0
    for subset in combinations(range(g.n), length):
        anchor, rest = subset[0], subset[1:]
        seen = 0
        for perm in permutations(rest):
            walk = (anchor,) + perm
            if all(
                g.has_edge(walk[i], walk[(i + 1) % length]) for i in range(length)
            ):
                seen += 1
        count += seen // 2  # each cycle appears in both directions
    return count


def count_k4_brute(g: Graph) -> int:
    """Number of 4-vertex subsets inducing all six edges."""
    total = 0
    for quad in combinations(range(g.n), 4):
        if all(g.has_edge(u, v) for u, v in combinations(quad, 2)):
            total += 1
    return total


def count_k32_brute(g: Graph) -> int:
    """Number of complete-bipartite K_{3,2} edge subgraphs.

    Counted as (3-set, 2-set) pairs of disjoint vertex sets with all six cross
    edges present; the part sizes differ, so no pair is counted twice.
    """
    total = 0
    for five in combinations(range(g.n), 5):
        for two in combinations(five, 2):
            three = tuple(v for v in five if v not in two)
            if all(g.has_edge(u, v) for u in three for v in two):
                total += 1
    return total


def rank_counts_by_subsets(g: Graph) -> dict[tuple[int, int], int]:
    """Rank-table counts {(edges, rank): count} by visiting all 2^m edge subsets.

    Each subset gets a fresh union-find; rank is the number of successful
    unions.  Practical m <= 16 or so.
    """
    counts: dict[tuple[int, int], int] = {}
    for mask in range(1 << g.m):
        parent = list(range(g.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rank = 0
        for idx, (u, v) in enumerate(g.edges):
            if mask >> idx & 1:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    rank += 1
        key = (mask.bit_count(), rank)
        counts[key] = counts.get(key, 0) + 1
    return counts


def canonical_labels(labels: tuple[int, ...]) -> tuple[int, ...]:
    """Relabel partition blocks by first occurrence: (2, 0, 2) -> (0, 1, 0)."""
    mapping: dict[int, int] = {}
    out = []
    for lab in labels:
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return tuple(out)


def merge_labels(labels: tuple[int, ...], lu: int, lv: int) -> tuple[int, ...]:
    """Join blocks lu and lv of a partition, then relabel by first occurrence."""
    return canonical_labels(tuple(lu if lab == lv else lab for lab in labels))


def retire_labels(labels: tuple[int, ...], keep: list[int]) -> tuple[tuple[int, ...], int]:
    """Keep only the slots in ``keep``: canonical kept labels, blocks that vanished."""
    kept = tuple(labels[i] for i in keep)
    return canonical_labels(kept), len(set(labels)) - len(set(kept))


def tutte_polynomial_networkx(g: Graph) -> dict[tuple[int, int], int]:
    """Tutte polynomial terms {(x_deg, y_deg): coefficient} by deletion-contraction.

    Uses networkx's ``tutte_polynomial`` and sympy, neither of which the
    package depends on; callers skip when they are missing.
    """
    import networkx as nx
    import sympy

    x, y = sympy.symbols("x y")
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(g.n))
    nx_graph.add_edges_from(g.edges)
    poly = sympy.Poly(nx.tutte_polynomial(nx_graph), x, y)
    return {key: int(c) for key, c in poly.terms()}
