"""Hypothesis strategies for graphs and rational sample points."""

from fractions import Fraction
from itertools import combinations

import hypothesis.strategies as st

from mstlength.graphs import Graph


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 7, max_m: int = 18) -> Graph:
    """Random connected graph: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pool = sorted(
        {(u, v) for u in range(n) for v in range(u + 1, n)} - edges
    )
    budget = min(len(pool), max_m - len(edges))
    if budget > 0:
        edges |= draw(st.sets(st.sampled_from(pool), max_size=budget))
    return Graph(n, tuple(sorted(edges)))


@st.composite
def block_graphs(draw, max_m: int = 40) -> Graph:
    """Connected graph glued from blocks at cut vertices, up to max_m edges.

    Each block is a bridge, a cycle C_3..C_7 or a clique K_3..K_5 hung on one
    vertex of the graph so far: all bridges make a tree, one bridge is K_2.
    The blocks keep the sweep's frontier narrow at 40 edges.
    """
    n, edges = 1, []
    for _ in range(draw(st.integers(1, 15))):
        kind = draw(st.sampled_from(["bridge", "cycle", "clique"]))
        size = 2 if kind == "bridge" else draw(st.integers(3, 7 if kind == "cycle" else 5))
        anchor = draw(st.integers(0, n - 1))
        ring = [anchor, *range(n, n + size - 1)]
        if kind == "cycle":
            block = [(ring[i], ring[(i + 1) % size]) for i in range(size)]
        else:
            block = list(combinations(ring, 2))
        if len(edges) + len(block) > max_m:
            break
        n += size - 1
        edges += block
    return Graph(n, tuple(edges))


@st.composite
def graphs(draw, max_n: int = 7, max_m: int | None = None) -> Graph:
    """Random simple graph on up to max_n vertices and max_m edges.

    It may be disconnected, have isolated vertices, or have no edges.
    """
    n = draw(st.integers(1, max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pool), max_size=max_m)) if pool else set()
    return Graph(n, tuple(sorted(edges)))


@st.composite
def forests(draw, max_n: int = 12) -> Graph:
    """Random forest: each vertex after the first hangs from an earlier one or starts a tree."""
    n = draw(st.integers(1, max_n))
    parents = [draw(st.one_of(st.none(), st.integers(0, v - 1))) for v in range(1, n)]
    return Graph(n, tuple((p, v) for v, p in enumerate(parents, 1) if p is not None))


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid, vertices numbered row by row."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, tuple(edges))


unit_interval_rationals = st.fractions(
    min_value=Fraction(1, 100), max_value=Fraction(99, 100)
)
