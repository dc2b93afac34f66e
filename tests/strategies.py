"""Hypothesis strategies for graphs and rational sample points."""

from fractions import Fraction

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
def graphs(draw, max_n: int = 7, max_m: int | None = None) -> Graph:
    """Random simple graph on up to max_n vertices and max_m edges.

    It may be disconnected, have isolated vertices, or have no edges.
    """
    n = draw(st.integers(1, max_n))
    pool = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pool), max_size=max_m)) if pool else set()
    return Graph(n, tuple(sorted(edges)))


unit_interval_rationals = st.fractions(
    min_value=Fraction(1, 100), max_value=Fraction(99, 100)
)
