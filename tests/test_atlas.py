"""Every connected graph on at most 7 vertices, from the networkx graph atlas.

``networkx.graph_atlas_g()`` lists all 1253 graphs on 0..7 vertices up to
isomorphism; 996 of them are connected with at least one vertex, 853 of those
on 7 vertices.  The oracles are exponential, so each check states the bound of
the graphs it covers and how many graphs that is.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from mstlength.census import build_census
from mstlength.cli import _verify_checks
from mstlength.coefficients import cycle_transform_value
from mstlength.enumeration import build_rank_table
from mstlength.exactpoly import IntPolynomial
from mstlength.expectation import expected_mst_length
from mstlength.graphs import Graph, is_connected

from .oracles import (
    mst_expectation_by_rank_enumeration,
    rank_counts_by_subsets,
    tutte_special_values,
)
from .test_enumeration import assert_slots_hold

nx = pytest.importorskip("networkx")


@lru_cache(maxsize=None)
def connected_atlas() -> tuple[Graph, ...]:
    graphs = (
        Graph(h.number_of_nodes(), tuple(h.edges()))
        for h in nx.graph_atlas_g()
        if h.number_of_nodes()
    )
    return tuple(g for g in graphs if is_connected(g))


def test_the_atlas_holds_996_connected_graphs():
    graphs = connected_atlas()
    assert len(graphs) == 996
    assert max(g.n for g in graphs) == 7 and max(g.m for g in graphs) == 21


def test_verify_passes_on_every_connected_graph():
    failing = [
        (g.edges, name)
        for g in connected_atlas()
        for name, ok in _verify_checks(g, cap=g.m)
        if not ok
    ]
    assert failing == []


def test_rank_table_matches_the_subset_oracle_up_to_10_edges():
    small = [g for g in connected_atlas() if g.m <= 10]
    assert len(small) == 475
    for g in small:
        assert build_rank_table(g).counts == rank_counts_by_subsets(g), g.edges


def test_sweep_slots_hold_on_every_connected_graph(monkeypatch):
    # the slot proof's bounds at every step and in the finish; with the
    # subset oracle's (completed, nullity) cells up to 8 edges
    for g in connected_atlas():
        assert_slots_hold(monkeypatch, g, exact=g.m <= 8)


def test_tutte_matches_its_special_values_on_every_connected_graph():
    failing = []
    for g in connected_atlas():
        tutte = build_rank_table(g).tutte
        for (x, y), value in tutte_special_values(g).items():
            if sum(c * x**i * y**j for (i, j), c in tutte.items()) != value:
                failing.append((g.edges, (x, y)))
    assert failing == []


def test_expectation_matches_the_ordering_oracle_up_to_6_edges():
    small = [g for g in connected_atlas() if g.m <= 6]
    assert len(small) == 53
    for g in small:
        assert expected_mst_length(g).expectation == mst_expectation_by_rank_enumeration(g), g.edges


def test_cycle_transform_at_7_on_every_seven_vertex_graph():
    # The all-cycles reading of the i = 7 transform gives c7 on every graph
    # with 7 vertices; the literal minimum-rank reading on 59 of the 853.
    censuses = [build_census(g, max_cycle_len=7) for g in connected_atlas() if g.n == 7]
    assert len(censuses) == 853
    assert all(
        cycle_transform_value(census, 7, all_cycles=True) == census.cycle_count(7)
        for census in censuses
    )
    assert sum(cycle_transform_value(census, 7) == census.cycle_count(7) for census in censuses) == 59


def test_adding_an_edge_couples_the_integrands_on_six_vertices():
    # Under shared weights the graph with the extra edge e = uv has no more
    # components at any t, so p_G(t) - p_(G+e)(t) = t P(u, v apart in G_t):
    # no constant term, a quotient with values in [0, 1], and a shorter
    # expected MST.  The two integrands come from two separate sweeps.
    graphs = [g for g in connected_atlas() if g.n <= 6]
    points = [Fraction(j, 10) for j in range(11)]
    pairs, failing = 0, []
    for g in graphs:
        p = build_rank_table(g).rank_integrand
        for e in combinations(range(g.n), 2):
            if g.has_edge(*e):
                continue
            pairs += 1
            q = build_rank_table(Graph(g.n, tuple(sorted((*g.edges, e))))).rank_integrand
            gap = [p.coefficient(i) - q.coefficient(i) for i in range(g.m + 2)]
            apart = IntPolynomial(gap[1:])
            if gap[0] or not all(0 <= apart.evaluate(t) <= 1 for t in points) or not (
                q.integrate_unit_interval() < p.integrate_unit_interval()
            ):
                failing.append((g.edges, e))
    assert (len(graphs), pairs) == (143, 821)
    assert failing == []
