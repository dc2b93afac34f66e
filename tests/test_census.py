import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from mstlength.census import (
    build_census,
    count_chorded_cycles,
    count_chorded_cycles_plus_edge,
    count_cycles,
    count_k32,
    count_k4,
    diamond_count,
)
from mstlength.coefficients import check_rank_cycle_correction
from mstlength.enumeration import build_rank_table
from mstlength.expectation import expected_mst_length
from mstlength.graphs import (
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)

from .oracles import count_cycles_brute, count_k4_brute, count_k32_brute
from .strategies import connected_graphs


def test_k32_cycle_counts():
    cycles = count_cycles(bipartite_graph(3, 2), 6)
    assert cycles == {3: 0, 4: 3, 5: 0, 6: 0}


@pytest.mark.parametrize("n", range(3, 8))
def test_complete_graph_cycle_closed_form(n):
    cycles = count_cycles(complete_graph(n), min(6, n))
    for j, count in cycles.items():
        assert count == math.comb(n, j) * math.factorial(j - 1) // 2


def test_trees_have_no_cycles():
    assert all(c == 0 for c in count_cycles(path_graph(8), 6).values())


@pytest.mark.parametrize("n", range(3, 8))
def test_cycles_match_brute_force(n):
    g = complete_graph(n)
    cycles = count_cycles(g, min(6, n))
    for j in cycles:
        assert cycles[j] == count_cycles_brute(g, j)


def test_chorded_cycles():
    assert count_chorded_cycles(complete_graph(4), 4) == 6
    assert count_chorded_cycles(bipartite_graph(3, 2), 5) == 0
    for n in (5, 6, 7):
        census = build_census(complete_graph(n))
        assert census.chorded_cycles[5] == 5 * census.cycles[5]


def test_chorded_plus_edge():
    assert count_chorded_cycles_plus_edge(complete_graph(4)) == 0
    assert count_chorded_cycles_plus_edge(bipartite_graph(3, 2)) == 0
    assert count_chorded_cycles_plus_edge(complete_graph(5)) > 0


def test_k4_and_k32_counts():
    assert count_k4(bipartite_graph(3, 2)) == 0
    assert count_k32(bipartite_graph(3, 2)) == 1
    for n in range(4, 8):
        assert count_k4(complete_graph(n)) == math.comb(n, 4)
        assert count_k32(complete_graph(n)) == math.comb(n, 5) * math.comb(5, 2)
    assert count_k4(bipartite_graph(4, 4)) == 0  # triangle-free


@settings(max_examples=100, deadline=None)
@given(connected_graphs(max_n=9, max_m=36))
@example(Graph(1))
@example(Graph(4))  # no edges
@example(bipartite_graph(3, 3))
def test_k4_and_k32_match_brute_force(g):
    assert count_k4(g) == count_k4_brute(g)
    assert count_k32(g) == count_k32_brute(g)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=8), st.integers(3, 7))
@example(Graph(1), 3)
@example(complete_graph(5), 4)
def test_build_census_matches_standalone_counts(g, max_cycle_len):
    census = build_census(g, max_cycle_len)
    assert (census.n, census.m, census.max_cycle_len) == (g.n, g.m, max_cycle_len)
    assert census.cycles == count_cycles(g, min(max_cycle_len, g.n))
    assert census.chorded_cycles == {
        4: count_chorded_cycles(g, 4),
        5: count_chorded_cycles(g, 5),
    }
    assert census.chorded_plus_edge == count_chorded_cycles_plus_edge(g)
    assert (census.k4, census.k32) == (count_k4(g), count_k32(g))


def test_long_cycle_census_is_empty():
    census = build_census(cycle_graph(40))
    assert all(census.cycle_count(j) == 0 for j in range(3, 7))
    assert census.k4 == census.k32 == census.diamonds == 0


def test_long_cycle_expectation():
    # cycle law: n/2 - n/(n+1)
    result = expected_mst_length(cycle_graph(40), cap=40)
    assert result.expectation == Fraction(20) - Fraction(40, 41)


def test_diamond_counts():
    assert diamond_count(bipartite_graph(3, 2)) == 0
    assert diamond_count(complete_graph(4)) == 6
    for n in (4, 5, 6):
        census = build_census(complete_graph(n))
        assert census.diamonds == 2 * census.cycles[4]


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_n=7, max_m=14))
def test_diamond_equals_rank_table_cell(g):
    table = build_rank_table(g)
    assert diamond_count(g) == table.counts.get((5, 3), 0)


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_n=7, max_m=14))
def test_rank_cycle_correction_holds(g):
    table = build_rank_table(g)
    census = build_census(g)
    for l in range(3, 7):
        assert check_rank_cycle_correction(table, census, l)


def test_cbar41_cross_checked_by_correction_identity_on_k5():
    # the only validation route for the chord-plus-edge count on a dense graph
    g = complete_graph(5)
    assert check_rank_cycle_correction(build_rank_table(g), build_census(g), 6)


@settings(max_examples=15, deadline=None)
@given(connected_graphs(max_n=7, max_m=12))
def test_census_invariant_under_relabeling(g):
    rng = random.Random(1234)
    relabel = list(range(g.n))
    rng.shuffle(relabel)
    permuted = Graph(
        g.n, tuple(sorted((min(relabel[u], relabel[v]), max(relabel[u], relabel[v])) for u, v in g.edges))
    )
    original = build_census(g)
    shuffled = build_census(permuted)
    assert original.cycles == shuffled.cycles
    assert original.chorded_cycles == shuffled.chorded_cycles
    assert original.chorded_plus_edge == shuffled.chorded_plus_edge
    assert original.k4 == shuffled.k4
    assert original.k32 == shuffled.k32


def test_census_json_keys():
    payload = build_census(bipartite_graph(3, 2)).to_json_dict()
    assert payload["c3"] == 0 and payload["c4"] == 3
    assert payload["k32"] == 1 and payload["k4"] == 0
    assert payload["cbar41"] == 0 and payload["diamond"] == 0
