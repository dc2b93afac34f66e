import json
import math
import random
import tracemalloc
from itertools import combinations
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
)
from mstlength.cli import main
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

from .oracles import (
    count_chorded_cycles_plus_edge_walk,
    count_chorded_cycles_walk,
    count_cycles_brute,
    count_k4_brute,
    count_k32_brute,
)
from .strategies import connected_graphs, graphs, grid_graph


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


@pytest.mark.parametrize(
    "g", [complete_graph(6), bipartite_graph(3, 3), grid_graph(3, 4)], ids=["k6", "k33", "grid3x4"]
)
def test_chorded_counters_read_the_census(g):
    census = build_census(g)
    assert count_chorded_cycles(g, 4) == census.chorded_cycles[4]
    assert count_chorded_cycles(g, 5) == census.chorded_cycles[5]
    assert count_chorded_cycles_plus_edge(g) == census.chorded_plus_edge


@pytest.mark.parametrize("length", [0, 3, 6, 7])
def test_chorded_cycles_only_for_lengths_four_and_five(length):
    with pytest.raises(ValueError, match="lengths 4 and 5"):
        count_chorded_cycles(complete_graph(7), length)


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
        4: count_chorded_cycles_walk(g, 4),
        5: count_chorded_cycles_walk(g, 5),
    }
    assert census.chorded_plus_edge == count_chorded_cycles_plus_edge_walk(g)
    assert (census.k4, census.k32) == (count_k4_brute(g), count_k32_brute(g))


def _walk_census(g):
    """c3..c6, c41, c51 and cbar41 by walking every cycle: the oracle."""
    return (
        count_cycles(g, min(6, g.n)),
        {4: count_chorded_cycles_walk(g, 4), 5: count_chorded_cycles_walk(g, 5)},
        count_chorded_cycles_plus_edge_walk(g),
    )


def _closed_form_census(g):
    census = build_census(g)
    return census.cycles, census.chorded_cycles, census.chorded_plus_edge


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=12, max_m=36))
@example(Graph(1))
@example(Graph(2))
@example(Graph(9))  # m = 0
@example(Graph(5, ((0, 1), (1, 2), (0, 2))))  # n < 6, isolated vertices
@example(Graph(12, ((0, 1), (1, 2), (0, 2), (5, 6), (6, 7), (7, 8), (5, 8), (5, 7))))
def test_closed_forms_match_walk_on_random_graphs(g):
    assert _closed_form_census(g) == _walk_census(g)


FAMILIES = (
    [complete_graph(n) for n in range(1, 12)]
    + [bipartite_graph(a, b) for a in range(1, 6) for b in range(a, 7)]
    + [cycle_graph(n) for n in range(3, 13)]
    + [path_graph(n) for n in (1, 2, 5, 9)]
    + [grid_graph(rows, cols) for rows, cols in ((2, 2), (2, 5), (3, 3), (3, 4), (4, 4), (5, 5))]
)


@pytest.mark.parametrize("g", FAMILIES, ids=lambda g: f"n{g.n}m{g.m}")
def test_closed_forms_match_walk_on_families(g):
    assert _closed_form_census(g) == _walk_census(g)


def test_census_cycle_keys_follow_vertex_count():
    assert build_census(complete_graph(4)).cycles == {3: 4, 4: 3}
    assert build_census(complete_graph(5)).cycles == {3: 10, 4: 15, 5: 12}
    assert build_census(path_graph(2)).cycles == {}
    assert build_census(complete_graph(8), 4).cycles == {3: 56, 4: 210}


def test_census_past_six_walks_the_longer_cycles():
    g = Graph(8, complete_graph(7).edges + ((0, 7), (3, 7), (5, 7)))
    census = build_census(g, 7)
    assert census.cycles == count_cycles(g, 7)
    assert census.to_json_dict()["c7"] == census.cycles[7] > 0
    assert _closed_form_census(g)[1:] == _walk_census(g)[1:]


@pytest.mark.parametrize(
    "g",
    [
        # 63 edges: K_11 plus 8 edges from a 12th vertex, degrees up to 11
        Graph(12, complete_graph(11).edges + tuple((v, 11) for v in range(8))),
        # 63 edges on 126 vertices: the most non-isolated vertices possible
        Graph(126, tuple((2 * i, 2 * i + 1) for i in range(63))),
        # one vertex of degree 63 with a triangle hung on it
        Graph(64, tuple((0, v) for v in range(1, 63)) + ((1, 2),)),
    ],
    ids=["k11_plus_8", "matching_126", "star_63"],
)
def test_closed_forms_at_the_edge_limit(g):
    assert g.m == 63
    assert _closed_form_census(g) == _walk_census(g)
    census = build_census(g)
    if g.n == 12:
        # K_11's own K_4's, and the 12th vertex with any 3 of its 8 neighbours
        assert census.k4 == count_k4_brute(g) == math.comb(11, 4) + math.comb(8, 3)
        assert census.k32 == count_k32_brute(g)
    else:
        # the brute-force scans are too slow here; neither graph has a K_4,
        # nor two vertices with three common neighbours
        assert census.k4 == census.k32 == 0


def test_census_never_sizes_by_isolated_vertices():
    # a dense matrix over all 200000 vertices would take 320 GB
    g = Graph(200_000, ((0, 1), (1, 2), (0, 2)))
    tracemalloc.start()
    try:
        census = build_census(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert census.cycles == {3: 1, 4: 0, 5: 0, 6: 0}
    assert census.k4 == census.k32 == census.chorded_plus_edge == 0
    assert peak < 64 * 2**20


def test_k4_and_k32_scans_never_size_by_isolated_vertices():
    # a dense matrix over all 200000 vertices would take 320 GB
    g = Graph(200_000, ((0, 1), (1, 2), (0, 2)))
    tracemalloc.start()
    try:
        k32, k4 = count_k32(g), count_k4(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k32 == 0 and k4 == 0
    assert peak < 2**20
    # the renumbering keeps vertex order, so far-apart labels still count
    far = Graph(200_000, tuple(combinations((7, 1000, 99_999, 199_999, 5), 2)))
    assert count_k4(far) == 5 and count_k32(far) == 10


def test_cli_census_on_a_mostly_isolated_document(tmp_path, capsys):
    doc = tmp_path / "triangle.txt"
    doc.write_text("200000 3\n0 1\n1 2\n0 2\n", encoding="ascii")
    assert main(["census", str(doc)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["n"], payload["m"], payload["c3"], payload["c6"]) == (200_000, 3, 1, 0)


def test_long_cycle_census_is_empty():
    census = build_census(cycle_graph(40))
    assert all(census.cycle_count(j) == 0 for j in range(3, 7))
    assert census.k4 == census.k32 == census.diamonds == 0


def test_cycle_count_refuses_lengths_it_did_not_scan():
    census = build_census(complete_graph(5), max_cycle_len=4)
    assert [census.cycle_count(j) for j in (1, 2, 3, 4)] == [0, 0, 10, 15]
    with pytest.raises(ValueError, match="^c5 needs cycle counts up to 5, census scanned up to 4$"):
        census.cycle_count(5)
    # a limit above n is scanned: K_4 has no 5- or 6-cycles
    assert build_census(complete_graph(4)).cycle_count(6) == 0


def test_long_cycle_expectation():
    # cycle law: n/2 - n/(n+1)
    result = expected_mst_length(cycle_graph(40), cap=40)
    assert result.expectation == Fraction(20) - Fraction(40, 41)


def test_diamond_counts():
    assert build_census(bipartite_graph(3, 2)).diamonds == 0
    assert build_census(complete_graph(4)).diamonds == 6
    for n in (4, 5, 6):
        census = build_census(complete_graph(n))
        assert census.diamonds == 2 * census.cycles[4]


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_n=7, max_m=14))
def test_diamond_equals_rank_table_cell(g):
    table = build_rank_table(g)
    assert build_census(g).diamonds == count_chorded_cycles_walk(g, 4) == table.counts.get((5, 3), 0)


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
