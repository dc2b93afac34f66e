from fractions import Fraction
from itertools import islice
from operator import length_hint

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mstlength import enumeration, expectation
from mstlength.enumeration import (
    _DIGIT_BITS,
    _LabelMaps,
    RankTable,
    build_rank_table,
    check_hyperbola_identities,
    check_integrand_ratio,
    direct_integrand,
    min_subgraph_rank,
    tutte_integrand,
    tutte_polynomial,
    _frontier_counts,
)
from mstlength.errors import DisconnectedGraphError, EnumerationCapError, FrontierOverflowError
from mstlength.exactpoly import BivariatePolynomial, IntPolynomial, binomial
from mstlength.graphs import (
    MAX_EDGES,
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)

from .oracles import (
    canonical_labels,
    merge_labels,
    rank_counts_by_subsets,
    retire_labels,
    spanning_tree_count_kirchhoff,
    tutte_polynomial_networkx,
)
from .strategies import connected_graphs


def test_min_subgraph_rank_values():
    assert min_subgraph_rank(0) == 0
    assert min_subgraph_rank(1) == 1
    assert min_subgraph_rank(2) == 2
    assert min_subgraph_rank(5) == 3
    assert min_subgraph_rank(7) == 4
    # boundary: exactly a complete graph's edge count
    assert min_subgraph_rank(3) == 2
    assert min_subgraph_rank(6) == 3


def test_rank_table_k3():
    table = build_rank_table(complete_graph(3))
    assert table.counts == {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 2): 1}


def test_rank_table_empty_row():
    table = build_rank_table(bipartite_graph(3, 2))
    assert table.row(0) == {0: 1}
    table.row(0)[0] = 99  # each call hands out a fresh dict
    assert table.row(0) == {0: 1}
    assert table.row(table.m + 1) == {}


def test_row_sums_are_binomials():
    for g in (complete_graph(5), bipartite_graph(3, 3), cycle_graph(6)):
        table = build_rank_table(g)
        for l in range(g.m + 1):
            assert table.row_sum(l) == binomial(g.m, l)


def test_cap_refusal_message():
    with pytest.raises(EnumerationCapError, match="2\\^36"):
        build_rank_table(complete_graph(9))
    with pytest.raises(EnumerationCapError) as refusal:
        build_rank_table(complete_graph(10), cap=44)  # 45 edges
    assert "--cap 45" in str(refusal.value) and "simulate --cap 0" in str(refusal.value)


def test_cap_override_allows_more_edges():
    g = cycle_graph(30)
    table = build_rank_table(g, cap=30)
    assert table.row_sum(0) == 1


def test_k10_exact_expectation(monkeypatch):
    tables = []

    def recording_build(g, *, cap):
        tables.append(build_rank_table(g, cap=cap))
        return tables[-1]

    monkeypatch.setattr(expectation, "build_rank_table", recording_build)
    result = expectation.expected_mst_length(complete_graph(10), cap=45)
    # Matches Gilbert's connectivity recurrence for K_10.
    assert result.expectation == Fraction(277192644536661, 249195453936572)
    assert [result.routes["eq2"].a[i] for i in range(7)] == [
        expectation.kn_coefficient(10, i) for i in range(7)
    ]
    (table,) = tables
    assert table.spanning_tree_count() == 10**8  # Cayley: n^(n-2)


@pytest.mark.slow
def test_k11_exact_expectation():
    result = expectation.expected_mst_length(complete_graph(11), cap=55)
    # Matches Gilbert's connectivity recurrence for K_11.
    assert result.expectation == Fraction(1664580094914570154, 1481325385326820215)


def test_methods_agree_on_generators():
    for g in (complete_graph(4), bipartite_graph(3, 2), cycle_graph(6), path_graph(7)):
        assert _frontier_counts(g) == rank_counts_by_subsets(g)


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_n=6, max_m=12))
def test_methods_agree_random(g):
    assert _frontier_counts(g) == rank_counts_by_subsets(g)


def _wheel(rim: int) -> Graph:
    spokes = [(0, i) for i in range(1, rim + 1)]
    return Graph(rim + 1, tuple(spokes + [(i, i % rim + 1) for i in range(1, rim + 1)]))


@pytest.mark.parametrize(
    "g",
    [
        _wheel(7),
        # 2 x 5 ladder, rails numbered out of order
        Graph(10, ((0, 5), (5, 2), (2, 7), (7, 4), (1, 6), (6, 3), (3, 8), (8, 9))
              + ((0, 1), (5, 6), (2, 3), (7, 8), (4, 9))),
        # K_5 on scattered vertices with a tail off one of them
        Graph(9, tuple((u, v) for u in (6, 1, 4, 0, 3) for v in (6, 1, 4, 0, 3) if u < v)
              + ((2, 6), (5, 2), (7, 5), (8, 7))),
    ],
    ids=["wheel7", "ladder2x5", "K5_tail"],
)
def test_methods_agree_on_wider_graphs(g):
    assert 13 <= g.m <= 14
    assert _frontier_counts(g) == rank_counts_by_subsets(g)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sweep_invariant_under_vertex_relabelling(data):
    g = data.draw(connected_graphs(max_n=9, max_m=20))
    perm = data.draw(st.permutations(range(g.n)))
    relabelled = Graph(g.n, tuple(sorted((perm[u], perm[v]) for u, v in g.edges)))
    table = RankTable(g.n, g.m, _frontier_counts(relabelled))
    table.validate()
    assert table.counts == _frontier_counts(g)
    assert table.spanning_tree_count() == spanning_tree_count_kirchhoff(g)


@st.composite
def _rgs_labels(draw, max_slots: int = 10) -> tuple[int, ...]:
    raw = draw(st.lists(st.integers(0, max_slots - 1), min_size=1, max_size=max_slots))
    return canonical_labels(tuple(raw))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_label_maps_match_oracle(data):
    labels = data.draw(_rgs_labels())
    maps = _LabelMaps(10)
    drops = data.draw(st.sets(st.sampled_from(range(len(labels)))))
    keep = [i for i in range(len(labels)) if i not in drops]
    assert maps.retire(labels, sorted(drops, reverse=True)) == retire_labels(labels, keep)
    blocks = max(labels) + 1
    if blocks >= 2:
        lu = data.draw(st.integers(0, blocks - 1))
        lv = data.draw(st.integers(0, blocks - 1).filter(lambda b: b != lu))
        assert maps.merge(labels, lu, lv) == merge_labels(labels, lu, lv)


def test_budget_refusal_stops_inside_the_step(monkeypatch):
    sources = []

    def recording_islice(iterable, stop):
        sources.append(iterable)
        return islice(iterable, stop)

    monkeypatch.setattr(enumeration, "islice", recording_islice)
    monkeypatch.setattr(enumeration, "MAX_FRONTIER_STATES", 210)
    monkeypatch.setattr(enumeration, "_BUDGET_STRIDE", 8)
    with pytest.raises(FrontierOverflowError, match="budget of 210 partition states"):
        _frontier_counts(complete_graph(7))
    # the refusing step left some of its source states unread
    assert length_hint(sources[-1]) > 0


def test_disconnected_integrand_rejected():
    with pytest.raises(DisconnectedGraphError):
        direct_integrand(Graph(4, ((0, 1), (2, 3))))


def test_direct_integrand_examples():
    assert direct_integrand(bipartite_graph(3, 2)) == IntPolynomial([4, -6, 0, 0, 3, 0, -1])
    assert direct_integrand(complete_graph(2)) == IntPolynomial([1, -1])
    assert direct_integrand(cycle_graph(4)) == IntPolynomial([3, -4, 0, 0, 1])


def test_tutte_small_graphs():
    assert tutte_polynomial(build_rank_table(complete_graph(2))) == BivariatePolynomial(
        {(1, 0): 1}
    )
    assert tutte_polynomial(build_rank_table(complete_graph(3))) == BivariatePolynomial(
        {(2, 0): 1, (1, 0): 1, (0, 1): 1}
    )
    assert tutte_polynomial(build_rank_table(cycle_graph(4))) == BivariatePolynomial(
        {(3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 1): 1}
    )


def test_tutte_requires_connected_table():
    g = Graph(4, ((0, 1), (2, 3)))
    table = build_rank_table(g)
    with pytest.raises(DisconnectedGraphError):
        tutte_polynomial(table)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tutte_at_one_one_counts_spanning_trees(n):
    g = complete_graph(n)
    tutte = tutte_polynomial(build_rank_table(g))
    assert tutte.evaluate(1, 1) == spanning_tree_count_kirchhoff(g)


def test_tutte_at_one_one_sparse_graphs():
    for g in (cycle_graph(7), bipartite_graph(3, 3), path_graph(5)):
        tutte = tutte_polynomial(build_rank_table(g))
        assert tutte.evaluate(1, 1) == spanning_tree_count_kirchhoff(g)


def _skip_without_networkx():
    pytest.importorskip("networkx")
    pytest.importorskip("sympy")


@pytest.mark.parametrize(
    "g",
    [complete_graph(n) for n in range(2, 6)]
    + [bipartite_graph(3, 2), bipartite_graph(3, 3), cycle_graph(7), path_graph(5)],
    ids=["K2", "K3", "K4", "K5", "K32", "K33", "C7", "P5"],
)
def test_tutte_matches_networkx(g):
    _skip_without_networkx()
    assert tutte_polynomial(build_rank_table(g)).terms == tutte_polynomial_networkx(g)


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_n=5, max_m=8))
def test_tutte_matches_networkx_random(g):
    _skip_without_networkx()
    assert tutte_polynomial(build_rank_table(g)).terms == tutte_polynomial_networkx(g)


def test_rank_table_builds_tutte_once(monkeypatch):
    built, derived = [], []
    partial_x = BivariatePolynomial.partial_x

    def counting(table):
        built.append(table)
        return tutte_polynomial(table)

    def counting_partial_x(poly):
        derived.append(poly)
        return partial_x(poly)

    def refuse(*args, **kwargs):
        raise AssertionError("p(t) rebuilt at a verify point")

    monkeypatch.setattr(enumeration, "tutte_polynomial", counting)
    monkeypatch.setattr(BivariatePolynomial, "partial_x", counting_partial_x)
    monkeypatch.setattr(enumeration, "direct_integrand", refuse)
    g = bipartite_graph(3, 2)
    table = build_rank_table(g)
    for t in (Fraction(1, 3), Fraction(2, 5)):
        assert check_hyperbola_identities(g, t, table) == (True, True)
        assert check_integrand_ratio(g, t, table)
    tutte_integrand(table)
    assert built == [table]
    assert derived == [table.tutte]


def test_tutte_integrand_matches_direct():
    graphs = (Graph(1), complete_graph(2), complete_graph(6), bipartite_graph(4, 3), cycle_graph(9))
    for g in graphs:
        table = build_rank_table(g)
        assert tutte_integrand(table) == direct_integrand(g, table)
    assert tutte_integrand(build_rank_table(complete_graph(2))) == IntPolynomial([1, -1])


def test_digit_packing_holds_to_the_edge_limit():
    assert binomial(MAX_EDGES, MAX_EDGES // 2) < 1 << _DIGIT_BITS


def test_hyperbola_identities_examples():
    assert check_hyperbola_identities(complete_graph(3), Fraction(1, 2)) == (True, True)
    assert check_hyperbola_identities(bipartite_graph(3, 2), Fraction(1, 3)) == (True, True)
    assert check_hyperbola_identities(complete_graph(2), Fraction(2, 5)) == (True, True)


def test_integrand_ratio_examples():
    assert check_integrand_ratio(bipartite_graph(3, 2), Fraction(1, 2))
    assert check_integrand_ratio(complete_graph(4), Fraction(1, 3))
    assert check_integrand_ratio(complete_graph(2), Fraction(1, 2))


def test_hyperbola_point_validation():
    with pytest.raises(ValueError):
        check_hyperbola_identities(complete_graph(3), Fraction(3, 2))
    with pytest.raises(ValueError):
        check_integrand_ratio(complete_graph(3), Fraction(0))


@settings(max_examples=20, deadline=None)
@given(connected_graphs(max_n=6, max_m=10), st.sampled_from([Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)]))
def test_identities_hold_on_random_graphs(g, t):
    table = build_rank_table(g)
    assert check_hyperbola_identities(g, t, table) == (True, True)
    assert check_integrand_ratio(g, t, table)


@settings(max_examples=20, deadline=None)
@given(connected_graphs(max_n=7, max_m=14))
def test_integrand_boundary_values(g):
    p = direct_integrand(g)
    assert p.evaluate(0) == g.n - 1
    assert p.evaluate(1) == 0
    assert p.degree <= g.m
    assert all(p.evaluate(Fraction(j, 10)) >= 0 for j in range(1, 10))


def test_rank_table_validation_catches_corruption():
    table = build_rank_table(complete_graph(3))
    broken = RankTable(3, 3, {**table.counts, (1, 1): 2})
    with pytest.raises(ValueError):
        broken.validate()
