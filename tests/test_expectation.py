from fractions import Fraction

import pytest
from hypothesis import given, settings

from mstlength import expectation
from mstlength.coefficients import ROUTE_EQ2, route_failures
from mstlength.errors import DisconnectedGraphError, InexactDivisionError
from mstlength.exactpoly import IntPolynomial, binomial
from mstlength.expectation import (
    ZETA3,
    expected_mst_length,
    factor_out_unity_root,
    kn_coefficient,
    kn_table,
)
from mstlength.graphs import (
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)

from .oracles import (
    mst_expectation_by_rank_enumeration,
    mst_length_moments,
    multiply_by_one_minus_t,
)
from .strategies import connected_graphs

# Ground truth from the rank-ordering oracle (tests/oracles.py).
ORACLE_VALUES = {
    "K_2": Fraction(1, 2),
    "K_3": Fraction(3, 4),
    "K_4": Fraction(31, 35),
    "K_{3,2}": Fraction(51, 35),
    "C_4": Fraction(6, 5),
    "C_5": Fraction(5, 3),
    "C_6": Fraction(15, 7),
}


def test_k32_headline_value():
    result = expected_mst_length(bipartite_graph(3, 2))
    assert result.expectation == Fraction(51, 35)
    assert result.polynomial == IntPolynomial([4, -6, 0, 0, 3, 0, -1])


@pytest.mark.parametrize(
    "graph, key",
    [
        (complete_graph(2), "K_2"),
        (complete_graph(3), "K_3"),
        (complete_graph(4), "K_4"),
        (bipartite_graph(3, 2), "K_{3,2}"),
        (cycle_graph(4), "C_4"),
        (cycle_graph(5), "C_5"),
        (cycle_graph(6), "C_6"),
    ],
)
def test_against_frozen_oracle_values(graph, key):
    assert expected_mst_length(graph).expectation == ORACLE_VALUES[key]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_helper_reproduces_frozen_values(n):
    key = f"K_{n}"
    assert mst_expectation_by_rank_enumeration(complete_graph(n)) == ORACLE_VALUES[key]


def test_tree_law():
    for n in range(2, 11):
        assert expected_mst_length(path_graph(n)).expectation == Fraction(n - 1, 2)
    star = Graph(6, tuple((0, i) for i in range(1, 6)))
    assert expected_mst_length(star).expectation == Fraction(5, 2)


def test_expectation_bounds():
    for g in (complete_graph(5), cycle_graph(8), bipartite_graph(4, 3)):
        value = expected_mst_length(g).expectation
        assert 0 < value < g.n - 1


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        expected_mst_length(Graph(4, ((0, 1), (2, 3))))


def test_single_vertex_graph():
    assert expected_mst_length(Graph(1)).expectation == 0


def test_json_schema():
    payload = expected_mst_length(bipartite_graph(3, 2)).to_json_dict(digits=7)
    assert payload["p"] == [4, -6, 0, 0, 3, 0, -1]
    assert payload["a"]["direct"] == [5, -6, 0, 0, 3, 0, -1]
    assert set(payload["a"]) == {"direct", "eq2", "rank", "structural"}
    assert payload["expectation"] == {"num": "51", "den": "35", "decimal": "1.4571429"}


def test_kn_coefficient_closed_forms():
    assert kn_coefficient(5, 1) == -10
    assert kn_coefficient(4, 6) == 2
    for n in range(2, 9):
        assert kn_coefficient(n, 2) == 0
        assert kn_coefficient(n, 0) == n
    with pytest.raises(ValueError):
        kn_coefficient(5, 7)


@pytest.mark.parametrize("n", range(2, 8))
def test_kn_coefficients_match_enumeration(n):
    result = expected_mst_length(complete_graph(n))
    for i in range(7):
        enumerated = result.routes["eq2"][i] if i <= result.m else 0
        assert kn_coefficient(n, i) == enumerated


@pytest.mark.parametrize("n", range(2, 8))
def test_factorization(n):
    result = expected_mst_length(complete_graph(n))
    quotient = factor_out_unity_root(result.polynomial, n)
    assert quotient.degree <= binomial(n - 1, 2)
    product = multiply_by_one_minus_t(quotient.coefficients, n - 1)
    assert IntPolynomial(product) == result.polynomial


def test_factorization_examples():
    assert factor_out_unity_root(IntPolynomial([1, -1]), 2) == IntPolynomial([1])
    assert factor_out_unity_root(IntPolynomial([2, -3, 0, 1]), 3) == IntPolynomial([2, 1])


def test_factorization_rejects_non_multiples():
    with pytest.raises(InexactDivisionError):
        factor_out_unity_root(IntPolynomial([1, 0, 1]), 3)


def test_kn_table_small():
    rows = kn_table(4)
    assert [row.expectation for row in rows] == [
        Fraction(1, 2),
        Fraction(3, 4),
        Fraction(31, 35),
    ]
    assert rows[0].delta is None and rows[0].increasing is None
    assert rows[1].delta == Fraction(1, 4) and rows[1].increasing
    assert rows[2].second_difference == Fraction(31, 35) - 2 * Fraction(3, 4) + Fraction(1, 2)
    assert rows[2].concave


def test_kn_table_stays_below_zeta3():
    for row in kn_table(7):
        assert row.expectation < ZETA3


def test_kn_table_to_11(monkeypatch):
    # K_10 (45 edges) and K_11 (55 edges) are in reach of the sweep: the
    # whole table takes tens of milliseconds.
    checked = []
    verify = expectation.verify_route_agreement

    def recording_verify(table, census):
        checked.append((table, verify(table, census)))
        return checked[-1][1]

    monkeypatch.setattr(expectation, "verify_route_agreement", recording_verify)
    rows = kn_table(11, cap=55)
    assert [row.n for row in rows] == [table.n for table, _ in checked] == list(range(2, 12))
    for table, routes in checked:
        assert route_failures(table, routes) == []
        coefficients = [routes[ROUTE_EQ2][i] if i <= table.m else 0 for i in range(7)]
        assert coefficients == [kn_coefficient(table.n, i) for i in range(7)], table.n
    assert all(row.increasing for row in rows[1:])
    assert all(row.expectation < ZETA3 for row in rows)


def test_kn_table_json_row():
    row = kn_table(3)[-1].to_json_dict(digits=4)
    assert row == {
        "n": 3,
        "num": "3",
        "den": "4",
        "decimal": "0.7500",
        "delta": "1/4",
        "second_difference": None,
        "increasing": True,
        "concave": None,
    }


@pytest.mark.parametrize(
    "g, variance",
    [
        (path_graph(4), Fraction(1, 4)),
        (cycle_graph(4), Fraction(17, 75)),
        (complete_graph(4), Fraction(194, 1225)),
        (bipartite_graph(3, 2), Fraction(339, 1225)),
        (cycle_graph(5), Fraction(20, 63)),
    ],
    ids=["P_4", "C_4", "K_4", "K_{3,2}", "C_5"],
)
def test_variance_oracle_values(g, variance):
    assert mst_length_moments(g)[1] == variance


@pytest.mark.parametrize(
    "g", [path_graph(n) for n in (2, 5, 11)] + [bipartite_graph(1, k) for k in (3, 6, 10)]
)
def test_variance_oracle_on_trees_is_m_over_12(g):
    # a tree's MST is every edge: the sum of m independent uniforms
    assert mst_length_moments(g) == (Fraction(g.m, 2), Fraction(g.m, 12))


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_n=6, max_m=10))
def test_moments_oracle_mean_matches_expectation(g):
    assert mst_length_moments(g)[0] == expected_mst_length(g).expectation
