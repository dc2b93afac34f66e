import pytest
from hypothesis import given
import hypothesis.strategies as st

from mstlength.errors import GraphConstructionError, GraphParseError
from mstlength.graphs import (
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    format_graph,
    generate,
    is_connected,
    parse_graph,
    path_graph,
)

from .oracles import spanning_tree_count_kirchhoff
from .strategies import graphs

K32_DOC = "5 6\n0 3\n0 4\n1 3\n1 4\n2 3\n2 4"


def test_parse_k32():
    g = parse_graph(K32_DOC)
    assert g.n == 5 and g.m == 6
    assert g == bipartite_graph(3, 2)


def test_parse_single_edge():
    g = parse_graph("2 1\n0 1")
    assert (g.n, g.m) == (2, 1)


def test_parse_comments_and_blank_lines():
    g = parse_graph("# a comment\n\n3 2\n0 1\n# inline\n1 2\n")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_self_loop_names_line():
    with pytest.raises(GraphParseError, match="line 4.*self-loop"):
        parse_graph("3 3\n0 1\n0 2\n1 1")


@pytest.mark.parametrize(
    "doc, pattern",
    [
        ("nonsense", "header"),
        ("3", "header"),
        ("3 2\n0 5\n1 2", "out of range"),
        ("3 2\n0 1\n0 1", "duplicate"),
        ("3 1\n0 1\n1 2", "extra line"),
        ("3 2\n0 1", "2 edges but document has 1"),
        ("0 0", "positive"),
        ("9 64\n" + "\n".join(f"0 {i}" for i in range(1, 9)), "limit"),
    ],
)
def test_parse_errors(doc, pattern):
    with pytest.raises(GraphParseError, match=pattern):
        parse_graph(doc)


def test_format_round_trips():
    g = bipartite_graph(3, 2)
    assert parse_graph(format_graph(g)) == g


def test_graph_rejects_64_edges():
    edges = tuple((i, j) for i in range(12) for j in range(i + 1, 12))[:64]
    with pytest.raises(GraphConstructionError):
        Graph(12, edges)


def test_graph_normalizes_edge_order():
    g = Graph(3, ((2, 0),))
    assert g.edges == ((0, 2),)


def test_generators():
    assert (complete_graph(4).n, complete_graph(4).m) == (4, 6)
    assert (bipartite_graph(3, 2).n, bipartite_graph(3, 2).m) == (5, 6)
    assert (cycle_graph(5).n, cycle_graph(5).m) == (5, 5)
    assert (path_graph(1).n, path_graph(1).m) == (1, 0)
    assert generate("complete", 4) == complete_graph(4)
    assert complete_graph(11).m == 55


@given(st.integers(2, 11))
def test_complete_graph_edge_count(n):
    assert complete_graph(n).m == n * (n - 1) // 2


@given(st.integers(1, 7), st.integers(1, 7))
def test_bipartite_graph_edge_count(a, b):
    if a * b <= 63:
        assert bipartite_graph(a, b).m == a * b


def test_generator_errors():
    with pytest.raises(GraphConstructionError):
        generate("complete", 12)  # 66 edges
    with pytest.raises(GraphConstructionError):
        cycle_graph(2)
    with pytest.raises(GraphConstructionError):
        generate("what", 3)
    with pytest.raises(GraphConstructionError):
        generate("bipartite", 3)


def test_is_connected():
    assert is_connected(bipartite_graph(3, 2))
    assert is_connected(Graph(1))
    assert not is_connected(Graph(4, ((0, 1), (2, 3))))


def test_is_connected_refuses_more_vertices_than_edges_can_join():
    g = Graph(10**12, ((0, 1),))
    assert not is_connected(g)
    assert "adjacency" not in vars(g)


@given(graphs())
def test_is_connected_matches_kirchhoff(g):
    assert is_connected(g) == (spanning_tree_count_kirchhoff(g) > 0)
