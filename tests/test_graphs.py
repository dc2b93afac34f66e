import hashlib
import time
from itertools import combinations

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from mstlength.errors import GraphConstructionError, GraphParseError
from mstlength.graphs import (
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    edge_rank,
    format_graph,
    generate,
    gnm_graph,
    grid_graph,
    is_connected,
    is_uniform,
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


@pytest.mark.parametrize(
    "kind, params, n, m, digest",
    [
        ("grid", (1, 1), 1, 0, "2e38e77b22c314a4"),
        ("grid", (2, 3), 6, 7, "f2ca53bec6ceb75e"),
        ("grid", (5, 5), 25, 40, "430c9eb99549c95c"),
        ("grid", (6, 6), 36, 60, "822d84d722297f52"),
        ("gnm", (7, 10, 0), 7, 10, "db8635d932154223"),
        ("gnm", (16, 63, 1), 16, 63, "cb8cf0f85f23d046"),
        ("gnm", (30, 63, 1), 30, 63, "9031b61130771551"),
        ("gnm", (40, 63, 2), 40, 63, "0dea3a32daffcf91"),
    ],
)
def test_generated_edge_lists_are_pinned(kind, params, n, m, digest):
    # the measurement graphs cannot drift: each edge list is pinned by hash
    g = generate(kind, *params)
    assert (g.n, g.m) == (n, m)
    assert hashlib.sha256(repr(g.edges).encode()).hexdigest()[:16] == digest


def test_grid_and_gnm_generators():
    # the row edges, row by row, then the column edges
    assert grid_graph(2, 3).edges == ((0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5))
    g = gnm_graph(5, 4, 0)
    assert g.edges == ((0, 2), (1, 4), (2, 3), (3, 4)) and g == generate("gnm", 5, 4, 0)
    assert gnm_graph(12, 63, 3).m == 63 and gnm_graph(4, 6, 9) == complete_graph(4)
    assert gnm_graph(1, 0, 5) == Graph(1)
    for build in (lambda: grid_graph(0, 3), lambda: gnm_graph(5, 11, 0), lambda: gnm_graph(5, -1, 0)):
        with pytest.raises(GraphConstructionError):
            build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: complete_graph(10**6),
        lambda: bipartite_graph(10**5, 10**5),
        lambda: cycle_graph(10**9),
        lambda: path_graph(10**9),
        lambda: grid_graph(10**5, 10**5),
        lambda: gnm_graph(10**9, 64, 1),
    ],
    ids=["complete", "bipartite", "cycle", "path", "grid", "gnm"],
)
def test_generators_refuse_before_building_edges(build):
    started = time.monotonic()
    with pytest.raises(GraphConstructionError, match="more than the 63-edge limit"):
        build()
    assert time.monotonic() - started < 1.0


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


@given(graphs(max_n=7, max_m=9))
@example(Graph(7, ((0, 1), (2, 3), (2, 4))))  # a forest
@example(Graph(9, tuple((u + 3, v + 3) for u, v in cycle_graph(5).edges)))  # a cycle, isolated vertices
@example(Graph(6, cycle_graph(5).edges + ((0, 5),)))  # a cycle with a pendant edge
@example(Graph(6, cycle_graph(3).edges + ((3, 4), (4, 5), (3, 5))))  # two triangles
@example(Graph(5, cycle_graph(4).edges + ((0, 4), (4, 2))))  # a theta
def test_is_uniform_means_every_rank_set_is_independent(g):
    # brute force: every subset of `rank` edges has rank `rank`
    rank = edge_rank(g)
    independent = all(edge_rank(Graph(g.n, s)) == rank for s in combinations(g.edges, rank))
    assert is_uniform(g, rank) == independent
