from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
import hypothesis.strategies as st

from mstlength import enumeration, expectation
from mstlength.census import build_census
from mstlength.cli import HYPERBOLA_POINTS
from mstlength.coefficients import all_routes, route_failures
from mstlength.enumeration import (
    _DIGIT_BITS,
    _LABEL_DTYPE,
    RankTable,
    build_rank_table,
    check_hyperbola_identities,
    check_integrand_ratio,
    direct_integrand,
    min_subgraph_rank,
    tutte_polynomial,
    _frontier_counts,
    _key_layout,
    _merge_rows,
    _retire_rows,
    _state_keys,
)
from mstlength.errors import DisconnectedGraphError, EnumerationCapError, FrontierOverflowError
from mstlength.exactpoly import IntPolynomial, binomial
from mstlength.graphs import (
    MAX_EDGES,
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    edge_rank,
    path_graph,
)

from .oracles import (
    canonical_labels,
    completed_blocks,
    completion_cells_by_subsets,
    hyperbola_verdicts_by_fractions,
    merge_labels,
    rank_counts_by_subsets,
    retire_labels,
    spanning_tree_count_kirchhoff,
    tutte_polynomial_networkx,
    tutte_polynomial_whitney,
    tutte_special_values,
)
from .strategies import block_graphs, connected_graphs, forests, graphs, grid_graph


def test_min_subgraph_rank_values():
    assert min_subgraph_rank(0) == 0
    assert min_subgraph_rank(1) == 1
    assert min_subgraph_rank(2) == 2
    assert min_subgraph_rank(5) == 3
    assert min_subgraph_rank(7) == 4
    # boundary: exactly a complete graph's edge count
    assert min_subgraph_rank(3) == 2
    assert min_subgraph_rank(6) == 3
    # every edge count a subgraph of a 64-vertex complete graph can have
    for l in range(1, binomial(64, 2) + 1):
        r = min_subgraph_rank(l)
        assert binomial(r, 2) < l <= binomial(r + 1, 2), l


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
    # the exact pipeline owns the edge cap; the sweep checks none
    with pytest.raises(EnumerationCapError, match="2\\^36"):
        expectation.exact_inputs(complete_graph(9), cap=expectation.DEFAULT_EDGE_CAP)
    with pytest.raises(EnumerationCapError) as refusal:
        expectation.exact_inputs(complete_graph(10), cap=44)  # 45 edges
    assert "--cap 45" in str(refusal.value) and "simulate --cap 0" in str(refusal.value)


def test_cap_override_allows_more_edges():
    g = cycle_graph(30)
    table, _ = expectation.exact_inputs(g, cap=30)
    assert table.row_sum(0) == 1
    with pytest.raises(EnumerationCapError, match="30 edges, above the enumeration cap 29"):
        expectation.exact_inputs(g, cap=29)


def test_rank_table_takes_no_cap():
    # bounded only by Graph's MAX_EDGES and the state budget
    g = complete_graph(10)
    assert build_rank_table(g) == expectation.exact_inputs(g, cap=45)[0]
    with pytest.raises(TypeError):
        build_rank_table(g, cap=45)


def test_disconnected_graph_above_the_cap_is_refused_as_disconnected():
    c15 = cycle_graph(15).edges
    g = Graph(30, c15 + tuple((u + 15, v + 15) for u, v in c15))
    assert g.m == 30 > expectation.DEFAULT_EDGE_CAP
    with pytest.raises(DisconnectedGraphError):
        expectation.exact_inputs(g, cap=expectation.DEFAULT_EDGE_CAP)


def test_k10_exact_expectation(monkeypatch):
    tables = []

    def recording_build(g):
        tables.append(build_rank_table(g))
        return tables[-1]

    monkeypatch.setattr(expectation, "build_rank_table", recording_build)
    result = expectation.expected_mst_length(complete_graph(10), cap=45)
    # Matches Gilbert's connectivity recurrence for K_10.
    assert result.expectation == Fraction(277192644536661, 249195453936572)
    assert [result.routes["eq2"][i] for i in range(7)] == [
        expectation.kn_coefficient(10, i) for i in range(7)
    ]
    (table,) = tables
    assert table.spanning_tree_count() == 10**8  # Cayley: n^(n-2)


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


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=7, max_m=10))
@example(Graph(5, ()))
@example(Graph(6, ((0, 1), (1, 2), (0, 2))))
@example(Graph(4, ((0, 1), (2, 3))))
def test_methods_agree_on_any_graph(g):
    # disconnected, isolated-vertex and edgeless graphs as well
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
def _first_slot_rows(draw, widths=st.integers(1, 10), max_rows: int = 8) -> list[tuple[int, ...]]:
    """A stack of first-slot rows of one width, as the sweep holds them."""
    width = draw(widths)
    raw = st.lists(st.integers(0, width - 1), min_size=width, max_size=width)
    return [canonical_labels(tuple(r)) for r in draw(st.lists(raw, min_size=1, max_size=max_rows))]


def _stack(rows: list[tuple[int, ...]]) -> np.ndarray:
    return np.array(rows, dtype=_LABEL_DTYPE)


def _assert_first_slot_form(rows: np.ndarray) -> None:
    """Slot j names a slot at or before it, and that slot names itself."""
    assert rows.dtype == _LABEL_DTYPE
    for row in rows.tolist():
        assert all(row[j] <= j and row[row[j]] == row[j] for j in range(len(row)))


def _assert_retire_matches_oracle(rows: list[tuple[int, ...]], drops: list[int]) -> None:
    kept, completed = _retire_rows(_stack(rows), drops)
    keep = [i for i in range(len(rows[0])) if i not in drops]
    _assert_first_slot_form(kept)
    assert [tuple(k) for k in kept.tolist()] == [retire_labels(r, keep) for r in rows]
    # no drop completes no block
    assert (np.zeros(len(rows), dtype=int) + completed).tolist() == [completed_blocks(r, drops) for r in rows]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_label_transitions_match_oracle(data):
    rows = data.draw(_first_slot_rows())
    width = len(rows[0])
    # any set of slots, in any order: the sweep drops slot[u] before slot[v]
    drops = data.draw(st.lists(st.sampled_from(range(width)), unique=True))
    _assert_retire_matches_oracle(rows, drops)
    merging = [r for r in rows if len(set(r)) >= 2]
    if merging:
        pairs = [
            data.draw(st.lists(st.sampled_from(sorted(set(r))), min_size=2, max_size=2, unique=True))
            for r in merging
        ]
        lu, lv = (np.array(side, dtype=_LABEL_DTYPE) for side in zip(*pairs))
        merged = _merge_rows(_stack(merging), lu, lv)
        _assert_first_slot_form(merged)
        assert [tuple(m) for m in merged.tolist()] == [
            merge_labels(r, a, b) for r, (a, b) in zip(merging, pairs)
        ]


@pytest.mark.parametrize(
    "rows, drops",
    [
        # block 0's first slot goes: its next slot heads it, named 1
        ([(0, 1, 0, 3), (0, 1, 1, 0), (0, 0, 2, 0)], [0]),
        # block 1's first slot goes and its next slot comes after block 2's
        ([(0, 1, 2, 1, 4), (0, 1, 2, 2, 1)], [1]),
        # the first slots of two blocks go in one step, one block completes
        ([(0, 1, 2, 0, 1), (0, 1, 2, 3, 1), (0, 0, 2, 3, 3)], [0, 2]),
        # every slot retires
        ([(0, 1, 0), (0, 0, 0), (0, 1, 2)], [0, 1, 2]),
        # the last slot retires: nothing comes after it to take a name
        ([(0, 1, 0, 3), (0, 1, 1, 1), (0, 1, 2, 1), (0, 0, 0, 0)], [3]),
        # both endpoints retire, in sweep order, and slot 2 names slot 0's block
        ([(0, 1, 0, 1), (0, 1, 0, 3), (0, 0, 0, 3)], [2, 0]),
        # block 0's name passes over slot 1, which belongs to block 1
        ([(0, 1, 0, 3, 1), (0, 1, 1, 0, 4)], [0]),
    ],
)
def test_retire_moves_first_slots(rows, drops):
    _assert_retire_matches_oracle(rows, drops)


@pytest.mark.parametrize("width", range(1, 7))
def test_retire_counts_the_blocks_it_completes(width):
    # every partition of up to 6 slots, each slot dropped alone and every
    # ordered pair in one step: two drops in one block, where the higher slot
    # names the lower one, complete that block once
    rows = _all_first_slot_rows(width)
    singles = [[s] for s in range(width)]
    pairs = [[a, b] for a in range(width) for b in range(width) if a != b]
    for drops in singles + pairs:
        _assert_retire_matches_oracle(rows, drops)
    assert width == 1 or any(completed_blocks(r, [0, 1]) for r in rows if r[1] == 0)


def _recorded_sweep(monkeypatch, g: Graph) -> tuple[dict, list[list[int]], int]:
    """The table, each step's packed counts and the finish's int, read through hooks."""
    steps, finals = [], []
    combine, finish = enumeration._combine_counts, enumeration._finish_stars

    def recording_combine(*args):
        merged = combine(*args)
        steps.append(merged.tolist())  # the next step updates ``merged`` in place
        return merged

    def recording_finish(*args):
        finals.append(finish(*args))
        return finals[-1]

    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_combine_counts", recording_combine)
        patch.setattr(enumeration, "_finish_stars", recording_finish)
        counts = _frontier_counts(g)
    (final,) = finals
    return counts, steps, final


def _retired_after_each_step(g: Graph) -> list[frozenset[int]]:
    """The vertices whose last edge in the sweep order is swept, after each step."""
    last = {w: i for i, e in enumerate(enumeration._sweep_edge_order(g)) for w in g.edges[e]}
    return [frozenset(w for w, s in last.items() if s <= i) for i in range(g.m)]


def _budget_demands(monkeypatch, g: Graph) -> tuple[list[int], list[int]]:
    """Each step's distinct states and its byte estimate: the states times
    (vertices retired + 1) times D = nullity(g) + 1 digits of 8 bytes."""
    _, steps, _ = _recorded_sweep(monkeypatch, g)
    digits = g.m - edge_rank(g) + 1
    states = [len(step) for step in steps]
    return states, [k * (len(r) + 1) * digits * 8 for k, r in zip(states, _retired_after_each_step(g))]


def test_budget_refusal_stops_inside_the_step(monkeypatch):
    merged = []
    combine = enumeration._combine_counts

    def recording_combine(*args):
        merged.append(combine(*args))
        return merged[-1]

    monkeypatch.setattr(enumeration, "_combine_counts", recording_combine)
    # K_7's edges 7-21 are the stars of the last three vertices, which take no
    # step; step 6 reaches all 15 partitions of the other four vertices, none
    # retired, each an int of at most D = 16 digits: 15 * 16 * 8 = 1920 bytes
    monkeypatch.setattr(enumeration, "MAX_FRONTIER_BYTES", 1919)
    with pytest.raises(
        FrontierOverflowError,
        match=r"budget of 1919 bytes \(15 partition states need 1920 bytes at edge 6/21\)",
    ):
        _frontier_counts(complete_graph(7))
    # steps 1-5 added their counts; the refusing step 6 added none
    assert len(merged) == 5 and max(map(len, merged)) * 16 * 8 <= 1919


@pytest.mark.parametrize(
    "g, peak",
    [
        (complete_graph(8), 52),
        (complete_graph(9), 203),
        # (partition, rank) keys held 463, 17 and 96 states
        (grid_graph(5, 5), 42),
        (cycle_graph(20), 2),
        # rooted on the 6-vertex side, of degree 4; the 4-vertex side gave 1232
        (bipartite_graph(4, 6), 47),
    ],
    ids=["K8", "K9", "grid5x5", "C20", "K4_6"],
)
def test_peak_states_are_pinned(monkeypatch, g, peak):
    # a sweep holds each partition once; its widest step is the budget it needs
    states, demands = _budget_demands(monkeypatch, g)
    assert max(states) == peak
    monkeypatch.setattr(enumeration, "MAX_FRONTIER_BYTES", max(demands))
    assert RankTable(g.n, g.m, _frontier_counts(g)).spanning_tree_count() == (
        spanning_tree_count_kirchhoff(g)
    )
    monkeypatch.setattr(enumeration, "MAX_FRONTIER_BYTES", max(demands) - 1)
    with pytest.raises(FrontierOverflowError, match=f"budget of {max(demands) - 1} bytes "):
        _frontier_counts(g)


def _bell(n: int) -> int:
    # B(n + 1) = sum_k C(n, k) B(k)
    bell = [1]
    for i in range(n):
        bell.append(sum(binomial(i, k) * b for k, b in enumerate(bell)))
    return bell[n]


@pytest.mark.parametrize("n", range(4, 11))
def test_complete_graph_peaks_at_bell_states(monkeypatch, n):
    # The stars of K_n's last three vertices take no step, so the widest
    # frontier is every partition of the other n - 3 vertices, as many as
    # Bell(n - 3), and no vertex retires before the stars.
    states, demands = _budget_demands(monkeypatch, complete_graph(n))
    if n == 4:
        # K_4's edges are all stars: no step checks the budget, not even 0
        assert states == []
        monkeypatch.setattr(enumeration, "MAX_FRONTIER_BYTES", 0)
        assert _frontier_counts(complete_graph(n))[(n - 1, n - 1)] == n ** (n - 2)
        return
    assert max(states) == _bell(n - 3)
    assert max(demands) == _bell(n - 3) * (binomial(n, 2) - n + 2) * 8
    monkeypatch.setattr(enumeration, "MAX_FRONTIER_BYTES", max(demands))
    assert _frontier_counts(complete_graph(n))[(n - 1, n - 1)] == n ** (n - 2)
    monkeypatch.setattr(enumeration, "MAX_FRONTIER_BYTES", max(demands) - 1)
    with pytest.raises(FrontierOverflowError, match=f"budget of {max(demands) - 1} bytes "):
        _frontier_counts(complete_graph(n))


@pytest.mark.parametrize(
    "g, stars",
    [(path_graph(19), 3), (cycle_graph(20), 4), (complete_graph(9), 21), (grid_graph(5, 5), 6)],
    ids=["P19", "C20", "K9", "grid5x5"],
)
def test_counts_are_packed_by_nullity(monkeypatch, g, stars):
    # A connected graph's subsets have nullity 0..m - n + 1, D = m - n + 2
    # digits a slot, and one slot per completed component: after r vertices
    # retire an int holds at most (r + 1) D digits, the budget's estimate (a
    # tree's D is 1 and a cycle's 2, whatever the edge count).
    counts, steps, _ = _recorded_sweep(monkeypatch, g)
    # one step per edge up to the stars of the last three vertices, `stars` edges
    assert len(steps) == g.m - stars
    for step, retired in zip(steps, _retired_after_each_step(g)):
        assert max(count.bit_length() for count in step) <= _DIGIT_BITS * (g.m - g.n + 2) * (len(retired) + 1)
    assert counts[(g.m, g.n - 1)] == 1


def _set_partitions(stars: int) -> list[frozenset[int]]:
    """Every partition of the stars, as a set of block masks."""
    partitions: list[list[int]] = [[]]
    for i in range(stars):
        partitions = [p + [1 << i] for p in partitions] + [
            p[:j] + [b | 1 << i] + p[j + 1 :] for p in partitions for j, b in enumerate(p)
        ]
    return [frozenset(p) for p in partitions]


def test_star_partitions_are_the_partition_lattice():
    partitions, below = enumeration._PARTITIONS, enumeration._BELOW
    expected = _set_partitions(enumeration._STARS)
    assert sorted(map(frozenset, partitions), key=sorted) == sorted(expected, key=sorted)
    assert len(partitions) == len(below) == _bell(enumeration._STARS)
    for t, pi in enumerate(partitions):
        # sigma is below pi when each block of sigma lies inside a block of pi
        lower = [
            s for s, sigma in enumerate(partitions) if s != t and all(any(b & p == b for p in pi) for b in sigma)
        ]
        assert below[t] == tuple(lower) and all(s < t for s in lower)


def _tie_vectors(stars: int, most: int) -> list[tuple[int, ...]]:
    """Every tie of a block to the stars, its edges to each star, with 1 to
    ``most`` edges in all, fewest first."""
    vectors: list[tuple[int, ...]] = [()]
    for _ in range(stars):
        vectors = [v + (t,) for v in vectors for t in range(most + 1)]
    return sorted((v for v in vectors if 1 <= sum(v) <= most), key=lambda v: (sum(v), v))


def _tie_tuples(ties: list[tuple[int, ...]], total: int, start: int = 0) -> list[tuple[tuple[int, ...], ...]]:
    """Every sorted tuple of ties from ``ties[start:]`` whose edges sum to ``total``."""
    if total == 0:
        return [()]
    return [
        (tie, *rest)
        for i, tie in enumerate(ties[start:], start)
        if sum(tie) <= total
        for rest in _tie_tuples(ties, total - sum(tie), i)
    ]


def _digits(packed: int, count: int) -> list[int]:
    return [packed >> (_DIGIT_BITS * j) & ((1 << _DIGIT_BITS) - 1) for j in range(count)]


def _slots(packed: int, slot: int) -> list[int]:
    """The w-polynomials of z^0, z^1, ... packed in ``slot``-bit slots of z."""
    assert packed >= 0
    return [packed >> (slot * k) & ((1 << slot) - 1) for k in range(-(-packed.bit_length() // slot))]


def _star_cells(blocks: tuple[tuple[int, ...], ...], stars: int, links: tuple[int, ...]) -> tuple[dict, dict]:
    """(rank gain, nullity gain) counts of every subset of the stars' edges,
    and of those that generate each partition of the stars, by a union-find
    per subset.  Block b is vertex b and star i vertex len(blocks) + i."""
    first = len(blocks)
    edges = [(b, first + i) for b, tie in enumerate(blocks) for i, t in enumerate(tie) for _ in range(t)]
    edges += [tuple(first + i for i in range(stars) if c >> i & 1) for c in links]
    cells: dict[tuple[int, int], int] = {}
    by_partition: dict[frozenset, dict[tuple[int, int], int]] = {}
    root: list[int] = []

    def find(a: int) -> int:
        while root[a] != a:
            a = root[a]
        return a

    for mask in range(1 << len(edges)):
        root[:] = range(first + stars)
        gain = 0
        for i, (a, b) in enumerate(edges):
            if mask >> i & 1:
                a, b = find(a), find(b)
                if a != b:
                    root[a] = b
                    gain += 1
        cell = (gain, mask.bit_count() - gain)
        cells[cell] = cells.get(cell, 0) + 1
        blocks_of: dict[int, int] = {}
        for i in range(stars):
            blocks_of[find(first + i)] = blocks_of.get(find(first + i), 0) | 1 << i
        part = by_partition.setdefault(frozenset(blocks_of.values()), {})
        part[cell] = part.get(cell, 0) + 1
    return cells, by_partition


def _unpacked(poly: list[int], digits: int) -> dict[tuple[int, int], int]:
    """The nonzero cells (z degree, w degree) of a z-polynomial packed by w."""
    cells = {(k, j): d for k, packed in enumerate(poly) for j, d in enumerate(_digits(packed, digits))}
    return {cell: c for cell, c in cells.items() if c}


# The finish always has three stars; a graph whose star search reaches step 0
# first has stars without edges.  Every such count, with every set of edges
# among its stars (a link is the mask of its two stars), and the most edges of
# block ties that keeps the subset loop short.
_STAR_CASES = [(0, (), 0), (1, (), 7), (2, (), 7), (2, (3,), 7)] + [
    (3, tuple(c for i, c in enumerate((3, 5, 6)) if pattern >> i & 1), 4 if pattern else 5)
    for pattern in range(8)
]


@pytest.mark.parametrize("total", range(8))
def test_star_factor_matches_subsets(total):
    # A tie with one edge to each of some stars is also that of a vertex
    # first seen in the stars, a block of its own.
    stars = enumeration._STARS
    for used, links, most in _STAR_CASES:
        loops = enumeration._star_loops(links)
        vectors = [v + (0,) * (stars - used) for v in _tie_vectors(used, most)]
        for blocks in _tie_tuples(vectors, total) if total <= most else []:
            edges = total + len(links)
            slot = _DIGIT_BITS * (edges + 1)
            cells, by_partition = _star_cells(blocks, stars, links)
            ties = tuple(sum(t * enumeration._TIE_RADIX**i for i, t in enumerate(tie)) for tie in blocks)
            assert _unpacked(enumeration._star_factor(ties, loops, slot), edges + 1) == cells, blocks
            parts = enumeration._star_parts(ties, loops, slot)
            assert len(parts) == len(enumeration._PARTITIONS)
            for pi, part in zip(enumeration._PARTITIONS, parts):
                # W(pi) is a subset count in every digit, and the lowest
                # |S| - |pi| digits of each power of z are 0: the shift that
                # divides by w^(|S| - |pi|) drops nothing.
                gain = stars - len(pi)
                for packed in _slots(part, slot):
                    digits = _digits(packed, edges + 1)
                    assert all(0 <= d < 1 << (_DIGIT_BITS - 1) for d in digits) and not any(digits[:gain])
                # W(pi) counts the subsets that generate pi, |S| - |pi|
                # ranks down and as many nullities up
                generating = by_partition.get(frozenset(pi), {})
                assert _unpacked(_slots(part, slot), edges + 1) == {
                    (k - gain, nu + gain): c for (k, nu), c in generating.items()
                }, (blocks, pi)


@pytest.mark.parametrize(
    "g",
    [
        # a pendant vertex whose only edge goes to the last vertex: it is
        # first seen in the star, as a block of its own
        Graph(2, ((0, 1),)),
        # the star search reaches step 0 after two joined stars; the third
        # vertex is first seen in the stars, tied to both
        complete_graph(3),
        # K_{2,3} from a degree-2 root: no two stars share an edge
        bipartite_graph(2, 3),
        # a path, then an isolated edge: every edge is a star's, and the
        # path's middle vertex is first seen in the stars, tied to two
        Graph(5, ((0, 1), (1, 2), (3, 4))),
        # a second component, a triangle on y, x and a vertex first seen in
        # the stars: a block of its own, tied to both y and x
        Graph(5, ((0, 1), (2, 3), (2, 4), (3, 4))),
        # a triangle with two tails: the last vertex is the far tail's end
        Graph(5, ((0, 1), (1, 2), (2, 3), (1, 3), (3, 4))),
        # no edges: the sweep has no last vertex, and no star has an edge
        Graph(4),
        # K_{1,5}: the last three vertices are leaves and each star one edge
        Graph(6, tuple((0, i) for i in range(1, 6))),
        complete_graph(5),
        # a triangle beside an isolated vertex: the star search reaches step
        # 0 after two stars
        Graph(4, ((1, 2), (1, 3), (2, 3))),
        # every edge is a star's: three stars pairwise joined
        complete_graph(4),
        cycle_graph(4),
        # the third-last vertex is the centre, its one back-neighbour the root
        Graph(4, ((0, 1), (0, 2), (0, 3))),
        # a triangle, then a 4-cycle: the third-last vertex's neighbour is
        # first seen in the stars, tied to it and to the last vertex
        Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6))),
    ],
    ids=[
        "K2", "K3", "K2_3", "path_then_edge", "fresh_in_y_star", "triangle_tails", "edgeless", "K1_5", "K5",
        "triangle_isolated", "K4", "C4", "K1_3", "fresh_in_z_star",
    ],
)
def test_finish_matches_the_subset_oracle(g):
    assert _frontier_counts(g) == rank_counts_by_subsets(g)


def _slot_digits(packed: int, digits: int) -> dict[tuple[int, int], int]:
    """The nonzero 64-bit digits of ``packed`` by (slot, digit in the slot),
    in slots of ``digits`` digits; each digit is checked to be below 2^63."""
    size = -(-packed.bit_length() // _DIGIT_BITS)
    words = np.frombuffer(packed.to_bytes(size * 8, "little"), dtype="<u8")
    assert (words < 1 << (_DIGIT_BITS - 1)).all()
    return {divmod(int(i), digits): int(words[i]) for i in np.flatnonzero(words)}


def assert_slots_hold(monkeypatch, g: Graph, exact: bool = False) -> None:
    """The slot proof, checked on g's sweep.

    After step i every state's int decodes to slots of D = nullity(g) + 1
    digits, one per completed component c up to the r vertices retired, and
    every digit is below 2^63.  Over the states the digits add up to the
    2^(i+1) subsets swept, so none carried, and a digit's nullity is at most
    the swept edges'.  With ``exact`` the digits of each (c, nullity) cell,
    summed over the states, are those of the subset oracle.  The finish's
    one int decodes, slot q holding rank top - q, to the table.
    """
    counts, steps, final = _recorded_sweep(monkeypatch, g)
    digits = g.m - edge_rank(g) + 1
    order = enumeration._sweep_edge_order(g)
    for i, (step, retired) in enumerate(zip(steps, _retired_after_each_step(g))):
        swept = Graph(g.n, tuple(g.edges[e] for e in order[: i + 1]))
        cells: dict[tuple[int, int], int] = {}
        for packed in step:
            assert packed.bit_length() <= _DIGIT_BITS * digits * (len(retired) + 1)
            for cell, d in _slot_digits(packed, digits).items():
                cells[cell] = cells.get(cell, 0) + d
        assert sum(cells.values()) == 1 << (i + 1)
        assert all(c <= len(retired) and nu <= swept.m - edge_rank(swept) for c, nu in cells)
        if exact:
            assert cells == completion_cells_by_subsets(swept, retired), i
    finish = _slot_digits(final, digits)
    top = max(r for _, r in counts) + min(q for q, _ in finish)
    assert {(top - q + nu, top - q): d for (q, nu), d in finish.items()} == counts
    assert sum(counts.values()) == 1 << g.m


@pytest.mark.parametrize("g", [complete_graph(9), grid_graph(5, 5)], ids=["K9", "grid5x5"])
def test_finish_digits_do_not_carry(monkeypatch, g):
    assert_slots_hold(monkeypatch, g)


@pytest.mark.parametrize(
    "g",
    [complete_graph(8), complete_graph(10), bipartite_graph(4, 6), cycle_graph(20), path_graph(19)],
    ids=["K8", "K10", "K4_6", "C20", "P19"],
)
def test_sweep_slots_hold_on_the_corpus(monkeypatch, g):
    assert_slots_hold(monkeypatch, g)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(graphs(max_n=7, max_m=10))
@example(Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4))))
@example(grid_graph(2, 4))
def test_sweep_slots_match_the_subset_oracle(monkeypatch, g):
    # disconnected graphs as well: D counts g's own nullity
    assert_slots_hold(monkeypatch, g, exact=True)


# a 20-vertex spine with 21 legs: a 40-edge tree
_CATERPILLAR = Graph(
    41, tuple((i, i + 1) for i in range(19)) + tuple((i % 20, 20 + i) for i in range(21))
)


@settings(max_examples=100, deadline=None)
@given(forests())
@example(Graph(5, ()))
@example(_CATERPILLAR)
def test_forest_table_matches_the_sweep(g):
    # disconnected, isolated-vertex and edgeless forests as well
    assert edge_rank(g) == g.m
    assert build_rank_table(g).counts == _frontier_counts(g)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8, max_m=12))
def test_edge_rank_is_the_full_rank_of_the_sweep(g):
    # union-find's edge rank is the one rank the sweep gives the full edge set
    assert {r: c for (l, r), c in _frontier_counts(g).items() if l == g.m} == {
        edge_rank(g): 1
    }


@pytest.mark.parametrize(
    "g", [path_graph(19), _CATERPILLAR, path_graph(MAX_EDGES + 1)], ids=["P19", "caterpillar", "P64"]
)
def test_trees_take_no_sweep_step(monkeypatch, g):
    steps = []
    combine = enumeration._combine_counts

    def recording_combine(*args):
        steps.append(args)
        return combine(*args)

    monkeypatch.setattr(enumeration, "_combine_counts", recording_combine)
    # every subset of a tree's edges is a forest
    assert build_rank_table(g).counts == {(l, l): binomial(g.m, l) for l in range(g.m + 1)}
    assert steps == []


def test_key_words_hold_to_the_edge_limit():
    # A Graph's edges touch at most 2 * MAX_EDGES vertices: that bounds the
    # frontier width and every label (below the width).
    vertices = 2 * MAX_EDGES
    assert vertices <= np.iinfo(_LABEL_DTYPE).max
    for width in range(vertices + 1):
        layout = _key_layout(width)
        assert [j for start, stop, _ in layout for j in range(start, stop)] == list(range(width))
        for start, stop, places in layout:
            # slot j holds at most j
            top = sum(j * int(p) for j, p in zip(range(start, stop), places))
            assert top < 1 << 63
    assert len(_key_layout(20)) == 1 and len(_key_layout(21)) == 2


def _all_first_slot_rows(width: int) -> list[tuple[int, ...]]:
    """Every partition of ``width`` slots: slot j joins a block seen so far or heads its own."""
    rows = [()]
    for j in range(width):
        rows = [r + (x,) for r in rows for x in sorted(set(r)) + [j]]
    return rows


def _key_words(states: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Each state's key words, checked to be int64 and nonnegative."""
    keys = _state_keys(_stack(states))
    assert len(keys) == len(_key_layout(len(states[0])))
    assert all(key.dtype == np.int64 and (key >= 0).all() for key in keys)
    return list(zip(*(key.tolist() for key in keys)))


@pytest.mark.parametrize("width", range(8))
def test_state_keys_tell_every_small_state_apart(width):
    states = _all_first_slot_rows(width)
    assert len(set(_key_words(states))) == len(states)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_state_keys_are_equal_exactly_for_equal_states(data):
    width = data.draw(st.integers(1, 40))
    states = data.draw(_first_slot_rows(st.just(width), max_rows=4))
    # near-misses: one slot changed, and exact copies
    for labels in list(states):
        j = data.draw(st.integers(0, width - 1))
        bumped = labels[:j] + (data.draw(st.integers(0, j)),) + labels[j + 1 :]
        states.append(canonical_labels(bumped))
        states.append(labels)
    # the all-singleton row has the largest digit in every slot
    states.append(tuple(range(width)))
    words = _key_words(states)
    for a, word_a in zip(states, words):
        for b, word_b in zip(states, words):
            assert (word_a == word_b) == (a == b)


def test_disconnected_integrand_rejected():
    with pytest.raises(DisconnectedGraphError):
        direct_integrand(build_rank_table(Graph(4, ((0, 1), (2, 3)))))


def test_direct_integrand_examples():
    assert direct_integrand(build_rank_table(bipartite_graph(3, 2))) == IntPolynomial(
        [4, -6, 0, 0, 3, 0, -1]
    )
    assert direct_integrand(build_rank_table(complete_graph(2))) == IntPolynomial([1, -1])
    assert direct_integrand(build_rank_table(cycle_graph(4))) == IntPolynomial([3, -4, 0, 0, 1])


def test_tutte_small_graphs():
    assert tutte_polynomial(build_rank_table(complete_graph(2))) == {(1, 0): 1}
    assert tutte_polynomial(build_rank_table(complete_graph(3))) == {
        (2, 0): 1, (1, 0): 1, (0, 1): 1
    }
    assert tutte_polynomial(build_rank_table(cycle_graph(4))) == {
        (3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 1): 1
    }


def test_tutte_requires_connected_table():
    g = Graph(4, ((0, 1), (2, 3)))
    table = build_rank_table(g)
    with pytest.raises(DisconnectedGraphError):
        tutte_polynomial(table)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_tutte_at_one_one_counts_spanning_trees(n):
    g = complete_graph(n)
    tutte = tutte_polynomial(build_rank_table(g))
    assert sum(tutte.values()) == spanning_tree_count_kirchhoff(g)


def test_tutte_at_one_one_sparse_graphs():
    for g in (cycle_graph(7), bipartite_graph(3, 3), path_graph(5)):
        tutte = tutte_polynomial(build_rank_table(g))
        assert sum(tutte.values()) == spanning_tree_count_kirchhoff(g)


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
    assert tutte_polynomial(build_rank_table(g)) == tutte_polynomial_networkx(g)


@settings(max_examples=25, deadline=None)
@given(connected_graphs(max_n=5, max_m=8))
def test_tutte_matches_networkx_random(g):
    _skip_without_networkx()
    assert tutte_polynomial(build_rank_table(g)) == tutte_polynomial_networkx(g)


def _tutte_at(tutte: dict[tuple[int, int], int], x: int, y: int) -> int:
    return sum(c * x**i * y**j for (i, j), c in tutte.items())


# K_12 minus the matching (0, 1), (2, 3), (4, 5): 63 edges, the edge limit
_K12_MINUS_MATCHING = Graph(
    12,
    (
        (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9), (0, 10), (0, 11),
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (1, 11),
        (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (2, 11),
        (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (3, 11),
        (4, 6), (4, 7), (4, 8), (4, 9), (4, 10), (4, 11),
        (5, 6), (5, 7), (5, 8), (5, 9), (5, 10), (5, 11),
        (6, 7), (6, 8), (6, 9), (6, 10), (6, 11),
        (7, 8), (7, 9), (7, 10), (7, 11),
        (8, 9), (8, 10), (8, 11),
        (9, 10), (9, 11),
        (10, 11),
    ),
)

_TUTTE_CORPUS = [
    complete_graph(5),
    complete_graph(8),
    complete_graph(9),
    # finished from the Bell(7) = 877 partitions of the other seven vertices
    complete_graph(10),
    complete_graph(11),
    _K12_MINUS_MATCHING,
    bipartite_graph(4, 6),
    cycle_graph(30),
    grid_graph(5, 5),
    grid_graph(6, 6),
]


@pytest.mark.parametrize(
    "g", _TUTTE_CORPUS, ids=["K5", "K8", "K9", "K10", "K11", "K12-M", "K46", "C30", "grid5", "grid6"]
)
def test_tutte_matches_its_special_values(g):
    # the only exact oracle for tables too large for the subset loop
    tutte = build_rank_table(g).tutte
    for (x, y), value in tutte_special_values(g).items():
        assert _tutte_at(tutte, x, y) == value, (x, y)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
@example(Graph(1))
def test_tutte_matches_its_special_values_random(g):
    tutte = build_rank_table(g).tutte
    for (x, y), value in tutte_special_values(g).items():
        assert _tutte_at(tutte, x, y) == value, (x, y)


@pytest.mark.parametrize(
    "g, moves",
    [(grid_graph(5, 5), 190), (complete_graph(8), 35), (bipartite_graph(4, 6), 54)],
    ids=["grid5", "K8", "K46"],
)
def test_special_values_catch_every_valid_one_step_move(g, moves):
    # A count moved from (l, r) to (l, r - 1) keeps every row sum, so the
    # hyperbola checks cannot see it; the full-rank check already refuses
    # such a move in row m.
    table = build_rank_table(g)
    values = tutte_special_values(g)
    tried = 0
    for (l, r), c in table.counts.items():
        if l == g.m:
            continue
        counts = dict(table.counts)
        counts[(l, r)] = c - 1
        counts[(l, r - 1)] = counts.get((l, r - 1), 0) + 1
        moved = RankTable(g.n, g.m, counts)
        try:
            moved.validate()
        except ValueError:
            continue
        tried += 1
        assert any(
            _tutte_at(moved.tutte, x, y) != value for (x, y), value in values.items()
        ), (l, r)
    assert tried == moves


@settings(max_examples=40, deadline=None)
@given(block_graphs())
@example(complete_graph(2))
@example(path_graph(12))
@example(Graph(13, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 6), (6, 7),
                    (7, 8), (7, 9), (7, 10), (8, 9), (8, 10), (9, 10), (10, 11), (11, 12))))
def test_tutte_matches_whitney_expansion(g):
    table = build_rank_table(g)
    assert tutte_polynomial(table) == tutte_polynomial_whitney(table)


def test_tutte_matches_whitney_on_a_cell_past_the_nullity():
    # One count of the tree P_5 moved from (3, 3) to (3, 2): the y-degree 1
    # passes the nullity 0, and the grid is sized by the cells, not the graph.
    table = build_rank_table(path_graph(5))
    moved = RankTable(5, 4, {**table.counts, (3, 3): table.counts[(3, 3)] - 1, (3, 2): 1})
    tutte = tutte_polynomial(moved)
    assert tutte == tutte_polynomial_whitney(moved)
    assert max(j for _, j in tutte) == 1


def test_rank_table_builds_tutte_once(monkeypatch):
    built, along = [], []
    along_hyperbola = enumeration._along_hyperbola
    component_sum = RankTable.component_sum

    def counting(table):
        built.append(table)
        return tutte_polynomial(table)

    def counting_along(poly, nx, ny):
        along.append(poly)
        return along_hyperbola(poly, nx, ny)

    def refuse(*args, **kwargs):
        raise AssertionError("p(t) rebuilt at a verify point")

    monkeypatch.setattr(enumeration, "tutte_polynomial", counting)
    monkeypatch.setattr(enumeration, "_along_hyperbola", counting_along)
    monkeypatch.setattr(enumeration, "direct_integrand", refuse)
    for g in (bipartite_graph(3, 2), cycle_graph(5)):
        del built[:], along[:]
        table = build_rank_table(g)
        for t in HYPERBOLA_POINTS:
            assert check_hyperbola_identities(table, t) == (True, True)
            assert check_integrand_ratio(table, t)
        table.rank_integrand
        assert built == [table]
        # T_x is derived once, and that one is what the hyperbola reads
        assert along == [table.tutte, table.tutte_x]
        assert along[1] is table.tutte_x

    # every route and the agreement check read the per-row sums once per row
    monkeypatch.undo()
    rows = []

    def counting_component_sum(table, edge_count):
        rows.append(edge_count)
        return component_sum(table, edge_count)

    monkeypatch.setattr(RankTable, "component_sum", counting_component_sum)
    g = complete_graph(5)
    table = build_rank_table(g)
    assert not route_failures(table, all_routes(table, build_census(g)))
    assert len(rows) <= g.m + 1


def test_tutte_integrand_matches_direct():
    graphs = (Graph(1), complete_graph(2), complete_graph(6), bipartite_graph(4, 3), cycle_graph(9))
    for g in graphs:
        table = build_rank_table(g)
        assert table.rank_integrand == direct_integrand(table)
    assert build_rank_table(complete_graph(2)).rank_integrand == IntPolynomial([1, -1])


def test_digit_packing_holds_to_the_edge_limit():
    assert binomial(MAX_EDGES, MAX_EDGES // 2) < 1 << _DIGIT_BITS


def test_hyperbola_identities_examples():
    assert check_hyperbola_identities(
        build_rank_table(complete_graph(3)), Fraction(1, 2)
    ) == (True, True)
    assert check_hyperbola_identities(
        build_rank_table(bipartite_graph(3, 2)), Fraction(1, 3)
    ) == (True, True)
    assert check_hyperbola_identities(
        build_rank_table(complete_graph(2)), Fraction(2, 5)
    ) == (True, True)


def test_integrand_ratio_examples():
    assert check_integrand_ratio(build_rank_table(bipartite_graph(3, 2)), Fraction(1, 2))
    assert check_integrand_ratio(build_rank_table(complete_graph(4)), Fraction(1, 3))
    assert check_integrand_ratio(build_rank_table(complete_graph(2)), Fraction(1, 2))


def test_hyperbola_point_validation():
    with pytest.raises(ValueError):
        check_hyperbola_identities(build_rank_table(complete_graph(3)), Fraction(3, 2))
    with pytest.raises(ValueError):
        check_integrand_ratio(build_rank_table(complete_graph(3)), Fraction(0))


@settings(max_examples=20, deadline=None)
@given(connected_graphs(max_n=6, max_m=10), st.sampled_from([Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)]))
def test_identities_hold_on_random_graphs(g, t):
    table = build_rank_table(g)
    assert check_hyperbola_identities(table, t) == (True, True)
    assert check_integrand_ratio(table, t)


def _tutte_verdicts(table, t):
    return (*check_hyperbola_identities(table, t), check_integrand_ratio(table, t))


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_n=7), st.data())
def test_tutte_checks_match_fraction_oracle_on_corrupted_tables(g, data):
    t = data.draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(1, 7)]))
    table = build_rank_table(g)
    assert _tutte_verdicts(table, t) == hyperbola_verdicts_by_fractions(table, t) == (True,) * 3
    # bump one cell, keeping the (m, n-1) cell that marks a connected graph
    cell = data.draw(st.sampled_from(sorted(set(table.counts) - {(g.m, g.n - 1)})))
    delta = data.draw(st.sampled_from([-1, 1, 7]))
    bumped = RankTable(g.n, g.m, {**table.counts, cell: table.counts[cell] + delta})
    verdicts = _tutte_verdicts(bumped, t)
    assert verdicts == hyperbola_verdicts_by_fractions(bumped, t)
    assert bumped.tutte == tutte_polynomial_whitney(bumped)
    assert not verdicts[0]  # the bump changes a row sum, and tau(t) is their weighted sum
    # a pure y^j term changes T but not T_x: only the partial form still holds
    shifted = RankTable(g.n, g.m, table.counts)
    j = data.draw(st.integers(0, g.m - g.n + 1))
    shifted.__dict__["tutte"] = {**table.tutte, (0, j): table.tutte.get((0, j), 0) + delta}
    verdicts = _tutte_verdicts(shifted, t)
    assert verdicts == hyperbola_verdicts_by_fractions(shifted, t) == (False, True, False)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=6, max_m=10), st.data())
def test_tau_and_p_rank_divide_exactly_past_the_nullity(g, data):
    # A cell (l, r) with l - r above the nullity m - n + 1 gives T and T_x
    # y-terms past it, so tau and p_rank are divided by a power of (1-t);
    # both must still be T and T_x on the hyperbola, times the same factors.
    n, m = g.n, g.m
    l = data.draw(st.integers(m - n + 2, m))
    r = data.draw(st.integers(0, l - (m - n + 2)))
    delta = data.draw(st.sampled_from([-1, 1, 7]))
    bumped = RankTable(n, m, {**build_rank_table(g).counts, (l, r): delta})
    assert max(j for _, j in bumped.tutte) > m - n + 1
    t = data.draw(st.sampled_from([Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)]))
    x, y = 1 / t, 1 / (1 - t)

    def at_point(poly):
        return sum((c * x**i * y**j for (i, j), c in poly.items()), Fraction(0))

    assert bumped.tau.evaluate(t) == at_point(bumped.tutte) * t ** (n - 1) * (1 - t) ** (m - n + 1)
    assert bumped.rank_integrand.evaluate(t) == (
        at_point(bumped.tutte_x) * t ** (n - 2) * (1 - t) ** (m - n + 2)
    )


def _assert_rank_route_matches_oracles(table, t):
    """T, tau and p_rank of ``table`` against the Whitney expansion and the
    Fraction-evaluated hyperbola verdicts at t."""
    n, m = table.n, table.m
    whitney = tutte_polynomial_whitney(table)
    assert table.tutte == whitney
    x, y = 1 / t, 1 / (1 - t)
    at_point = sum((c * x**i * y**j for (i, j), c in whitney.items()), Fraction(0))
    partial = sum((i * c * x ** (i - 1) * y**j for (i, j), c in whitney.items() if i), Fraction(0))
    assert table.tau.evaluate(t) == at_point * t ** (n - 1) * (1 - t) ** (m - n + 1)
    assert table.rank_integrand.evaluate(t) == partial * t ** (n - 2) * (1 - t) ** (m - n + 2)
    assert _tutte_verdicts(table, t) == hyperbola_verdicts_by_fractions(table, t)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=7, max_m=12), st.data())
def test_rank_route_is_exact_on_tables_bumped_past_64_bits(g, data):
    # Bumps by 2^63 - 1 and 2^80 widen every digit past one word, on a cell
    # of the table or on a cell past the nullity, where tau and p_rank are
    # divided by a power of (1-t).
    table = build_rank_table(g)
    delta = data.draw(st.sampled_from([(1 << 63) - 1, -((1 << 63) - 1), -(1 << 80)]))
    if data.draw(st.booleans()):
        l = data.draw(st.integers(g.m - g.n + 2, g.m))
        cell = (l, data.draw(st.integers(0, l - (g.m - g.n + 2))))
    else:
        cell = data.draw(st.sampled_from(sorted(set(table.counts) - {(g.m, g.n - 1)})))
    bumped = RankTable(g.n, g.m, {**table.counts, cell: table.counts.get(cell, 0) + delta})
    t = data.draw(st.sampled_from([Fraction(1, 3), Fraction(2, 5), Fraction(1, 7)]))
    _assert_rank_route_matches_oracles(bumped, t)


@pytest.mark.parametrize("g", [complete_graph(11), _K12_MINUS_MATCHING], ids=["K11", "K12-M"])
def test_rank_route_is_exact_on_the_widest_digits_of_the_corpus(g):
    table = build_rank_table(g)
    for t in (Fraction(1, 3), Fraction(2, 5)):
        _assert_rank_route_matches_oracles(table, t)
        assert _tutte_verdicts(table, t) == (True, True, True)


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.data())
def test_tutte_and_tutte_x_are_zero_free_coefficient_maps(g, data):
    table = build_rank_table(g)
    # bump one cell as the corrupted-table test does, keeping the (m, n-1) cell
    cell = data.draw(st.sampled_from(sorted(set(table.counts) - {(g.m, g.n - 1)})))
    delta = data.draw(st.sampled_from([-1, 1, 7]))
    bumped = RankTable(g.n, g.m, {**table.counts, cell: table.counts[cell] + delta})
    for t in (table, bumped):
        assert 0 not in t.tutte.values()
        assert 0 not in t.tutte_x.values()
        derivative = {}
        for (i, j), c in tutte_polynomial_whitney(t).items():
            if i > 0:
                derivative[(i - 1, j)] = derivative.get((i - 1, j), 0) + i * c
        assert t.tutte_x == derivative


def test_tutte_checks_fail_on_tutte_plus_y():
    table = build_rank_table(bipartite_graph(3, 2))
    shifted = RankTable(table.n, table.m, table.counts)
    shifted.__dict__["tutte"] = {**table.tutte, (0, 1): table.tutte.get((0, 1), 0) + 1}
    assert shifted.tutte_x == table.tutte_x
    for t in HYPERBOLA_POINTS:
        assert _tutte_verdicts(table, t) == (True, True, True)
        assert _tutte_verdicts(shifted, t) == (False, True, False)


@settings(max_examples=20, deadline=None)
@given(connected_graphs(max_n=7, max_m=14))
def test_integrand_boundary_values(g):
    p = direct_integrand(build_rank_table(g))
    assert p.evaluate(0) == g.n - 1
    assert p.evaluate(1) == 0
    assert p.degree <= g.m
    assert all(p.evaluate(Fraction(j, 10)) >= 0 for j in range(1, 10))


def test_rank_table_validation_catches_corruption():
    table = build_rank_table(complete_graph(3))
    broken = RankTable(3, 3, {**table.counts, (1, 1): 2})
    with pytest.raises(ValueError):
        broken.validate()


def test_validate_bounds_each_cell_by_the_graphs_nullity():
    # P_5 is a tree: moving one 3-edge subgraph from rank 3 to rank 2 keeps
    # every row sum and every rank bound, but claims a cycle a tree cannot have.
    table = build_rank_table(path_graph(5))
    table.validate()
    moved = {**table.counts, (3, 3): table.counts[(3, 3)] - 1, (3, 2): 1}
    with pytest.raises(ValueError, match=r"nullity 1 at \(l=3, r=2\).* nullity 0"):
        RankTable(5, 4, moved).validate()
    # On a disconnected graph the bound is the full edge set's own nullity.
    RankTable(4, 2, _frontier_counts(Graph(4, ((0, 1), (2, 3))))).validate()
