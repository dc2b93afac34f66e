"""Spanning-subgraph enumeration: the rank table and everything derived from it.

The rank table holds, for each edge count l and rank r, the number of spanning
subgraphs with exactly l edges and rank r (rank = vertices minus components).
Every downstream quantity -- the integrand polynomial, the Tutte polynomial,
all coefficient routes -- is a function of this table, so it is computed once.

The table comes from a partition sweep over the edge list.  Edges are taken or
skipped one at a time while tracking the partition of "active" vertices (those
with edges still pending) plus a completed-component counter, so the 2^m
subsets are aggregated by distributivity instead of visited one by one.  The
counts are exact integers; the cost grows with the number of partition states
on the frontier, not with 2^m, which makes dense graphs such as the 28-edge
complete graph on 8 vertices cheap on a single core.

A partition is spelled as a canonical restricted-growth string (RGS): one label
per active vertex, blocks numbered in order of their first vertex, so
(0, 1, 0, 2) puts the first and third active vertices in one block.  A new
vertex appends the next unused label; taking an edge between blocks a < b
sends b to a and shifts the higher labels down by one; retiring a vertex drops
its slot and renumbers the rest, and counts a completed component when that
slot was its block's last.  Each transition is one lookup in a map built once
per sweep and yields the canonical spelling directly, so equal partitions meet
in one state without a canonicalising pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import islice
from operator import itemgetter

from .errors import (
    DisconnectedGraphError,
    EnumerationCapError,
    FrontierOverflowError,
)
from .exactpoly import BivariatePolynomial, IntPolynomial, binomial
from .graphs import Graph, is_connected

DEFAULT_EDGE_CAP = 28

# State budget for the frontier sweep; beyond this the partition family is too
# rich to hold in memory and the caller should shrink the graph or the cap.
MAX_FRONTIER_STATES = 1 << 21
# Source states between two budget checks inside a sweep step.
_BUDGET_STRIDE = 1024


def min_subgraph_rank(edge_count: int) -> int:
    """Smallest possible rank of a subgraph with the given number of edges.

    This is the largest r with C(r, 2) < l (l >= 1): packing l edges as densely
    as possible onto few vertices; 0 for the empty subgraph.
    """
    if edge_count < 0:
        raise ValueError("edge count must be nonnegative")
    if edge_count == 0:
        return 0
    r = 1
    while binomial(r + 1, 2) < edge_count:
        r += 1
    return r


@dataclass(frozen=True, eq=True)
class RankTable:
    """Counts of spanning subgraphs keyed by (edge count, rank)."""

    n: int
    m: int
    counts: dict[tuple[int, int], int]

    @cached_property
    def _rows(self) -> dict[int, dict[int, int]]:
        """The counts grouped by edge count, built on first use."""
        rows: dict[int, dict[int, int]] = {}
        for (l, r), c in self.counts.items():
            rows.setdefault(l, {})[r] = c
        return rows

    def row(self, edge_count: int) -> dict[int, int]:
        return dict(self._rows.get(edge_count, {}))

    def row_sum(self, edge_count: int) -> int:
        return sum(self._rows.get(edge_count, {}).values())

    def component_sum(self, edge_count: int) -> int:
        """Total component count over all subgraphs with this many edges."""
        return sum((self.n - r) * c for r, c in self._rows.get(edge_count, {}).items())

    def nullity_weighted_sum(self, edge_count: int) -> int:
        """Sum of (l - r) * k_r^l over ranks r < l: cyclic subgraphs weighted by nullity."""
        return sum(
            (edge_count - r) * c
            for r, c in self._rows.get(edge_count, {}).items()
            if r <= edge_count - 1
        )

    @cached_property
    def tutte(self) -> BivariatePolynomial:
        """The Tutte polynomial T(x, y) of the table, built on first use."""
        return tutte_polynomial(self)

    @cached_property
    def tutte_x(self) -> BivariatePolynomial:
        """T_x, the partial derivative of T in x, built on first use."""
        return self.tutte.partial_x()

    def spanning_tree_count(self) -> int:
        return self.counts.get((self.n - 1, self.n - 1), 0)

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        for (l, r), c in self.counts.items():
            if c < 0:
                raise ValueError(f"negative count at (l={l}, r={r})")
            if not 0 <= l <= self.m:
                raise ValueError(f"edge count {l} out of range")
            if r > min(l, self.n - 1) or r < min_subgraph_rank(l):
                raise ValueError(f"rank {r} impossible for {l} edges")
        for l in range(self.m + 1):
            if self.row_sum(l) != binomial(self.m, l):
                raise ValueError(f"row {l} sums to {self.row_sum(l)}, expected C({self.m},{l})")


def _check_cap(m: int, cap: int) -> None:
    if m > cap:
        raise EnumerationCapError(
            f"graph has {m} edges, above the enumeration cap {cap}: "
            f"2^{m} = {1 << m:.2e} subsets; raise the cap (`--cap {m}`) or use "
            "a Monte Carlo estimate (`mstlength simulate --cap 0`)"
        )


class _LabelMaps:
    """Relabel tables for the sweep's block labels, built once per sweep.

    Labels are a canonical restricted-growth string (RGS): blocks are numbered
    in order of their first slot, so a label is at most one more than every
    label before it and a partition has exactly one spelling.  Both
    transitions keep that form without a canonicalising pass: each is one
    lookup of the labels in a precomputed map of ``width`` entries.

    ``joins[a][b]`` (a != b) sends block max(a, b) to min(a, b) and shifts the
    higher blocks down by one.  ``moves[c][d]`` (c < d) sends block c to d and
    shifts blocks c+1..d down by one.
    """

    __slots__ = ("joins", "moves")

    def __init__(self, width: int) -> None:
        slots = range(width)
        self.joins = [
            [
                tuple(min(a, b) if x == max(a, b) else x - 1 if x > max(a, b) else x for x in slots)
                for b in slots
            ]
            for a in slots
        ]
        self.moves = [
            [tuple(d if x == c else x - 1 if c < x <= d else x for x in slots) for d in slots]
            for c in slots
        ]

    def merge(self, labels: tuple[int, ...], lu: int, lv: int) -> tuple[int, ...]:
        """Join blocks lu != lv: the canonical labels of the coarser partition.

        Two blocks need two slots, so the lookup always returns a tuple.
        """
        return itemgetter(*labels)(self.joins[lu][lv])

    def retire(self, labels: tuple[int, ...], slots: list[int]) -> tuple[tuple[int, ...], int]:
        """Drop ``slots`` (in descending order) from ``labels``.

        Returns the canonical labels of the kept slots and the number of blocks
        that lost their last slot: components that are now complete.
        """
        completed = 0
        for p in slots:
            c = labels[p]
            head, tail = labels[:p], labels[p + 1 :]
            rest = head + tail
            if c in head:
                # block c still starts before p: no first slot moves
                labels = rest
                continue
            if c in tail:
                # block c now starts at its next slot q, after the blocks that
                # first appear between p and q (c+1..d)
                d = max(labels[: labels.index(c, p + 1)])
            else:
                # p was block c's only slot: every higher block shifts down
                completed += 1
                d = max(labels)
            if d == c:
                labels = rest
            elif len(rest) > 1:
                labels = itemgetter(*rest)(self.moves[c][d])
            else:
                labels = (0,)  # one slot left: it is block 0
        return labels, completed


def _sweep_edge_order(g: Graph) -> list[int]:
    """Edge processing order that retires vertices early: BFS-position sort."""
    position = [-1] * g.n
    counter = 0
    for root in range(g.n):
        if position[root] != -1:
            continue
        position[root] = counter
        counter += 1
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in g.adjacency[u]:
                if position[w] == -1:
                    position[w] = counter
                    counter += 1
                    queue.append(w)
    return sorted(
        range(g.m),
        key=lambda e: (
            max(position[g.edges[e][0]], position[g.edges[e][1]]),
            min(position[g.edges[e][0]], position[g.edges[e][1]]),
        ),
    )


# Each state's per-edge-count counts are packed into one big int, 64 bits per
# edge count.  Digit l counts l-edge subsets of the edges swept so far, so it is
# at most C(m, l) <= C(63, 31) < 2^63 within graphs.MAX_EDGES: no digit carries.
_DIGIT_BITS = 64
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1


def _frontier_counts(g: Graph) -> dict[tuple[int, int], int]:
    n, m = g.n, g.m
    if m == 0:
        return {(0, 0): 1}

    edge_order = _sweep_edge_order(g)
    first_step: dict[int, int] = {}
    last_step: dict[int, int] = {}
    for step, e in enumerate(edge_order):
        for w in g.edges[e]:
            first_step.setdefault(w, step)
            last_step[w] = step
    isolated = n - len(last_step)
    width = max(sum(first_step[w] <= step <= last_step[w] for w in last_step) for step in range(m))
    maps = _LabelMaps(width)
    merge, retire = maps.merge, maps.retire

    active: list[int] = []
    slot: dict[int, int] = {}
    # state key: (block labels aligned with `active`, completed components)
    states: dict[tuple[tuple[int, ...], int], int] = {((), 0): 1}

    for step, e in enumerate(edge_order):
        u, v = g.edges[e]
        # Activate endpoints first seen here: every state gains the same
        # fresh singleton block, so canonical form is preserved by appending.
        for w in (u, v):
            if first_step[w] == step:
                slot[w] = len(active)
                active.append(w)
                states = {
                    (labels + (max(labels, default=-1) + 1,), done): vec
                    for (labels, done), vec in states.items()
                }
        drops = sorted((slot[w] for w in (u, v) if last_step[w] == step), reverse=True)
        su, sv = slot[u], slot[v]

        next_states: dict[tuple[tuple[int, ...], int], int] = {}
        get = next_states.get
        source = iter(states.items())
        # The states only grow within a step, so checking the budget every
        # _BUDGET_STRIDE source states refuses exactly the sweeps a check at
        # the end of the step would, and sooner.
        for _ in range(0, len(states), _BUDGET_STRIDE):
            for key, vec in islice(source, _BUDGET_STRIDE):
                labels, done = key
                if drops:
                    kept, completed = retire(labels, drops)
                    key = (kept, done + completed)
                lu, lv = labels[su], labels[sv]
                if lu == lv:
                    # skipping and taking the edge lead to the same state
                    next_states[key] = get(key, 0) + vec + (vec << _DIGIT_BITS)
                    continue
                next_states[key] = get(key, 0) + vec
                merged = merge(labels, lu, lv)
                if drops:
                    kept, completed = retire(merged, drops)
                    key = (kept, done + completed)
                else:
                    key = (merged, done)
                next_states[key] = get(key, 0) + (vec << _DIGIT_BITS)
            if len(next_states) > MAX_FRONTIER_STATES:
                raise FrontierOverflowError(
                    f"exact enumeration needs more than its budget of {MAX_FRONTIER_STATES} "
                    f"partition states (reached at edge {step + 1}/{m}); use a graph with "
                    "fewer edges, or a Monte Carlo estimate (`mstlength simulate --cap 0`)"
                )
        states = next_states
        if drops:
            active = [w for w in active if last_step[w] != step]
            slot = {w: i for i, w in enumerate(active)}

    counts: dict[tuple[int, int], int] = {}
    for (labels, done), vec in states.items():
        components = done + isolated  # all vertices retired: labels is empty
        rank = n - components
        l = 0
        while vec:
            digit = vec & _DIGIT_MASK
            if digit:
                counts[(l, rank)] = counts.get((l, rank), 0) + digit
            vec >>= _DIGIT_BITS
            l += 1
    return counts


def build_rank_table(g: Graph, *, cap: int = DEFAULT_EDGE_CAP) -> RankTable:
    """Count spanning subgraphs of g by (edge count, rank) over all 2^m subsets.

    Runs the partition sweep; graphs with more than ``cap`` edges are refused,
    and so is a sweep whose frontier outgrows ``MAX_FRONTIER_STATES``.  The
    table is validated before it is returned.
    """
    _check_cap(g.m, cap)
    table = RankTable(g.n, g.m, _frontier_counts(g))
    table.validate()
    return table


def direct_integrand(
    g: Graph,
    table: RankTable | None = None,
    *,
    cap: int = DEFAULT_EDGE_CAP,
) -> IntPolynomial:
    """Integrand polynomial p(t) whose integral over [0,1] is E[L(g)].

    p(t) = sum over subgraphs A of k(A) t^{|A|} (1-t)^{m-|A|}, minus 1,
    assembled from the rank table by expanding each t^l (1-t)^{m-l} with
    polynomial multiplication.  Constant term is n-1; degree is at most m.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("integrand is defined for connected graphs only")
    if table is None:
        table = build_rank_table(g, cap=cap)
    one_minus_t = IntPolynomial((1, -1))
    power = IntPolynomial.one()
    acc = IntPolynomial.zero()
    for l in range(table.m, -1, -1):
        acc = acc + (table.component_sum(l) * power).shift(l)
        if l:
            power = power * one_minus_t
    return acc - IntPolynomial.one()


def tutte_polynomial(table: RankTable) -> BivariatePolynomial:
    """Tutte polynomial from the rank table, via the Whitney rank sum.

    T(x, y) = sum over cells of k_r^l (x-1)^{(n-1)-r} (y-1)^{l-r}; requires a
    table built from a connected graph (so the graph itself has rank n-1).
    """
    if table.counts.get((table.m, table.n - 1)) != 1:
        raise DisconnectedGraphError("rank table does not come from a connected graph")
    terms: dict[tuple[int, int], int] = {}
    for (l, r), count in table.counts.items():
        a = (table.n - 1) - r
        b = l - r
        for i in range(a + 1):
            xa = binomial(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                c = count * xa * binomial(b, j) * (-1) ** (b - j)
                if c:
                    key = (i, j)
                    terms[key] = terms.get(key, 0) + c
    return BivariatePolynomial(terms)


def tutte_integrand(table: RankTable) -> IntPolynomial:
    """Integrand p(t) = ((1-t)/t) T_x/T at (x, y) = (1/t, 1/(1-t)) (Steele's formula).

    There T = t^{1-n} (1-t)^{n-1-m}, so with T_x = sum c_ij x^i y^j this is
    p(t) = (1-t) sum_j A_j(t) (1-t)^{m-n+1-j} with A_j(t) = sum_i c_ij t^{n-2-i},
    evaluated in integers by Horner's rule in (1-t).
    """
    n = table.n
    columns = [[0] * (n - 1) for _ in range(table.m - n + 2)]
    for (i, j), c in table.tutte_x.terms.items():
        columns[j][n - 2 - i] = c
    one_minus_t = IntPolynomial((1, -1))
    acc = IntPolynomial.zero()
    for column in columns:
        acc = acc * one_minus_t + IntPolynomial(column)
    return acc * one_minus_t


def _hyperbola_point(t: Fraction) -> tuple[Fraction, Fraction]:
    if not 0 < t < 1:
        raise ValueError(f"t must be strictly between 0 and 1, got {t}")
    return 1 / Fraction(t), 1 / (1 - Fraction(t))


def check_hyperbola_identities(
    g: Graph,
    t: Fraction,
    table: RankTable | None = None,
) -> tuple[bool, bool]:
    """Exact checks of the two Tutte closed forms at (x, y) = (1/t, 1/(1-t)).

    On the hyperbola (x-1)(y-1) = 1 the Whitney sum telescopes:

        T(x, y)   = (x-1)^{n-1} (x/(x-1))^m
        T_x(x, y) = (x-1)^{n-2} [ sum_A k(A) (y-1)^{|A|} - (x/(x-1))^m ]

    Returns the pair of verdicts, evaluated in exact rational arithmetic.
    """
    if table is None:
        table = build_rank_table(g)
    x, y = _hyperbola_point(t)
    n, m = table.n, table.m
    ratio = (x / (x - 1)) ** m
    closed_form = (x - 1) ** (n - 1) * ratio
    first = table.tutte.evaluate(x, y) == closed_form

    weighted = sum(
        (table.component_sum(l) * (y - 1) ** l for l in range(m + 1)), Fraction(0)
    )
    second = table.tutte_x.evaluate(x, y) == (x - 1) ** (n - 2) * (weighted - ratio)
    return first, second


def check_integrand_ratio(
    g: Graph,
    t: Fraction,
    table: RankTable | None = None,
) -> bool:
    """Exact check that ((1-t)/t) T_x/T at (1/t, 1/(1-t)) equals p(t)."""
    if table is None:
        table = build_rank_table(g)
    x, y = _hyperbola_point(t)
    t = Fraction(t)
    lhs = (1 - t) / t * table.tutte_x.evaluate(x, y) / table.tutte.evaluate(x, y)
    # p(t) = sum over subgraphs A of k(A) t^|A| (1-t)^(m-|A|), minus 1, over
    # the common denominator b^m of t = a/b
    a, b, m = t.numerator, t.denominator, table.m
    weighted = sum(table.component_sum(l) * a**l * (b - a) ** (m - l) for l in range(m + 1))
    return lhs == Fraction(weighted, b**m) - 1
