"""Spanning-subgraph enumeration: the rank table and everything derived from it.

The rank table holds, for each edge count l and rank r, the number of spanning
subgraphs with exactly l edges and rank r (rank = vertices minus components).
Every downstream quantity -- the integrand polynomial, the Tutte polynomial,
all coefficient routes -- is a function of this table, so it is computed once.

The table comes from a partition sweep over the edge list.  Edges are taken or
skipped one at a time while tracking the partition of "active" vertices (those
with edges still pending), so the 2^m subsets are aggregated by distributivity
instead of visited one by one.  The counts are exact integers; the cost grows
with the partition states on the frontier, not with 2^m, which makes dense
graphs such as the 28-edge complete graph on 8 vertices cheap on one core.

A partition is spelled by first-slot names, as in frontier-based search
(Kawahara-Inoue-Iwashita-Minato, 2017): one label per active vertex, the
index of the first slot of its block, so (0, 1, 0, 3) puts the first and third
active vertices in one block and the second and fourth in blocks of their own.
Each partition has exactly one such spelling, and slot j's name is at most j.
A new vertex takes its own slot index; taking an edge between blocks a < b
renames b to a; retiring a vertex drops its slot, renames its block by the
block's next slot if the dropped slot was the first, and lowers the names
above the dropped slot by one.  No step renumbers the whole row.

Each step moves every state at once with numpy.  A state is its partition
alone: the labels as an int8 matrix and an object array of packed big-int
counts.  Equal children of a step are found by sorting mixed-radix int64 keys
of the labels and are summed with one ``np.add.reduceat``.
A state's counts are one int of 64-bit digits in slots of D = nullity(g) + 1:
digit c D + nu counts the subsets that completed c components (blocks whose
every vertex retired) and have nullity nu, the exponent of v in the rank
generating polynomial R(u, v); their rank is the vertices seen minus the
state's blocks minus c.  A skip child, and the take child of an edge that joins
two blocks (one more edge and rank), keep the parent's int; an edge inside a
block (a loop) shifts it by one digit, and a retired slot that was the last of
its block by one slot.  Slot proof: a nonzero digit counts real subsets of one
cell of the edges swept, at most C(m, l) <= C(63, 31) < 2^63, so no digit
carries; no subset has nullity above nullity(g), so no loop moves a digit past
index D - 1 of its slot.  After r vertices retire an int holds at most
(r + 1) D digits, so a step whose distinct states times (r + 1) D digits of 8
bytes pass ``MAX_FRONTIER_BYTES`` is refused before it adds any count.

The stars of the last three vertices in BFS order, z, y and then x, take no
step: when the sweep reaches z's first edge, every edge left joins a star to an
active vertex, to a vertex first seen in the stars (a block of its own) or to
another star.  (A graph whose star search reaches step 0 first is finished
with stars that have no edges: no subset joins them, so they change no count.)
So a state's completion depends only on the edges among the star set S and on
each block B's tie vector t_B, its edges to each star.
With f_b(w) = ((1 + w)^b - 1) / w (s >= 1 of b edges into one block add one
rank and s - 1 nullity), gluing the stars of each block of a partition sigma
of S into one vertex gives F(sigma) = (1 + w)^e(sigma)
prod_B (1 + z sum_(C in sigma) f_(t_B(C))): the e(sigma) star-star edges
inside a block of sigma are loops, and a block joins at most one glued star.
F(sigma) counts the subsets that join the stars into a partition pi <= sigma,
each weighted as if pi's stars were glued: by |S| - |pi| less rank and as much
more nullity.  By Moebius inversion over the partition lattice (Rota, 1964),
W(pi) = sum_(sigma <= pi) mu(sigma, pi) F(sigma), taken as F(pi) minus the W
below it, counts the subsets that join the stars into pi exactly, and the
completion is G = sum_pi z^(|S| - |pi|) W(pi) / w^(|S| - |pi|).  The states
are grouped by sorted ties and block count b; each group's summed int is
multiplied by the w-polynomial of each rank gain k of its G, and slot c of
that product, of rank seen - b - c + k, is added at one offset by b - k.  The
offsets are then packed into one int by falling rank, decoded once.  K_n
peaks at the Bell(n-3) partitions of the vertices that wait for the stars.

The finish packs z as well, in slots of E + 1 digits for the E edges of the
stars: a coefficient z^k w^nu of F(sigma), W(pi) or G counts subsets of k + nu
of those edges, so nu <= E and it is at most C(E, k + nu) < 2^63.  Evaluation
at w = 2^64 and z = 2^(64 (E + 1)) is linear, so the signed sum that gives
W(pi) is W(pi)'s packed value, and W(pi), a subset count in every digit,
decodes to it.  Every subset that W(pi) counts has nullity at least |S| - |pi|
as weighted, so the lowest |S| - |pi| digits of each slot are 0 and the shift
divides by w^(|S| - |pi|) exactly.  Every digit of a product with a state's
int, or of a sum of them, counts subsets of one final cell (l, r): it is at
most C(m, l) <= C(63, 31) < 2^63, so no digit carries, and has nullity at
most nullity(g) < D, so it stays in its D-digit slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import compress, product
from math import isqrt

import numpy as np

from .errors import CorruptRankTableError, DisconnectedGraphError, FrontierOverflowError
from .exactpoly import IntPolynomial, balanced_digits, binomial, digit_bits
from .graphs import MAX_EDGES, Graph, edge_rank, is_uniform

# Byte budget of a sweep step, by the module docstring's estimate: the least
# multiple of 32 MiB refusing no scripts/limits_table.py graph 2^21 states took.
# It bounds the estimated bytes of one step's packed ints, not peak RSS: a step
# also holds its parents' ints, the children, the int headers and the arrays'
# slots, so with the bound at 2^30 `gnm 40 63 1` reached 768 MB of peak RSS
# against a largest admitted estimate of 656 MB.
MAX_FRONTIER_BYTES = 17 << 25


def min_subgraph_rank(edge_count: int) -> int:
    """Smallest possible rank of a subgraph with the given number of edges.

    This is the r with C(r, 2) < l <= C(r + 1, 2) (l >= 1): packing l edges as
    densely as possible onto r + 1 vertices; 0 for the empty subgraph.  The
    bound solves r(r + 1) / 2 >= l for the smallest r.
    """
    if edge_count < 0:
        raise ValueError("edge count must be nonnegative")
    if edge_count == 0:
        return 0
    return (1 + isqrt(8 * edge_count - 7)) // 2


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

    @cached_property
    def component_sums(self) -> tuple[int, ...]:
        """S_l = ``component_sum(l)`` for l = 0..m, built on first use."""
        return tuple(self.component_sum(l) for l in range(self.m + 1))

    @cached_property
    def nullity_sums(self) -> tuple[int, ...]:
        """N_l = sum of (l - r) k_r^l for l = 0..m, built on first use.

        N_l weights the cyclic l-edge subgraphs (r < l) by their nullity.  Each
        N_l is summed over the table's cells on its own, not derived from the
        S_l, so the nullity route stays independent of ``eq2``.
        """
        return tuple(
            sum((l - r) * c for r, c in self._rows.get(l, {}).items() if r < l)
            for l in range(self.m + 1)
        )

    @cached_property
    def tutte(self) -> dict[tuple[int, int], int]:
        """The Tutte polynomial T(x, y) of the table, built on first use."""
        return tutte_polynomial(self)

    @cached_property
    def tutte_x(self) -> dict[tuple[int, int], int]:
        """T_x, the partial derivative of T in x, built on first use."""
        return {(i - 1, j): i * c for (i, j), c in self.tutte.items() if i}

    @cached_property
    def tau(self) -> IntPolynomial:
        """tau(t): T at (1/t, 1/(1-t)) times t^{n-1} (1-t)^{m-n+1}, built on first use."""
        return _along_hyperbola(self.tutte, self.n - 1, self.m - self.n + 1)

    @cached_property
    def rank_integrand(self) -> IntPolynomial:
        """p_rank(t): T_x at (1/t, 1/(1-t)) times t^{n-2} (1-t)^{m-n+2}, built on first use.

        This is the integrand p(t) = ((1-t)/t) T_x/T at (x, y) = (1/t, 1/(1-t))
        (Steele's formula): there T = t^{1-n} (1-t)^{n-1-m}, so the factor T
        folds into the powers of t and 1-t.
        """
        return _along_hyperbola(self.tutte_x, self.n - 2, self.m - self.n + 2)

    def spanning_tree_count(self) -> int:
        return self.counts.get((self.n - 1, self.n - 1), 0)

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        floors = [min_subgraph_rank(l) for l in range(self.m + 1)]
        for (l, r), c in self.counts.items():
            if c < 0:
                raise ValueError(f"negative count at (l={l}, r={r})")
            if not 0 <= l <= self.m:
                raise ValueError(f"edge count {l} out of range")
            if r > min(l, self.n - 1) or r < floors[l]:
                raise ValueError(f"rank {r} impossible for {l} edges")
        for l in range(self.m + 1):
            total = self.row_sum(l)
            if total != binomial(self.m, l):
                raise ValueError(f"row {l} sums to {total}, expected C({self.m},{l})")
        # No subgraph has more independent cycles than the whole edge set.
        (full_rank,) = (r for r, c in self._rows[self.m].items() if c)
        for (l, r), c in self.counts.items():
            if c and l - r > self.m - full_rank:
                raise ValueError(
                    f"nullity {l - r} at (l={l}, r={r}) exceeds the full edge set's "
                    f"nullity {self.m - full_rank}"
                )


# Width proof.  A Graph has at most MAX_EDGES = 63 edges, so at most 126 of its
# vertices ever enter the frontier: a row of labels has at most 126 slots and
# slot j's name is at most j <= 125, which fits int8.
_LABEL_DTYPE = np.int8
# Every key word stays below this bound, so it fits int64.
_WORD_LIMIT = 1 << 63


def _merge_rows(labels: np.ndarray, lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """Join blocks lu[i] != lv[i] of each first-slot row i: the coarser partitions.

    Block hi = max(lu, lv) takes the name lo = min(lu, lv), the first slot of
    the joined block; no other name changes.
    """
    lo = np.minimum(lu, lv)[:, None]
    hi = np.maximum(lu, lv)[:, None]
    return np.where(labels == hi, lo, labels)


def _retire_rows(labels: np.ndarray, drops: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Drop the slots ``drops`` from every first-slot row, one slot at a time.

    A dropped slot s that heads its block hands the headship to the block's
    next slot (the first later slot named s): the block's other slots take
    that slot's index as their name.  Then every name above s goes down by
    one, as its slot moves left.  Returns the kept rows and, per row, the
    blocks completed: those whose last slot was dropped.
    """
    completed = 0
    # Highest slot first, so the lower dropped slots keep their index.
    for s in sorted(drops, reverse=True):
        later = labels[:, s + 1 :]
        named_s = later == s  # only in rows where slot s heads its block
        alone = labels[:, s] == s
        if named_s.any():
            heir = s + 1 + named_s.argmax(axis=1)
            later = np.where(named_s, heir[:, None].astype(_LABEL_DTYPE), later)
            alone &= ~named_s.any(axis=1)
        completed = completed + alone  # an int array from the first slot on
        labels = np.concatenate((labels[:, :s], later - (later > s)), axis=1)
    return labels, completed


@lru_cache(maxsize=None)
def _key_layout(width: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """Slots [start, stop) of each key word and the place value of each slot.

    Slot j of a first-slot row holds a name of at most j, a digit of radix
    j + 1.  A word takes digits while the product of their radices stays at
    most 2^63, so it is below 2^63 (one word holds 20 slots).
    """
    words = []
    start, place, places = 0, 1, []
    for j in range(width):
        if place * (j + 1) > _WORD_LIMIT:
            words.append((start, j, np.array(places, dtype=np.int64)))
            start, place, places = j, 1, []
        places.append(place)
        place *= j + 1
    words.append((start, width, np.array(places, dtype=np.int64)))
    return tuple(words)


def _state_keys(labels: np.ndarray) -> list[np.ndarray]:
    """Mixed-radix int64 words, equal for two rows exactly when their labels are."""
    return [labels[:, start:stop] @ places for start, stop, places in _key_layout(labels.shape[1])]


def _sweep_edge_order(g: Graph) -> list[int]:
    """Edge processing order that retires vertices early: BFS-position sort.

    Each BFS starts at the lowest-index vertex of least degree not yet reached
    (the Cuthill-McKee start), so K_{4,6} is swept from its 6-vertex side.
    """
    position = [-1] * g.n
    counter = 0
    for root in sorted(range(g.n), key=lambda w: len(g.adjacency[w])):
        if position[root] != -1:
            continue
        position[root] = counter
        counter += 1
        queue = [root]
        for u in queue:  # reads the queue by index as it grows
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


# A digit of the packed counts: at most C(63, 31) < 2^63 within
# graphs.MAX_EDGES, so no digit carries (the module docstring has the proof).
_DIGIT_BITS = 64


def _combine_counts(
    vec: np.ndarray, joins: np.ndarray, shifts: np.ndarray | None, order: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """One step's count arithmetic: the packed counts of the merged children.

    Every state has a skip child in its own row.  Where the edge joins two
    blocks (``joins``) the take child keeps the parent's int and follows after
    all skip children.  Elsewhere the taken edge closes a cycle: both children
    are one state, counted in place as the int plus the int shifted one digit.
    Children then shift by their ``shifts`` bits (None: none shifts), one slot
    per block completed.  ``order`` sorts the children by key and ``starts``
    opens each run of equal keys.  ``vec`` itself is updated in place.
    """
    closes = ~joins
    loops = vec[closes]
    vec[closes] = loops + (loops << _DIGIT_BITS)
    children = np.concatenate((vec, vec[joins]))
    if shifts is not None:
        moved = np.flatnonzero(shifts)
        children[moved] = children[moved] << shifts[moved].astype(object)
    return np.add.reduceat(children[order], starts)


def _runs(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the rows by ``keys`` and the start of each run of equal rows."""
    order = np.lexsort(keys)
    opens_run = np.zeros(len(order), dtype=bool)
    opens_run[0] = True
    for key in keys:
        ranked = key[order]
        opens_run[1:] |= ranked[1:] != ranked[:-1]
    return order, np.flatnonzero(opens_run)


# A block's ties to the stars are one int, t_i edges to star i at digit i of
# radix _TIE_RADIX: a block has at most m <= 63 edges to one star, so a sum of
# slot ties never carries.
_TIE_RADIX = 64
_ONE_PLUS_W = 1 << _DIGIT_BITS | 1


# The sweep finishes the stars of its last _STARS vertices.  _PARTITIONS holds
# the partitions of the stars, each a tuple of block masks (one bit per star),
# by falling block count so that each comes after those below it; _BELOW[t]
# the indices of the partitions below partition t.
_STARS = 3
_PARTITIONS = ((1, 2, 4), (3, 4), (5, 2), (1, 6), (7,))
_BELOW = ((), (0,), (0,), (0,), (0, 1, 2, 3))


def _star_loops(links: list[int]) -> list[int]:
    """The packed (1 + w)^e(sigma) of each partition sigma, for the star-star
    edges ``links``, each the mask of its two stars."""
    return [_ONE_PLUS_W ** sum(c & b == c for b in sigma for c in links) for sigma in _PARTITIONS]


# _F[b] = f_b(w) = ((1 + w)^b - 1) / w = sum_{s=1..b} C(b, s) w^(s-1), packed,
# for b = 0..MAX_EDGES: s >= 1 of b edges into one block add one rank and s - 1
# nullity.  f_(b+1) = (1 + w) f_b + 1, and no digit C(b, s) carries.
_F = [0]
while len(_F) <= MAX_EDGES:
    _F.append(_F[-1] * _ONE_PLUS_W + 1)


@lru_cache(maxsize=1024)
def _block_factors(tie: int) -> tuple[int, ...]:
    """sum_(C in sigma) f_(t(C)) for each partition sigma of the stars."""
    edges = [0]  # edges[mask]: the block's edges to the stars in mask
    for i in range(_STARS):
        edges += [e + tie // _TIE_RADIX**i % _TIE_RADIX for e in edges]
    return tuple(sum([_F[edges[c]] for c in sigma]) for sigma in _PARTITIONS)


def _star_parts(ties: list[int], loops: list[int], slot: int) -> list[int]:
    """W(pi) for each partition pi of the stars, packed by w in ``slot``-bit
    slots of z (the module docstring has the formula)."""
    products = list(loops)
    for tie in ties:
        products = [p + ((p * f) << slot) for p, f in zip(products, _block_factors(tie))]
    parts: list[int] = []
    for part, below in zip(products, _BELOW):
        for s in below:
            part -= parts[s]
        parts.append(part)
    return parts


def _star_factor(ties: list[int], loops: list[int], slot: int) -> list[int]:
    """The packed w-polynomials of z^0, z^1, ... in the completion G of one
    row of block ties; a ``slot`` holds a digit more than the stars have edges."""
    packed = 0
    for pi, part in zip(_PARTITIONS, _star_parts(ties, loops, slot)):
        gain = _STARS - len(pi)
        packed += part >> _DIGIT_BITS * gain << slot * gain
    factor, mask = [], (1 << slot) - 1
    while packed:
        factor.append(packed & mask)
        packed >>= slot
    return factor


def _finish_stars(
    labels: np.ndarray, vec: np.ndarray, ties: list[int], loops: list[int], slot: int, bits: int
) -> int:
    """The final counts from the states before the stars: slot q of ``bits``
    bits holds rank top - q by nullity, top the vertices seen, stars included,
    less one.  ``ties`` holds the packed ties of each active slot and then of
    each vertex first seen in the stars, ``loops`` is ``_star_loops``' for
    the edges among the stars, and ``slot`` the bits of a z slot.
    """
    rows, width = labels.shape
    blocks, every_row = np.zeros((rows, width), dtype=np.int64), np.arange(rows)
    for s, tie in enumerate(ties[:width]):
        # slot s adds its ties to its block, named by the block's first slot
        blocks[every_row, labels[:, s]] += tie
    blocks.sort()
    heads = (labels == np.arange(width)).sum(axis=1)
    order, starts = _runs([*blocks.T, heads])
    kept = order[starts]
    sums = np.add.reduceat(vec[order], starts)
    fresh = tuple(ties[width:])
    factors: dict[tuple[int, ...], list[int]] = {}  # one G per distinct row, in this call only
    # slot c of a b-block state's int gaining k ranks: rank top - (base - k) - c
    final = [0] * (len(ties) + _STARS)
    for row, b, packed in zip(map(tuple, blocks[kept].tolist()), heads[kept].tolist(), sums):
        if row not in factors:
            factors[row] = _star_factor([tie for tie in row + fresh if tie], loops, slot)
        base = b + len(fresh) + _STARS - 1
        for k, f in enumerate(factors[row]):
            final[base - k] += packed * f
    return sum(packed << bits * q for q, packed in enumerate(final))


def _frontier_counts(g: Graph) -> dict[tuple[int, int], int]:
    edge_order = _sweep_edge_order(g)
    steps = list(enumerate(edge_order))
    last_step = {w: step for step, e in steps for w in g.edges[e]}
    first_step = {w: step for step, e in reversed(steps) for w in g.edges[e]}
    # The last vertex x, the later-seen end of the last edge, has the largest
    # BFS position, so its edges are the tail of the sweep: its star.  In the
    # same way the later-seen end of the edge before a star has its star just
    # before, and its other edges in the stars after.  The sweep stops at the
    # stars of the last _STARS vertices, or at step 0 if that comes first.
    stars: list[int] = []
    stop = g.m
    while stop and len(stars) < _STARS:
        stars.append(max(g.edges[edge_order[stop - 1]], key=first_step.__getitem__))
        stop = first_step[stars[-1]]

    digits = g.m - edge_rank(g) + 1  # D: no subset has more nullity than g
    active: list[int] = []
    retired = 0
    # One state per row: block labels aligned with `active`, and the packed counts.
    labels = np.zeros((1, 0), dtype=_LABEL_DTYPE)
    vec = np.array([1], dtype=object)

    for step, e in steps[:stop]:
        u, v = g.edges[e]
        # Activate endpoints first seen here (a retired vertex never comes
        # back): every state gains the same singleton block, named by its slot.
        for w in (u, v):
            if w not in active:
                fresh = np.full((len(labels), 1), len(active), dtype=_LABEL_DTYPE)
                labels = np.concatenate((labels, fresh), axis=1)
                active.append(w)
        su, sv = active.index(u), active.index(v)
        lu, lv = labels[:, su], labels[:, sv]
        joins = lu != lv
        children = np.concatenate((labels, _merge_rows(labels[joins], lu[joins], lv[joins])))
        shifts = None
        drops = [s for s, w in ((su, u), (sv, v)) if last_step[w] == step]
        if drops:
            children, completed = _retire_rows(children, drops)
            shifts = completed * (_DIGIT_BITS * digits) if completed.any() else None
            active = [w for w in active if last_step[w] != step]
            retired += len(drops)

        order, starts = _runs(_state_keys(children))
        # The distinct states and the widest int are known before any count
        # is added, so a refused step does none of its big-int arithmetic.
        need = len(starts) * (retired + 1) * digits * _DIGIT_BITS // 8
        if need > MAX_FRONTIER_BYTES:
            raise FrontierOverflowError(
                f"exact enumeration needs more than its budget of {MAX_FRONTIER_BYTES} bytes "
                f"({len(starts)} partition states need {need} bytes at edge {step + 1}/{g.m}); "
                "use a graph with fewer edges, or a Monte Carlo estimate (`mstlength simulate --cap 0`)"
            )
        vec = _combine_counts(vec, joins, shifts, order, starts)
        labels = children[order[starts]]

    # Every edge left joins a star to an active vertex, to a vertex first seen
    # in the stars, or to another star.
    first_seen = {w for e in edge_order[stop:] for w in g.edges[e]} - {*stars, *active}
    ties = [
        sum(g.has_edge(w, s) * _TIE_RADIX**i for i, s in enumerate(stars)) for w in active + sorted(first_seen)
    ]
    links = [1 << i | 1 << j for j in range(len(stars)) for i in range(j) if g.has_edge(stars[i], stars[j])]
    # A subset of the stars' edges has at most g.m - stop edges, so a z slot
    # of g.m - stop + 1 digits holds its w-polynomial.
    slot = _DIGIT_BITS * (g.m - stop + 1)
    top = len(active) + retired + len(first_seen) + _STARS - 1
    packed = _finish_stars(labels, vec, ties, _star_loops(links), slot, _DIGIT_BITS * digits)
    size = -(-packed.bit_length() // _DIGIT_BITS)
    words = np.frombuffer(packed.to_bytes(size * 8, "little"), "<u8").tolist()
    cells = (divmod(i, digits) + (d,) for i, d in enumerate(words) if d)
    return {(top - q + nullity, top - q): d for q, nullity, d in cells}


def build_rank_table(g: Graph) -> RankTable:
    """Count spanning subgraphs of g by (edge count, rank) over all 2^m subsets.

    A forest's table and a lone cycle's are closed-form (``is_uniform``); any
    other graph runs the partition sweep, which is refused if a step outgrows
    ``MAX_FRONTIER_BYTES``.  The table is validated before it is returned, and
    its full edge set must have the rank that union-find gives g's edges
    (n - 1 for a connected graph).  A table that fails either check is a bug
    in the sweep, raised as ``CorruptRankTableError``.
    """
    rank = edge_rank(g)
    if is_uniform(g, rank):
        # a forest, or one cycle and isolated vertices: l edges have rank min(l, rank)
        counts = {(l, min(l, rank)): binomial(g.m, l) for l in range(g.m + 1)}
    else:
        counts = _frontier_counts(g)
    table = RankTable(g.n, g.m, counts)
    try:
        table.validate()
    except ValueError as exc:
        raise CorruptRankTableError(f"rank table of the sweep is corrupt: {exc}") from exc
    if table.row(g.m) != {rank: 1}:
        raise CorruptRankTableError(
            f"rank table of the sweep is corrupt: the full edge set has rank counts "
            f"{table.row(g.m)}, expected {{{rank}: 1}}"
        )
    return table


def _require_connected(table: RankTable) -> None:
    """Refuse a table whose full edge set does not have rank n-1."""
    if table.counts.get((table.m, table.n - 1)) != 1:
        raise DisconnectedGraphError("rank table does not come from a connected graph")


def direct_integrand(table: RankTable) -> IntPolynomial:
    """Integrand polynomial p(t) whose integral over [0,1] is E[L(g)].

    p(t) = sum over subgraphs A of k(A) t^{|A|} (1-t)^{m-|A|}, minus 1, that
    is sum_l S_l t^l (1-t)^{m-l} - 1 over the table's component sums S_l,
    built by Horner's rule in (1-t) on a plain int list.  Constant term is
    n-1; degree is at most m.  Requires a table built from a connected graph.
    """
    _require_connected(table)
    acc: list[int] = []
    for s in table.component_sums:
        # acc (1-t) + S_l t^l: acc has degree below l, so l + 1 coefficients
        acc = [a - b for a, b in zip(acc + [s], [0] + acc)]
    acc[0] -= 1
    return IntPolynomial(acc)


def tutte_polynomial(table: RankTable) -> dict[tuple[int, int], int]:
    """Tutte polynomial from the rank table, evaluated as packed integers.

    The Whitney rank sum reads T(x, y) = R(x-1, y-1) for the rank generating
    polynomial R(u, v) = sum over cells of k_r^l u^a v^b, a = (n-1)-r < w and
    b = l-r < h, sized by the table's own cells.  Each u-row of R is evaluated
    at v = Y - 1, Y = 2^bits, by Horner's rule; Horner's rule in x-1 over those
    w ints (about w^2/2 subtractions) leaves row x^i of T as h balanced base-Y
    digits.  Width proof: t_ij sums k_r^l (-1)^(a-i+b-j) C(a, i) C(b, j) over
    the cells, so |t_ij| <= 2^(w+h-2) sum |k_r^l| whatever the counts.  T comes
    back as its nonzero ``{(x_deg, y_deg): c}``; the table must come from a
    connected graph (so the graph itself has rank n-1).
    """
    _require_connected(table)
    top = table.n - 1
    width = max(top - r for _, r in table.counts) + 1
    height = max(l - r for l, r in table.counts) + 1
    bits = digit_bits(sum(map(abs, table.counts.values())) << (width + height - 2))
    grid = [[0] * height for _ in range(width)]  # grid[a][b]: coefficient of u^a v^b
    for (l, r), count in table.counts.items():
        grid[top - r][l - r] += count
    rows: list[int] = []  # T's x^i rows: Horner's rule in (x-1) over R's u-rows
    for row in reversed(grid):
        at_v = 0
        for c in reversed(row):
            at_v = (at_v << bits) - at_v + c
        rows = [a - b for a, b in zip([at_v, *rows], [*rows, 0])]
    digits = balanced_digits(rows, bits, height)
    return dict(zip(compress(product(range(width), range(height)), digits), filter(None, digits)))


def _along_hyperbola(poly: dict[tuple[int, int], int], nx: int, ny: int) -> IntPolynomial:
    """sum c_ij t^{nx-i} (1-t)^{ny-j} for poly = sum c_ij x^i y^j (i <= nx).

    That is poly at (x, y) = (1/t, 1/(1-t)), on the hyperbola (x-1)(y-1) = 1,
    times t^nx (1-t)^ny: an integer polynomial in t, evaluated at t = Y = 2^bits
    column by column (A_j(Y) = sum_i c_ij Y^{nx-i}) by Horner's rule in (1-t)
    and read back as balanced base-Y digits.

    T and T_x of a graph have y-degree at most its nullity, so j <= ny.  A
    corrupted table can pass it by k; the columns then run to ny + k and the
    result is divided by (1-t)^k, exactly, by k passes of integer prefix sums:
    each cell (l, r) of the table adds a multiple of (1-t)^(m-l) to the sum, so
    any table with l <= m divides.  Width proof: before the division a digit
    sums c_ij times coefficients of (1-t)^(ny+k-j), so |digit| <= 2^(ny+k) sum |c_ij|.
    """
    k = max(0, max((j for _, j in poly), default=0) - ny)
    bits = digit_bits(sum(map(abs, poly.values())) << (ny + k))
    columns = [0] * (ny + k + 1)
    for (i, j), c in poly.items():
        columns[j] += c << bits * (nx - i)
    acc = 0
    for column in columns:
        acc = column + acc - (acc << bits)  # acc (1-t) + column, at t = Y
    return IntPolynomial(balanced_digits([acc], bits, nx + ny + k + 1)).divide_by_one_minus_t(k)


def _hyperbola_sides(table: RankTable, t: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """tau(t), p_rank(t) and p(t), the sides of the Tutte checks at 0 < t < 1.

    tau and p_rank are the table's ``tau`` and ``rank_integrand``, built once
    per table.  p is the component sum sum_l S_l t^l (1-t)^(m-l) minus 1,
    taken in integers over the common denominator b^m of t = a/b.
    """
    t = Fraction(t)
    if not 0 < t < 1:
        raise ValueError(f"t must be strictly between 0 and 1, got {t}")
    m = table.m
    a, b = t.numerator, t.denominator
    weighted = sum(s * a**l * (b - a) ** (m - l) for l, s in enumerate(table.component_sums))
    return table.tau.evaluate(t), table.rank_integrand.evaluate(t), Fraction(weighted, b**m) - 1


def check_hyperbola_identities(table: RankTable, t: Fraction) -> tuple[bool, bool]:
    """Exact checks of the two Tutte closed forms at (x, y) = (1/t, 1/(1-t)).

    On the hyperbola (x-1)(y-1) = 1 the Whitney sum telescopes:

        T(x, y)   = (x-1)^{n-1} (x/(x-1))^m
        T_x(x, y) = (x-1)^{n-2} [ sum_A k(A) (y-1)^{|A|} - (x/(x-1))^m ]

    Times t^{n-1} (1-t)^{m-n+1} the first reads tau(t) = 1; times
    t^{n-2} (1-t)^{m-n+2} the second reads p_rank(t) = p(t).  Both factors are
    nonzero for 0 < t < 1, so each verdict compares integer polynomials at t.
    """
    tau, p_rank, p = _hyperbola_sides(table, t)
    return tau == 1, p_rank == p


def check_integrand_ratio(table: RankTable, t: Fraction) -> bool:
    """Exact check that ((1-t)/t) T_x/T at (1/t, 1/(1-t)) equals p(t), 0 < t < 1.

    Times T t^{n-1} (1-t)^{m-n+1} it reads p_rank(t) = tau(t) p(t).  Nothing is
    divided, so a corrupted T that vanishes at the point gives a verdict
    instead of a ZeroDivisionError.
    """
    tau, p_rank, p = _hyperbola_sides(table, t)
    return p_rank == tau * p
