"""Independent oracles used as ground truth.

Each keeps its own naive algorithm on purpose: none of them shares code with
the library paths they check.  The chorded-cycle walk builds on the library's
cycle DFS, which the census never uses for c41, c51 or cbar41 (those come
from adjacency products) and which is itself checked against
``count_cycles_brute``.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

from mstlength.census import _walk_cycles
from mstlength.graphs import Graph


def mst_expectation_by_rank_enumeration(g: Graph) -> Fraction:
    """Exact E[L(g)] by enumerating all m! weight orderings.

    Conditioned on the ordering, Kruskal accepts a fixed set of weight ranks,
    and the k-th smallest of m uniforms has mean k/(m+1).  Practical m <= 8.
    """
    m = g.m
    total = Fraction(0)
    for order in permutations(range(m)):
        parent = list(range(g.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        picked = 0
        for rank, idx in enumerate(order, start=1):
            u, v = g.edges[idx]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                total += Fraction(rank, m + 1)
                picked += 1
                if picked == g.n - 1:
                    break
    return total / factorial(m)


def spanning_tree_count_kirchhoff(g: Graph) -> int:
    """Number of spanning trees via the Laplacian minor determinant."""
    if g.n == 1:
        return 1
    size = g.n - 1
    lap = [[Fraction(0)] * size for _ in range(size)]
    for u, v in g.edges:
        for w in (u, v):
            if w < size:
                lap[w][w] += 1
        if u < size and v < size:
            lap[u][v] -= 1
            lap[v][u] -= 1
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if lap[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            lap[col], lap[pivot] = lap[pivot], lap[col]
            det = -det
        det *= lap[col][col]
        for r in range(col + 1, size):
            factor = lap[r][col] / lap[col][col]
            if factor:
                for c in range(col, size):
                    lap[r][c] -= factor * lap[col][c]
    assert det.denominator == 1
    return int(det)


def count_cycles_brute(g: Graph, length: int) -> int:
    """Cycles of a given length by checking every vertex subset directly."""
    count = 0
    for subset in combinations(range(g.n), length):
        anchor, rest = subset[0], subset[1:]
        seen = 0
        for perm in permutations(rest):
            walk = (anchor,) + perm
            if all(
                g.has_edge(walk[i], walk[(i + 1) % length]) for i in range(length)
            ):
                seen += 1
        count += seen // 2  # each cycle appears in both directions
    return count


def count_k4_brute(g: Graph) -> int:
    """Number of 4-vertex subsets inducing all six edges."""
    total = 0
    for quad in combinations(range(g.n), 4):
        if all(g.has_edge(u, v) for u, v in combinations(quad, 2)):
            total += 1
    return total


def count_k32_brute(g: Graph) -> int:
    """Number of complete-bipartite K_{3,2} edge subgraphs.

    Counted as (3-set, 2-set) pairs of disjoint vertex sets with all six cross
    edges present; the part sizes differ, so no pair is counted twice.
    """
    total = 0
    for five in combinations(range(g.n), 5):
        for two in combinations(five, 2):
            three = tuple(v for v in five if v not in two)
            if all(g.has_edge(u, v) for u in three for v in two):
                total += 1
    return total


def _present_chords(g: Graph, cycle: tuple[int, ...]) -> int:
    """Number of the cycle's chords (non-consecutive vertex pairs) that are edges of g."""
    length = len(cycle)
    return sum(
        1
        for a, b in combinations(range(length), 2)
        if b - a != 1 and not (a == 0 and b == length - 1) and g.has_edge(cycle[a], cycle[b])
    )


def _cycles_of_length(g: Graph, length: int) -> list[tuple[int, ...]]:
    """All cycles of exactly this length, as canonical vertex sequences."""
    return [cycle for cycle in _walk_cycles(g, length) if len(cycle) == length]


def count_chorded_cycles_walk(g: Graph, length: int) -> int:
    """Number of (cycle of given length, present chord) incidence pairs, by walking."""
    return sum(_present_chords(g, cycle) for cycle in _cycles_of_length(g, length))


def count_chorded_cycles_plus_edge_walk(g: Graph) -> int:
    """Triples (4-cycle, present chord, extra edge), by walking the 4-cycles.

    The extra edge ranges over edges of g that are neither on the cycle nor a
    chord of that same cycle.
    """
    total = 0
    for cycle in _cycles_of_length(g, 4):
        chords = _present_chords(g, cycle)
        total += chords * (g.m - 4 - chords)
    return total


def _subset_ranks(g: Graph) -> list[int]:
    """Rank of every edge subset, indexed by its bitmask over ``g.edges``.

    Each subset gets a fresh union-find; rank is the number of successful
    unions.
    """
    ranks = []
    for mask in range(1 << g.m):
        parent = list(range(g.n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rank = 0
        for idx, (u, v) in enumerate(g.edges):
            if mask >> idx & 1:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
                    rank += 1
        ranks.append(rank)
    return ranks


def rank_counts_by_subsets(g: Graph) -> dict[tuple[int, int], int]:
    """Rank-table counts {(edges, rank): count} by visiting all 2^m edge subsets.

    Practical m <= 16 or so.
    """
    counts: dict[tuple[int, int], int] = {}
    for mask, rank in enumerate(_subset_ranks(g)):
        key = (mask.bit_count(), rank)
        counts[key] = counts.get(key, 0) + 1
    return counts


def mst_length_moments(g: Graph) -> tuple[Fraction, Fraction]:
    """Exact (E[L], Var[L]) of a connected graph by visiting nested edge-set pairs.

    L is the integral over t in [0, 1] of kappa(G_t) - 1, where G_t keeps the
    edges of weight <= t.  So E[L] sums (kappa(A) - 1) a! (m - a)! / (m + 1)!
    over the subsets A, and E[L^2] = 2/(m + 2)! times the sum over the 3^m
    pairs A of B of (kappa(A) - 1)(kappa(B) - 1) a! b! c!, with a = |A|,
    b = |B - A| and c = m - |B|: each edge is early (weight <= s), late
    (s < weight <= t) or absent, and the integral of s^a (t - s)^b (1 - t)^c
    over 0 < s < t < 1 is a! b! c! / (a + b + c + 2)!.  Practical m <= 10.
    """
    m = g.m
    excess = [g.n - rank - 1 for rank in _subset_ranks(g)]
    mean = Fraction(
        sum(k * factorial(mask.bit_count()) * factorial(m - mask.bit_count())
            for mask, k in enumerate(excess)),
        factorial(m + 1),
    )
    second = 0
    for outer, k_outer in enumerate(excess):
        if not k_outer:
            continue
        size = outer.bit_count()
        inner_sum = 0
        inner = outer
        while True:
            a = inner.bit_count()
            inner_sum += excess[inner] * factorial(a) * factorial(size - a)
            if not inner:
                break
            inner = (inner - 1) & outer
        second += k_outer * inner_sum * factorial(m - size)
    second = Fraction(2 * second, factorial(m + 2))
    return mean, second - mean**2


def _gf2_rank(rows: list[int]) -> int:
    """Rank over GF(2) of row vectors given as int bitmasks."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def tutte_special_values(g: Graph) -> dict[tuple[int, int], int]:
    """T(g) at (1, 1), (-1, -1), (-1, 0) and (0, -1) for a connected g, from g alone.

    Points off the hyperbola (x - 1)(y - 1) = 1 where T is computable in
    polynomial time (Jaeger-Vertigan-Welsh, 1990):

    * T(1, 1) counts spanning trees (Kirchhoff);
    * T(-1, -1) = (-1)^m (-2)^d, with d the dimension of the bicycle space over
      GF(2): the rank of the vertex stars minus the rank of the Laplacian mod 2
      (Rosenstiehl-Read, 1978);
    * T(-1, 0) = (-1)^(n-1) if g is bipartite, else 0: the proper
      2-colourings, found by a BFS colouring;
    * T(0, -1) = (-1)^(m-n+1) if every degree is even, else 0: the
      nowhere-zero Z_2 flows.
    """
    n, m = g.n, g.m
    stars = [0] * n
    laplacian = [0] * n
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(g.edges):
        stars[u] |= 1 << idx
        stars[v] |= 1 << idx
        laplacian[u] ^= 1 << v | 1 << u
        laplacian[v] ^= 1 << u | 1 << v
        neighbours[u].append(v)
        neighbours[v].append(u)
    bicycles = _gf2_rank(stars) - _gf2_rank(laplacian)

    colour = {0: 0}
    queue = [0]
    bipartite = True
    for u in queue:
        for w in neighbours[u]:
            if w not in colour:
                colour[w] = 1 - colour[u]
                queue.append(w)
            elif colour[w] == colour[u]:
                bipartite = False
    eulerian = all(len(ns) % 2 == 0 for ns in neighbours)
    return {
        (1, 1): spanning_tree_count_kirchhoff(g),
        (-1, -1): (-1) ** m * (-2) ** bicycles,
        (-1, 0): (-1) ** (n - 1) if bipartite else 0,
        (0, -1): (-1) ** (m - n + 1) if eulerian else 0,
    }


def canonical_labels(labels: tuple[int, ...]) -> tuple[int, ...]:
    """Name each partition block by its first slot: (2, 0, 2) -> (0, 1, 0)."""
    return tuple(labels.index(x) for x in labels)


def merge_labels(labels: tuple[int, ...], lu: int, lv: int) -> tuple[int, ...]:
    """Join blocks lu and lv of a partition, then name blocks by their first slot."""
    return canonical_labels(tuple(lu if lab == lv else lab for lab in labels))


def retire_labels(labels: tuple[int, ...], keep: list[int]) -> tuple[int, ...]:
    """Keep only the slots in ``keep``, renamed to first-slot labels."""
    return canonical_labels(tuple(labels[i] for i in keep))


def completed_blocks(labels: tuple[int, ...], drops: list[int]) -> int:
    """How many blocks of a partition lie wholly inside the slots ``drops``."""
    return sum(all(s in drops for s, lab in enumerate(labels) if lab == b) for b in set(labels))


def completion_cells_by_subsets(g: Graph, retired: frozenset[int]) -> dict[tuple[int, int], int]:
    """{(c, nullity): count} over all 2^m edge subsets of g, c counting the
    components, on the vertices g's edges touch, whose every vertex is in
    ``retired``.  Each subset gets a fresh union-find.
    """
    touched = {w for e in g.edges for w in e}
    cells: dict[tuple[int, int], int] = {}
    for mask in range(1 << g.m):
        parent = list(range(g.n))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        rank = 0
        for idx, (u, v) in enumerate(g.edges):
            if mask >> idx & 1 and find(u) != find(v):
                parent[find(u)] = find(v)
                rank += 1
        members: dict[int, list[int]] = {}
        for w in touched:
            members.setdefault(find(w), []).append(w)
        c = sum(all(w in retired for w in ws) for ws in members.values())
        key = (c, mask.bit_count() - rank)
        cells[key] = cells.get(key, 0) + 1
    return cells


def hyperbola_verdicts_by_fractions(table, t: Fraction) -> tuple[bool, bool, bool]:
    """The closed-form, partial-form and ratio verdicts of the Tutte checks at t.

    Evaluates the table's T and T_x term by term in Fractions at
    (x, y) = (1/t, 1/(1-t)) and compares them with the forms the Whitney sum
    telescopes to on the hyperbola (x-1)(y-1) = 1:
    T = (x-1)^{n-1} (x/(x-1))^m and
    T_x = (x-1)^{n-2} [sum_A k(A) (y-1)^{|A|} - (x/(x-1))^m].  The ratio
    ((1-t)/t) T_x / T = p(t) is checked cross-multiplied, so it never divides.
    """
    t = Fraction(t)
    x, y = 1 / t, 1 / (1 - t)
    n, m = table.n, table.m

    def at_point(poly) -> Fraction:
        return sum((c * x**i * y**j for (i, j), c in poly.items()), Fraction(0))

    tutte, tutte_x = at_point(table.tutte), at_point(table.tutte_x)
    ratio = (x / (x - 1)) ** m
    weighted = sum((table.component_sum(l) * (y - 1) ** l for l in range(m + 1)), Fraction(0))
    p = sum(table.component_sum(l) * t**l * (1 - t) ** (m - l) for l in range(m + 1)) - 1
    return (
        tutte == (x - 1) ** (n - 1) * ratio,
        tutte_x == (x - 1) ** (n - 2) * (weighted - ratio),
        tutte_x * (1 - t) / t == p * tutte,
    )


def tutte_polynomial_networkx(g: Graph) -> dict[tuple[int, int], int]:
    """Tutte polynomial terms {(x_deg, y_deg): coefficient} by deletion-contraction.

    Uses networkx's ``tutte_polynomial`` and sympy, neither of which the
    package depends on; callers skip when they are missing.
    """
    import networkx as nx
    import sympy

    x, y = sympy.symbols("x y")
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(g.n))
    nx_graph.add_edges_from(g.edges)
    poly = sympy.Poly(nx.tutte_polynomial(nx_graph), x, y)
    return {key: int(c) for key, c in poly.terms()}


def tutte_polynomial_whitney(table) -> dict[tuple[int, int], int]:
    """Tutte polynomial terms {(x_deg, y_deg): coefficient} by the Whitney expansion.

    T(x, y) = sum over cells of k_r^l (x-1)^{(n-1)-r} (y-1)^{l-r}, each power
    expanded term by term with binomial coefficients and explicit signs.
    """
    terms: dict[tuple[int, int], int] = {}
    for (l, r), count in table.counts.items():
        a = (table.n - 1) - r
        b = l - r
        for i in range(a + 1):
            xa = comb(a, i) * (-1) ** (a - i)
            for j in range(b + 1):
                c = count * xa * comb(b, j) * (-1) ** (b - j)
                if c:
                    terms[(i, j)] = terms.get((i, j), 0) + c
    return {key: c for key, c in terms.items() if c}


def evaluate_by_fractions(coefficients, t) -> Fraction:
    """sum c_i t^i by Horner's rule with a Fraction accumulator."""
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * t + c
    return acc


def multiply_by_one_minus_t(coeffs, k: int) -> list[int]:
    """Coefficients of p(t) (1-t)^k: k products with (1 - t), term by term."""
    out = list(coeffs)
    for _ in range(k):
        out = [a - b for a, b in zip(out + [0], [0] + out)]
    return out
