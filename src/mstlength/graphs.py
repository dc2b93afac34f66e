"""Immutable simple graphs with indexed edge lists and bitmask edge subsets.

A spanning subgraph is represented by a plain int bitmask: bit ``i`` set means
edge ``i`` of the parent graph is present.  Graphs are capped at 63 edges so a
subset always fits in one machine word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import GraphConstructionError, GraphParseError

MAX_EDGES = 63

EdgeSubset = int


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1`` with an ordered edge list.

    Edges are stored normalized ``(u, v)`` with ``u < v``; the position of an
    edge in the tuple is its stable index.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise GraphConstructionError(f"vertex count must be positive, got {self.n}")
        edges = tuple((min(u, v), max(u, v)) for u, v in self.edges)
        if len(edges) > MAX_EDGES:
            raise GraphConstructionError(
                f"graph has {len(edges)} edges, more than the {MAX_EDGES}-edge limit"
            )
        seen = set()
        for u, v in edges:
            if u == v:
                raise GraphConstructionError(f"self-loop at vertex {u}")
            if not 0 <= u < self.n or not 0 <= v < self.n:
                raise GraphConstructionError(
                    f"edge ({u}, {v}) has a vertex outside 0..{self.n - 1}"
                )
            if (u, v) in seen:
                raise GraphConstructionError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        object.__setattr__(self, "edges", edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def full_subset(self) -> EdgeSubset:
        return (1 << self.m) - 1

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        neighbors: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in neighbors)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_set

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])


def _validate_subset(g: Graph, subset: EdgeSubset) -> None:
    if subset < 0 or subset >> g.m:
        raise ValueError(f"subset {subset:#x} has bits outside edges 0..{g.m - 1}")


def find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def component_count(g: Graph, subset: EdgeSubset) -> int:
    """Number of connected components of the spanning subgraph ``subset``.

    Isolated vertices count; a fresh union-find is built per call.
    """
    _validate_subset(g, subset)
    parent = list(range(g.n))
    components = g.n
    remaining = subset
    while remaining:
        low = remaining & -remaining
        remaining ^= low
        u, v = g.edges[low.bit_length() - 1]
        ru, rv = find(parent, u), find(parent, v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components


def subgraph_rank(g: Graph, subset: EdgeSubset) -> int:
    """Rank of the spanning subgraph: vertices minus components."""
    return g.n - component_count(g, subset)


def is_connected(g: Graph) -> bool:
    return component_count(g, g.full_subset) == 1


def parse_graph(text: str) -> Graph:
    """Parse the edge-list document format.

    Lines starting with ``#`` and blank lines are ignored.  The first payload
    line is ``n m``; exactly ``m`` lines ``u v`` follow.  Line numbers in
    errors are 1-based over the raw document.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphParseError(f"expected header 'n m', got {line!r}", lineno)
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphParseError(f"non-integer header field in {line!r}", lineno) from None
            if n < 1:
                raise GraphParseError(f"vertex count must be positive, got {n}", lineno)
            if m < 0:
                raise GraphParseError(f"edge count must be nonnegative, got {m}", lineno)
            if m > MAX_EDGES:
                raise GraphParseError(f"edge count {m} exceeds the {MAX_EDGES}-edge limit", lineno)
            header = (n, m)
            continue
        n, m = header
        if len(edges) == m:
            raise GraphParseError(f"unexpected extra line after {m} edges: {line!r}", lineno)
        if len(fields) != 2:
            raise GraphParseError(f"expected edge 'u v', got {line!r}", lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"non-integer vertex in {line!r}", lineno) from None
        if not 0 <= u < n or not 0 <= v < n:
            raise GraphParseError(f"vertex out of range 0..{n - 1} in edge ({u}, {v})", lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphParseError(f"duplicate edge ({u}, {v})", lineno)
        seen.add(key)
        edges.append(key)
    if header is None:
        raise GraphParseError("empty document: missing 'n m' header")
    n, m = header
    if len(edges) != m:
        raise GraphParseError(f"header promises {m} edges but document has {len(edges)}")
    return Graph(n, tuple(edges))


def format_graph(g: Graph, comment: str | None = None) -> str:
    """Render a graph in the edge-list document format (inverse of parse_graph)."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"{g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def complete_graph(n: int) -> Graph:
    """K_n: vertices 0..n-1, edges (i, j) for i < j in lexicographic order."""
    if n < 1:
        raise GraphConstructionError(f"complete graph needs n >= 1, got {n}")
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def bipartite_graph(a: int, b: int) -> Graph:
    """K_{a,b}: parts 0..a-1 and a..a+b-1, edges in lexicographic order."""
    if a < 1 or b < 1:
        raise GraphConstructionError(f"bipartite parts must be >= 1, got {a}, {b}")
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def cycle_graph(n: int) -> Graph:
    """C_n: path edges (i, i+1) plus the closing edge (0, n-1); needs n >= 3."""
    if n < 3:
        raise GraphConstructionError(f"cycle needs n >= 3 to stay a simple graph, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),))


def path_graph(n: int) -> Graph:
    """P_n: vertices 0..n-1, edges (i, i+1)."""
    if n < 1:
        raise GraphConstructionError(f"path needs n >= 1, got {n}")
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


GENERATORS = {
    "complete": (complete_graph, 1),
    "bipartite": (bipartite_graph, 2),
    "cycle": (cycle_graph, 1),
    "path": (path_graph, 1),
}


def generate(kind: str, *params: int) -> Graph:
    """Build a named graph family member: complete n | bipartite a b | cycle n | path n."""
    if kind not in GENERATORS:
        raise GraphConstructionError(
            f"unknown generator {kind!r}; expected one of {sorted(GENERATORS)}"
        )
    builder, arity = GENERATORS[kind]
    if len(params) != arity:
        raise GraphConstructionError(f"generator {kind!r} takes {arity} parameter(s), got {len(params)}")
    return builder(*params)
