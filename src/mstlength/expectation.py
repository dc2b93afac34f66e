"""Exact expected MST length, complete-graph closed forms, and the K_n table.

The expectation is the integral over [0,1] of the integrand polynomial; the
computation enumerates once, runs every coefficient route, insists they agree,
and integrates exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .census import SubgraphCensus, build_census
from .coefficients import ROUTE_DIRECT, ROUTES, integrand, verify_route_agreement
from .enumeration import RankTable, build_rank_table
from .errors import DisconnectedGraphError, EnumerationCapError, InexactDivisionError
from .exactpoly import IntPolynomial, binomial, decimal_string
from .graphs import Graph, complete_graph, is_connected

# Apery's constant, the n -> infinity limit of E[L(K_n)]; reference line only.
ZETA3 = Fraction(12020569031595943, 10**16)
ZETA3_DISPLAY = decimal_string(ZETA3, 7)

# Largest edge count the exact pipeline takes unless the caller raises it.
DEFAULT_EDGE_CAP = 28


@dataclass(frozen=True)
class MstExpectation:
    """Exact expectation plus everything computed on the way to it."""

    n: int
    m: int
    polynomial: IntPolynomial
    routes: dict[str, tuple[int | None, ...]]
    expectation: Fraction

    def decimal(self, digits: int = 10) -> str:
        return decimal_string(self.expectation, digits)

    def to_json_dict(self, digits: int = 10) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "p": list(self.polynomial.coefficients),
            "a": {route: list(self.routes[route]) for route in ROUTES},
            "expectation": {
                "num": str(self.expectation.numerator),
                "den": str(self.expectation.denominator),
                "decimal": self.decimal(digits),
            },
        }


def _check_cap(m: int, cap: int) -> None:
    if m > cap:
        raise EnumerationCapError(
            f"graph has {m} edges, above the enumeration cap {cap}: "
            f"2^{m} = {1 << m:.2e} subsets; raise the cap (`--cap {m}`) or use "
            "a Monte Carlo estimate (`mstlength simulate --cap 0`)"
        )


def exact_inputs(g: Graph, *, cap: int) -> tuple[RankTable, SubgraphCensus]:
    """The rank table and the census of a connected graph: what every exact result reads.

    A disconnected graph is refused first, then a graph with more than ``cap``
    edges, both before anything is built.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("exact results require a connected graph")
    _check_cap(g.m, cap)
    return build_rank_table(g), build_census(g)


def expected_mst_length(g: Graph, *, cap: int = DEFAULT_EDGE_CAP) -> MstExpectation:
    """Exact E[L(g)] for a connected graph with i.i.d. uniform edge weights."""
    routes = verify_route_agreement(*exact_inputs(g, cap=cap))
    polynomial = integrand(routes[ROUTE_DIRECT])
    return MstExpectation(
        n=g.n,
        m=g.m,
        polynomial=polynomial,
        routes=routes,
        expectation=polynomial.integrate_unit_interval(),
    )


def kn_coefficient(n: int, i: int) -> int:
    """Closed-form integrand coefficient a_i of the complete graph, i <= 6."""
    if n < 2:
        raise ValueError(f"complete-graph coefficients need n >= 2, got {n}")
    if not 0 <= i <= 6:
        raise ValueError(f"closed forms cover i = 0..6, got {i}")
    if i == 0:
        return n
    if i == 1:
        return -binomial(n, 2)
    if i == 2:
        return 0
    if i == 3:
        return binomial(n, 3)
    if i == 4:
        return 3 * binomial(n, 4)
    if i == 5:
        return 12 * binomial(n, 5) - 6 * binomial(n, 4)
    return 60 * binomial(n, 6) - 60 * binomial(n, 5) - 2 * (n - 5) * binomial(n, 4)


def factor_out_unity_root(p: IntPolynomial, n: int) -> IntPolynomial:
    """Divide the K_n integrand by (1-t)^{n-1} exactly.

    The quotient has degree at most C(n-1, 2); an inexact division would
    falsify the factorization and is surfaced as an error.
    """
    quotient = p.divide_by_one_minus_t(n - 1)
    bound = binomial(n - 1, 2)
    if quotient.degree > bound:
        raise InexactDivisionError(
            f"quotient degree {quotient.degree} exceeds the bound C({n - 1},2) = {bound}"
        )
    return quotient


@dataclass(frozen=True)
class KnRow:
    """One row of the complete-graph expectation table.

    The monotone/concave flags are reported observations, not assertions: the
    increasing-and-concave behaviour of E[L(K_n)] is an open conjecture.
    """

    n: int
    expectation: Fraction
    delta: Fraction | None
    second_difference: Fraction | None

    @property
    def increasing(self) -> bool | None:
        return None if self.delta is None else self.delta > 0

    @property
    def concave(self) -> bool | None:
        return None if self.second_difference is None else self.second_difference < 0

    def to_json_dict(self, digits: int = 10) -> dict:
        return {
            "n": self.n,
            "num": str(self.expectation.numerator),
            "den": str(self.expectation.denominator),
            "decimal": decimal_string(self.expectation, digits),
            "delta": None if self.delta is None else str(self.delta),
            "second_difference": (
                None if self.second_difference is None else str(self.second_difference)
            ),
            "increasing": self.increasing,
            "concave": self.concave,
        }


def kn_table(max_n: int, *, cap: int = DEFAULT_EDGE_CAP) -> list[KnRow]:
    """Exact E[L(K_n)] for n = 2..max_n with first and second differences.

    The largest graph is built and checked against the cap first, so a table
    that would be refused is refused before any row is computed.
    """
    if max_n < 2:
        raise ValueError(f"table needs max_n >= 2, got {max_n}")
    _check_cap(complete_graph(max_n).m, cap)
    rows: list[KnRow] = []
    values: list[Fraction] = []
    for n in range(2, max_n + 1):
        result = expected_mst_length(complete_graph(n), cap=cap)
        values.append(result.expectation)
        delta = values[-1] - values[-2] if len(values) >= 2 else None
        second = (
            values[-1] - 2 * values[-2] + values[-3] if len(values) >= 3 else None
        )
        rows.append(KnRow(n=n, expectation=values[-1], delta=delta, second_difference=second))
    return rows
