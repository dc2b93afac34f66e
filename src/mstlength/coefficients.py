"""Independent routes to the integrand coefficients, and the identities tying
them to the structural census.

Writing the integrand as p(t) = -1 + sum a_i t^i, the routes are:

* ``direct``      -- read a_i off the expanded subset-sum polynomial.
* ``eq2``         -- alternating binomial sum over per-edge-count component
                     totals (one scalar sum per index, its signed binomials
                     cached per m).
* ``rank``        -- p(t) read off T_x along the hyperbola (Steele's formula),
                     valid because the table's rows sum to binomials; T comes
                     from the table's rank generating polynomial evaluated as
                     packed integers (width proof at
                     ``enumeration.tutte_polynomial``), not from the
                     component sums.
* nullity route   -- for i >= 3 only: cyclic subgraphs weighted by nullity
                     (edges minus rank), the shortest of the exact sums.
* ``structural``  -- for i <= 6 only: closed forms in vertex, edge, cycle,
                     diamond, clique and bipartite-block counts.

Route agreement on every graph is the library's principal self-check, so the
routes deliberately share nothing beyond the rank table and the census.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import mul

from .census import SubgraphCensus
from .enumeration import RankTable, direct_integrand, min_subgraph_rank
from .errors import RouteDisagreementError
from .exactpoly import IntPolynomial

ROUTE_DIRECT = "direct"
ROUTE_EQ2 = "eq2"
ROUTE_RANK = "rank"
ROUTE_STRUCTURAL = "structural"
ROUTES = (ROUTE_DIRECT, ROUTE_EQ2, ROUTE_RANK, ROUTE_STRUCTURAL)

STRUCTURAL_MAX_INDEX = 6


@lru_cache(maxsize=None)
def _signed_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """``_signed_rows(m)[i][l]`` is (-1)^(i-l) C(m-l, i-l), for l <= i <= m."""
    return tuple(tuple((-1) ** (i - l) * comb(m - l, i - l) for l in range(i + 1)) for i in range(m + 1))


def _alternating_sum(sums: tuple[int, ...], m: int, i: int, start: int) -> int:
    """sum_{l=start}^{i} (-1)^{i-l} C(m-l, m-i) sums[l], which is 0 for i > m.

    The signed C(m-l, m-i) = C(m-l, i-l) are cached per m, and the sum of
    products runs in C.
    """
    if i > m:
        return 0
    return sum(map(mul, _signed_rows(m)[i][start:], sums[start:]))


def coeff_from_component_sums(table: RankTable, i: int) -> int:
    """a_i as the alternating binomial sum over total component counts S_l."""
    if not 0 <= i <= table.m:
        raise ValueError(f"coefficient index {i} out of range 0..{table.m}")
    return _alternating_sum(table.component_sums, table.m, i, 0)


def coeff_from_nullities(table: RankTable, i: int) -> int:
    """a_i for i >= 3 from cyclic subgraphs only, weighted by nullity.

    Subgraphs of full rank drop out of the alternating sum, leaving
    sum over l of (-1)^{i-l} C(m-l, m-i) N_l with N_l = sum_{r < l} k_r^l (l - r).
    """
    if i < 3:
        raise ValueError(f"nullity route is defined for i >= 3, got {i}")
    if i > table.m:
        raise ValueError(f"coefficient index {i} out of range 0..{table.m}")
    return _alternating_sum(table.nullity_sums, table.m, i, 3)


def coeff_structural(census: SubgraphCensus, i: int) -> int:
    """a_i for i <= 6 in terms of graph structure alone.

    For i >= 3 the census must have scanned cycles up to length i.
    """
    if i < 0:
        raise ValueError(f"coefficient index must be nonnegative, got {i}")
    if i > STRUCTURAL_MAX_INDEX:
        raise ValueError(f"no structural formula for i = {i} (defined for i <= 6)")
    if i == 0:
        return census.n
    if i == 1:
        return -census.m
    if i == 2:
        return 0
    if i in (3, 4):
        return census.cycle_count(i)
    if i == 5:
        return census.cycle_count(5) - census.diamonds
    return (
        census.cycle_count(6)
        + 2 * census.k4
        - census.chorded_cycles.get(5, 0)
        - census.k32
    )


def correction_terms(census: SubgraphCensus) -> dict[int, int]:
    """Overcount corrections d_l for l = 3..6 in the cycle-count identity."""
    return {
        3: 0,
        4: 0,
        5: census.diamonds,
        6: census.chorded_plus_edge
        + census.chorded_cycles.get(5, 0)
        + census.k32
        + 4 * census.k4,
    }


def _cycle_sums(census: SubgraphCensus, top: int, *, all_cycles: bool = False) -> tuple[int, ...]:
    """X_l = sum_j c_j C(m-j, l-j) for l = 0..top: cycles plus free edges.

    The inner sum starts at the minimum rank for l edges, or at 3 when
    ``all_cycles`` is set; X_l is 0 for l > m, where no l edges exist.
    """
    m = census.m
    sums = tuple(
        sum(
            census.cycle_count(j) * comb(m - j, l - j)
            for j in range(3 if all_cycles else min_subgraph_rank(l), l + 1)
        )
        for l in range(min(top, m) + 1)
    )
    return sums + (0,) * (top - m)


def check_rank_cycle_correction(table: RankTable, census: SubgraphCensus, l: int) -> bool:
    """Exact check that the nullity-weighted rank-table row matches the census.

    For l in 3..6:  sum_{r < l} k_r^l (l - r)
                    = sum_j c_j C(m-j, m-l) - d_l.

    The census must have scanned cycles up to length l.
    """
    if not 3 <= l <= 6:
        raise ValueError(f"correction identity is stated for l = 3..6, got {l}")
    lhs = table.nullity_sums[l] if l <= table.m else 0
    return lhs == _cycle_sums(census, l)[l] - correction_terms(census)[l]


def cycle_transform_value(census: SubgraphCensus, i: int, *, all_cycles: bool = False) -> int:
    """Alternating binomial transform of cycles-plus-free-edges counts.

    Evaluates sum_{l=3}^i (-1)^{i-l} C(m-l, m-i) sum_j c_j C(m-j, m-l) with
    the inner sum starting at the minimum rank for l edges, or at 3 when
    ``all_cycles`` is set.  The two starts coincide for l <= 6 (where the
    minimum rank is at most 3), so either form provably collapses to c_i for
    i = 3..6; beyond that they diverge and are evaluated as experimental
    evidence only.  Needs cycle counts up to length i.
    """
    if i < 3:
        raise ValueError(f"cycle transform is defined for i >= 3, got {i}")
    return _alternating_sum(_cycle_sums(census, i, all_cycles=all_cycles), census.m, i, 3)


def check_cycle_identities(table: RankTable, census: SubgraphCensus, i: int) -> bool:
    """Conjunction of the two census-side coefficient identities at index i.

    (a) the cycle transform collapses to c_i, and (b) the corrected form
    a_i = c_i - sum_l (-1)^{i-l} C(m-l, m-i) d_l reproduces the nullity route.
    Stated (and asserted) for i = 3..6 only.
    """
    if not 3 <= i <= 6:
        raise ValueError(f"cycle identities are stated for i = 3..6, got {i}")
    m = table.m
    transform_ok = cycle_transform_value(census, i) == census.cycle_count(i)
    d = correction_terms(census)
    corrected = census.cycle_count(i) - _alternating_sum(
        tuple(d.get(l, 0) for l in range(i + 1)), m, i, 3
    )
    return transform_ok and corrected == (coeff_from_nullities(table, i) if i <= m else 0)


def _coefficients_of(p: IntPolynomial, m: int) -> tuple[int, ...]:
    """a_0..a_m of p(t) = -1 + sum_i a_i t^i."""
    return tuple(p.coefficient(i) + (i == 0) for i in range(m + 1))


def integrand(a: tuple[int, ...]) -> IntPolynomial:
    """p(t) = -1 + sum_i a_i t^i from every a_i: the inverse of ``_coefficients_of``."""
    return IntPolynomial((a[0] - 1, *a[1:]))


def all_routes(table: RankTable, census: SubgraphCensus) -> dict[str, tuple[int | None, ...]]:
    """Every route's coefficients a_0..a_m; None where the route is undefined."""
    m = table.m
    structural: list[int | None] = [
        coeff_structural(census, i) for i in range(min(STRUCTURAL_MAX_INDEX, m) + 1)
    ]
    return {
        ROUTE_DIRECT: _coefficients_of(direct_integrand(table), m),
        ROUTE_EQ2: tuple(coeff_from_component_sums(table, i) for i in range(m + 1)),
        ROUTE_RANK: _coefficients_of(table.rank_integrand, m),
        ROUTE_STRUCTURAL: tuple(structural + [None] * (m + 1 - len(structural))),
    }


def route_failures(table: RankTable, routes: dict[str, tuple[int | None, ...]]) -> list[str]:
    """Names of the routes that disagree with ``eq2``; empty when all agree.

    The nullity route (i >= 3) is checked as well even though it is not one of
    the published vectors.
    """
    reference = routes[ROUTE_EQ2]
    failures = [name for name in (ROUTE_DIRECT, ROUTE_RANK) if routes[name] != reference]
    if any(
        routes[ROUTE_STRUCTURAL][i] != reference[i]
        for i in range(min(STRUCTURAL_MAX_INDEX, table.m) + 1)
    ):
        failures.append(ROUTE_STRUCTURAL)
    if any(
        coeff_from_nullities(table, i) != reference[i] for i in range(3, table.m + 1)
    ):
        failures.append("nullity")
    return failures


def verify_route_agreement(
    table: RankTable, census: SubgraphCensus
) -> dict[str, tuple[int | None, ...]]:
    """Compute all routes and insist they agree; returns them on success.

    Disagreement means a bug somewhere, so the error carries every vector for
    inspection.
    """
    routes = all_routes(table, census)
    failures = route_failures(table, routes)
    if failures:
        detail = ", ".join(
            f"{name}={list(a)}" for name, a in sorted(routes.items())
        )
        raise RouteDisagreementError(
            f"coefficient routes disagree ({', '.join(failures)}) "
            f"on n={table.n}, m={table.m}: {detail}"
        )
    return routes
