"""Exact expected minimum-spanning-tree length under uniform edge weights.

Builds the integrand polynomial of the Tutte-polynomial integral formula for
E[L(G)] through several independent routes, cross-verifies them exactly, and
ships a seeded Monte Carlo oracle for statistical confirmation.
"""

from .census import SubgraphCensus, build_census, count_cycles
from .coefficients import (
    ROUTES,
    all_routes,
    check_cycle_identities,
    check_rank_cycle_correction,
    coeff_from_component_sums,
    coeff_from_nullities,
    coeff_structural,
    correction_terms,
    verify_route_agreement,
)
from .enumeration import (
    RankTable,
    build_rank_table,
    check_hyperbola_identities,
    check_integrand_ratio,
    direct_integrand,
    min_subgraph_rank,
    tutte_polynomial,
)
from .errors import (
    DisconnectedGraphError,
    EnumerationCapError,
    GraphConstructionError,
    GraphParseError,
    InexactDivisionError,
    MstLengthError,
    RouteDisagreementError,
)
from .exactpoly import IntPolynomial, binomial, decimal_string
from .expectation import (
    DEFAULT_EDGE_CAP,
    KnRow,
    MstExpectation,
    ZETA3,
    expected_mst_length,
    factor_out_unity_root,
    kn_coefficient,
    kn_table,
)
from .graphs import (
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
from .mc import McComparison, McEstimate, compare, mst_length_for_weights, simulate

__version__ = "0.1.0"
