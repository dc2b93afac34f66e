import pytest
from hypothesis import given, settings

from mstlength.census import build_census
from mstlength.coefficients import (
    all_routes,
    check_cycle_identities,
    check_rank_cycle_correction,
    coeff_from_component_sums,
    coeff_from_nullities,
    coeff_structural,
    correction_terms,
    cycle_transform_value,
    verify_route_agreement,
)
from mstlength.enumeration import build_rank_table, direct_integrand
from mstlength.errors import RouteDisagreementError
from mstlength.graphs import bipartite_graph, complete_graph, cycle_graph, path_graph

from .strategies import connected_graphs


@pytest.fixture(scope="module")
def k32():
    g = bipartite_graph(3, 2)
    return g, build_rank_table(g), build_census(g)


def test_component_sum_route_k32(k32):
    g, table, _ = k32
    assert coeff_from_component_sums(table, 0) == 5
    assert coeff_from_component_sums(table, 1) == -6
    assert coeff_from_component_sums(table, 6) == -1


def test_rank_route_examples():
    k3 = complete_graph(3)
    assert build_rank_table(k3).rank_integrand.coefficient(3) == 1
    c4 = cycle_graph(4)
    assert build_rank_table(c4).rank_integrand.coefficient(4) == 1
    assert build_rank_table(c4).rank_integrand.coefficient(2) == 0


def test_nullity_route_examples(k32):
    g, table, _ = k32
    assert coeff_from_nullities(table, 4) == 3
    assert coeff_from_nullities(table, 5) == 0
    k4_table = build_rank_table(complete_graph(4))
    assert coeff_from_nullities(k4_table, 5) == -6
    with pytest.raises(ValueError):
        coeff_from_nullities(table, 2)


def test_structural_route_examples(k32):
    g, _, census = k32
    assert coeff_structural(census, 3) == 0
    assert coeff_structural(census, 6) == -1
    k4 = complete_graph(4)
    assert coeff_structural(build_census(k4), 6) == 2
    tree = path_graph(6)
    tree_census = build_census(tree)
    assert all(coeff_structural(tree_census, i) == 0 for i in range(3, 7))
    with pytest.raises(ValueError):
        coeff_structural(census, 7)


def test_census_scanned_below_six_is_refused_not_read_as_zeros():
    # K_5 has twelve 5-cycles.  A census scanned to length 4 would read c5 as
    # 0, so a_5 and the l = 5 identity are refused, not reported as a route
    # disagreement or a failed identity.  The l = 6 identity reads c5 first.
    g = complete_graph(5)
    table, census = build_rank_table(g), build_census(g, max_cycle_len=4)
    assert [coeff_structural(census, i) for i in (3, 4)] == [10, 15]
    assert check_rank_cycle_correction(table, census, 4)
    for i in (5, 6):
        with pytest.raises(ValueError, match=f"^c{i} needs cycle counts up to {i}, census scanned up to 4$"):
            coeff_structural(census, i)
        with pytest.raises(ValueError, match="^c5 needs cycle counts up to 5, census scanned up to 4$"):
            check_rank_cycle_correction(table, census, i)
    with pytest.raises(ValueError, match="census scanned up to 4"):
        verify_route_agreement(table, census)


def test_correction_terms():
    assert correction_terms(build_census(bipartite_graph(3, 2))) == {3: 0, 4: 0, 5: 0, 6: 1}
    assert correction_terms(build_census(complete_graph(4))) == {3: 0, 4: 0, 5: 6, 6: 4}
    # chord-free 4-cycles everywhere: only the K_{3,2} blocks contribute
    assert correction_terms(build_census(bipartite_graph(4, 4))) == {3: 0, 4: 0, 5: 0, 6: 48}
    # no short cycles at all
    assert correction_terms(build_census(path_graph(7))) == {3: 0, 4: 0, 5: 0, 6: 0}


def test_cycle_identity_examples(k32):
    g, table, census = k32
    assert check_cycle_identities(table, census, 6)
    k4 = complete_graph(4)
    assert check_cycle_identities(build_rank_table(k4), build_census(k4), 5)
    k3 = complete_graph(3)
    assert check_cycle_identities(build_rank_table(k3), build_census(k3), 3)


def test_cycle_transform_experimental_reports_only():
    # On the plain 7-cycle both readings trivially reproduce c_7.
    census = build_census(cycle_graph(7), max_cycle_len=7)
    assert census.cycle_count(7) == 1
    assert cycle_transform_value(census, 7) == 1
    assert cycle_transform_value(census, 7, all_cycles=True) == 1

    # On K_7 the literal minimum-rank reading does NOT extend (it drops the
    # triangles at l = 7), while the all-cycles reading does; nothing is
    # asserted in the library.  Values pinned for regression.
    census = build_census(complete_graph(7), max_cycle_len=7)
    assert (
        cycle_transform_value(census, 7),
        cycle_transform_value(census, 7, all_cycles=True),
        census.cycle_count(7),
    ) == (-106740, 360, 360)


def test_cycle_transform_readings_agree_up_to_six():
    for g in (complete_graph(6), bipartite_graph(3, 3), cycle_graph(6)):
        census = build_census(g)
        for i in range(3, 7):
            assert cycle_transform_value(census, i) == cycle_transform_value(
                census, i, all_cycles=True
            )


def test_all_routes_k32(k32):
    g, table, census = k32
    routes = all_routes(table, census)
    expected = (5, -6, 0, 0, 3, 0, -1)
    assert routes["direct"] == expected
    assert routes["eq2"] == expected
    assert routes["rank"] == expected
    assert routes["structural"] == expected


def test_structural_vector_has_nulls_beyond_six():
    g = complete_graph(5)
    routes = all_routes(build_rank_table(g), build_census(g))
    assert routes["structural"][6] is not None
    assert all(v is None for v in routes["structural"][7:])
    assert len(routes["structural"]) == g.m + 1


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=7, max_m=16))
def test_route_agreement_random(g):
    table = build_rank_table(g)
    census = build_census(g)
    routes = verify_route_agreement(table, census)
    a = routes["eq2"]
    assert a[0] == g.n
    assert a[1] == -g.m
    if g.m >= 2:
        assert a[2] == 0
    assert sum(v for v in a) == 1  # equivalent to p(1) = 0
    poly = direct_integrand(table)
    assert all(poly.coefficient(i) == a[i] for i in range(1, g.m + 1))


def test_route_disagreement_is_loud(k32):
    g, table, census = k32
    corrupted = type(table)(table.n, table.m, {**table.counts, (3, 2): 40})
    with pytest.raises(RouteDisagreementError, match="disagree") as excinfo:
        verify_route_agreement(corrupted, census)
    named = str(excinfo.value).split("(", 1)[1].split(")", 1)[0].split(", ")
    assert "rank" in named
