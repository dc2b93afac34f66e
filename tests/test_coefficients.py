import pytest
from hypothesis import given, settings

from mstlength.census import build_census
from mstlength.coefficients import (
    CycleTransformReport,
    all_routes,
    check_cycle_identities,
    coeff_from_component_sums,
    coeff_from_nullities,
    coeff_structural,
    correction_terms,
    cycle_transform_report,
    verify_route_agreement,
)
from mstlength.enumeration import build_rank_table, direct_integrand, tutte_integrand
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
    assert tutte_integrand(build_rank_table(k3)).coefficient(3) == 1
    c4 = cycle_graph(4)
    assert tutte_integrand(build_rank_table(c4)).coefficient(4) == 1
    assert tutte_integrand(build_rank_table(c4)).coefficient(2) == 0


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
    assert coeff_structural(g, census, 3) == 0
    assert coeff_structural(g, census, 6) == -1
    k4 = complete_graph(4)
    assert coeff_structural(k4, build_census(k4), 6) == 2
    tree = path_graph(6)
    tree_census = build_census(tree)
    assert all(coeff_structural(tree, tree_census, i) == 0 for i in range(3, 7))
    with pytest.raises(ValueError):
        coeff_structural(g, census, 7)


def test_correction_terms():
    assert correction_terms(build_census(bipartite_graph(3, 2))) == {3: 0, 4: 0, 5: 0, 6: 1}
    assert correction_terms(build_census(complete_graph(4))) == {3: 0, 4: 0, 5: 6, 6: 4}
    # chord-free 4-cycles everywhere: only the K_{3,2} blocks contribute
    assert correction_terms(build_census(bipartite_graph(4, 4))) == {3: 0, 4: 0, 5: 0, 6: 48}
    # no short cycles at all
    assert correction_terms(build_census(path_graph(7))) == {3: 0, 4: 0, 5: 0, 6: 0}


def test_cycle_identity_examples(k32):
    g, table, census = k32
    assert check_cycle_identities(g, table, census, 6)
    k4 = complete_graph(4)
    assert check_cycle_identities(k4, build_rank_table(k4), build_census(k4), 5)
    k3 = complete_graph(3)
    assert check_cycle_identities(k3, build_rank_table(k3), build_census(k3), 3)


def test_cycle_transform_experimental_reports_only():
    # On the plain 7-cycle both readings trivially reproduce c_7.
    c7 = cycle_graph(7)
    report = cycle_transform_report(build_census(c7, max_cycle_len=7), c7.m, 7)
    assert isinstance(report, CycleTransformReport)
    assert report.matches and report.matches_all_cycles and report.cycle_count == 1

    # On K_7 the literal minimum-rank reading does NOT extend (it drops the
    # triangles at l = 7), while the all-cycles reading does; the report
    # records both without failing anything.  Values pinned for regression.
    k7 = complete_graph(7)
    report = cycle_transform_report(build_census(k7, max_cycle_len=7), k7.m, 7)
    assert not report.matches
    assert report.matches_all_cycles
    assert (report.transform, report.transform_all_cycles, report.cycle_count) == (
        -106740,
        360,
        360,
    )


def test_cycle_transform_readings_agree_up_to_six():
    for g in (complete_graph(6), bipartite_graph(3, 3), cycle_graph(6)):
        census = build_census(g)
        for i in range(3, 7):
            report = cycle_transform_report(census, g.m, i)
            assert report.transform == report.transform_all_cycles


def test_all_routes_k32(k32):
    g, table, census = k32
    routes = all_routes(g, table, census)
    expected = (5, -6, 0, 0, 3, 0, -1)
    assert routes["direct"].a == expected
    assert routes["eq2"].a == expected
    assert routes["rank"].a == expected
    assert routes["structural"].a == expected


def test_structural_vector_has_nulls_beyond_six():
    g = complete_graph(5)
    routes = all_routes(g, build_rank_table(g), build_census(g))
    assert routes["structural"].a[6] is not None
    assert all(v is None for v in routes["structural"].a[7:])
    assert len(routes["structural"].a) == g.m + 1


@settings(max_examples=40, deadline=None)
@given(connected_graphs(max_n=7, max_m=16))
def test_route_agreement_random(g):
    table = build_rank_table(g)
    census = build_census(g)
    routes = verify_route_agreement(g, table, census)
    a = routes["eq2"].a
    assert a[0] == g.n
    assert a[1] == -g.m
    if g.m >= 2:
        assert a[2] == 0
    assert sum(v for v in a) == 1  # equivalent to p(1) = 0
    poly = direct_integrand(g, table)
    assert all(poly.coefficient(i) == a[i] for i in range(1, g.m + 1))


def test_route_disagreement_is_loud(k32):
    g, table, census = k32
    corrupted = type(table)(table.n, table.m, {**table.counts, (3, 2): 40})
    with pytest.raises(RouteDisagreementError, match="disagree") as excinfo:
        verify_route_agreement(g, corrupted, census)
    named = str(excinfo.value).split("(", 1)[1].split(")", 1)[0].split(", ")
    assert "rank" in named
