"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from mstlength.census import build_census
from mstlength.cli import main
from mstlength.coefficients import verify_route_agreement
from mstlength.enumeration import (
    build_rank_table,
    check_hyperbola_identities,
    check_integrand_ratio,
    direct_integrand,
)
from mstlength.exactpoly import IntPolynomial, binomial
from mstlength.expectation import (
    ZETA3,
    expected_mst_length,
    factor_out_unity_root,
    kn_coefficient,
    kn_table,
)
from mstlength.graphs import (
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from mstlength.mc import compare, simulate

SWEEP_SEED = 20260808
HYPERBOLA_POINTS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5))


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _random_connected_graph(rng: random.Random, min_n=3, max_n=7, max_m=18) -> Graph:
    n = rng.randint(min_n, max_n)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    pool = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(pool)
    budget = min(len(pool), max_m - len(edges))
    edges.update(pool[: rng.randint(0, budget)])
    return Graph(n, tuple(sorted(edges)))


def _generator_corpus() -> list[Graph]:
    graphs = [complete_graph(n) for n in range(2, 8)]
    graphs += [bipartite_graph(a, b) for a in range(1, 5) for b in range(1, 4)]
    graphs += [cycle_graph(n) for n in range(3, 11)]
    graphs += [path_graph(n) for n in range(2, 11)]
    return graphs


@pytest.fixture(scope="module")
def sweep():
    rng = random.Random(SWEEP_SEED)
    graphs = [_random_connected_graph(rng) for _ in range(200)] + _generator_corpus()
    return [(g, build_rank_table(g), build_census(g)) for g in graphs]


def test_criterion_1_k32_reproduction(capsys):
    started = time.monotonic()
    code = main(["compute", "--gen", "bipartite", "3", "2"])
    elapsed = time.monotonic() - started
    payload = json.loads(capsys.readouterr().out)
    ok = (
        code == 0
        and payload["p"] == [4, -6, 0, 0, 3, 0, -1]
        and payload["a"]["eq2"] == [5, -6, 0, 0, 3, 0, -1]
        and (payload["expectation"]["num"], payload["expectation"]["den"]) == ("51", "35")
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(1, ok, f"K_{{3,2}}: p=[4,-6,0,0,3,0,-1], E=51/35 in {elapsed:.3f}s")


def test_criterion_2_route_equivalence_sweep(sweep):
    started = time.monotonic()
    checked = 0
    for g, table, census in sweep:
        routes = verify_route_agreement(g, table, census)  # raises on any mismatch
        a = routes["eq2"].a
        assert a[0] == g.n and a[1] == -g.m
        if g.m >= 2:
            assert a[2] == 0
        checked += 1
    elapsed = time.monotonic() - started
    ok = checked == len(sweep) and elapsed < 120.0
    _report(2, ok, f"all 5 routes agree on {checked} graphs in {elapsed:.1f}s (< 2 min)")


def test_criterion_3_hyperbola_and_ratio_identities():
    rng = random.Random(SWEEP_SEED + 1)
    started = time.monotonic()
    for _ in range(50):
        g = _random_connected_graph(rng, max_m=16)
        table = build_rank_table(g)
        for t in HYPERBOLA_POINTS:
            assert check_hyperbola_identities(table, t) == (True, True)
            assert check_integrand_ratio(table, t)
    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    _report(3, ok, f"closed-form/partial/ratio identities exact at 3 points x 50 graphs in {elapsed:.1f}s")


def test_criterion_4_rank_cycle_correction(sweep):
    from mstlength.coefficients import check_rank_cycle_correction

    for g, table, census in sweep:
        for l in range(3, 7):
            assert check_rank_cycle_correction(table, census, l), (g.n, g.edges, l)
        assert census.diamonds == table.counts.get((5, 3), 0), (g.n, g.edges)
    _report(4, True, f"nullity-row identity (l=3..6) and diamond cell exact on {len(sweep)} graphs")


def test_criterion_5_complete_graph_closed_forms():
    import math

    started = time.monotonic()
    for n in range(2, 8):
        g = complete_graph(n)
        result = expected_mst_length(g)
        for i in range(7):
            enumerated = result.routes["eq2"].a[i] if i <= g.m else 0
            assert kn_coefficient(n, i) == enumerated, (n, i)
        census = build_census(g)
        for j in range(3, min(6, n) + 1):
            assert census.cycles[j] == math.comb(n, j) * math.factorial(j - 1) // 2
        assert census.chorded_cycles[5] == 5 * census.cycle_count(5)
        assert census.diamonds == 2 * census.cycle_count(4)
        assert census.k4 == math.comb(n, 4)
        assert census.k32 == math.comb(n, 5) * math.comb(5, 2)
    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    _report(5, ok, f"K_n closed forms (coefficients + census) exact for n=2..7 in {elapsed:.1f}s")


def test_criterion_6_factorization():
    for n in range(2, 8):
        p = direct_integrand(build_rank_table(complete_graph(n)))
        q = factor_out_unity_root(p, n)
        assert q.degree <= binomial(n - 1, 2), n
        assert q * IntPolynomial((1, -1)) ** (n - 1) == p, n
    _report(6, True, "(1-t)^(n-1) divides p(K_n) exactly, deg q <= C(n-1,2), n=2..7")


def test_criterion_7_boundary_values(sweep):
    for g, table, _ in sweep:
        p = direct_integrand(table)
        assert p.evaluate(0) == g.n - 1, g.edges
        assert p.evaluate(1) == 0, g.edges
        for j in range(1, 10):
            assert p.evaluate(Fraction(j, 10)) >= 0, (g.edges, j)
    _report(7, True, f"p(0)=n-1, p(1)=0, p(j/10)>=0 on {len(sweep)} graphs")


def test_criterion_8_analytic_oracles():
    # values frozen from the rank-ordering oracle (scripts/small_graph_oracle.py)
    for n in range(2, 11):
        assert expected_mst_length(path_graph(n)).expectation == Fraction(n - 1, 2), n
    star = Graph(7, tuple((0, i) for i in range(1, 7)))
    assert expected_mst_length(star).expectation == Fraction(3)
    cases = [
        (cycle_graph(4), Fraction(6, 5)),
        (cycle_graph(5), Fraction(5, 3)),
        (complete_graph(3), Fraction(3, 4)),
        (complete_graph(4), Fraction(31, 35)),
    ]
    for g, expected in cases:
        assert expected_mst_length(g).expectation == expected
    _report(8, True, "trees=(n-1)/2 (n=2..10), C4=6/5, C5=5/3, K3=3/4, K4=31/35, all exact")


def test_criterion_9_monte_carlo_concordance():
    started = time.monotonic()
    trials = 1_000_000
    k4, k32 = complete_graph(4), bipartite_graph(3, 2)
    est_k4 = simulate(k4, trials, seed=SWEEP_SEED)
    est_k32 = simulate(k32, trials, seed=SWEEP_SEED)
    verdict_k4 = compare(Fraction(31, 35), est_k4)
    verdict_k32 = compare(Fraction(51, 35), est_k32)
    est_k4_parallel = simulate(k4, trials, seed=SWEEP_SEED, threads=3)
    elapsed = time.monotonic() - started
    ok = (
        verdict_k4.passed
        and verdict_k32.passed
        and est_k4_parallel == est_k4
        and elapsed < 30.0
    )
    _report(
        9,
        ok,
        f"1e6 trials: z(K4)={verdict_k4.z:.2f}, z(K32)={verdict_k32.z:.2f} (<4), "
        f"1-vs-3-worker runs bit-identical, {elapsed:.1f}s",
    )


def test_criterion_10_kn_table_to_8():
    started = time.monotonic()
    rows = kn_table(8)
    elapsed = time.monotonic() - started
    assert [row.n for row in rows] == list(range(2, 9))
    below_limit = all(row.expectation < ZETA3 for row in rows)
    increasing = all(row.increasing for row in rows if row.increasing is not None)
    concave = all(row.concave for row in rows if row.concave is not None)
    # the monotone/concave conjecture is reported, never asserted:
    print(
        f"ACCEPTANCE 10 report: first differences positive: {increasing}; "
        f"second differences negative: {concave} (conjecture, not asserted)"
    )
    for row in rows:
        print(
            f"  n={row.n}: E = {row.expectation} = {float(row.expectation):.7f}"
            + ("" if row.delta is None else f", delta = {float(row.delta):+.7f}")
        )
    ok = below_limit and elapsed < 300.0
    _report(10, ok, f"n=2..8 exact, all below zeta(3)=1.2020569, in {elapsed:.1f}s (< 5 min)")
