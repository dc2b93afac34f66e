import math
from fractions import Fraction

import numpy as np
import pytest

from mstlength import mc
from mstlength.errors import DisconnectedGraphError
from mstlength.graphs import Graph, bipartite_graph, complete_graph, cycle_graph, path_graph
from mstlength.mc import (
    BLOCK_TRIALS,
    McEstimate,
    _block_weights,
    _mst_lengths,
    _simulate_blocks,
    compare,
    mst_length_for_weights,
    simulate,
)


def test_determinism_same_inputs():
    a = simulate(complete_graph(4), 5000, seed=99)
    b = simulate(complete_graph(4), 5000, seed=99)
    assert a == b


def test_determinism_across_worker_counts():
    for trials in (BLOCK_TRIALS - 1, BLOCK_TRIALS, 3 * BLOCK_TRIALS + 17):
        serial = simulate(bipartite_graph(3, 2), trials, seed=5, threads=1)
        parallel = simulate(bipartite_graph(3, 2), trials, seed=5, threads=3)
        assert serial == parallel


@pytest.mark.parametrize(
    "cpus, blocks, expected",
    [(4, 3, [3]), (4, 8, [4]), (2, 8, [2]), (1, 8, []), (None, 8, [])],
)
def test_worker_count_clamped_to_blocks_and_cpus(recording_pool, cpus, blocks, expected):
    created = recording_pool(mc, cpus)
    g = bipartite_graph(3, 2)
    trials = blocks * BLOCK_TRIALS
    clamped = simulate(g, trials, seed=5, threads=10**6)
    assert created == expected
    assert clamped == simulate(g, trials, seed=5, threads=1)


@pytest.mark.parametrize("threads", [0, -5])
def test_worker_count_below_one_rejected(recording_pool, threads):
    created = recording_pool(mc, 4)
    with pytest.raises(ValueError, match="threads"):
        simulate(bipartite_graph(3, 2), 3 * BLOCK_TRIALS, seed=5, threads=threads)
    assert created == []


def test_different_seeds_differ():
    a = simulate(complete_graph(4), 2000, seed=1)
    b = simulate(complete_graph(4), 2000, seed=2)
    assert a.mean != b.mean


def test_tree_lengths_are_total_weight():
    est = simulate(path_graph(4), 20000, seed=8)
    # three uniform weights: support (0, 3), mean 1.5
    assert 0 < est.min_length < est.max_length < 3
    assert abs(est.mean - 1.5) < 5 * est.stderr


def test_single_edge_concentration():
    est = simulate(complete_graph(2), 100_000, seed=123)
    verdict = compare(Fraction(1, 2), est)
    assert verdict.passed and verdict.z < 4


def test_mean_within_bounds():
    est = simulate(complete_graph(4), 1000, seed=0)
    assert 0 <= est.min_length <= est.mean <= est.max_length <= 3


def test_edge_order_invariance_per_assignment():
    # Same weight-to-edge assignment, permuted edge list: identical length.
    rng = __import__("random").Random(31)
    g = complete_graph(4)
    perm = list(range(g.m))
    rng.shuffle(perm)
    shuffled = Graph(4, tuple(g.edges[e] for e in perm))
    for _ in range(50):
        weights = [rng.random() for _ in range(g.m)]
        permuted_weights = [weights[perm[j]] for j in range(g.m)]
        assert mst_length_for_weights(g, weights) == mst_length_for_weights(
            shuffled, permuted_weights
        )


def _reference_lengths(g, seed, first, last):
    """Reference lengths for trials [first, last), from their Philox rows."""
    blocks = {}
    lengths = []
    for t in range(first, last):
        block = t // BLOCK_TRIALS
        if block not in blocks:
            blocks[block] = _block_weights(seed, block, g.m)
        lengths.append(mst_length_for_weights(g, blocks[block][t % BLOCK_TRIALS].tolist()))
    return lengths


def test_simulate_matches_reference_per_trial():
    # Single trials, a whole block, and a range that starts mid-block and
    # crosses into the next one: every length bit for bit as the reference.
    seed = 17
    graphs = [
        complete_graph(2),
        path_graph(5),
        cycle_graph(30),
        complete_graph(8),
        bipartite_graph(3, 2),
    ]
    ranges = [(0, 1), (0, BLOCK_TRIALS), (BLOCK_TRIALS - 300, BLOCK_TRIALS + 500)]
    for g in graphs:
        for first, last in ranges:
            lengths = _simulate_blocks(g.n, g.edges, seed, first // BLOCK_TRIALS, first, last)
            expected = _reference_lengths(g, seed, first, last)
            assert [x.hex() for x in lengths] == [x.hex() for x in expected], (g, first, last)

    # The public entry point: one trial, and a run that ends mid-block.
    g = bipartite_graph(3, 2)
    assert simulate(g, 1, seed=seed).mean == _reference_lengths(g, seed, 0, 1)[0]
    trials = BLOCK_TRIALS + 500
    expected = _reference_lengths(g, seed, 0, trials)
    est = simulate(g, trials, seed=seed)
    assert est.mean == math.fsum(expected) / trials
    assert (est.min_length, est.max_length) == (min(expected), max(expected))


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(4),
        bipartite_graph(3, 2),
        cycle_graph(6),
        Graph(5, ((0, 1), (0, 2), (1, 2), (3, 4))),
    ],
    ids=["K4", "K32", "C6", "forest"],
)
def test_kernel_matches_reference_under_ties(g):
    # Weights on multiples of 1/8 tie often; the stable argsort must still
    # give every row the reference's length, bit for bit.  On a disconnected
    # graph no row gets n - 1 tree edges and both give the spanning forest.
    weights = np.random.default_rng(3).integers(0, 8, size=(2000, g.m)) / 8
    lengths = _mst_lengths(g.n, g.edges, weights)
    assert lengths.tolist() == [mst_length_for_weights(g, row.tolist()) for row in weights]


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        simulate(Graph(4, ((0, 1), (2, 3))), 10, seed=0)


def test_trials_validation():
    with pytest.raises(ValueError):
        simulate(complete_graph(3), 0, seed=0)


def test_single_trial_stderr_zero():
    est = simulate(complete_graph(3), 1, seed=0)
    assert est.stderr == 0.0
    assert est.min_length == est.max_length == est.mean


def test_compare_verdicts():
    passing = compare(Fraction(1, 2), McEstimate(10, 0, 0.5003, 0.0003, 0.1, 0.9))
    assert passing.z == pytest.approx(1.0) and passing.passed
    failing = compare(Fraction(51, 35), McEstimate(10, 0, 1.30, 0.001, 1.0, 2.0))
    assert failing.z > 4 and not failing.passed


def test_compare_zero_stderr():
    exact = compare(Fraction(1, 2), McEstimate(1, 0, 0.5, 0.0, 0.5, 0.5))
    assert exact.passed and exact.z == 0.0
    off = compare(Fraction(1, 2), McEstimate(1, 0, 0.75, 0.0, 0.75, 0.75))
    assert not off.passed and math.isinf(off.z)


def test_json_record():
    est = simulate(complete_graph(3), 100, seed=4)
    record = est.to_json_dict()
    assert record["trials"] == 100 and record["seed"] == 4
    assert "philox" in record["generator_id"]
    verdict = compare(Fraction(3, 4), est)
    assert set(verdict.to_json_dict()) == {
        "exact_num",
        "exact_den",
        "z_vs_exact",
        "threshold",
        "pass",
    }
