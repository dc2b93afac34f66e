import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from mstlength import mc
from mstlength.errors import DisconnectedGraphError
from mstlength.graphs import (
    MAX_EDGES,
    Graph,
    bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
)
from mstlength.mc import (
    BLOCK_TRIALS,
    McEstimate,
    _block_ticks,
    _mst_lengths,
    _simulate_blocks,
    compare,
    mst_length_for_weights,
    simulate,
)

from .oracles import mst_length_moments


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


def _generator_weights(seed, block, m):
    """One block's weights as numpy's Generator draws them from the Philox stream."""
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random((BLOCK_TRIALS, m))


@pytest.mark.parametrize("seed", [0, 17, 2**63 - 1, 2**63, 2**64 - 1])
def test_block_ticks_are_the_generator_weights_on_the_lattice(seed):
    # The kernel reads raw words; numpy's Generator converts them to floats
    # itself.  Both must give the same weights, bit for bit, or the stream
    # named by GENERATOR_ID has changed.
    for block in (0, 1, 5):
        ticks = _block_ticks(seed, block, 7)
        assert ticks.dtype == np.uint64 and int(ticks.max()) < 2**53
        weights = ticks * 2**-53
        assert weights.tobytes() == _generator_weights(seed, block, 7).tobytes(), (seed, block)


def test_seeds_outside_64_bits_rejected():
    for seed in (-1, -2, 2**64, 2**64 + 5):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            simulate(complete_graph(3), 10, seed=seed)


def test_seeds_above_2_63_get_their_own_streams():
    g = complete_graph(4)
    a = simulate(g, 2000, seed=2**63 + 1)
    b = simulate(g, 2000, seed=2**63 + 2)
    assert a.mean != b.mean
    assert a.seed == 2**63 + 1 and b.seed == 2**63 + 2


def _reference_lengths(g, seed, first, last):
    """Reference lengths for trials [first, last), from their Philox rows."""
    blocks = {}
    lengths = []
    for t in range(first, last):
        block = t // BLOCK_TRIALS
        if block not in blocks:
            blocks[block] = _generator_weights(seed, block, g.m)
        lengths.append(mst_length_for_weights(g, blocks[block][t % BLOCK_TRIALS].tolist()))
    return lengths


def _exact_estimate(lengths):
    """Mean and stderr of ``lengths`` from exact rationals, each rounded once.

    The variance is the two-pass sum of squared deviations, in integers on
    the 2**-53 lattice: sum((T k_i - K)**2) / (T**2 (T - 1)) * 2**-106.
    """
    trials = len(lengths)
    ks = [x * 2**53 for x in lengths]
    assert all(k.is_integer() for k in ks)
    ks = [int(k) for k in ks]
    total = sum(ks)
    mean = float(Fraction(total, 2**53)) / trials
    if trials == 1:
        return mean, 0.0
    squares = sum((trials * k - total) ** 2 for k in ks)
    variance = Fraction(squares, trials * trials * (trials - 1) * 2**106)
    return mean, math.sqrt(float(variance) / trials)


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
            lengths = _simulate_blocks(g.n, g.edges, seed, first, last)
            expected = _reference_lengths(g, seed, first, last)
            assert [x.hex() for x in lengths] == [x.hex() for x in expected], (g, first, last)

    # The public entry point: one trial, and a run that ends mid-block.
    g = bipartite_graph(3, 2)
    assert simulate(g, 1, seed=seed).mean == _reference_lengths(g, seed, 0, 1)[0]
    trials = BLOCK_TRIALS + 500
    expected = _reference_lengths(g, seed, 0, trials)
    est = simulate(g, trials, seed=seed)
    mean = math.fsum(expected) / trials
    assert est.mean == mean
    assert est.stderr == _exact_estimate(expected)[1]
    assert (est.min_length, est.max_length) == (min(expected), max(expected))


@pytest.mark.parametrize("trials", [1, 2, BLOCK_TRIALS + 1])
@pytest.mark.parametrize("g", [complete_graph(4), cycle_graph(30)], ids=["K4", "C30"])
def test_simulate_statistics_match_the_exact_oracle(g, trials):
    lengths = _reference_lengths(g, 3, 0, trials)
    est = simulate(g, trials, seed=3)
    assert (est.mean, est.stderr) == _exact_estimate(lengths)
    assert (est.min_length, est.max_length) == (min(lengths), max(lengths))


def test_lattice_sum_widths():
    # Three limbs hold the largest k, MAX_EDGES * 2**53, and a slice of
    # _SUM_ROWS products of two limbs cannot wrap an int64 sum.
    assert MAX_EDGES * 2**53 < 2 ** (3 * mc._LIMB_BITS)
    assert mc._SUM_ROWS * (2**mc._LIMB_BITS - 1) ** 2 < 2**63


def test_statistics_exact_at_the_top_of_the_range_across_a_slice(monkeypatch):
    # A 63-edge tree (P_64) with every tick near 2**53 gives lengths near 63,
    # k near 2**59; k = 2**53 - 1 fills both low limbs, the largest limb
    # products.  _SUM_ROWS + 1 of them cross one slice boundary.
    g = path_graph(64)
    assert g.m == MAX_EDGES
    top = np.random.default_rng(9).integers(2**53 - 2**20, 2**53, size=(64, g.m), dtype=np.uint64)
    top[0] = 2**53 - 1
    tree = _mst_lengths(g.n, g.edges, top)
    assert tree.max() <= MAX_EDGES and tree.min() > MAX_EDGES - 1
    lengths = np.resize(np.concatenate([tree, [(2**53 - 1) * 2**-53, 0.0]]), mc._SUM_ROWS + 1)
    ks = [int(x * 2**53) for x in lengths.tolist()]
    assert mc._lattice_sums(lengths) == (sum(ks), sum(k * k for k in ks))

    trials = len(lengths)
    monkeypatch.setattr(mc, "_simulate_blocks", lambda *args: lengths)
    est = simulate(g, trials, seed=0)
    assert (est.mean, est.stderr) == _exact_estimate(lengths.tolist())
    assert est.mean == math.fsum(lengths.tolist()) / trials


REFERENCES = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


@pytest.mark.parametrize(
    "name, g",
    [("K4", complete_graph(4)), ("K8", complete_graph(8)), ("C30", cycle_graph(30))],
)
def test_simulate_matches_committed_benchmark_means(name, g):
    # The benchmark's committed means pin the whole estimate at its default
    # seed, so a kernel that drifts by one ulp fails here, not only there.
    refs = json.loads(REFERENCES.read_text("ascii"))["mc"]
    assert refs["generator_id"] == mc.GENERATOR_ID
    est = simulate(g, refs["trials"], refs["default_seed"])
    assert est.mean == refs["means"][name]


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
    # Ticks on multiples of 2**50 are weights on multiples of 1/8 and tie
    # often; the sorted keys must still give every row the reference's
    # length, bit for bit.  On a disconnected graph no row gets n - 1 tree
    # edges and both give the spanning forest.
    ticks = np.random.default_rng(3).integers(0, 8, size=(2000, g.m), dtype=np.uint64) << 50
    weights = ticks * 2**-53
    lengths = _mst_lengths(g.n, g.edges, ticks.copy())
    assert lengths.tolist() == [mst_length_for_weights(g, row.tolist()) for row in weights]


def test_kernel_key_width_at_the_edge_limit():
    # 63 edges (K_11 and an 8-edge pendant path) fill the 6 index bits, and
    # ticks 0 and 2**53 - 1 fill the tick bits; ties fall on a few lattice
    # points, so rows rank many equal weights by edge index.
    k11 = complete_graph(11)
    g = Graph(19, k11.edges + tuple((v, v + 1) for v in range(10, 18)))
    assert g.m == MAX_EDGES and is_connected(g)
    points = np.array([0, 1, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    ticks = np.random.default_rng(11).choice(points, size=(1500, g.m))
    ticks[0] = 0
    ticks[1] = 2**53 - 1
    lengths = _mst_lengths(g.n, g.edges, ticks.copy())
    expected = [mst_length_for_weights(g, (row * 2**-53).tolist()) for row in ticks]
    assert lengths.tolist() == expected
    assert lengths[0] == 0.0


def _k4_and_path(n: int, path_start: int, path_edges: int) -> Graph:
    """K_4 on vertices 256..259 and a path from path_start, on n vertices."""
    k4 = tuple((256 + u, 256 + v) for u, v in complete_graph(4).edges)
    path = tuple((v, v + 1) for v in range(path_start, path_start + path_edges))
    return Graph(n, k4 + path)


@pytest.mark.parametrize(
    "g",
    [
        path_graph(64),
        Graph(126, tuple((2 * i, 2 * i + 1) for i in range(MAX_EDGES))),
        _k4_and_path(300, 260, 39),
        _k4_and_path(600, 512, 10),
    ],
    ids=["P64", "matching63", "K4+path-300", "K4+path-600"],
)
def test_kernel_labels_fit_every_graph(g):
    # Only edge endpoints are labelled: P_64's labels reach 63, and a 63-edge
    # matching's reach 125, the most any graph has.  The other two are
    # disconnected graphs with every endpoint above 255.  In the 600-vertex
    # one the K_4 and the path start 256 apart, so int8 labels indexed by
    # vertex number would give vertices 256 and 512 the same label and see
    # the path's first edges as loops.
    ticks = np.random.default_rng(5).integers(0, 8, size=(1000, g.m), dtype=np.uint64) << 50
    lengths = _mst_lengths(g.n, g.edges, ticks.copy())
    expected = [mst_length_for_weights(g, (row * 2**-53).tolist()) for row in ticks]
    assert lengths.tolist() == expected


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


@pytest.mark.parametrize(
    "g", [complete_graph(4), bipartite_graph(3, 2), cycle_graph(5), path_graph(4)],
    ids=["K_4", "K_{3,2}", "C_5", "P_4"],
)
def test_stderr_estimates_the_exact_variance(g):
    # stderr^2 * trials is the sample variance, within 1.1-2.6% of the exact
    # Var[L] at this seed
    est = simulate(g, 16384, seed=0)
    variance = mst_length_moments(g)[1]
    assert est.stderr**2 * est.trials == pytest.approx(float(variance), rel=0.05)


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


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
def test_compare_refuses_a_threshold_that_is_not_finite_and_positive(threshold):
    with pytest.raises(ValueError, match="finite and > 0"):
        compare(Fraction(1, 2), McEstimate(10, 0, 0.5, 0.1, 0.1, 0.9), threshold)


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
