import json
import math
import os
import pathlib
import subprocess
import sys
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
    _block_sums,
    _block_ticks,
    _mst_lengths,
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
    [(4, 3, [3]), (4, 8, [4]), (2, 8, [2]), (1, 8, []), (None, 8, []), (3, 8, [3])],
)
def test_worker_count_clamped_to_blocks_and_cpus(recording_pool, cpus, blocks, expected):
    pool = recording_pool(cpus)
    g = bipartite_graph(3, 2)
    trials = blocks * BLOCK_TRIALS
    clamped = simulate(g, trials, seed=5, threads=10**6)
    assert pool.workers == expected
    # each worker is handed one contiguous run of blocks: 8 blocks over 3
    # workers go in runs of 3, 3 and 2
    assert pool.chunksizes == [-(-blocks // workers) for workers in expected]
    assert clamped == simulate(g, trials, seed=5, threads=1)


@pytest.mark.parametrize("threads", [0, -5])
def test_worker_count_below_one_rejected(recording_pool, threads):
    pool = recording_pool(4)
    with pytest.raises(ValueError, match="threads"):
        simulate(bipartite_graph(3, 2), 3 * BLOCK_TRIALS, seed=5, threads=threads)
    assert pool.workers == pool.chunksizes == []


def test_importing_the_package_leaves_multiprocessing_unloaded():
    # Only a pool of more than one worker needs it, and it is slow to import.
    src = pathlib.Path(mc.__file__).resolve().parent.parent
    code = "import sys, mstlength; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
        ticks = _block_ticks(seed, block, 7, BLOCK_TRIALS)
        assert ticks.dtype == np.uint64 and int(ticks.max()) < 2**53
        weights = ticks * 2**-53
        assert weights.tobytes() == _generator_weights(seed, block, 7).tobytes(), (seed, block)


@pytest.mark.parametrize("seed", [0, 3, 2**63 + 1])
def test_a_partial_block_draws_the_generator_first_rows(seed):
    # a short run draws only its rows, and they are the whole block's first rows
    weights = _generator_weights(seed, 2, 9)
    for rows in (1, 17, BLOCK_TRIALS - 1):
        part = _block_ticks(seed, 2, 9, rows)
        assert part.shape == (rows, 9)
        assert (part * 2**-53).tobytes() == weights[:rows].tobytes(), (seed, rows)


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
    # A whole block, and the first row and the first 500 rows of a block, as
    # a last block that a run ends in: every length bit for bit as the
    # reference, and the block's sums exact.
    seed = 17
    graphs = [
        complete_graph(2),
        path_graph(5),
        cycle_graph(30),
        complete_graph(8),
        bipartite_graph(3, 2),
    ]
    for g in graphs:
        for block, rows in [(0, BLOCK_TRIALS), (0, 1), (1, 500)]:
            first = block * BLOCK_TRIALS
            lengths = _mst_lengths(g.n, g.edges, _block_ticks(seed, block, g.m, rows))
            expected = _reference_lengths(g, seed, first, first + rows)
            assert [x.hex() for x in lengths] == [x.hex() for x in expected], (g, block, rows)
            ks = [int(x * 2**53) for x in expected]
            sums = (sum(ks), sum(k * k for k in ks), min(expected), max(expected))
            assert _block_sums(g.n, g.edges, seed, first + rows, block) == sums, (g, block, rows)

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
    # Three limbs hold the largest k, MAX_EDGES * 2**53, and a block of
    # BLOCK_TRIALS products of two limbs cannot wrap an int64 sum.
    assert MAX_EDGES * 2**53 < 2 ** (3 * mc._LIMB_BITS)
    assert BLOCK_TRIALS * (2**mc._LIMB_BITS - 1) ** 2 < 2**63


def test_statistics_exact_at_the_top_of_the_range_across_a_slice(monkeypatch):
    # A 63-edge tree (P_64) with every tick near 2**53 gives lengths near 63,
    # k near 2**59; a row with one tick 2**53 - 1 and the rest 0 gives
    # k = 2**53 - 1, which fills both low limbs, the largest limb products.
    # Every block is summed apart: two whole blocks and one trial of a third.
    g = path_graph(64)
    assert g.m == MAX_EDGES

    def top_ticks(seed, block, m, rows):
        rng = np.random.default_rng(block)
        ticks = rng.integers(2**53 - 2**20, 2**53, size=(BLOCK_TRIALS, m), dtype=np.uint64)
        ticks[0] = 2**53 - 1
        ticks[1:3] = 0
        ticks[1, block] = 2**53 - 1
        return ticks[:rows]

    runs = [(0, BLOCK_TRIALS), (1, BLOCK_TRIALS), (2, 1)]
    lengths = np.concatenate([_mst_lengths(g.n, g.edges, top_ticks(0, b, g.m, rows)) for b, rows in runs])
    assert lengths.max() <= MAX_EDGES and lengths[3:BLOCK_TRIALS].min() > MAX_EDGES - 1
    assert lengths[1] == (2**53 - 1) * 2**-53 and lengths[2] == 0.0
    ks = [int(x * 2**53) for x in lengths.tolist()]
    block = lengths[:BLOCK_TRIALS]
    assert mc._lattice_sums(block) == (sum(ks[:BLOCK_TRIALS]), sum(k * k for k in ks[:BLOCK_TRIALS]))

    trials = len(lengths)
    assert trials == 2 * BLOCK_TRIALS + 1
    monkeypatch.setattr(mc, "_block_ticks", top_ticks)
    est = simulate(g, trials, seed=0)
    assert (est.mean, est.stderr) == _exact_estimate(lengths.tolist())
    assert est.mean == math.fsum(lengths.tolist()) / trials
    assert (est.min_length, est.max_length) == (0.0, lengths.max())


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


def _triangle_and_matching(start: int) -> Graph:
    """A triangle and a 60-edge matching, 63 edges and 123 endpoints from start."""
    matching = tuple((start + 3 + 2 * i, start + 4 + 2 * i) for i in range(MAX_EDGES - 3))
    triangle = ((start, start + 1), (start + 1, start + 2), (start, start + 2))
    return Graph(start + 123, triangle + matching)


@pytest.mark.parametrize(
    "g",
    [
        path_graph(64),
        Graph(126, tuple((2 * i, 2 * i + 1) for i in range(MAX_EDGES))),
        _k4_and_path(300, 260, 39),
        _k4_and_path(600, 512, 10),
        _triangle_and_matching(0),
        _triangle_and_matching(256),
    ],
    ids=[
        "P64",
        "matching63",
        "K4+path-300",
        "K4+path-600",
        "triangle+matching60",
        "triangle+matching60-above-255",
    ],
)
def test_kernel_labels_fit_every_graph(g):
    # Only edge endpoints are labelled: P_64's labels would reach 63, and a
    # 63-edge matching's 125, the most any graph has, but both are forests and
    # take the sorted form, which labels nothing.  On the union-find path a
    # graph has a cycle, so at most 123 endpoints: a triangle and a 60-edge
    # matching.  The others are disconnected graphs with every endpoint above
    # 255.  In the 600-vertex one the K_4 and the path start 256 apart, so
    # int8 labels indexed by vertex number would give vertices 256 and 512 the
    # same label and see the path's first edges as loops.
    ticks = np.random.default_rng(5).integers(0, 8, size=(1000, g.m), dtype=np.uint64) << 50
    lengths = _mst_lengths(g.n, g.edges, ticks.copy())
    expected = [mst_length_for_weights(g, (row * 2**-53).tolist()) for row in ticks]
    assert lengths.tolist() == expected


class _UnionFindRan(Exception):
    pass


def _patch_numpy(monkeypatch, **replaced):
    """Give ``mc`` a numpy whose named functions are ``replaced``."""

    class PatchedNumpy:
        def __getattr__(self, name):
            return replaced[name] if name in replaced else getattr(np, name)

    monkeypatch.setattr(mc, "np", PatchedNumpy())


def _stub_union_find(monkeypatch):
    """Stub the kernel's union-find loop to fail: its label matrix is built
    with ``np.repeat``, which the sorted form never calls."""

    def repeat(*args, **kwargs):
        raise _UnionFindRan

    _patch_numpy(monkeypatch, repeat=repeat)


def _record_compactions(monkeypatch) -> list[int]:
    """The row count of each compaction of the union-find loop, as it runs:
    the loop finds the unfinished rows it keeps with ``np.flatnonzero``, which
    the kernel calls nowhere else."""
    kept = []

    def flatnonzero(a):
        rows = np.flatnonzero(a)
        kept.append(len(rows))
        return rows

    _patch_numpy(monkeypatch, flatnonzero=flatnonzero)
    return kept


def _matches_reference_under_ties(g: Graph, rows: int) -> bool:
    # weights on multiples of 1/8 tie often
    ticks = np.random.default_rng(3).integers(0, 8, size=(rows, g.m), dtype=np.uint64) << 50
    lengths = _mst_lengths(g.n, g.edges, ticks.copy())
    return lengths.tolist() == [mst_length_for_weights(g, row.tolist()) for row in ticks * 2**-53]


def _with_isolated_vertices(g: Graph) -> Graph:
    """g moved up by two vertices, with two isolated vertices on each side."""
    return Graph(g.n + 4, tuple((u + 2, v + 2) for u, v in g.edges))


SORTED_FORM = {
    **{f"C{k}": cycle_graph(k) for k in range(3, 31)},
    **{f"C{k}+isolated": _with_isolated_vertices(cycle_graph(k)) for k in range(3, 31)},
    "P2": path_graph(2),
    "P30": path_graph(30),
    "P64": path_graph(64),
    "star10": Graph(11, tuple((0, v) for v in range(1, 11))),
    "forest": Graph(10, ((0, 1), (1, 2), (4, 5), (5, 6), (5, 7), (8, 9))),
}

KRUSKAL_FORM = {
    "C5+pendant": Graph(6, cycle_graph(5).edges + ((0, 5),)),
    "theta": Graph(5, cycle_graph(4).edges + ((0, 4), (4, 2))),
    "K4": complete_graph(4),
    "K32": bipartite_graph(3, 2),
}


@pytest.mark.parametrize("g", SORTED_FORM.values(), ids=SORTED_FORM.keys())
def test_forests_and_cycles_take_the_sorted_form(monkeypatch, g):
    # Every trial keeps its edge-rank lightest edges: with the union-find
    # loop stubbed out, each length is still the reference's, bit for bit.
    _stub_union_find(monkeypatch)
    assert _matches_reference_under_ties(g, 400)


@pytest.mark.parametrize("g", KRUSKAL_FORM.values(), ids=KRUSKAL_FORM.keys())
def test_other_graphs_take_the_union_find_loop(monkeypatch, g):
    # Some edge-rank set of these is dependent, so Kruskal must track components.
    assert _matches_reference_under_ties(g, 2000)
    _stub_union_find(monkeypatch)
    with pytest.raises(_UnionFindRan):
        _mst_lengths(g.n, g.edges, np.zeros((4, g.m), dtype=np.uint64))


def _k8_block_unfinished_at_the_check(rows: int, unfinished: int) -> np.ndarray:
    """K_8 ticks, on multiples of 2**50 so that they tie, where the first
    ``unfinished`` rows are not yet one component after the sorted column 6,
    the first the stop test reads: their 7 lightest edges hold a triangle and
    miss vertex 7.  Every other row's 7 lightest edges are the star at 0."""
    g = complete_graph(8)
    rng = np.random.default_rng(13)
    ticks = rng.integers(4, 8, size=(rows, g.m), dtype=np.uint64) << 50
    star = [g.edges.index((0, v)) for v in range(1, 8)]
    cyclic = [g.edges.index(e) for e in ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (0, 5), (0, 6))]
    light = rng.integers(0, 4, size=(rows, 7), dtype=np.uint64) << 50
    ticks[unfinished:, star] = light[unfinished:]
    ticks[:unfinished, cyclic] = light[:unfinished]
    return ticks


def test_the_union_find_loop_compacts_its_unfinished_rows(monkeypatch):
    # A whole K_8 block of tied weights compacts once, when at most an eighth
    # of its rows are unfinished; and a block with exactly an eighth of its
    # rows unfinished at the first check compacts there.  Either way every
    # length is the reference's, bit for bit.
    g = complete_graph(8)
    kept = _record_compactions(monkeypatch)
    assert _matches_reference_under_ties(g, BLOCK_TRIALS)
    assert len(kept) == 1 and 0 < kept[0] <= BLOCK_TRIALS // 8

    kept.clear()
    ticks = _k8_block_unfinished_at_the_check(BLOCK_TRIALS, BLOCK_TRIALS // 8)
    lengths = _mst_lengths(g.n, g.edges, ticks.copy())
    assert lengths.tolist() == [mst_length_for_weights(g, row.tolist()) for row in ticks * 2**-53]
    assert kept == [BLOCK_TRIALS // 8]


@pytest.mark.parametrize("rows", [1, 7, 8, 9, 513])
@pytest.mark.parametrize("g", [complete_graph(8), KRUSKAL_FORM["theta"]], ids=["K8", "theta"])
def test_small_blocks_compact_only_an_eighth_of_their_rows(monkeypatch, g, rows):
    # A block of fewer than 8 rows stops before it would keep no row at all.
    kept = _record_compactions(monkeypatch)
    assert _matches_reference_under_ties(g, rows)
    assert all(0 < count and count * 8 <= rows for count in kept)
    assert len(kept) <= 1 and (rows >= 8 or not kept)


def _odd_ticks_near_one(rows: int, m: int) -> np.ndarray:
    """Odd ticks within 2**21 of 2**53 - 1: weights just below 1.  Running
    sums of them cross 1, 2, 4, ..., and from the third on each addition
    rounds: an odd sum above 2**54 ticks is no float."""
    rng = np.random.default_rng(29)
    return (2**53 - 1) - 2 * rng.integers(0, 2**20, size=(rows, m), dtype=np.uint64)


def _matches_reference_near_one(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Run the kernel on rows of weights just below 1, compare every length
    with the reference, and return the ticks and the lengths."""
    ticks = _odd_ticks_near_one(400, g.m)
    lengths = _mst_lengths(g.n, g.edges, ticks.copy())
    assert lengths.tolist() == [mst_length_for_weights(g, row.tolist()) for row in ticks * 2**-53]
    return ticks, lengths


@pytest.mark.parametrize(
    "g",
    [Graph(19, complete_graph(11).edges + tuple((v, v + 1) for v in range(10, 18))), complete_graph(8)],
    ids=["K11+path8", "K8"],
)
def test_tick_unit_sums_round_as_the_reference_on_the_union_find_loop(g):
    # Each total is summed in ticks and scaled by 2**-53 once; wherever an
    # addition rounds it must round as the reference's sum of weights does.
    _matches_reference_near_one(g)


@pytest.mark.parametrize("g", [path_graph(64), cycle_graph(30)], ids=["P64", "C30"])
def test_tick_unit_sums_round_as_the_reference_on_the_sorted_form(g):
    # Every row keeps its n - 1 lightest edges, an odd count of odd ticks:
    # their exact sum is odd and above 2**54 ticks, where every float is a
    # multiple of 4 ticks, so the sums did round.
    ticks, lengths = _matches_reference_near_one(g)
    exact = np.sort(ticks, axis=1)[:, : g.n - 1].astype(object).sum(axis=1)
    assert all(x * 2**53 != k for x, k in zip(lengths.tolist(), exact))


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
