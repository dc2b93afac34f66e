"""mstlength benchmark: one workload per process, one caller in a closed loop.

    python3 perfbench/run.py --workload dense|sparse|mc --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from ``src/``.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it are a readable
table with medians, tails and sample counts.  See perfbench/README.md for
why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
REFERENCES = HERE / "references.json"

# name -> (generator kind, parameters); "grid" is built here, the CLI has no grid.
GRAPHS = {
    "K4": ("complete", 4),
    "K8": ("complete", 8),
    "K9": ("complete", 9),
    "K4_6": ("bipartite", 4, 6),
    "C20": ("cycle", 20),
    "C30": ("cycle", 30),
    "P19": ("path", 19),
    "grid5x5": ("grid", 5, 5),
}

# dense: wide frontier, the rank-table sweep dominates.  sparse: many vertices
# and a thin frontier, the O(n^5) census scans dominate.  mc: the Monte Carlo
# trial loop alone, through the library (the CLI would add the exact pipeline).
WORKLOADS = {
    "dense": ("exact", ("K8", "K9", "K4_6")),
    "sparse": ("exact", ("C20", "P19", "grid5x5")),
    "mc": ("mc", ("K4", "K8", "C30")),
}

EXACT_COMMANDS = ("compute", "verify")
CAP = "40"
Z_LIMIT = 4.0
SETUP_REPEATS = 9


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def grid_graph(pkg, rows: int, cols: int):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return pkg.Graph(rows * cols, tuple(edges))


def build_graph(pkg, name: str):
    kind, *params = GRAPHS[name]
    if kind == "grid":
        return grid_graph(pkg, *params)
    return pkg.generate(kind, *params)


def import_package():
    """Import mstlength from scratch, so the import itself is measured."""
    for name in [n for n in sys.modules if n == "mstlength" or n.startswith("mstlength.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mstlength")
    importlib.import_module("mstlength.cli")
    return pkg


def setup(names, seed: int, workdir: Path):
    """Import the package, build the graphs and write the seeded documents.

    The seed shuffles each document's edge lines.  Every answer and every
    step of the program's work is independent of edge order, so the inputs
    vary with the seed while the references and the cost do not.
    """
    pkg = import_package()
    graphs, paths = {}, {}
    for name in names:
        g = build_graph(pkg, name)
        graphs[name] = g
        edges = list(g.edges)
        random.Random(f"{seed}:{name}").shuffle(edges)
        path = workdir / f"{name}.txt"
        path.write_text(pkg.format_graph(pkg.Graph(g.n, tuple(edges)), comment=name), "ascii")
        paths[name] = str(path)
    return pkg, graphs, paths


def check_references(pkg, refs: dict, tally: Tally) -> None:
    """Cross-check committed references with closed forms and with themselves."""
    for name, ref in refs["graphs"].items():
        kind = GRAPHS[name][0]
        p = ref["p"]
        e = Fraction(int(ref["num"]), int(ref["den"]))
        n = ref["n"]
        ok = sum(Fraction(c, i + 1) for i, c in enumerate(p)) == e
        ok = ok and p[0] == n - 1 and sum(p) == 0
        if kind == "path":
            ok = ok and e == Fraction(n - 1, 2)
        elif kind == "cycle":
            ok = ok and e == Fraction(n, 2) - Fraction(n, n + 1)
        elif kind == "complete":
            a = [p[0] + 1] + p[1:7]
            ok = ok and all(a[i] == pkg.kn_coefficient(n, i) for i in range(min(7, len(a))))
        tally.record(ok, f"reference for {name} fails its closed-form cross-check")


def run_cli(cli, argv: list[str]) -> tuple[int, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def check_exact(command: str, code: int, stdout: str, ref: dict) -> bool:
    if code != 0:
        return False
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    if doc.get("n") != ref["n"] or doc.get("m") != ref["m"]:
        return False
    if command == "compute":
        e = doc.get("expectation", {})
        return doc.get("p") == ref["p"] and (e.get("num"), e.get("den")) == (ref["num"], ref["den"])
    checks = doc.get("checks", [])
    return doc.get("all_pass") is True and bool(checks) and all(c.get("pass") for c in checks)


# The reference kernel's time on the measuring host (2-vCPU x86-64 VM,
# Python 3.11.7) when that host runs at full speed.  It only sets the scale:
# a corrected time is wall time * KERNEL_REFERENCE_S / kernel time.
KERNEL_REFERENCE_S = 0.003
_KERNEL_EDGES = frozenset((i, i + 1) for i in range(64))
_KERNEL_BITS = np.random.Generator(np.random.Philox(key=[0, 0]))


def _kernel_has_edge(u: int, v: int) -> bool:
    return (min(u, v), max(u, v)) in _KERNEL_EDGES


def corrected(elapsed: float, kernel_before: float, kernel_after: float) -> float:
    """Wall time rescaled to the host's full speed, from kernels run around it."""
    return elapsed * KERNEL_REFERENCE_S / ((kernel_before + kernel_after) / 2)


def reference_kernel() -> float:
    """Seconds taken by a fixed piece of work of the kinds the program does.

    Dict and tuple churn with big integers (the frontier sweep), generator-fed
    membership calls (the census scans), and a Philox draw with a stable
    argsort (the Monte Carlo blocks); about 4 ms on the measuring host.  The
    host's speed drifts by up to 70% for minutes at a time, and this kernel
    slows down with it, so an operation's time over the kernel's is steady.
    """
    start = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(6000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + (i << 40)
    for a in range(400):
        all(_kernel_has_edge(u, v) for u in (a % 40, a % 7, 3) for v in (a % 5, 9))
    np.argsort(_KERNEL_BITS.random((1024, 30)), axis=1, kind="stable")
    return time.perf_counter() - start


class Workload:
    """Records each operation's host-corrected time, round after round."""

    def __init__(self, names, refs, seed, tally) -> None:
        self.names, self.refs, self.seed, self.tally = names, refs, seed, tally
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.corrected: dict[str, list[float]] = defaultdict(list)

    def bind(self, pkg, graphs, paths) -> None:
        """Call the program through the modules of the latest set-up."""
        self.pkg, self.graphs, self.paths = pkg, graphs, paths
        self.cli = sys.modules["mstlength.cli"]

    def timed(self, key: str, kernel_before: float, elapsed: float) -> float:
        self.wall[key].append(elapsed)
        self.corrected[key].append(corrected(elapsed, kernel_before, reference_kernel()))
        return elapsed

    def finish(self) -> None:
        """Checks made once per run, after the timed rounds."""

    def pass_s(self) -> float:
        """A round's corrected time: the sum of each operation's median."""
        return sum(statistics.median(times) for times in self.corrected.values())


class ExactWorkload(Workload):
    """compute and verify through ``mstlength.cli.main`` on every graph."""

    def __init__(self, names, refs, seed, tally):
        super().__init__(names, refs, seed, tally)
        self.outputs: dict[tuple[str, str], str] = {}

    def round(self) -> dict[str, float]:
        times = {}
        for command in EXACT_COMMANDS:
            total = 0.0
            for name in self.names:
                kernel = reference_kernel()
                code, stdout, elapsed = run_cli(self.cli, [command, "--cap", CAP, self.paths[name]])
                total += self.timed(f"{command} {name}", kernel, elapsed)
                ok = check_exact(command, code, stdout, self.refs["graphs"][name])
                first = self.outputs.setdefault((command, name), stdout)
                self.tally.record(
                    ok and stdout == first,
                    f"{command} {name}: exit {code}, output wrong or not repeatable",
                )
            times[f"wall_{command}_s"] = total
        times["wall_pass_s"] = times["wall_compute_s"] + times["wall_verify_s"]
        return times


class McWorkload(Workload):
    """``mstlength.simulate`` plus ``mstlength.compare`` on every graph."""

    def __init__(self, names, refs, seed, tally):
        super().__init__(names, refs, seed, tally)
        self.mc_ref = refs["mc"]
        self.exact = {
            n: Fraction(int(refs["graphs"][n]["num"]), int(refs["graphs"][n]["den"])) for n in names
        }
        self.means: dict[str, float] = {}

    def check_estimate(self, name: str, estimate, seed: int) -> bool:
        ok = (
            estimate.trials == self.mc_ref["trials"]
            and estimate.seed == seed
            and estimate.generator_id == self.mc_ref["generator_id"]
            and estimate.stderr > 0
        )
        return ok and abs(estimate.mean - float(self.exact[name])) / estimate.stderr <= Z_LIMIT

    def round(self) -> dict[str, float]:
        trials = self.mc_ref["trials"]
        total = 0.0
        for name in self.names:
            kernel = reference_kernel()
            start = time.perf_counter()
            estimate = self.pkg.simulate(self.graphs[name], trials, self.seed)
            verdict = self.pkg.compare(self.exact[name], estimate, Z_LIMIT)
            total += self.timed(name, kernel, time.perf_counter() - start)
            first = self.means.setdefault(name, estimate.mean)
            self.tally.record(
                self.check_estimate(name, estimate, self.seed)
                and verdict.passed
                and estimate.mean == first,
                f"simulate {name} seed {self.seed}: mean {estimate.mean!r} wrong or not repeatable",
            )
        return {"wall_pass_s": total, "trials_per_s": trials * len(self.names) / total}

    def finish(self) -> None:
        """The GENERATOR_ID contract: the committed means at the default seed."""
        seed = self.mc_ref["default_seed"]
        for name in self.names:
            estimate = self.pkg.simulate(self.graphs[name], self.mc_ref["trials"], seed)
            expected = self.mc_ref["means"][name]
            self.tally.record(
                self.check_estimate(name, estimate, seed) and estimate.mean == expected,
                f"simulate {name} seed {seed}: mean {estimate.mean!r}, committed {expected!r}",
            )


def closed_loop(step, seconds: float) -> list:
    """Call step() back to back; start another only if it should end in time."""
    samples, durations = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        samples.append(step())
        durations.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return samples


def tail(values: list[float], higher_is_better: bool = False) -> str:
    """Highest percentile with at least ten samples beyond it, else the extreme."""
    n = len(values)
    ordered = sorted(values, reverse=higher_is_better)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"p{p} {ordered[math.ceil(n * p / 100) - 1]:.6g}"
    return f"{'min' if higher_is_better else 'max'} {ordered[-1]:.6g}"


UNITS = {
    "wall_compute_s": "s",
    "wall_verify_s": "s",
    "wall_pass_s": "s",
    "wall_setup_s": "s",
    "trials_per_s": "trials/s",
}


def run_graphs(kind, names, seed, seconds, trace, refs, workdir):
    """One benchmark run; returns the result object, the table lines and failures."""
    tally = Tally()
    setup_times, setup_corrected = [], []
    workload_type = ExactWorkload if kind == "exact" else McWorkload
    workload = workload_type(names, refs, seed, tally)

    def timed_setup() -> None:
        gc.collect()  # earlier set-ups leave whole module graphs as garbage
        kernel = reference_kernel()
        start = time.perf_counter()
        bound = setup(names, seed, workdir)
        setup_times.append(time.perf_counter() - start)
        setup_corrected.append(corrected(setup_times[-1], kernel, reference_kernel()))
        workload.bind(*bound)

    def then_setup(sample):
        # Set-ups are spread evenly over the run, so their median sees the
        # host's usual speed rather than its speed during one short burst.
        due = started + len(setup_times) * seconds / SETUP_REPEATS
        if len(setup_times) < SETUP_REPEATS and time.perf_counter() >= due:
            timed_setup()
        return sample

    started = time.perf_counter()
    timed_setup()
    check_references(workload.pkg, {"graphs": {n: refs["graphs"][n] for n in names}}, tally)
    lines = [f"workload={kind}:{','.join(names)} seed={seed} seconds={seconds} trace={int(trace)}"]
    if not trace:
        samples = closed_loop(lambda: then_setup(workload.round()), seconds)
        while len(setup_times) < SETUP_REPEATS:
            timed_setup()
        workload.finish()
        tally.record(not tracing.installed_wrappers(), "wrappers present in an untraced run")
        pass_s = workload.pass_s()
        setup_s = statistics.median(setup_corrected)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"pass_s": (pass_s, "s"), "peak_rss_mb": (rss_mb, "MB"), "setup_s": (setup_s, "s")}
        lines.append(f"{'wall clock':<14} {'unit':<9} {'best':>10} {'median':>10}  {'tail':<14} {'n':>4}")
        series = {key: [s[key] for s in samples] for key in samples[0]}
        series["wall_setup_s"] = setup_times
        for key, values in series.items():
            higher = key == "trials_per_s"
            best = max(values) if higher else min(values)
            lines.append(
                f"{key:<14} {UNITS[key]:<9} {best:>10.5g} {statistics.median(values):>10.5g}  "
                f"{tail(values, higher):<14} {len(values):>4}"
            )
        lines.append(f"{'operation':<24} {'wall median':>12} {'corrected median':>17} {'n':>4}")
        for key, walls in workload.wall.items():
            lines.append(
                f"{key:<24} {statistics.median(walls):>12.5g} "
                f"{statistics.median(workload.corrected[key]):>17.5g} {len(walls):>4}"
            )
        lines.append(f"{'reported':<14} {'unit':<9} {'value':>10}")
        lines.append(f"{'pass_s':<14} {'s':<9} {pass_s:>10.5g}  host-corrected, sum of op medians")
        lines.append(f"{'setup_s':<14} {'s':<9} {setup_s:>10.5g}  host-corrected, median")
        lines.append(f"{'peak_rss_mb':<14} {'MB':<9} {rss_mb:>10.5g}")
    else:
        # Traced and untraced rounds alternate, so both see the same host load.
        tracer = tracing.Tracer()

        def traced_round():
            tracer.install()
            try:
                return workload.round()
            finally:
                tracer.remove()

        pairs = closed_loop(lambda: then_setup((workload.round(), traced_round())), seconds)
        workload.finish()
        left = tracing.installed_wrappers()
        tally.record(not left, f"wrappers left installed: {left}")
        rounds = len(pairs)
        untraced_s = statistics.fmean(plain["wall_pass_s"] for plain, _ in pairs)
        traced_s = statistics.fmean(traced["wall_pass_s"] for _, traced in pairs)
        metrics = {
            name: (value, "s" if name.endswith("_s") else "count")
            for name, value in tracer.metrics(rounds).items()
        }
        metrics["trace.untraced_pass_s"] = (untraced_s, "s")
        metrics["trace.self_sum_s"] = (tracer.root_time() / rounds, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        lines.append(f"{rounds} traced rounds, each after an untraced one; values are per round")
        for name, (value, unit) in metrics.items():
            lines.append(f"{name:<36} {unit:<6} {value:>12.6g}")
    lines.append(
        f"{'error_rate':<14} {'ratio':<9} {tally.failed / max(tally.attempted, 1):>10.5g}"
        f"  ({tally.failed} of {tally.attempted} operations failed)"
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines, tally.messages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mstlength benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "mstlength" / "__init__.py").is_file():
        print(f"error: no mstlength sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    refs = json.loads(REFERENCES.read_text())

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        kind, names = WORKLOADS[args.workload]
        result, lines, messages = run_graphs(
            kind, names, args.seed, args.seconds, bool(args.trace), refs, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for message in messages:
        print(f"failure: {message}", file=sys.stderr)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
