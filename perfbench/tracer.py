"""Span tracer for the benchmark's traced run.

The tracer wraps mstlength's public functions in place, under every name a
caller looks them up by: ``from .enumeration import build_rank_table`` binds
the function in ``mstlength.expectation`` too, so each module namespace that
holds the same function object gets the wrapper.  Every call records a span
(target, parent span, root span, start, end) in memory, plus a call count and
an optional work count.  A span's self time is its duration minus the
durations of its direct children.

Wrappers exist only between ``install()`` and ``remove()``; untraced runs
never create a Tracer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "mstlength"
WRAPPER_MARK = "__perfbench_wrapper__"

# (module, attribute) of each wrapped callable, with an optional work count
# taken from its return value.  "Class.method" wraps the method on the class.
TARGETS = {
    ("cli", "main"): None,
    ("cli", "cmd_compute"): None,
    ("cli", "cmd_verify"): None,
    ("graphs", "parse_graph"): None,
    ("expectation", "expected_mst_length"): None,
    ("enumeration", "build_rank_table"): lambda table: len(table.counts),
    ("enumeration", "direct_integrand"): None,
    ("enumeration", "tutte_polynomial"): None,
    ("enumeration", "check_hyperbola_identities"): None,
    ("enumeration", "check_integrand_ratio"): None,
    ("census", "build_census"): None,
    ("census", "count_cycles"): None,
    ("census", "count_chorded_cycles"): None,
    ("census", "count_chorded_cycles_plus_edge"): None,
    ("census", "count_k4"): None,
    ("census", "count_k32"): None,
    ("coefficients", "verify_route_agreement"): None,
    ("coefficients", "all_routes"): None,
    ("coefficients", "check_rank_cycle_correction"): None,
    ("coefficients", "check_cycle_identities"): None,
    ("exactpoly", "IntPolynomial.integrate_unit_interval"): None,
    ("mc", "simulate"): lambda estimate: estimate.trials,
    ("mc", "compare"): None,
}

# Per-layer metric -> (kind, targets).  "self" sums self time, "calls" counts
# calls, "work" sums the targets' work counts.
METRICS = {
    "enumeration.rank_table_s": ("self", [("enumeration", "build_rank_table")]),
    "enumeration.rank_table_calls": ("calls", [("enumeration", "build_rank_table")]),
    "enumeration.table_cells": ("work", [("enumeration", "build_rank_table")]),
    "enumeration.direct_integrand_s": ("self", [("enumeration", "direct_integrand")]),
    "enumeration.direct_integrand_calls": ("calls", [("enumeration", "direct_integrand")]),
    "enumeration.tutte_s": ("self", [("enumeration", "tutte_polynomial")]),
    "enumeration.tutte_calls": ("calls", [("enumeration", "tutte_polynomial")]),
    "enumeration.hyperbola_s": ("self", [("enumeration", "check_hyperbola_identities")]),
    "enumeration.ratio_s": ("self", [("enumeration", "check_integrand_ratio")]),
    "census.build_s": ("self", [("census", "build_census")]),
    "census.k32_s": ("self", [("census", "count_k32")]),
    "census.k4_s": ("self", [("census", "count_k4")]),
    "census.cycles_s": ("self", [("census", "count_cycles")]),
    "census.chorded_s": (
        "self",
        [("census", "count_chorded_cycles"), ("census", "count_chorded_cycles_plus_edge")],
    ),
    "coefficients.routes_s": (
        "self",
        [("coefficients", "verify_route_agreement"), ("coefficients", "all_routes")],
    ),
    "coefficients.identities_s": (
        "self",
        [
            ("coefficients", "check_rank_cycle_correction"),
            ("coefficients", "check_cycle_identities"),
        ],
    ),
    "exactpoly.integrate_s": ("self", [("exactpoly", "IntPolynomial.integrate_unit_interval")]),
    "graphs.parse_s": ("self", [("graphs", "parse_graph")]),
    "cli.self_s": ("self", [("cli", "main"), ("cli", "cmd_compute"), ("cli", "cmd_verify")]),
    "expectation.self_s": ("self", [("expectation", "expected_mst_length")]),
    "mc.simulate_s": ("self", [("mc", "simulate")]),
    "mc.trials": ("work", [("mc", "simulate")]),
    "mc.compare_s": ("self", [("mc", "compare")]),
}


def package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def installed_wrappers() -> list[str]:
    """Names in the package's namespaces (and classes) still bound to a wrapper."""
    found = []
    for module in package_modules():
        for key, value in vars(module).items():
            if getattr(value, WRAPPER_MARK, False):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, WRAPPER_MARK, False):
                        found.append(f"{module.__name__}.{key}.{attr}")
    return found


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self) -> None:
        # span: (target, parent index or -1, root index, start, end)
        self.spans: list[tuple] = []
        self.work: dict[tuple[str, str], int] = defaultdict(int)
        self.found: set[tuple[str, str]] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for target, work in TARGETS.items():
            module = sys.modules.get(f"{PACKAGE}.{target[0]}")
            if module is None:
                continue
            owner_name, _, method = target[1].rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if isinstance(owner, type) else None
                if original is None:
                    continue
                self._patch(owner, method, self._wrap(target, original, work))
            else:
                original = getattr(module, method, None)
                if original is None:
                    continue
                wrapper = self._wrap(target, original, work)
                for namespace in package_modules():
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._patch(namespace, key, wrapper)
            self.found.add(target)

    def remove(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def _patch(self, owner: object, key: str, wrapper: object) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, target, fn, work):
        spans = self.spans
        stack = self._stack
        counts = self.work
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else index
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (target, parent, root, start, end)
            if work is not None:
                counts[target] += work(result)
            return result

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def self_times(self) -> dict[tuple[str, str], float]:
        """Self time per target, summed over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[tuple[str, str], float] = defaultdict(float)
        for index, (target, _, _, start, end) in enumerate(self.spans):
            totals[target] += end - start - child_time[index]
        return totals

    def calls(self) -> Counter:
        return Counter(target for target, *_ in self.spans)

    def root_time(self) -> float:
        """Total duration of root spans: the traced time spent inside the program."""
        return sum(end - start for _, parent, _, start, end in self.spans if parent < 0)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round; a metric none of whose targets exist is absent."""
        self_times, calls = self.self_times(), self.calls()
        source = {"self": self_times, "calls": calls, "work": self.work}
        out = {}
        for name, (kind, targets) in METRICS.items():
            present = [t for t in targets if t in self.found]
            if not present:
                continue
            total = sum(source[kind].get(t, 0) for t in present)
            out[name] = total / rounds if kind == "self" else _per_round(total, rounds)
        return out


def _per_round(total: int, rounds: int):
    return total // rounds if total % rounds == 0 else total / rounds
