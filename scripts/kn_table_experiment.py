#!/usr/bin/env python3
"""Exact E[L(K_n)] table with differences and the zeta(3) gap.

Usage: python scripts/kn_table_experiment.py [MAX_N] [CAP]

MAX_N defaults to 8 (28 edges, within the default enumeration cap); raising
the cap to 36 allows K_9 (36 edges), which takes well under a second.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from mstlength.expectation import ZETA3, kn_table


def main() -> None:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    cap = int(sys.argv[2]) if len(sys.argv) > 2 else 28

    started = time.time()
    rows = kn_table(max_n, cap=cap)
    elapsed = time.time() - started

    print(f"{'n':>3} {'exact':>28} {'decimal':>12} {'delta':>11} {'2nd diff':>11} {'zeta3 gap':>11}")
    for row in rows:
        delta = "" if row.delta is None else f"{float(row.delta):+.7f}"
        second = "" if row.second_difference is None else f"{float(row.second_difference):+.7f}"
        gap = float(ZETA3 - row.expectation)
        print(
            f"{row.n:>3} {str(row.expectation):>28} {float(row.expectation):>12.7f} "
            f"{delta:>11} {second:>11} {gap:>11.7f}"
        )
    increasing = all(row.increasing for row in rows if row.increasing is not None)
    concave = all(row.concave for row in rows if row.concave is not None)
    print(f"\nmonotone increasing so far: {increasing}; concave so far: {concave}")
    print("(open conjecture; reported, not asserted)")
    print(f"limit reference: zeta(3) = {float(ZETA3):.10f}")
    print(f"computed in {elapsed:.1f}s")


if __name__ == "__main__":
    main()
