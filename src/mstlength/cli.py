"""Command-line interface.

Subcommands: compute | coeffs | census | verify | simulate | kn-table | gen.
stdout carries data (JSON by default, --format plain for humans), stderr
carries diagnostics, and the exit code is the only pass/fail channel:

    0  success / all checks passed
    1  statistical comparison failed (simulate)
    2  input error (bad document, bad arguments, disconnected graph)
    3  enumeration cap or state-budget refusal
    4  internal identity, route disagreement or corrupt rank table (a bug,
       never an input problem)
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from .census import build_census
from .coefficients import (
    ROUTE_DIRECT,
    ROUTES,
    all_routes,
    check_cycle_identities,
    check_rank_cycle_correction,
    route_failures,
    verify_route_agreement,
)
from .enumeration import (
    DEFAULT_EDGE_CAP,
    build_rank_table,
    check_hyperbola_identities,
    check_integrand_ratio,
)
from .errors import (
    CorruptRankTableError,
    DisconnectedGraphError,
    EnumerationCapError,
    FrontierOverflowError,
    GraphConstructionError,
    MstLengthError,
    RouteDisagreementError,
)
from .exactpoly import binomial, decimal_string
from .expectation import ZETA3_DISPLAY, expected_mst_length, kn_table
from .graphs import Graph, format_graph, generate, is_connected, parse_graph
from .mc import compare, simulate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

HYPERBOLA_POINTS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5))


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.gen is not None and args.source is not None:
        raise GraphConstructionError("pass either a file/stdin source or --gen, not both")
    if args.gen is not None:
        kind, *params = args.gen
        try:
            numbers = [int(p) for p in params]
        except ValueError:
            raise GraphConstructionError(f"generator parameters must be integers: {params}") from None
        return generate(kind, *numbers)
    if args.source is None:
        raise GraphConstructionError("no graph given: pass a file, '-' for stdin, or --gen")
    if args.source == "-":
        return parse_graph(sys.stdin.read())
    try:
        with open(args.source, "r", encoding="ascii") as handle:
            return parse_graph(handle.read())
    except OSError as exc:
        raise GraphConstructionError(f"cannot read {args.source}: {exc}") from None


def _emit(args: argparse.Namespace, payload: dict, plain_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, allow_nan=False))
    else:
        for line in plain_lines:
            print(line)


def cmd_compute(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    result = expected_mst_length(g, cap=args.cap)
    plain = [
        f"n = {result.n}, m = {result.m}",
        f"p(t) coefficients: {list(result.polynomial.coefficients)}",
        f"E[L] = {result.expectation!s} = {result.decimal(args.digits)}",
    ]
    _emit(args, result.to_json_dict(args.digits), plain)
    return EXIT_OK


def cmd_coeffs(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if not is_connected(g):
        raise DisconnectedGraphError("coefficients are defined for connected graphs")
    table = build_rank_table(g, cap=args.cap)
    routes = verify_route_agreement(table, build_census(g))
    wanted = ROUTES if args.route == "all" else (args.route,)
    payload = {
        "n": g.n,
        "m": g.m,
        "routes": {name: list(routes[name].a) for name in wanted},
    }
    plain = [f"n = {g.n}, m = {g.m}"] + [
        f"{name}: {list(routes[name].a)}" for name in wanted
    ]
    _emit(args, payload, plain)
    return EXIT_OK


def cmd_census(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    census = build_census(g)
    payload = census.to_json_dict()
    plain = [f"{key} = {value}" for key, value in payload.items()]
    _emit(args, payload, plain)
    return EXIT_OK


def _verify_checks(g: Graph, cap: int) -> list[tuple[str, bool]]:
    table = build_rank_table(g, cap=cap)
    census = build_census(g)
    checks: list[tuple[str, bool]] = []

    checks.append(
        ("row-sums", all(table.row_sum(l) == binomial(g.m, l) for l in range(g.m + 1)))
    )
    checks.append(
        ("full-edge-set-rank", table.counts.get((g.m, g.n - 1)) == 1 and len(table.row(g.m)) == 1)
    )

    routes = all_routes(table, census)
    checks.append(("route-agreement", not route_failures(table, routes)))

    p = routes[ROUTE_DIRECT].integrand()
    checks.append(("constant-term", p.evaluate(0) == g.n - 1))
    checks.append(("vanishes-at-one", p.evaluate(1) == 0))
    checks.append(
        (
            "nonnegative-on-unit-interval",
            all(p.evaluate(Fraction(j, 10)) >= 0 for j in range(1, 10)),
        )
    )
    for t in HYPERBOLA_POINTS:
        closed, partial = check_hyperbola_identities(table, t)
        checks.append((f"tutte-closed-form@t={t}", closed))
        checks.append((f"tutte-partial-form@t={t}", partial))
        checks.append((f"integrand-ratio@t={t}", check_integrand_ratio(table, t)))
    for l in range(3, 7):
        checks.append(
            (f"rank-cycle-correction@l={l}", check_rank_cycle_correction(table, census, l))
        )
    checks.append(
        ("diamond-vs-rank-table", census.diamonds == table.counts.get((5, 3), 0))
    )
    for i in range(3, 7):
        checks.append(
            (f"cycle-identities@i={i}", check_cycle_identities(table, census, i))
        )
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    if not is_connected(g):
        raise DisconnectedGraphError("verify requires a connected graph")
    checks = _verify_checks(g, args.cap)
    all_pass = all(ok for _, ok in checks)
    payload = {
        "n": g.n,
        "m": g.m,
        "checks": [{"name": name, "pass": ok} for name, ok in checks],
        "all_pass": all_pass,
    }
    plain = [f"{'PASS' if ok else 'FAIL'}  {name}" for name, ok in checks]
    plain.append(f"{'all checks passed' if all_pass else 'CHECK FAILURES PRESENT'}")
    _emit(args, payload, plain)
    return EXIT_OK if all_pass else EXIT_INTERNAL


def cmd_simulate(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    estimate = simulate(g, args.trials, args.seed, threads=args.threads)
    payload = estimate.to_json_dict()
    plain = [
        f"trials = {estimate.trials}, seed = {estimate.seed}",
        f"mean = {estimate.mean!r}, stderr = {estimate.stderr!r}",
        f"min = {estimate.min_length!r}, max = {estimate.max_length!r}",
        f"generator = {estimate.generator_id}",
    ]
    code = EXIT_OK
    if g.m <= args.cap:
        exact = expected_mst_length(g, cap=args.cap).expectation
        verdict = compare(exact, estimate, args.z_threshold)
        payload.update(verdict.to_json_dict())
        plain.append(
            f"exact = {exact!s}, z = {verdict.z:.3f}, "
            f"{'pass' if verdict.passed else 'FAIL'} at threshold {verdict.threshold}"
        )
        if not verdict.passed:
            code = EXIT_CHECK_FAILED
    _emit(args, payload, plain)
    return code


def cmd_kn_table(args: argparse.Namespace) -> int:
    rows = kn_table(args.max_n, cap=args.cap)
    payload = {
        "zeta3": ZETA3_DISPLAY,
        "rows": [row.to_json_dict(args.digits) for row in rows],
    }
    plain = [
        f"{'n':>3} {'E[L(K_n)]':>24} {'decimal':>14} {'delta':>12} {'concavity':>10}"
    ]
    for row in rows:
        delta = "" if row.delta is None else decimal_string(row.delta, 6)
        concave = "" if row.concave is None else ("concave" if row.concave else "CONVEX")
        plain.append(
            f"{row.n:>3} {row.expectation!s:>24} "
            f"{decimal_string(row.expectation, args.digits):>14} {delta:>12} {concave:>10}"
        )
    plain.append(f"limit reference: zeta(3) = {ZETA3_DISPLAY}...")
    _emit(args, payload, plain)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    g = generate(args.kind, *args.params)
    if args.format == "json":
        print(json.dumps({"n": g.n, "m": g.m, "edges": [list(e) for e in g.edges]}))
    else:
        label = " ".join([args.kind] + [str(p) for p in args.params])
        sys.stdout.write(format_graph(g, comment=label))
    return EXIT_OK


class _DigitCount(argparse.Action):
    """Refuse a ``--digits`` value outside 0..``sys.get_int_max_str_digits()``.

    The bound is the longest integer the interpreter renders as a string (0
    there lifts it); the refusal comes while parsing, before any graph is built.
    """

    def __call__(self, parser, namespace, value, option_string=None):
        top = sys.get_int_max_str_digits()
        if value < 0 or 0 < top < value:
            bound = f"in 0..{top}" if top else "nonnegative"
            raise argparse.ArgumentError(self, f"must be {bound}, got {value}")
        setattr(namespace, self.dest, value)


class _ZThreshold(argparse.Action):
    """Refuse a ``--z-threshold`` that is not a finite number above 0.

    NaN would fail every comparison and infinity pass every one, and neither
    is a JSON number; the refusal comes while parsing, before any trial runs.
    """

    def __call__(self, parser, namespace, value, option_string=None):
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentError(self, f"must be finite and > 0, got {value}")
        setattr(namespace, self.dest, value)


def _add_common(
    parser: argparse.ArgumentParser,
    *,
    cap: bool = False,
    digits: bool = False,
    graph_source: bool = True,
) -> None:
    """Register ``--format``, the graph source, and ``--cap``/``--digits`` if asked.

    A command registers ``--cap`` only if it enumerates and ``--digits`` only if
    it renders decimals, so argparse rejects a flag that the command would ignore.
    """
    parser.add_argument(
        "--format", choices=("json", "plain"), default="json", help="output format"
    )
    if cap:
        parser.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_EDGE_CAP,
            help=f"enumeration edge cap (default {DEFAULT_EDGE_CAP})",
        )
    if digits:
        parser.add_argument(
            "--digits",
            type=int,
            action=_DigitCount,
            default=10,
            help="decimal digits in renderings",
        )
    if graph_source:
        parser.add_argument(
            "source", nargs="?", help="edge-list file, or '-' for stdin"
        )
        parser.add_argument(
            "--gen",
            nargs="+",
            metavar=("KIND", "PARAM"),
            help="generate the input graph: complete N | bipartite A B | cycle N | path N",
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mstlength",
        description="Exact expected minimum-spanning-tree length under uniform edge weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="integrand polynomial and exact expectation")
    _add_common(p, cap=True, digits=True)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("coeffs", help="coefficient vectors per route")
    _add_common(p, cap=True)
    p.add_argument(
        "--route", choices=ROUTES + ("all",), default="all", help="which route to print"
    )
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("census", help="structural subgraph counts")
    _add_common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run the full exact-identity check suite")
    _add_common(p, cap=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo estimate (and compare when exact is in reach)")
    _add_common(p, cap=True)
    p.add_argument("--trials", type=int, default=100_000, help="number of trials")
    p.add_argument("--seed", type=int, default=0, help="generator seed, 0 <= seed < 2**64")
    p.add_argument("--threads", type=int, default=1, help="worker processes for the trials")
    p.add_argument(
        "--z-threshold",
        type=float,
        action=_ZThreshold,
        default=4.0,
        help="pass threshold in stderr units, finite and > 0",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("kn-table", help="exact E[L(K_n)] table with differences")
    _add_common(p, cap=True, digits=True, graph_source=False)
    p.add_argument("--max-n", type=int, default=8, help="largest complete graph")
    p.set_defaults(func=cmd_kn_table)

    p = sub.add_parser("gen", help="print a generated graph as an edge-list document")
    p.add_argument("kind", choices=("complete", "bipartite", "cycle", "path"))
    p.add_argument("params", nargs="+", type=int)
    p.add_argument("--format", choices=("json", "plain"), default="plain")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EnumerationCapError, FrontierOverflowError) as exc:
        return _fail(EXIT_CAP, str(exc))
    except (CorruptRankTableError, RouteDisagreementError) as exc:
        return _fail(EXIT_INTERNAL, str(exc))
    except (MstLengthError, ValueError) as exc:
        return _fail(EXIT_INPUT, str(exc))


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
