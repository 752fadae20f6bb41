"""Command-line frontend: decompose, color, verify, exact, table.

Exit codes: 0 success/verified; 1 counterexample or table disagreement;
2 parse error or graph/coloring mismatch; 3 precondition violation or over
budget; 4 a construction failed its own verification; 5 search budget
exhausted before an answer (inconclusive).

Structured output (--format structured) is byte-identical across runs with
the same flags and inputs; timings are shown only in human format.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
import time

from .coloring import block_coloring, parse_coloring, serialize_coloring
from .decompose import ear_decomposition, serialize_decomposition
from .errors import (
    BudgetExceededError,
    ConstructionError,
    GraphFormatError,
    PreconditionError,
    SearchInconclusiveError,
)
from .graph import (
    Graph,
    block_decomposition,
    is_2_connected,
    is_connected,
    parse_graph,
)
from .oracle import SearchBudget, cycle_reference_table, exact_rvc
from .verify import (
    DEFAULT_NODE_BUDGET,
    node_budget_default,
    parse_node_budget,
    serialize_certificate,
    verify_rainbow_vc,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CONSTRUCTION = 4
EXIT_INCONCLUSIVE = 5


def _read_graph(path: str) -> Graph:
    with open(path) as fh:
        return parse_graph(fh.read())


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _echo(args_ns: argparse.Namespace, out) -> None:
    if args_ns.format == "structured":
        print(f"command {args_ns.command}", file=out)
        for attr in ("input", "graph", "coloring"):
            path = getattr(args_ns, attr, None)
            if path:
                print(f"{attr} sha256:{_digest(path)}", file=out)


def _node_budget(args_ns: argparse.Namespace, default: int) -> int:
    """--node-budget if given, else RVC_NODE_BUDGET if set, else `default`."""
    if args_ns.node_budget is not None:
        return parse_node_budget(args_ns.node_budget, "--node-budget")
    return node_budget_default(default)


def cmd_decompose(args) -> int:
    g = _read_graph(args.input)
    out = sys.stdout
    _echo(args, out)
    if args.blocks:
        if not is_connected(g) or g.n < 2:
            print("error: block decomposition requires a connected graph on >= 2 vertices", file=sys.stderr)
            return EXIT_PRECONDITION
        bd = block_decomposition(g)
        for block in bd.blocks:
            print("block " + " ".join(map(str, sorted(block))), file=out)
        print("cuts " + " ".join(map(str, sorted(bd.cut_vertices))), file=out)
        print(f"t {bd.t}", file=out)
        return EXIT_OK
    if not is_2_connected(g):
        print("error: --ears requires a 2-connected graph", file=sys.stderr)
        return EXIT_PRECONDITION
    d = ear_decomposition(g)
    print(serialize_decomposition(d), end="", file=out)
    if args.format == "human":
        print(
            f"initial cycle from an exhausted ear search: {'yes' if d.heuristic_cycle else 'no'};"
            " ears marked heuristic (the longest-ear search ran out of path extensions,"
            f" so they may not be longest): {sum(e.heuristic for e in d.ears)} of {len(d.ears)}",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_color(args) -> int:
    g = _read_graph(args.input)
    t0 = time.perf_counter()
    coloring = block_coloring(g)  # verified on g; a disconnected g is a PreconditionError
    elapsed = time.perf_counter() - t0
    _echo(args, sys.stdout)
    print(serialize_coloring(coloring), end="")
    if args.format == "human":
        print(
            f"constructed and verified rainbow vertex-connected in {elapsed:.3f}s",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    with open(args.coloring) as fh:
        coloring = parse_coloring(fh.read())
    if coloring.n != g.n:
        print(
            f"error: coloring covers {coloring.n} vertices but the graph has {g.n}",
            file=sys.stderr,
        )
        return EXIT_PARSE
    cert = verify_rainbow_vc(
        g,
        coloring,
        store_witnesses=args.witnesses,
        node_budget=_node_budget(args, DEFAULT_NODE_BUDGET),
    )
    _echo(args, sys.stdout)
    print(serialize_certificate(cert), end="")
    return EXIT_OK if cert.verified else EXIT_COUNTEREXAMPLE


def cmd_exact(args) -> int:
    g = _read_graph(args.input)
    budget = SearchBudget(
        max_vertices=args.max_n,
        node_budget=_node_budget(args, SearchBudget().node_budget),
    )
    t0 = time.perf_counter()
    result = exact_rvc(g, budget=budget)
    elapsed = time.perf_counter() - t0
    _echo(args, sys.stdout)
    if args.format == "structured":
        print(f"budget max_vertices={budget.max_vertices} node_budget={budget.node_budget}")
    print(f"value {result.value}")
    print(serialize_coloring(result.witness), end="")
    print(f"nodes {result.nodes}")
    if args.format == "human":
        print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_table(args) -> int:
    rows = cycle_reference_table(args.max_exact_n, args.max_n)
    _echo(args, sys.stdout)
    print("n constructed exact closed_form")
    bad = None
    for row in rows:
        exact = "-" if row.exact is None else str(row.exact)
        print(f"{row.n} {row.constructed} {exact} {row.closed_form}")
        agrees = row.constructed == row.closed_form and (
            row.exact is None or row.exact == row.closed_form
        )
        if bad is None and not agrees:
            bad = row.n
    if bad is not None:
        print(f"error: first disagreeing row is n={bad}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


@functools.cache  # built on the first call of main, then reused
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvc",
        description="Rainbow vertex-connection colorings: construct, verify, solve exactly.",
    )
    parser.add_argument(
        "--format", choices=("human", "structured"), default="human",
        help="output style; structured output is byte-identical across runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="ear decomposition or block decomposition")
    p.add_argument("input", help="edge-list file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ears", action="store_true")
    group.add_argument("--blocks", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("color", help="construct a rainbow vertex-coloring")
    p.add_argument("input", help="edge-list file")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="check a coloring file against a graph")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("coloring", help="coloring record file")
    p.add_argument("--witnesses", action="store_true", help="include witness paths in the record")
    p.add_argument("--node-budget")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exact", help="exact minimum via exhaustive search (small graphs)")
    p.add_argument("input", help="edge-list file")
    p.add_argument("--max-n", type=int, default=SearchBudget().max_vertices,
                   help="vertex-count budget override")
    p.add_argument("--node-budget")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("table", help="cycle values: constructed vs exact vs closed form")
    p.add_argument("--max-exact-n", type=int, default=11)
    p.add_argument("--max-n", type=int, default=30)
    p.set_defaults(func=cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except GraphFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except SearchInconclusiveError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConstructionError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except PreconditionError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
