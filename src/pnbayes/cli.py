"""Command-line front end: validation, queries, width reports, benches.

Exit codes: 0 ok, 1 usage, 2 validation or parse failure, 3 inconsistent
evidence (zero-mass posterior), 4 resource guard tripped.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .bitmatrix import ProbVector, dump_vector, normalize
from .causality import dump_graph, parse_wire, wire_str
from .chain import marginal_of
from .eliminate import min_degree_order, order_width, run_elimination_stats
from .errors import InconsistentEvidence, PnbayesError, TooLarge
from .mbn import terminate
from .petri import INDEPENDENT, STOCHASTIC, net_from_json, validate_net_json
from .randnet import ENGINES, BenchConfig, bench_rows, rows_to_csv
from .reason import dense_posterior, load_trace, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_EVIDENCE = 3
EXIT_GUARD = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_range(text: str) -> tuple[int, ...]:
    """``a``, ``a..b`` or ``a..b..step``, all inclusive."""
    parts = text.split("..")
    if len(parts) == 1:
        return (int(parts[0]),)
    if len(parts) == 2:
        lo, hi = int(parts[0]), int(parts[1])
        return tuple(range(lo, hi + 1))
    if len(parts) == 3:
        lo, hi, step = (int(p) for p in parts)
        return tuple(range(lo, hi + 1, step))
    raise ValueError(f"bad range {text!r}")


def _load_order(path: str) -> list:
    wires = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            wires.append(parse_wire(line))
    return wires


def _cmd_validate(args) -> int:
    doc = json.loads(Path(args.net).read_text())
    problems = validate_net_json(doc)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        return EXIT_VALIDATION
    net = net_from_json(doc)
    print(f"ok: {len(net.places)} places, {len(net.transitions)} transitions")
    return EXIT_OK


def _as_vector(mat) -> ProbVector:
    return ProbVector(mat.out_arity, mat.to_dense()[:, 0])


def _print_stats(query: dict, width: int, stats) -> None:
    """One JSON line describing how a query was answered."""
    print(json.dumps({**query, "width": width,
                      "max_factor_wires": stats.max_factor_wires,
                      "contractions": stats.contractions,
                      "swept": stats.swept,
                      "grouped": stats.grouped_steps > 0,
                      "summarized": stats.summarized,
                      "stepped": stats.stepped}))


def _cmd_query(args) -> int:
    trace = load_trace(args.trace)
    posterior = run(trace)
    order_wires = _load_order(args.order_file) if args.order_file else None
    printed = False
    for place in args.marginal or []:
        if order_wires is None:
            raw, order, stats = posterior.query_stats([place])
            vec = normalize(raw)
        else:
            marg = terminate(posterior.mbn, [place])
            internal = set(marg.graph.internal_wires())
            effective = [w for w in order_wires if w in internal]
            mat, stats = run_elimination_stats(marg, effective)
            vec = normalize(_as_vector(mat))
        print(f"{place}=1: {_fmt(vec.entry(1))}")
        if args.dump_matrix:
            sys.stdout.write(dump_vector(vec))
        if args.stats:
            width = (order.width if order_wires is None
                     else order_width(marg, effective))
            _print_stats({"marginal": place}, width, stats)
        printed = True
    if args.mass:
        raw, order, stats = posterior.query_stats(())
        print(f"mass: {_fmt(raw.mass())}")
        if args.stats:
            _print_stats({"mass": True}, order.width, stats)
        printed = True
    if not printed:
        print("nothing to report: pass --marginal and/or --mass",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_oracle(args) -> int:
    trace = load_trace(args.trace)
    joint = dense_posterior(trace)
    printed = False
    for place in args.marginal or []:
        vec = normalize(marginal_of(joint, trace.net, [place]))
        print(f"{place}=1: {_fmt(vec.entry(1))}")
        if args.dump_matrix:
            sys.stdout.write(dump_vector(vec))
        printed = True
    if args.mass:
        print(f"mass: {_fmt(joint.mass())}")
        printed = True
    if not printed:
        print("nothing to report: pass --marginal and/or --mass",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_width(args) -> int:
    trace = load_trace(args.trace)
    posterior = run(trace)
    marg = terminate(posterior.mbn, [])
    order = min_degree_order(marg)
    report = {
        "order": [wire_str(w) for w in order.wires],
        "width": order.width,
        "max_factor_entries": 1 << order.width,
    }
    print(json.dumps(report))
    if args.dump_graph:
        sys.stdout.write(dump_graph(marg.graph))
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = BenchConfig(
        places=_parse_range(args.places),
        transitions=_parse_range(args.transitions),
        max_pre=args.max_pre,
        max_post=args.max_post,
        max_active=args.max_active,
        steps=args.steps,
        trials=args.trials,
        seed=args.seed,
        semantics=args.semantics,
        engines=tuple(args.engines.split(",")),
    )
    csv = rows_to_csv(bench_rows(cfg))
    if args.out:
        Path(args.out).write_text(csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="pnbayes",
                     description="Posterior reasoning over probabilistic "
                                 "condition/event nets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a net JSON file")
    p.add_argument("net")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("query",
                       help="symbolic posterior queries on a trace")
    p.add_argument("trace")
    p.add_argument("--marginal", action="append", metavar="PLACE",
                   help="print P(PLACE=1 | observations); repeatable")
    p.add_argument("--mass", action="store_true",
                   help="print the probability of the observations")
    p.add_argument("--order-file", metavar="FILE",
                   help="force an elimination order (one wire per line, "
                        "entries external to a query are skipped)")
    p.add_argument("--dump-matrix", action="store_true",
                   help="also dump each marginal in matrix format")
    p.add_argument("--stats", action="store_true",
                   help="after each answer, print one JSON line with the "
                        "order width, max_factor_wires, contractions, "
                        "swept wires, whether grouped contraction ran and "
                        "whether the query planned over the posterior's "
                        "summary")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("oracle",
                       help="dense-engine answers for cross-checking")
    p.add_argument("trace")
    p.add_argument("--marginal", action="append", metavar="PLACE")
    p.add_argument("--mass", action="store_true")
    p.add_argument("--dump-matrix", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("width",
                       help="min-degree order and width of the posterior "
                            "network (all places marginalized)")
    p.add_argument("trace")
    p.add_argument("--dump-graph", action="store_true")
    p.set_defaults(func=_cmd_width)

    p = sub.add_parser("bench", help="random-net engine comparison, CSV out")
    p.add_argument("--places", required=True, metavar="A..B[..STEP]")
    p.add_argument("--transitions", default="10..15", metavar="A..B[..STEP]")
    p.add_argument("--max-pre", type=int, default=3)
    p.add_argument("--max-post", type=int, default=3)
    p.add_argument("--max-active", type=int, default=5)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--semantics", choices=(INDEPENDENT, STOCHASTIC),
                   default=INDEPENDENT)
    p.add_argument("--engines", default=",".join(ENGINES),
                   help="comma-separated subset of mbn,dense")
    p.add_argument("--out", metavar="FILE", help="write CSV here")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InconsistentEvidence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVIDENCE
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except PnbayesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
