"""Command-line interface: run one configured experiment, benchmark methods
across seeds, or inspect a mixing graph's spectrum.

Exit codes: 0 on success, 2 on configuration or validation problems, 3 when
a run aborts at runtime (non-finite objective or a failed estimate).
"""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigError, build_graph, compare, load_config, parse_seed_spec, run
from .network import GraphError, build_laplacian
from .oracles import EstimatorError
from .sliding import SolverAbort
from .trace import format_float


def _cmd_run(args) -> int:
    cfg = load_config(args.config, args.overrides)
    trace = run(cfg)
    if cfg.out_path:
        final = trace.final()
        print(f"wrote {cfg.out_path}")
        print(f"final: step={final.step} psi0={format_float(final.psi0)} "
              f"fo={final.fo_calls} zo={final.zo_calls} comm={final.comm_rounds}")
    else:
        sys.stdout.write(trace.to_text())
    return 0


def _cmd_bench(args) -> int:
    cfg = load_config(args.config, args.overrides)
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    seeds = parse_seed_spec(args.seeds)
    _, text = compare(cfg, methods, seeds, metric=args.metric, out_path=args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_inspect_graph(args) -> int:
    graph = build_graph(args.topology, args.m, args.edge_file)
    lap = build_laplacian(graph)
    print(f"topology = {graph.topology_tag}")
    print(f"m = {graph.m}")
    print(f"edges = {len(graph.edges)}")
    print(f"lambda_max = {format_float(lap.lambda_max)}")
    print(f"lambda_min_plus = {format_float(lap.lambda_min_plus)}")
    print(f"chi = {format_float(lap.chi)}")
    print("eigenvalues = " + " ".join(format_float(v) for v in lap.eigenvalues))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sliding-opt",
        description="Zeroth-order gradient sliding for composite objectives.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True, help="flat key = value config file")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (repeatable)")

    p_bench = sub.add_parser("bench", help="compare methods over a seed range")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE")
    p_bench.add_argument("--methods", required=True,
                         help="comma list, e.g. zosa,gd,zogd")
    p_bench.add_argument("--seeds", required=True, help="range a..b or comma list")
    p_bench.add_argument("--metric", default="gap_at_budget",
                         help="gap_at_budget or budget_to_gap:<target>")
    p_bench.add_argument("--out", default=None, help="write the table here")

    p_graph = sub.add_parser("inspect-graph", help="print a mixing graph's spectrum")
    p_graph.add_argument("--topology", default="star",
                         help="star | complete | chain | cycle | custom")
    p_graph.add_argument("--m", type=int, default=None,
                         help="number of nodes (default 20; custom: the edge file's count)")
    p_graph.add_argument("--edge-file", default=None,
                         help="edge list for topology = custom")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "bench": _cmd_bench, "inspect-graph": _cmd_inspect_graph}
    try:
        return handlers[args.command](args)
    except (SolverAbort, EstimatorError) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
