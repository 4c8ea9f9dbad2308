"""Command-line surface.

Exit codes: 0 feasible/success, 1 infeasible, 2 error, any exception
included, so a crash never reads as a verdict.  Verdicts and optimal
values come from the condensed-expansion fast path; witness flows need
the full expansion and are skipped (with a notice) past its budget.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .model import INF, ModelError, compute_mu
from .reductions import SuperTerminals, attach_super_terminals
from .breakpoints import cten_breakpoints
from .expansion import ExpandedGraph, OracleBudgetError, build_cten, build_ten, ten_size
from .maxflow import max_flow
from .feasibility import capacity_oT_ten
from .gadget import gadget_breakpoints
from .netio import InstanceSpec, ParsedInstance, generate_instance, parse_network, serialize_flow, serialize_network
from .solvers import BoundedSearchError, _at_horizon, dttn_feasible, extract_flow, max_flow_over_time, quickest_transshipment

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_ERROR = 2


def _load(path: str) -> ParsedInstance:
    with open(path, encoding="utf-8") as fh:
        parsed = parse_network(fh.read())
    for w in parsed.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return parsed


def _cmd_feas(args) -> int:
    parsed = _load(args.input)
    outcome = dttn_feasible(parsed.network, parsed.network.horizon, parsed.demands)
    print(outcome.serialize())
    if not outcome.feasible:
        return EXIT_INFEASIBLE
    try:
        flow = extract_flow(parsed.network, parsed.network.horizon, parsed.demands)
        sys.stdout.write(serialize_flow(flow))
    except OracleBudgetError as exc:
        print(f"notice: verdict only, no witness flow at this scale ({exc})", file=sys.stderr)
    return EXIT_OK


def _cmd_quickest(args) -> int:
    parsed = _load(args.input)
    try:
        t_star, flow = quickest_transshipment(parsed.network, parsed.demands, args.tcap)
    except BoundedSearchError as exc:
        print(f"INFEASIBLE {exc}")
        return EXIT_INFEASIBLE
    print(f"quickest {t_star}")
    if flow is None:
        print("notice: verdict only, no witness flow at this scale", file=sys.stderr)
    else:
        sys.stdout.write(serialize_flow(flow))
    return EXIT_OK


def _cmd_maxflow(args) -> int:
    parsed = _load(args.input)
    net = parsed.network
    if args.horizon is not None:
        net = _at_horizon(net, args.horizon)
    value, flow = max_flow_over_time(net, net.horizon)
    print(f"maxflow {value}")
    if value == INF:
        print("notice: the flow over time is unbounded, so no witness flow exists", file=sys.stderr)
    elif flow is None:
        print("notice: verdict only, no witness flow at this scale", file=sys.stderr)
    else:
        sys.stdout.write(serialize_flow(flow))
    return EXIT_OK


def _cten(full: SuperTerminals) -> ExpandedGraph:
    """The condensed expansion a verdict solves, built without running one.

    No max flow runs, so demands that do not sum to 0 are accepted.
    """
    return build_cten(full, cten_breakpoints(full, full.nodes))


def _cmd_expand(args) -> int:
    parsed = _load(args.input)
    full = attach_super_terminals(parsed.network, parsed.demands)
    graph = build_ten(full) if args.mode == "ten" else _cten(full)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(graph.to_dot(args.mode) + "\n")
    print(f"wrote {args.mode} with {graph.vertex_count} vertices, {len(graph.arcs)} arcs")
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = InstanceSpec(
        n_nodes=args.nodes,
        n_sources=args.sources,
        n_sinks=args.sinks,
        n_edges=args.edges,
        horizon=args.horizon,
        max_capacity=args.max_cap,
        max_travel_time=args.max_tt,
        max_pieces=args.pieces,
        demand_mode=args.demand_mode,
    )
    parsed = generate_instance(spec, args.seed)
    text = serialize_network(parsed.network, parsed.demands)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    parsed = _load(args.input)
    net, v = parsed.network, parsed.demands
    outcome = dttn_feasible(net, net.horizon, v)
    oracle_value, _ = max_flow(build_ten(attach_super_terminals(net, v)))
    oracle_feasible = oracle_value >= v.required()
    print(f"fast-path: {'FEASIBLE' if outcome.feasible else 'INFEASIBLE'}")
    print(f"oracle:    {'FEASIBLE' if oracle_feasible else 'INFEASIBLE'}")
    if outcome.feasible != oracle_feasible:
        print("MISMATCH: fast path disagrees with the full-expansion oracle", file=sys.stderr)
        return EXIT_ERROR
    try:
        gadget = gadget_breakpoints(net)
    except ModelError as exc:
        print(f"breakpoints: not cross-checked, the gadget form cannot represent this network ({exc})")
    else:
        if outcome.breakpoints != gadget:
            print("MISMATCH: breakpoint sets disagree with the gadget form's", file=sys.stderr)
            return EXIT_ERROR
        print("breakpoints: agree")
    if not outcome.feasible:
        o_t = capacity_oT_ten(net, outcome.violated)
        print(f"oT:        fast-path {outcome.o_T}, oracle {o_t}")
        if outcome.o_T != o_t:
            print("MISMATCH: certificate capacity disagrees with the full expansion", file=sys.stderr)
            return EXIT_ERROR
    print("agreement: yes")
    return EXIT_OK if outcome.feasible else EXIT_INFEASIBLE


def _cmd_stats(args) -> int:
    parsed = _load(args.input)
    net, v = parsed.network, parsed.demands
    full = attach_super_terminals(net, v)
    cten = _cten(full)
    ten_nodes, ten_arcs = ten_size(full)
    top = max((u for fn in net.edges.values() for _, _, u in fn.capacity.pieces), default=0)
    print(f"n {len(net.nodes)}")
    print(f"m {len(net.edges)}")
    print(f"k {len(net.terminals)}")
    print(f"mu {compute_mu(net)}")
    print(f"U {'inf' if top == INF else top}")
    print(f"cten-nodes {cten.vertex_count}")
    print(f"cten-arcs {len(cten.arcs)}")
    print(f"ten-nodes {ten_nodes}")
    print(f"ten-arcs {ten_arcs}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempoflow",
        description="Dynamic transshipments on temporal networks via condensed time expansion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("feas", help="decide feasibility of an instance")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_feas)

    p = sub.add_parser("quickest", help="least feasible horizon")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--tcap", type=int, default=2**20, help="search bound on the horizon")
    p.set_defaults(func=_cmd_quickest)

    p = sub.add_parser("maxflow", help="maximum flow over time (single source/sink)")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-T", "--horizon", type=int, default=None)
    p.set_defaults(func=_cmd_maxflow)

    p = sub.add_parser("expand", help="export an expansion as DOT")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--mode", choices=("ten", "cten"), required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--nodes", type=int, default=6)
    p.add_argument("--edges", type=int, default=8)
    p.add_argument("--pieces", type=int, default=3)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--sources", type=int, default=1)
    p.add_argument("--sinks", type=int, default=1)
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--max-cap", type=int, default=4)
    p.add_argument("--max-tt", type=int, default=3)
    p.add_argument("--demand-mode", choices=("feasible", "random", "zero"), default="feasible")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="cross-check the fast path against the full expansion")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="instance and expansion size report")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # a crash must not read as INFEASIBLE (exit 1)
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
