"""Command-line surface: decide, extract, components, maximal-2k,
generate, verify, bench.

Exit codes: 0 success; 2 input parse failure, a ``GraphParseError``;
3 usage or regime error, any other ``ValueError`` or an ``OSError``;
4 internal error, an ``InvariantError``: an engine invariant failed (a
reversal bound exceeded, an endpoint that cannot be drained, a stale
reversal path, an indegree overflow or a strategy order that skips or
repeats an edge), which signals a bug rather than bad input.  The class
of the exception alone decides the code.
All randomness flows from ``--seed``; nothing depends on the wall clock
except the benchmark's runtime column.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .components import (
    components_of,
    extract_with_components,  # noqa: F401 - perfbench's tracer wraps this name
)
from .generators import FAMILIES, GenSpec
from .heuristics import STRATEGY_NAMES, make_strategy
from .multigraph import GraphParseError, Multigraph, parse_graph, serialize_graph
from .oracle import is_sparse_bruteforce
from .orientation import InvariantError
from .pebble import SparsityParams, decide, extract, extract_weighted
from .sparse2k import extract_maximal_2k

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4

BENCH_HEADER = (
    "family,n,m,k,l,heuristic,trial_seed,accepted,"
    "runtime_ns,bfs_node_visits,path_reversals,early_terminated"
)
AGGREGATE_HEADER = "family,n,k,l,heuristic,trials,mean_runtime_ns"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _read_graph(path: str | None) -> Multigraph:
    # bytes, so that parse_graph reports undecodable input as a parse error
    if path is None or path == "-":
        return parse_graph(getattr(sys.stdin, "buffer", sys.stdin).read())
    with open(path, "rb") as fh:
        return parse_graph(fh.read())


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_decide(args) -> int:
    graph = _read_graph(args.input)
    params = SparsityParams(args.k, args.l)
    report = decide(graph, params)
    if report.is_tight:
        word = "tight"
    elif report.is_spanning:
        word = "spanning"
    elif report.is_sparse:
        word = "sparse"
    else:
        word = "none"
    print(word)
    print(
        f"accepted={report.accepted_count} of {graph.m} "
        f"tight_size={params.tight_size(graph.n)}"
    )
    return EXIT_OK


def _write_ids(ids) -> None:
    """Print the ids in ascending order, one a line, in one write."""
    sys.stdout.write("".join(f"{e}\n" for e in sorted(ids)))


def _cmd_extract(args) -> int:
    graph = _read_graph(args.input)
    params = SparsityParams(args.k, args.l)
    if args.weighted:
        if args.heuristic is not None:
            raise ValueError(
                "--weighted fixes the processing order; --heuristic conflicts"
            )
        report = extract_weighted(graph, params)
    else:
        heuristic = args.heuristic if args.heuristic is not None else "Basic"
        strategy = make_strategy(heuristic, graph, params, args.seed)
        report = extract(graph, params, strategy)
    _write_ids(report.accepted)
    print(f"accepted={report.accepted_count} of {graph.m}")
    if report.total_weight is not None:
        print(f"weight={report.total_weight!r}")
    return EXIT_OK


def _cmd_components(args) -> int:
    graph = _read_graph(args.input)
    params = SparsityParams(args.k, args.l)
    comps = components_of(graph, params)
    for comp in comps:
        print(" ".join(str(x) for x in comp))
    print(f"components={len(comps)}")
    return EXIT_OK


def _cmd_maximal_2k(args) -> int:
    graph = _read_graph(args.input)
    report = extract_maximal_2k(graph, args.k)
    _write_ids(report.accepted)
    print(f"accepted={report.accepted_count} of {graph.m}")
    return EXIT_OK


def _gen_spec(args, family: str, n: int, seed: int, base=None) -> GenSpec:
    """The generator call for ``family`` with the size options of ``args``."""
    return GenSpec(
        family=family,
        seed=seed,
        n=n,
        p=args.p,
        m_attach=args.m_attach,
        base_n=n,
        k_trees=args.k_trees,
        multiplicity=args.multiplicity,
        base=base,
    )


def _cmd_generate(args) -> int:
    base = _read_graph(args.input) if args.family == "molecular" else None
    graph = _gen_spec(args, args.family, args.n, args.seed, base).build()
    _write_text(args.output, serialize_graph(graph))
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph = _read_graph(args.input)
    params = SparsityParams(args.k, args.l)
    ok, witness = is_sparse_bruteforce(graph, params)
    if ok:
        print("sparse")
    else:
        print("not-sparse witness=" + " ".join(str(x) for x in witness))
    return EXIT_OK


def _parse_pairs(texts: list[str]) -> list[SparsityParams]:
    pairs = []
    for text in texts:
        raw = text.replace(":", ",").split(",")
        if len(raw) != 2:
            raise ValueError(f"bad --pair {text!r}; expected K,L")
        pairs.append(SparsityParams(int(raw[0]), int(raw[1])))
    return pairs


def _bench_graph(family: str, n: int, args, seed: int) -> Multigraph:
    """Trial graph of ``seed``; the molecular base is a G(n, p) of it."""
    base = None
    if family == "molecular":
        base = _gen_spec(args, "erdos-renyi", n, seed).build()
    return _gen_spec(args, family, n, seed, base).build()


def _cmd_bench(args) -> int:
    families = args.family or ["erdos-renyi"]
    sizes = args.n or [100]
    pairs = _parse_pairs(args.pair or ["2,3"])
    for p in pairs:
        if not p.is_augmenting_regime:
            raise ValueError(f"bench needs l < 2k, got (k={p.k}, l={p.l})")
    heuristics = args.heuristic or list(STRATEGY_NAMES)
    for h in heuristics:
        make_strategy(h, Multigraph(1, []), SparsityParams(1, 0))  # validate name
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")

    lines = [BENCH_HEADER]
    sums: dict[tuple, list[float]] = {}
    for family in families:
        for n in sizes:
            for params in pairs:
                for trial in range(args.trials):
                    trial_seed = args.seed + trial
                    graph = _bench_graph(family, n, args, trial_seed)
                    for heuristic in heuristics:
                        t0 = time.perf_counter_ns()
                        # --seed seeds the strategy, as in extract; the
                        # trial seed only the graph
                        strategy = make_strategy(
                            heuristic, graph, params, args.seed
                        )
                        report = extract(graph, params, strategy)
                        runtime = time.perf_counter_ns() - t0
                        counters = report.counters
                        lines.append(
                            f"{family},{graph.n},{graph.m},{params.k},{params.l},"
                            f"{heuristic},{trial_seed},{report.accepted_count},"
                            f"{runtime},{counters.bfs_node_visits},"
                            f"{counters.path_reversals},"
                            f"{counters.early_termination_hit}"
                        )
                        key = (family, graph.n, params.k, params.l, heuristic)
                        sums.setdefault(key, []).append(runtime)
    if args.aggregate:
        lines = [AGGREGATE_HEADER]
        for key in sorted(sums):
            family, n, k, l, heuristic = key
            runs = sums[key]
            mean = sum(runs) / len(runs)
            lines.append(
                f"{family},{n},{k},{l},{heuristic},{len(runs)},{mean:.0f}"
            )
    _write_text(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--input", "-i", default=None, help="input graph file (default stdin)"
    )


def _add_kl(p: argparse.ArgumentParser, need_l: bool = True) -> None:
    p.add_argument("-k", type=int, required=True, help="sparsity parameter k")
    if need_l:
        p.add_argument("-l", type=int, required=True, help="sparsity parameter l")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing never changes
    it, and each ``parse_args`` call makes a fresh namespace."""
    parser = _Parser(prog="klsparse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="classify: sparse / tight / spanning / none")
    _add_kl(p)
    _add_input(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("extract", help="maximum (k,l)-sparse subgraph, l < 2k")
    _add_kl(p)
    _add_input(p)
    p.add_argument("--heuristic", default=None, help="strategy name (default Basic)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--weighted",
        action="store_true",
        help="maximum-weight extraction by non-increasing weight",
    )
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("components", help="(k,l)-components of a sparse graph")
    _add_kl(p)
    _add_input(p)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser(
        "maximal-2k", help="inclusion-wise maximal (k,2k)-sparse subgraph"
    )
    _add_kl(p, need_l=False)
    _add_input(p)
    p.set_defaults(func=_cmd_maximal_2k)

    p = sub.add_parser("generate", help="benchmark graph families")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, default=0, help="node count (base_n for rigid)")
    p.add_argument("--p", type=float, default=0.1, help="edge probability (G(n,p))")
    p.add_argument("--m-attach", type=int, default=1, dest="m_attach")
    p.add_argument("--k-trees", type=int, default=1, dest="k_trees")
    p.add_argument("--multiplicity", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    _add_input(p)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="brute-force sparsity check (small graphs)")
    _add_kl(p)
    _add_input(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="benchmark harness, CSV output")
    p.add_argument("--family", action="append", choices=FAMILIES)
    p.add_argument("--n", type=int, action="append")
    p.add_argument("--pair", action="append", help="K,L (repeatable)")
    p.add_argument("--heuristic", action="append")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--m-attach", type=int, default=3, dest="m_attach")
    p.add_argument("--k-trees", type=int, default=3, dest="k_trees")
    p.add_argument(
        "--multiplicity",
        type=int,
        default=6,
        help="edge copies of the molecular family's G(n, p) base (default 6)",
    )
    p.add_argument("--aggregate", action="store_true")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except GraphParseError as exc:
        print(f"klsparse: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"klsparse: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvariantError as exc:
        name = type(exc).__name__
        print(f"klsparse: internal error: {name}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
