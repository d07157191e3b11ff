"""Compare edge orders on a fixed set of inputs, as one markdown table.

Usage: python tools/order_table.py   (from anywhere; stdlib only)

Builds each row's graph with the library generators at graph seed 1,
then runs :func:`klsparse.extract` under each order at strategy seed 0,
the seed ``decide`` uses; Basic at seed 0 is storage order, the order
``extract`` runs without ``--heuristic``.  Per row and order it prints
the edges examined before the run stopped, the node visits, path
reversals and certified accepts (edges the degree certificate accepted
with no search) of the engine's counters, the accepted size, and the best
wall time of three runs (strategy construction included, graph build
excluded).  The accepted size is a matroid rank, so every order must
reach the same one; the script exits 1 naming the row if not.

The rows are the heuristic table of ROADMAP item 5, a molecular input at
(5,6), and the inputs where Transp, ``decide``'s order, was slower than
NInDegMin before the degree certificate.  The last rows run the l = 2k
engine, :func:`klsparse.extract_maximal_2k`, in storage order, the only
order ``maximal-2k`` runs; there the accepted sets form no matroid, so
the accepted size is printed but not compared.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from klsparse import (  # noqa: E402
    Multigraph,
    Reason,
    SparsityParams,
    extract,
    extract_maximal_2k,
    gen_barabasi_albert,
    gen_erdos_renyi,
    gen_rigid,
    make_strategy,
    molecular_transform,
)

ORDERS = ("Basic", "NInDegMin", "Transp", "TranspOne", "UnionBasic", "UnionNBasic")

# (input label, the graph as a function of the graph seed, (k, l))
ROWS = [
    ("G(3000, 8/n)", lambda s: gen_erdos_renyi(3000, 8 / 3000, s), (2, 3)),
    ("G(600, 0.1)", lambda s: gen_erdos_renyi(600, 0.1, s), (2, 3)),
    ("BA(3000, 3)", lambda s: gen_barabasi_albert(3000, 3, s), (2, 3)),
    ("gen_rigid(300)", lambda s: gen_rigid(300, s), (2, 3)),
    ("G(2000, 12/n)", lambda s: gen_erdos_renyi(2000, 12 / 2000, s), (3, 3)),
    ("G(600, 0.1)", lambda s: gen_erdos_renyi(600, 0.1, s), (3, 3)),
    ("G(2000, 12/n)", lambda s: gen_erdos_renyi(2000, 12 / 2000, s), (2, 1)),
    ("G(2000, 12/n)", lambda s: gen_erdos_renyi(2000, 12 / 2000, s), (3, 1)),
    ("G(2000, 6/n)", lambda s: gen_erdos_renyi(2000, 6 / 2000, s), (1, 0)),
    ("G(2000, 8/n)", lambda s: gen_erdos_renyi(2000, 8 / 2000, s), (2, 0)),
    ("ER(1000, 0.006)x6",
     lambda s: molecular_transform(gen_erdos_renyi(1000, 0.006, s), 6), (5, 6)),
    ("BA(20000, 1)", lambda s: gen_barabasi_albert(20000, 1, s), (1, 1)),
    ("star(20000)",
     lambda s: Multigraph(20001, [(0, v) for v in range(1, 20001)]), (1, 1)),
]
# (input label, the graph as a function of the graph seed, k): rows of
# the l = 2k engine, the inputs ROADMAP item 6 measures it on
ROWS_2K = [
    ("G(1000, 0.01)", lambda s: gen_erdos_renyi(1000, 0.01, s), 3),
    ("G(4000, 0.001)", lambda s: gen_erdos_renyi(4000, 0.001, s), 2),
    ("G(2000, 0.002, seed 7)", lambda s: gen_erdos_renyi(2000, 0.002, 7), 2),
]
HEADER = ("| input | (k,l) | order | examined | visits | reversals | certified "
          "| accepted | wall ms |\n|---|---|---|---|---|---|---|---|---|")


def measure(graph, run, repeat: int) -> tuple:
    """One run on one graph, ``run()`` returning its report: (examined,
    visits, reversals, certified accepts, accepted, best wall seconds)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        report = run()
        best = min(best, time.perf_counter() - t0)
    examined = graph.m - report.reason_counts()[Reason.EARLY_TERMINATED]
    counters = report.counters
    return (examined, counters.bfs_node_visits, counters.path_reversals,
            counters.certified_accepts, report.accepted_count, best)


def _line(label: str, k: int, l: int, name: str, cells: tuple) -> str:
    examined, visits, reversals, certified, accepted, wall = cells
    return (f"| {label} | ({k},{l}) | {name} | {examined} | {visits} "
            f"| {reversals} | {certified} | {accepted} | {wall * 1e3:.1f} |")


def table(rows, graph_seed: int, seed: int, repeat: int, rows_2k=()):
    """The table's lines, one per row and order, the header first, then
    one per row of ``rows_2k``; raises SystemExit when a row's orders reach
    different accepted sizes."""
    yield HEADER
    for label, build, (k, l) in rows:
        graph = build(graph_seed)
        params = SparsityParams(k, l)
        sizes = set()
        for name in ORDERS:
            cells = measure(graph, lambda: extract(
                graph, params, make_strategy(name, graph, params, seed)), repeat)
            sizes.add(cells[4])
            yield _line(label, k, l, name, cells)
        if len(sizes) > 1:
            raise SystemExit(f"{label} at ({k},{l}): accepted sizes "
                             f"{sorted(sizes)} differ between orders")
    for label, build, k in rows_2k:
        graph = build(graph_seed)
        cells = measure(graph, lambda: extract_maximal_2k(graph, k), repeat)
        yield _line(label, k, 2 * k, "storage", cells)


def main() -> None:
    for line in table(ROWS, graph_seed=1, seed=0, repeat=3, rows_2k=ROWS_2K):
        print(line, flush=True)


if __name__ == "__main__":
    main()
