"""Digest the CLI's output over a fixed matrix, so "same outputs" is one diff.

Usage: python tools/cli_digest.py   (from anywhere; stdlib only)

Generates seeded input graphs in a temporary directory with ``klsparse
generate`` (and their weighted and sparse copies), then runs
``klsparse.cli.main`` in-process over every subcommand: ``extract`` under
all 21 heuristics at seeds 0 and 1 on several (k, l) pairs, its default
and ``--weighted``; ``decide``; ``components``; ``maximal-2k``;
``verify``; every ``generate`` family; and ``bench`` with its runtime
column dropped.  Each run adds its argument list (inputs by name, not
path), exit code, stdout and stderr to its subcommand's sha256.  Prints
one line per subcommand, ``<sha256> <subcommand> <runs>``, then the
sha256 of those lines as ``<sha256> total``.  Two checkouts that print
the same lines give byte-identical CLI output on the whole matrix.
``tools/cli_digest.txt`` holds the lines this checkout must print, and
``tests/test_cli_digest.py`` compares against it, so a change to any CLI
stdout updates that file too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from klsparse.cli import BENCH_HEADER, main as cli_main  # noqa: E402
from klsparse.heuristics import STRATEGY_NAMES  # noqa: E402

# input name: generate arguments; an argument that names an input is
# replaced by its path
_GENERATED = {
    "@er": ["--family", "erdos-renyi", "--n", "60", "--p", "0.15", "--seed", "1"],
    "@dense": ["--family", "erdos-renyi", "--n", "30", "--p", "0.4", "--seed", "2"],
    "@ba": ["--family", "barabasi-albert", "--n", "60", "--m-attach", "3",
            "--seed", "1"],
    "@tight": ["--family", "tight", "--n", "30", "--k-trees", "2", "--seed", "1"],
    "@rigid": ["--family", "rigid", "--n", "8", "--seed", "1"],
    "@base": ["--family", "erdos-renyi", "--n", "20", "--p", "0.2", "--seed", "4"],
    "@molecular": ["--family", "molecular", "--n", "20", "--multiplicity", "3",
                   "--seed", "1", "--input", "@base"],
    "@small": ["--family", "erdos-renyi", "--n", "8", "--p", "0.5", "--seed", "3"],
    "@tiny-tight": ["--family", "tight", "--n", "6", "--k-trees", "2",
                    "--seed", "2"],
    # sparse at (2,3) with nine components
    "@thin": ["--family", "erdos-renyi", "--n", "40", "--p", "0.1", "--seed", "1"],
    "@mid": ["--family", "erdos-renyi", "--n", "60", "--p", "0.08", "--seed", "1"],
}
# sparse input name: (input, k, l) whose extract output it keeps
_SPARSE = {
    "@rigid-23": ("@rigid", 2, 3),
    "@er-11": ("@er", 1, 1),
    "@ba-20": ("@ba", 2, 0),
    "@dense-31": ("@dense", 3, 1),
    "@mid-23": ("@mid", 2, 3),
    "@mid-22": ("@mid", 2, 2),
    "@mid-21": ("@mid", 2, 1),
}
_PAIRS = [(1, 0), (1, 1), (2, 0), (2, 2), (2, 3), (3, 1), (1, 2), (2, 4)]
_EXTRACT_PAIRS = [(2, 3), (1, 1), (2, 0), (3, 1)]
_SIMPLE = ["@er", "@dense", "@ba", "@rigid", "@small", "@thin", *_SPARSE]


def _run(argv: list[str], paths: dict[str, str]) -> tuple[int, str, str]:
    """One in-process CLI call, inputs named: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([paths.get(a, a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _kl(k: int, l: int, name: str) -> list[str]:
    return ["-k", str(k), "-l", str(l), "--input", name]


def _matrix():
    """(subcommand, argv) of every run."""
    for spec in _GENERATED.values():
        yield "generate", ["generate", *spec]
    for name in [*_GENERATED, *_SPARSE]:
        for k, l in _PAIRS:
            yield "decide", ["decide", *_kl(k, l, name)]
    for name in ("@er", "@dense", "@ba", "@molecular"):
        for k, l in _EXTRACT_PAIRS:
            yield "extract", ["extract", *_kl(k, l, name)]
            for heuristic in STRATEGY_NAMES:
                for seed in ("0", "1"):
                    yield "extract", ["extract", *_kl(k, l, name),
                                      "--heuristic", heuristic, "--seed", seed]
    yield "extract", ["extract", *_kl(1, 2, "@er")]
    for k, l in _PAIRS:
        yield "extract", ["extract", *_kl(k, l, "@weighted"), "--weighted"]
    yield "extract", ["extract", *_kl(2, 3, "@weighted"), "--weighted",
                      "--heuristic", "Basic"]
    for name, (_, k, l) in _SPARSE.items():
        yield "components", ["components", *_kl(k, l, name)]
    for name in ("@thin", "@tight"):
        for k, l in ((2, 3), (2, 2), (2, 1), (3, 1), (1, 0)):
            yield "components", ["components", *_kl(k, l, name)]
    for name in [*_SIMPLE, "@tight"]:
        for k in ("1", "2", "3"):
            yield "maximal-2k", ["maximal-2k", "-k", k, "--input", name]
    for name in ("@small", "@tiny-tight"):
        for k, l in _PAIRS:
            yield "verify", ["verify", *_kl(k, l, name)]
    yield "verify", ["verify", *_kl(2, 3, "@rigid")]  # past the oracle's n
    bench = ["bench", "--n", "12", "--pair", "2,3", "--pair", "1,0",
             "--trials", "2", "--seed", "1"]
    for family in ("erdos-renyi", "barabasi-albert", "tight", "rigid",
                   "molecular"):
        bench += ["--family", family]
    yield "bench", bench
    yield "bench", [*bench, "--aggregate"]


def _weighted_copy(text: str, seed: int) -> str:
    """The graph ``text`` with seeded weights of a few values, so that
    ties occur."""
    rng = random.Random(seed)
    head, *edges = text.splitlines()
    lines = [head + " weighted"]
    lines += [f"{e} {rng.choice((0.5, 1.0, 2.0, 3.5))!r}" for e in edges]
    return "\n".join(lines) + "\n"


def _subgraph(text: str, ids: list[int]) -> str:
    """The graph ``text`` restricted to the edges ``ids``."""
    head, *edges = text.splitlines()
    n = head.split()[1]
    return "".join([f"kl-graph {n} {len(ids)}\n", *(f"{edges[e]}\n" for e in ids)])


def _drop_runtime(csv: str, aggregate: bool) -> str:
    """Bench CSV without its runtime column, the only clock reading:
    ``runtime_ns`` per run, ``mean_runtime_ns`` (the last) aggregated."""
    column = -1 if aggregate else BENCH_HEADER.split(",").index("runtime_ns")
    rows = []
    for row in csv.splitlines():
        cells = row.split(",")
        del cells[column]
        rows.append(",".join(cells) + "\n")
    return "".join(rows)


def _make_inputs(tmp: Path) -> dict[str, str]:
    """Write every input graph under ``tmp``; returns name -> path."""
    paths: dict[str, str] = {}

    def write(name: str, text: str) -> None:
        path = tmp / f"{name[1:]}.txt"
        path.write_text(text)
        paths[name] = str(path)

    for name, spec in _GENERATED.items():
        code, out, err = _run(["generate", *spec], paths)
        if code != 0:
            raise SystemExit(f"generate {name} failed: {err}")
        write(name, out)
    write("@weighted", _weighted_copy(Path(paths["@er"]).read_text(), 5))
    for name, (source, k, l) in _SPARSE.items():
        code, out, err = _run(["extract", *_kl(k, l, source)], paths)
        if code != 0:
            raise SystemExit(f"extract {source} failed: {err}")
        ids = [int(line) for line in out.splitlines()[:-1]]
        write(name, _subgraph(Path(paths[source]).read_text(), ids))
    return paths


def main() -> None:
    digests = {}
    runs: dict[str, int] = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = _make_inputs(Path(tmp))
        for command, argv in _matrix():
            code, out, err = _run(argv, paths)
            if command == "bench":
                out = _drop_runtime(out, "--aggregate" in argv)
            record = repr((argv, code, out, err)).encode()
            digests.setdefault(command, hashlib.sha256()).update(record)
            runs[command] = runs.get(command, 0) + 1
    lines = [f"{digests[c].hexdigest()} {c} {runs[c]}" for c in digests]
    lines.append(hashlib.sha256("\n".join(lines).encode()).hexdigest() + " total")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
