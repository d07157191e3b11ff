"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from itertools import combinations, repeat

import pytest

import klsparse
from klsparse import (
    GraphParseError,
    InnerDigraph,
    InvariantError,
    Multigraph,
    ReversalBoundError,
    SparsityParams,
    STRATEGY_NAMES,
    StrategyContractError,
    extract,
    gen_erdos_renyi,
    serialize_graph,
)
from klsparse.cli import (
    AGGREGATE_HEADER,
    BENCH_HEADER,
    EXIT_INTERNAL,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)
from conftest import hub_pair


def write_graph(tmp_path, g: Multigraph, name: str = "g.txt") -> str:
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


def k4_path(tmp_path) -> str:
    return write_graph(tmp_path, Multigraph(4, list(combinations(range(4), 2))))


def test_decide_words(tmp_path, capsys):
    k4 = k4_path(tmp_path)
    assert main(["decide", "-k", "2", "-l", "2", "--input", k4]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "tight"
    assert out[1] == "accepted=6 of 6 tight_size=6"

    tri = write_graph(tmp_path, Multigraph(3, [(0, 1), (0, 2), (1, 2)]))
    assert main(["decide", "-k", "1", "-l", "1", "--input", tri]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "spanning"

    path3 = write_graph(tmp_path, Multigraph(3, [(0, 1), (1, 2)]), "p.txt")
    assert main(["decide", "-k", "2", "-l", "3", "--input", path3]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "sparse"

    uneven = write_graph(
        tmp_path, Multigraph(4, [(0, 1), (0, 1), (2, 3)]), "u.txt"
    )
    assert main(["decide", "-k", "1", "-l", "1", "--input", uneven]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "none"


def test_decide_l_equals_2k(tmp_path, capsys):
    tri = write_graph(tmp_path, Multigraph(3, [(0, 1), (0, 2), (1, 2)]))
    assert main(["decide", "-k", "1", "-l", "2", "--input", tri]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "none"
    assert out[1] == "accepted=1 of 3 tight_size=1"

    lone = write_graph(tmp_path, Multigraph(3, [(0, 1)]), "p.txt")
    assert main(["decide", "-k", "1", "-l", "2", "--input", lone]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "tight"
    assert out[1] == "accepted=1 of 1 tight_size=1"

    # loops make the input non-simple, which the l = 2k path rejects
    loop = write_graph(tmp_path, Multigraph(2, [(0, 0)]), "l.txt")
    assert main(["decide", "-k", "1", "-l", "2", "--input", loop]) == 3


def test_extract_output(tmp_path, capsys):
    k4 = k4_path(tmp_path)
    assert main(["extract", "-k", "2", "-l", "3", "--input", k4]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "accepted=5 of 6"
    assert [int(x) for x in out[:-1]] == sorted(int(x) for x in out[:-1])


def test_extract_heuristic_and_seed(tmp_path, capsys):
    k4 = k4_path(tmp_path)
    for argv in (
        ["extract", "-k", "2", "-l", "3", "--heuristic", "TranspOne", "--input", k4],
        ["extract", "-k", "2", "-l", "3", "--heuristic", "NBasicComp", "--seed", "5", "--input", k4],
        ["extract", "-k", "2", "-l", "3", "--heuristic", "UnionBasic", "--input", k4],
    ):
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "accepted=5 of 6"


def test_extract_weighted(tmp_path, capsys):
    g = Multigraph(
        4,
        list(combinations(range(4), 2)),
        weights=[5.0, 1.0, 4.0, 3.0, 2.0, 6.0],
    )
    path = write_graph(tmp_path, g)
    assert main(["extract", "-k", "2", "-l", "3", "--weighted", "--input", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "weight=20.0"
    assert out[-2] == "accepted=5 of 6"


def test_extract_weighted_conflicts_with_heuristic(tmp_path, capsys):
    g = Multigraph(2, [(0, 1)], weights=[1.0])
    path = write_graph(tmp_path, g)
    code = main(
        ["extract", "-k", "2", "-l", "3", "--weighted", "--heuristic", "Basic",
         "--input", path]
    )
    assert code == 3


def test_extract_unknown_heuristic(tmp_path):
    k4 = k4_path(tmp_path)
    assert main(["extract", "-k", "2", "-l", "3", "--heuristic", "Nope", "--input", k4]) == 3


def test_components_output(tmp_path, capsys):
    g = Multigraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    path = write_graph(tmp_path, g)
    assert main(["components", "-k", "2", "-l", "3", "--input", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0 1 2", "2 3 4", "components=2"]


def test_components_rejects_non_sparse(tmp_path, capsys):
    assert main(["components", "-k", "1", "-l", "1", "--input", k4_path(tmp_path)]) == 3


def test_maximal_2k_output(tmp_path, capsys):
    tri = write_graph(tmp_path, Multigraph(3, [(0, 1), (0, 2), (1, 2)]))
    assert main(["maximal-2k", "-k", "1", "--input", tri]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["0", "accepted=1 of 3"]


def test_maximal_2k_cli_output_pinned(tmp_path, capsys):
    # stdout computed before the l = 2k pass had a block store; 596 of
    # the 2150 edges are accepted
    g = write_graph(tmp_path, gen_erdos_renyi(300, 0.05, seed=1000))
    assert main(["maximal-2k", "-k", "2", "--input", g]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e66d22863d40ab5d9dd8b0647245118fe4b16648b7016fd85cfbbb91d7ebb701"
    )
    assert main(["decide", "-k", "2", "-l", "4", "--input", g]) == 0
    assert capsys.readouterr().out == "none\naccepted=596 of 2150 tight_size=596\n"


def test_maximal_2k_rejects_multigraph(tmp_path, capsys):
    g = write_graph(tmp_path, Multigraph(2, [(0, 1), (0, 1)]))
    assert main(["maximal-2k", "-k", "1", "--input", g]) == 3


def test_generate_deterministic(tmp_path, capsys):
    argv = ["generate", "--family", "erdos-renyi", "--n", "20", "--p", "0.3",
            "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("kl-graph 20 ")


def test_generate_to_file_and_verify(tmp_path, capsys):
    out_path = str(tmp_path / "gen.txt")
    assert main(["generate", "--family", "tight", "--n", "8", "--k-trees", "2",
                 "--seed", "3", "--output", out_path]) == 0
    capsys.readouterr()
    assert main(["verify", "-k", "2", "-l", "2", "--input", out_path]) == 0
    assert capsys.readouterr().out.strip() == "sparse"
    assert main(["decide", "-k", "2", "-l", "2", "--input", out_path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "tight"


def test_generate_molecular_reads_base(tmp_path, capsys):
    base = write_graph(tmp_path, Multigraph(2, [(0, 1)]))
    assert main(["generate", "--family", "molecular", "--multiplicity", "3",
                 "--input", base]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kl-graph 2 3")


def test_generate_rigid_bad_base_errors(capsys):
    assert main(["generate", "--family", "rigid", "--n", "1"]) == 3


def test_verify_witness(tmp_path, capsys):
    assert main(["verify", "-k", "2", "-l", "3", "--input", k4_path(tmp_path)]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "not-sparse witness=0 1 2 3"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("kl-graph 2 1\n0 banana\n")
    assert main(["decide", "-k", "1", "-l", "1", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err


def test_canonical_node_count_past_memory_is_parse_error(tmp_path):
    # n * 8 bytes overflows for n >= 2**60, so building either parser's
    # list of node ids fails before it allocates; a comment line sends the
    # file to the line parser.  The child process still caps its address
    # space, so a regression cannot exhaust memory
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from klsparse.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(klsparse.__file__))
    for prefix, line in (("", 1), ("# note\n", 2)):
        for n in (sys.maxsize, 2**62, 2**60):
            path = tmp_path / "huge.txt"
            path.write_text(f"{prefix}kl-graph {n} 0\n")
            proc = subprocess.run(
                [sys.executable, "-c", code, "decide", "-k", "2", "-l", "3",
                 "--input", str(path)],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src},
            )
            assert proc.returncode == EXIT_PARSE, proc.stderr
            assert proc.stderr == (
                f"klsparse: parse error: line {line}: node count {n} is too "
                "large to allocate\n"
            )


def test_undecodable_input_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"kl-graph 2 1\n0 \xff1\n")
    assert main(["decide", "-k", "1", "-l", "1", "--input", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_usage_errors(tmp_path, capsys):
    tri = write_graph(tmp_path, Multigraph(3, [(0, 1), (0, 2), (1, 2)]))
    # l > 2k is outside every regime
    assert main(["decide", "-k", "1", "-l", "3", "--input", tri]) == 3
    # extract requires l < 2k
    assert main(["extract", "-k", "1", "-l", "2", "--input", tri]) == 3
    # argparse-level failure: missing required -k
    assert main(["decide", "--input", tri]) == 3
    # unknown subcommand
    assert main(["frobnicate"]) == 3


def test_parser_reuse_keeps_calls_independent(tmp_path, capsys):
    # the parser is built once per process; a usage error and --help on it
    # must not change what the next call prints or returns
    k4 = k4_path(tmp_path)
    argv = ["extract", "-k", "2", "-l", "3", "--heuristic", "Transp",
            "--seed", "2", "--input", k4]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(["extract", "-k", "2", "--seed", "x", "--input", k4]) == 3
    assert "error" in capsys.readouterr().err
    assert main(["extract", "--help"]) == 0
    assert "--heuristic" in capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    # defaults are not carried over from an earlier call's options
    assert main(["extract", "-k", "2", "-l", "3", "--input", k4]) == 0
    default = capsys.readouterr().out
    assert main(["extract", "-k", "2", "-l", "3", "--heuristic", "Basic",
                 "--seed", "0", "--input", k4]) == 0
    assert capsys.readouterr().out == default


def test_bench_csv_shape(capsys):
    argv = ["bench", "--family", "erdos-renyi", "--n", "30", "--pair", "2,3",
            "--heuristic", "Basic", "--heuristic", "TranspOne",
            "--trials", "2", "--seed", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 1 + 2 * 2
    for row in lines[1:]:
        cells = row.split(",")
        assert len(cells) == 12
        assert cells[0] == "erdos-renyi"
        assert cells[1] == "30"
        assert cells[5] in {"Basic", "TranspOne"}


def test_bench_deterministic_modulo_runtime(capsys):
    argv = ["bench", "--family", "tight", "--n", "20", "--pair", "2,1",
            "--heuristic", "DegMin", "--trials", "3", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out.splitlines()
    assert main(argv) == 0
    second = capsys.readouterr().out.splitlines()

    def strip_runtime(rows: list[str]) -> list[str]:
        out = []
        for row in rows[1:]:
            cells = row.split(",")
            del cells[8]
            out.append(",".join(cells))
        return out

    assert strip_runtime(first) == strip_runtime(second)


def test_bench_aggregate(capsys):
    argv = ["bench", "--family", "erdos-renyi", "--n", "25", "--pair", "1,1",
            "--heuristic", "Basic", "--trials", "2", "--seed", "2",
            "--aggregate"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == AGGREGATE_HEADER
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[:5] == ["erdos-renyi", "25", "1", "1", "Basic"]
    assert cells[5] == "2"


def test_bench_molecular_family(capsys):
    argv = ["bench", "--family", "molecular", "--n", "40", "--p", "0.1",
            "--multiplicity", "3", "--pair", "2,3", "--heuristic", "Basic",
            "--heuristic", "NInDegMin", "--trials", "2", "--seed", "4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 1 + 2 * 2
    for row, heuristic, trial_seed in zip(
        lines[1:], ["Basic", "NInDegMin"] * 2, [4, 4, 5, 5]
    ):
        cells = row.split(",")
        base = gen_erdos_renyi(40, 0.1, trial_seed)
        assert cells[:7] == ["molecular", "40", str(3 * base.m), "2", "3",
                             heuristic, str(trial_seed)]
    # the rank is order-independent
    assert lines[1].split(",")[7] == lines[2].split(",")[7]


def test_bench_times_the_order_extract_runs(capsys):
    # --seed seeds the strategy and trial t's graph takes --seed + t, so
    # each row times extract's default run (Basic, seed 0) on its graph
    argv = ["bench", "--family", "erdos-renyi", "--n", "60", "--pair", "2,3",
            "--heuristic", "Basic", "--trials", "2", "--seed", "0"]
    assert main(argv) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert [row[6] for row in rows] == ["0", "1"]
    p = SparsityParams(2, 3)
    for row in rows:
        report = extract(gen_erdos_renyi(60, 0.1, int(row[6])), p)
        assert row[7] == str(report.accepted_count)
        assert row[9] == str(report.counters.bfs_node_visits)


def test_bench_molecular_rejects_bad_multiplicity(capsys):
    argv = ["bench", "--family", "molecular", "--n", "10", "--multiplicity",
            "0", "--trials", "1"]
    assert main(argv) == 3
    assert "multiplicity" in capsys.readouterr().err


def test_bench_rejects_l_equals_2k(capsys):
    assert main(["bench", "--pair", "1,2", "--trials", "1"]) == 3


def test_bench_rejects_bad_heuristic(capsys):
    assert main(["bench", "--heuristic", "Nope", "--trials", "1"]) == 3


def test_stdin_input(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("kl-graph 2 1\n0 1\n"))
    assert main(["decide", "-k", "1", "-l", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "tight"


def _internal_error_line(capsys, name: str) -> None:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"klsparse: internal error: {name}: ")


def test_decide_reversal_bound_is_internal_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(InnerDigraph, "_flip", lambda self, source, targets: None)
    argv = ["decide", "-k", "2", "-l", "3", "--input",
            write_graph(tmp_path, hub_pair())]
    assert main(argv) == EXIT_INTERNAL == 4
    _internal_error_line(capsys, "ReversalBoundError")


def test_maximal_2k_zeroing_bound_is_internal_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(InnerDigraph, "_flip", lambda self, source, targets: None)
    # k = 2, hubs 4 and 5 with two leaves each: the hub edge 4-5 meets two
    # endpoints at indegree 2 with no common neighbour, so it is zeroed,
    # by two reversals per hub
    path = tmp_path / "hubs.txt"
    path.write_text("kl-graph 6 5\n0 4\n1 4\n2 5\n3 5\n4 5\n")
    argv = ["maximal-2k", "-k", "2", "--input", str(path)]
    assert main(argv) == EXIT_INTERNAL
    _internal_error_line(capsys, "ReversalBoundError")


def _package_subclasses(base: type) -> list[type]:
    """``base`` and every subclass of it, at any depth, that this package
    defines, by name."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("klsparse."):
            found.append(cls)
        todo += cls.__subclasses__()
    return sorted(found, key=lambda cls: cls.__name__)


_EXIT_TABLE = (
    [(cls, EXIT_INTERNAL, f"klsparse: internal error: {cls.__name__}: ")
     for cls in _package_subclasses(InvariantError)]
    + [(cls, EXIT_USAGE, "klsparse: error: ")
       for cls in _package_subclasses(ValueError)
       if not issubclass(cls, GraphParseError)]
    + [(cls, EXIT_PARSE, "klsparse: parse error: ")
       for cls in _package_subclasses(GraphParseError)]
)


def test_exit_table_covers_every_invariant_error():
    names = {cls.__name__ for cls, code, _ in _EXIT_TABLE if code == EXIT_INTERNAL}
    assert names == {
        "InvariantError", "IndegreeOverflowError", "OrientationInfeasibleError",
        "ReversalBoundError", "StalePathError", "StrategyContractError",
    }


@pytest.mark.parametrize(
    "error, code, prefix", _EXIT_TABLE, ids=[cls.__name__ for cls, *_ in _EXIT_TABLE]
)
def test_exit_code_follows_the_exception_class(
    tmp_path, capsys, monkeypatch, error, code, prefix
):
    def broken(*args, **kwargs):
        if issubclass(error, GraphParseError):
            raise error("failed", 7)
        raise error("failed")

    monkeypatch.setattr("klsparse.cli.extract_maximal_2k", broken)
    argv = ["maximal-2k", "-k", "1", "--input", k4_path(tmp_path)]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        prefix + ("line 7: failed" if code == EXIT_PARSE else "failed")
    ]


# sha256 of `extract -k 2 -l 3 --heuristic H --seed 1` stdout on
# G(200, 0.1, seed=8) (1947 edges, 397 accepted), computed before the
# engine deferred its early-termination tail: the accepted set depends
# only on the order up to the tight size.  IncInDegMin's was taken again
# once failed drains recorded maximal blocks: it orders by live indegrees.
# IncInDegMin's, NInDegMin's and NInDegMinComp's were taken again once the
# degree certificate accepted edges with no search, which changes the
# orientation their live-indegree keys read.  NInDegMin's and
# NInDegMinComp's were taken again once a record credited its new nodes'
# accepted edges, for the same reason: fewer failed drains, fewer reversals
_EXTRACT_STDOUT = {
    "Basic": "d09bc9c6cac40c7afc6db4b7a625c8838f3dbc85a2e435f5c135ea3a5584d18e",
    "DegMin": "970939dea7a6d3fd8b0f88360a795c0cb05a163c1be5709c2206282e82b808e5",
    "IncProcMin": "4d86fd7a54ff58f001a246d125f1886ab5f099fd69bb3e0d5e027cb3fb5b6331",
    "IncInDegMin": "364f0a81e16187b697f7fee3d0a0409f1c9a2e2b498b662cdb21b3d4ec91b21a",
    "NBasic": "d6221ed64295134b35684c03d2c353ab3f2c457e780f5ad5837829e009bb5b8a",
    "NDegMin": "970939dea7a6d3fd8b0f88360a795c0cb05a163c1be5709c2206282e82b808e5",
    "NProcMin": "e57ddf02a232848f2d1b7ab19a94d403db0ae64940b8676c3d7a9a9d5a17375e",
    "NInDegMin": "267008af24c8435241734a206707363f6fc57b64fa68ee9a8c9e1dd019b45f30",
    "NBasicComp": "d6221ed64295134b35684c03d2c353ab3f2c457e780f5ad5837829e009bb5b8a",
    "NDegMinComp": "970939dea7a6d3fd8b0f88360a795c0cb05a163c1be5709c2206282e82b808e5",
    "NProcMinComp": "e57ddf02a232848f2d1b7ab19a94d403db0ae64940b8676c3d7a9a9d5a17375e",
    "NInDegMinComp": "9519e02a861da62c410def607268bc8fe887989c7f3a24c243e749ac30f4c650",
    "PForestsBFS": "317b9a27ce17b523e620c34a590c4c307cc28f7b40516c72b433a7004bb68689",
    "PForestsDFS": "f76ef4db7e7bd7f926c9514c035b92e08a0624fe228ba757330423b401e7953f",
    "ForestsBFS": "317b9a27ce17b523e620c34a590c4c307cc28f7b40516c72b433a7004bb68689",
    "ForestsDFS": "f76ef4db7e7bd7f926c9514c035b92e08a0624fe228ba757330423b401e7953f",
    "UnionBasic": "d09bc9c6cac40c7afc6db4b7a625c8838f3dbc85a2e435f5c135ea3a5584d18e",
    "UnionNBasic": "d6221ed64295134b35684c03d2c353ab3f2c457e780f5ad5837829e009bb5b8a",
    "UnionTranspOne": "20975c6f00f4cd88ae51111456e352c8520712816c12d8432989f0ac57983e87",
    "Transp": "cd36f21015562229e9768bcc8c609558af6472e4911599b06372acf56ff9ca67",
    "TranspOne": "52506df389f5f6c537139e4fac82d0adbf77caf74c21eed14172e37c71c01775",
}


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_extract_stdout_pinned_per_strategy(tmp_path, capsys, name):
    g = write_graph(tmp_path, gen_erdos_renyi(200, 0.1, seed=8))
    argv = ["extract", "-k", "2", "-l", "3", "--heuristic", name, "--seed", "1",
            "--input", g]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.endswith("accepted=397 of 1947\n")
    assert hashlib.sha256(out.encode()).hexdigest() == _EXTRACT_STDOUT[name]


def test_strategy_contract_failure_is_internal_error(tmp_path, capsys, monkeypatch):
    from klsparse.heuristics import TranspStrategy

    original = TranspStrategy.edges

    def first_edge_again(self, flags):
        # the order yields its first edge on every pull
        return repeat(next(original(self, flags)))

    monkeypatch.setattr(TranspStrategy, "edges", first_edge_again)
    # decide runs Transp; the engine refuses the repeat
    argv = ["decide", "-k", "2", "-l", "3", "--input", k4_path(tmp_path)]
    assert main(argv) == EXIT_INTERNAL
    _internal_error_line(capsys, StrategyContractError.__name__)
