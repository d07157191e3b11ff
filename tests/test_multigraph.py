"""Tests for the multigraph container and its text format."""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest

import klsparse
from klsparse import (
    EdgeCountMismatchError,
    GraphParseError,
    MalformedEdgeError,
    MalformedHeaderError,
    Multigraph,
    NegativeWeightError,
    NodeIdOutOfRangeError,
    parse_graph,
    serialize_graph,
)


def test_canonical_endpoint_storage():
    g = Multigraph(4, [(3, 1), (0, 2), (2, 2)])
    assert g.endpoints(0) == (1, 3)
    assert g.endpoints(1) == (0, 2)
    assert g.endpoints(2) == (2, 2)


def test_loop_and_parallel_bookkeeping():
    g = Multigraph(3, [(0, 1), (1, 0), (2, 2)])
    assert g.m == 3
    assert g.is_loop(2)
    assert not g.is_loop(0)
    # parallel edges both appear in the incidence lists
    assert sorted(g.incidence[0]) == [0, 1]
    assert sorted(g.incidence[1]) == [0, 1]
    # a loop contributes two to the degree but is listed once
    assert g.incidence[2] == [2]
    assert g.degree[2] == 2
    assert g.degree[0] == 2


def test_edges_list_round_trip():
    edges = [(0, 1), (1, 2), (0, 0)]
    g = Multigraph(3, edges)
    assert g.edges() == [(0, 1), (1, 2), (0, 0)]


def test_equality_and_weights():
    a = Multigraph(3, [(0, 1)], weights=[2.0])
    b = Multigraph(3, [(0, 1)], weights=[2.0])
    c = Multigraph(3, [(0, 1)], weights=[3.0])
    assert a == b
    assert a != c
    assert a.is_weighted
    assert not Multigraph(3, [(0, 1)]).is_weighted


def test_node_id_validation():
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Multigraph(2, [(-1, 0)])


@pytest.mark.parametrize("n", [2.0, True, False, "3", None])
def test_node_count_must_be_an_integer(n):
    with pytest.raises(ValueError, match="node count must be an integer"):
        Multigraph(n, [])


def test_node_count_past_list_length_is_refused():
    # unbounded, such a count loops over incidence lists until memory runs
    # out, so each call runs in a child process with its address space
    # capped and a timeout
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from klsparse import Multigraph, MalformedHeaderError, parse_graph\n"
        "n = sys.maxsize + 1\n"
        "try:\n"
        "    Multigraph(n, [])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "for text in (b'kl-graph %d 0\\n' % n,\n"
        "             'kl-graph %d 1 weighted\\n0 1 1\\n' % n):\n"
        "    try:\n"
        "        parse_graph(text)\n"
        "    except MalformedHeaderError as exc:\n"
        "        print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(klsparse.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    message = f"node count must be at most {sys.maxsize}, got {sys.maxsize + 1}"
    assert proc.stdout.splitlines() == [
        message, "line 1: " + message, "line 1: " + message
    ], proc.stderr


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 1)], weights=[-1.0])
    with pytest.raises(NegativeWeightError) as info:
        parse_graph("kl-graph 2 1 weighted\n0 1 -2.5\n")
    assert info.value.line == 2


def test_parse_basic():
    text = "kl-graph 3 2\n0 1\n1 2\n"
    g = parse_graph(text)
    assert g.n == 3
    assert g.m == 2
    assert g.edges() == [(0, 1), (1, 2)]
    assert not g.is_weighted


def test_parse_weighted_and_comments():
    text = "# a comment\nkl-graph 2 1 weighted\n\n0 1 2.5\n"
    g = parse_graph(text)
    assert g.is_weighted
    assert g.weights == [2.5]


def test_parse_serialize_round_trip():
    g = Multigraph(4, [(0, 1), (1, 1), (2, 3)], weights=[1.0, 0.5, 2.25])
    again = parse_graph(serialize_graph(g))
    assert again == g
    plain = Multigraph(4, [(0, 1), (1, 1), (2, 3)])
    assert parse_graph(serialize_graph(plain)) == plain


def test_parse_malformed_header():
    with pytest.raises(MalformedHeaderError) as info:
        parse_graph("graph 3 2\n0 1\n1 2\n")
    assert info.value.line == 1


def test_parse_malformed_edge_line_number():
    with pytest.raises(MalformedEdgeError) as info:
        parse_graph("kl-graph 3 2\n0 1\n1 banana\n")
    assert info.value.line == 3


@pytest.mark.parametrize("text, error, line", [
    ("kl-graph 3 1\n\u0661 2\n", MalformedEdgeError, 2),
    ("kl-graph 3 1\n0 \uff12\n", MalformedEdgeError, 2),
    ("kl-graph 1_0 1\n0 1\n", MalformedHeaderError, 1),
    ("kl-graph 3 1 weighted\n0 1 1_5\n", MalformedEdgeError, 2),
])
def test_parse_refuses_python_number_leniency(text, error, line):
    # int() reads "\u0661" (ARABIC-INDIC DIGIT ONE) as 1 and "1_0" as 10,
    # and float() reads "1_5" as 15.0
    with pytest.raises(error) as info:
        parse_graph(text)
    assert info.value.line == line
    # a comment may hold either; the numbers around it are still read
    g = parse_graph("# caf\u00e9_1\nkl-graph 3 1 weighted\n0 2 1.5\n")
    assert (g.edges(), g.weights) == ([(0, 2)], [1.5])


def test_parse_node_out_of_range():
    with pytest.raises(NodeIdOutOfRangeError) as info:
        parse_graph("kl-graph 3 1\n0 7\n")
    assert info.value.line == 2


def test_parse_edge_count_mismatch():
    with pytest.raises(EdgeCountMismatchError):
        parse_graph("kl-graph 3 2\n0 1\n")
    with pytest.raises(EdgeCountMismatchError):
        parse_graph("kl-graph 3 1\n0 1\n1 2\n")


def test_parse_weight_on_unweighted_graph():
    with pytest.raises(MalformedEdgeError):
        parse_graph("kl-graph 2 1\n0 1 3.5\n")


def test_parse_missing_weight_on_weighted_graph():
    with pytest.raises(MalformedEdgeError):
        parse_graph("kl-graph 2 1 weighted\n0 1\n")


def test_nan_weight_rejected_by_constructor():
    with pytest.raises(ValueError, match="edge 0"):
        Multigraph(3, [(0, 1), (1, 2)], weights=[float("nan"), 1.0])


def test_parse_infinite_weight_rejected():
    with pytest.raises(MalformedEdgeError) as info:
        parse_graph("kl-graph 2 2 weighted\n0 1 1.5\n0 1 inf\n")
    assert info.value.line == 3


def test_non_integer_endpoint_rejected():
    with pytest.raises(ValueError, match="edge 1"):
        Multigraph(2, [(0, 1), (0.5, 1)])


def test_parse_undecodable_bytes_names_line():
    with pytest.raises(GraphParseError) as info:
        parse_graph(b"kl-graph 2 1\n0 \xff\n")
    assert info.value.line == 2


def test_none_weight_rejected_by_constructor():
    with pytest.raises(ValueError, match="edge 0: weight must be a number"):
        Multigraph(2, [(0, 1)], weights=[None])


def test_non_numeric_weight_names_edge():
    with pytest.raises(ValueError, match="edge 1: weight must be a number"):
        Multigraph(2, [(0, 1), (0, 1)], weights=[1.0, "x"])


def test_generator_of_pairs_builds_same_graph():
    edges = [(3, 1), (0, 2), (2, 2), (1, 3), (0, 0)]
    from_list = Multigraph(4, edges)
    from_gen = Multigraph(4, (pair for pair in edges))
    assert from_gen == from_list
    assert from_gen.m == 5
    assert from_gen.incidence == from_list.incidence
    assert from_gen.degree == from_list.degree
    assert Multigraph(4, zip([3, 0], [1, 2])) == Multigraph(4, [(3, 1), (0, 2)])
    empty = Multigraph(3, iter(()))
    assert empty.m == 0 and empty.degree == [0, 0, 0]


def test_degree_counts_loops_twice():
    # two parallel loops at 1, a parallel pair 0-1, a loop at 2
    g = Multigraph(4, iter([(1, 1), (1, 1), (0, 1), (1, 0), (2, 2)]))
    assert g.degree == [2, 6, 2, 0]
    assert g.incidence[1] == [0, 1, 2, 3]
    assert g.incidence[2] == [4]
    assert sum(g.degree) == 2 * g.m


def test_non_integer_endpoint_from_generator_names_pair():
    with pytest.raises(ValueError, match=r"edge 1: .*\(0\.5, 1\)"):
        Multigraph(2, (p for p in [(0, 1), (0.5, 1)]))
    with pytest.raises(ValueError, match=r"edge 0: .*\('0', 1\)"):
        Multigraph(2, iter([("0", 1)]))


def test_weights_length_mismatch_raises():
    with pytest.raises(ValueError, match="2 edges but 1 weights"):
        Multigraph(2, [(0, 1), (0, 1)], weights=[1.0])
    with pytest.raises(ValueError, match="1 edges but 2 weights"):
        Multigraph(2, iter([(0, 1)]), weights=[1.0, 2.0])


@pytest.mark.parametrize("bad", [(1,), (0, 1, 1)])
@pytest.mark.parametrize("source", [list, iter])
def test_pair_of_wrong_length_names_edge_and_pair(bad, source):
    with pytest.raises(ValueError, match=rf"edge 1: .*{re.escape(repr(bad))}"):
        Multigraph(2, source([(0, 1), bad]))


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (1, 2), (0, 3)], "edge 2: endpoint out of range [0, 3)"),
        ([(0, 1), (2, -1), (1,)], "edge 1: endpoint out of range [0, 3)"),
        # the first bad edge wins, whatever fault a later edge has
        ([(0, 1), (1,), (0, 9)], "edge 1: expected a pair of endpoints, got (1,)"),
        (
            [(0, 1), (0, 1.0)],
            "edge 1: endpoints must be a pair of integers, got (0, 1.0)",
        ),
        (
            [(2, 2), (1.0, 0), (0, 5)],
            "edge 1: endpoints must be a pair of integers, got (1.0, 0)",
        ),
        ([(0, 1), 7], "edge 1: endpoints must be a pair of integers, got 7"),
        ([(0, 1), (float("nan"), 1)], "edge 1: endpoint out of range [0, 3)"),
        ([(1, float("nan")), (5, 0)], "edge 0: endpoint out of range [0, 3)"),
    ],
)
def test_first_bad_edge_is_named(edges, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        Multigraph(3, edges)


def test_loops_and_swaps_keep_endpoint_objects():
    g = Multigraph(3, [(1, 1), (2, 0)])
    assert g.edges() == [(1, 1), (0, 2)]
    assert g.degree == [1, 2, 1]

    class Id(int):
        pass

    # an integer type other than int and bool is kept as given
    g = Multigraph(3, [(Id(2), Id(1))])
    assert g.edges() == [(1, 2)]
    assert all(type(x) is Id for x in g.edges()[0])
    # a float on a loop or a bool would be written as 1.0 or True, which
    # parse_graph refuses
    for pair in [(1, 1.0), (1.0, 1), (True, 1), (True, 2), (0, False)]:
        with pytest.raises(ValueError, match="must be a pair of integers"):
            Multigraph(3, [pair])
