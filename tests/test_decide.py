"""Tests for `decide` and its order (Transp, seed 0).

`decide` reports three flags and the accepted count.  For l < 2k all four
depend only on the matroid rank, so they must equal those of a Basic
extraction on every input; the order only moves the work around, and
Transp is kept for doing less of it than NInDegMin and Basic.
"""

from __future__ import annotations

import random

import pytest

from klsparse import (
    Reason,
    SparsityParams,
    decide,
    extract,
    gen_erdos_renyi,
    gen_rigid,
    make_strategy,
    molecular_transform,
    serialize_graph,
)
from klsparse.cli import main
from conftest import ALL_PAIRS, random_multigraph

INPUTS = {
    "er-40": lambda: gen_erdos_renyi(40, 0.2, seed=3),
    "er-160": lambda: gen_erdos_renyi(160, 0.06, seed=5),
    "molecular-30x6": lambda: molecular_transform(
        gen_erdos_renyi(30, 0.15, seed=7), 6
    ),
    "rigid-29": lambda: gen_rigid(5, seed=2),
    "rigid-134": lambda: gen_rigid(20, seed=4),
    "loops-40": lambda: random_multigraph(random.Random(9), max_n=40, max_m=150),
}


def _word(sparse: bool, spanning: bool, tight: bool) -> str:
    if tight:
        return "tight"
    if spanning:
        return "spanning"
    return "sparse" if sparse else "none"


def _basic_answer(g, params):
    """Flags and count of a Basic extraction, as the CLI would print them."""
    count = extract(g, params).accepted_count
    tight_size = params.tight_size(g.n)
    sparse = count == g.m
    flags = (sparse, count == tight_size, sparse and g.m == tight_size)
    text = (
        f"{_word(*flags)}\n"
        f"accepted={count} of {g.m} tight_size={tight_size}\n"
    )
    return flags, count, text


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("decide")
    files = {}
    for name, build in INPUTS.items():
        g = build()
        path = root / f"{name}.txt"
        path.write_text(serialize_graph(g))
        files[name] = (g, str(path))
    return files


@pytest.mark.parametrize("name", list(INPUTS))
def test_decide_answer_is_order_independent(name, input_files, capsys):
    g, path = input_files[name]
    for k, l in ALL_PAIRS:
        params = SparsityParams(k, l)
        flags, count, text = _basic_answer(g, params)
        d = decide(g, params)
        assert (d.is_sparse, d.is_spanning, d.is_tight) == flags, (k, l)
        assert d.accepted_count == count, (k, l)
        assert main(["decide", "-k", str(k), "-l", str(l), "--input", path]) == 0
        captured = capsys.readouterr()
        assert captured.out == text, (k, l)
        assert captured.err == ""


def test_decide_runs_transp_with_seed_0():
    g = gen_erdos_renyi(80, 0.15, seed=2)
    params = SparsityParams(2, 3)
    d = decide(g, params)
    ref = extract(g, params, make_strategy("Transp", g, params, 0))
    assert d.accepted == ref.accepted
    assert d.order == ref.order


def test_decide_visits_fewer_nodes_than_basic():
    # machine-independent guard for the order: on the input size the
    # decide benchmark runs, Transp must search less than Basic
    g = gen_erdos_renyi(600, 0.1, seed=1)
    params = SparsityParams(2, 3)
    d = decide(g, params)
    b = extract(g, params)
    assert d.accepted_count == b.accepted_count
    assert d.counters.bfs_node_visits < b.counters.bfs_node_visits


def test_decide_examines_fewer_edges_than_nindegmin():
    # machine-independent guard for the order: on the same input, Transp
    # reaches the tight size after fewer edges than the order it replaced
    g = gen_erdos_renyi(600, 0.1, seed=1)
    params = SparsityParams(2, 3)
    d = decide(g, params)
    ref = extract(g, params, make_strategy("NInDegMin", g, params, 0))
    assert d.accepted_count == ref.accepted_count
    assert len(d._order) < len(ref._order)


@pytest.mark.parametrize("first_read", ["order", "verdicts", "reason_counts"])
def test_decide_report_walks_its_deferred_tail(first_read):
    # the edges past the tight size are counted by their codes and listed
    # after the examined ones, by id, on the first read of the order
    g = gen_erdos_renyi(120, 0.2, seed=6)
    params = SparsityParams(2, 3)
    d = decide(g, params)
    assert d.counters.early_termination_hit == 1
    assert d.is_spanning and not d.is_sparse
    processed = len(d._order)
    assert processed < g.m  # not yet listed
    if first_read == "order":
        order = d.order
    elif first_read == "verdicts":
        order = [v.edge for v in d.verdicts]
    else:
        counts = d.reason_counts()
        assert sum(counts.values()) == g.m
        assert counts[Reason.EARLY_TERMINATED] == g.m - processed
        order = d.order
    assert sorted(order) == list(range(g.m))
    assert order == d.order
    verdicts = d.verdicts
    assert [v.edge for v in verdicts] == order
    assert all(v.reason is Reason.EARLY_TERMINATED for v in verdicts[processed:])
    assert order[processed:] == sorted(order[processed:])
    assert {v.edge for v in verdicts if v.accepted} == d.accepted
    assert d.reason_counts()[Reason.ACCEPTED] == d.accepted_count
