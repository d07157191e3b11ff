"""Tests for record-time crediting: when a record adds nodes to a block,
the accepted edges those nodes already hold count toward the block, so a
node with k of them joins before its next edge into the block is
searched."""

from __future__ import annotations

import random

from klsparse import (
    STRATEGY_NAMES,
    Multigraph,
    PebbleEngine,
    Reason,
    SparsityParams,
    TwoKEngine,
    make_strategy,
)
from klsparse import sparse2k
from klsparse.pebble import _FixedOrder
from conftest import ALL_PAIRS, random_simple_graph

# the orders that key on live indegrees, which reversals move: their
# accepted sets may follow the engine's work, not only the order
_INDEGREE_ORDERS = {"IncInDegMin", "NInDegMin", "NInDegMinComp"}


class _NoCredit(PebbleEngine):
    """The reference engine: blocks grow only by edges accepted after the
    record."""

    def _credit(self, joined) -> None:
        pass


class _NoCredit2k(TwoKEngine):
    """The same reference for l = 2k."""

    def _credit(self, joined) -> None:
        pass


def _check_tight(graph: Multigraph, params: SparsityParams, engine) -> None:
    """Every stored block induces exactly k|B| - l accepted edges."""
    ends = [(graph.edge_u[e], graph.edge_v[e]) for e in engine.report.accepted]
    for nodes in engine.blocks.components():
        inside = set(nodes)
        induced = sum(1 for a, b in ends if a in inside and b in inside)
        assert induced == params.k * len(nodes) - params.l, nodes


def _no_zeroing(digraph, u, v):
    raise AssertionError(f"edge {u}-{v} was zeroed")


def test_record_credits_the_edges_a_new_node_already_holds(monkeypatch):
    # k = 2, l = 4: node 3 holds 3-0 and 3-1 before the block exists.  The
    # triangle rule rejects 0-1 (common neighbour 2) and records
    # {0, 1, 2}; crediting counts 3's two edges into it, so 3 joins at
    # record time, and 2-3 is covered with no zeroing
    monkeypatch.setattr(sparse2k, "zero_pair_indegrees", _no_zeroing)
    g = Multigraph(4, [(0, 2), (1, 2), (0, 3), (1, 3), (0, 1), (2, 3)])
    engine = TwoKEngine(g, 2)
    report = engine.run(_FixedOrder(list(range(g.m))))
    assert engine.blocks.components() == [[0, 1, 2, 3]]
    reasons = [v.reason for v in report.verdicts]
    assert reasons[4:] == [Reason.INDEGREE_BLOCKED, Reason.COVERED_BY_COMPONENT]
    assert report.counters.bfs_node_visits == 0
    # without the credit, 3 lies outside {0, 1, 2}: 2-3 has its own
    # common neighbour (0), and the triangle rule records a second block
    reference = _NoCredit2k(g, 2)
    ref_report = reference.run(_FixedOrder(list(range(g.m))))
    assert ref_report.verdicts[5].reason is Reason.INDEGREE_BLOCKED
    assert ref_report.accepted == report.accepted


def test_record_credit_carries_a_partial_count():
    # (2,3): 0-4 is accepted before the K4 on {0, 1, 2, 3} fails at its
    # sixth edge, 2-3, and records that block.  The credit counts 0-4 for
    # node 4, so 1-4 is its second edge into the block and 4 joins; 2-4 is
    # then covered with no search.  Counted from the record only, 1-4 is
    # 4's first edge, and 2-4 fails a drain of its own.  Node 5 keeps the
    # tight size, 2 * 6 - 3, out of reach
    edges = [(0, 4), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (1, 4), (2, 4)]
    g = Multigraph(6, edges)
    p = SparsityParams(2, 3)
    order = list(range(g.m))
    engine = PebbleEngine(g, p)
    report = engine.run(_FixedOrder(order))
    assert [v.reason for v in report.verdicts][6:] == [
        Reason.INDEGREE_BLOCKED, Reason.ACCEPTED, Reason.COVERED_BY_COMPONENT]
    assert engine.blocks.components() == [[0, 1, 2, 3, 4]]
    reference = _NoCredit(g, p).run(_FixedOrder(order))
    assert reference.verdicts[8].reason is Reason.INDEGREE_BLOCKED
    assert reference.accepted == report.accepted


def test_credit_keeps_the_accepted_sets_and_tight_blocks():
    rng = random.Random(35)
    names = [name for name in STRATEGY_NAMES if name not in _INDEGREE_ORDERS]
    runs = covered_more = 0
    for trial in range(24):
        n = rng.randint(10, 60)
        g = Multigraph(n, [(rng.randrange(n), rng.randrange(n))
                           for _ in range(rng.randint(n, 5 * n))])
        k, l = ALL_PAIRS[trial % len(ALL_PAIRS)]
        p = SparsityParams(k, l)
        for name in names:
            seed = rng.randrange(4)
            engine = PebbleEngine(g, p)
            report = engine.run(make_strategy(name, g, p, seed=seed))
            reference = _NoCredit(g, p).run(make_strategy(name, g, p, seed=seed))
            assert report.accepted == reference.accepted, (trial, name)
            _check_tight(g, p, engine)
            covered = Reason.COVERED_BY_COMPONENT
            covered_more += (report.reason_counts()[covered]
                             > reference.reason_counts()[covered])
            runs += 1
    for trial in range(60):
        g = random_simple_graph(rng, max_n=30)
        for k in (1, 2, 3):
            engine = TwoKEngine(g, k)
            report = engine.run(_FixedOrder(list(range(g.m))))
            reference = _NoCredit2k(g, k).run(_FixedOrder(list(range(g.m))))
            assert report.accepted == reference.accepted, (trial, k)
            _check_tight(g, engine.params, engine)
            runs += 1
    # the credit changes the work, not the answer: more edges covered
    assert runs > 600 and covered_more > 20
