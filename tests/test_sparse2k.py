"""Tests for the one-pass maximal extraction at l = 2k."""

from __future__ import annotations

import hashlib
import random

import pytest

from klsparse import (
    InnerDigraph,
    Multigraph,
    NotSimpleInputError,
    Reason,
    ReversalBoundError,
    SparsityParams,
    TwoKEngine,
    extract_maximal_2k,
    gen_erdos_renyi,
    insertable,
    is_maximal_2k,
    is_sparse_bruteforce,
    naive_l2k_check,
    zero_pair_indegrees,
)
from conftest import complete_graph, random_simple_graph


def test_frozen_maximal_sizes():
    tri = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    rep = extract_maximal_2k(tri, 1)
    assert sorted(rep.accepted) == [0]

    # storage order grows a star, which is maximal but not maximum
    assert extract_maximal_2k(complete_graph(4), 1).accepted_count == 2
    assert extract_maximal_2k(complete_graph(4), 2).accepted_count == 3
    assert extract_maximal_2k(complete_graph(5), 3).accepted_count == 9
    assert extract_maximal_2k(complete_graph(6), 2).accepted_count == 5


def test_output_is_sparse_and_maximal():
    rng = random.Random(55)
    for _ in range(30):
        g = random_simple_graph(rng, max_n=9)
        for k in (1, 2, 3):
            rep = extract_maximal_2k(g, k)
            sub = Multigraph(g.n, [g.endpoints(e) for e in sorted(rep.accepted)])
            ok, witness = is_sparse_bruteforce(sub, SparsityParams(k, 2 * k))
            assert ok, witness
            assert is_maximal_2k(g, rep.accepted, k)


def test_loop_input_rejected():
    with pytest.raises(NotSimpleInputError):
        extract_maximal_2k(Multigraph(2, [(0, 1), (1, 1)]), 1)
    # the first offending edge in storage order is named
    g = Multigraph(4, [(0, 1), (3, 3), (0, 1), (2, 2)])
    with pytest.raises(NotSimpleInputError, match=r"^loop at node 3 \(edge 1\)$"):
        extract_maximal_2k(g, 1)


def test_parallel_input_rejected():
    with pytest.raises(NotSimpleInputError):
        extract_maximal_2k(Multigraph(2, [(0, 1), (0, 1)]), 1)
    g = Multigraph(4, [(0, 1), (2, 3), (1, 0), (2, 2)])
    with pytest.raises(
        NotSimpleInputError, match=r"^parallel edges between 0 and 1 \(edge 2\)$"
    ):
        extract_maximal_2k(g, 1)


def test_zero_pair_reversal_bound():
    rng = random.Random(57)
    for _ in range(20):
        g = random_simple_graph(rng, max_n=8)
        for k in (1, 2):
            rep = extract_maximal_2k(g, k)
            for v in rep.verdicts:
                assert v.reversals_used <= 2 * k


def test_zero_pair_clears_both_endpoints():
    g = complete_graph(5)
    k = 2
    engine = TwoKEngine(g, k)
    for e in range(g.m):
        u, v = g.edge_u[e], g.edge_v[e]
        zero_pair_indegrees(engine.digraph, u, v)
        assert engine.digraph.indeg[u] == 0
        assert engine.digraph.indeg[v] == 0
        if insertable(engine.digraph, u, v):
            engine.digraph.insert_arc(e, u, v)


def test_insertable_matches_naive_check():
    rng = random.Random(59)
    points = 0
    for _ in range(45):
        g = random_simple_graph(rng, max_n=8)
        for k in (1, 2, 3):
            engine = TwoKEngine(g, k)
            for e in range(g.m):
                u, v = g.edge_u[e], g.edge_v[e]
                zero_pair_indegrees(engine.digraph, u, v)
                fast = insertable(engine.digraph, u, v)
                slow = naive_l2k_check(engine.digraph, u, v, k)
                assert fast == slow
                if fast:
                    engine.digraph.insert_arc(e, u, v)
                points += 1
    assert points > 500


def test_insertable_matches_naive_check_past_brute_force_sizes():
    # criterion 4 stops at n <= 10; here n = 30-120 with average degree
    # 2k + 3, dense enough for tight blocks at every k
    points = rejected = 0
    for n, seed in ((30, 11), (60, 12), (120, 13)):
        for k in (1, 2, 3):
            g = gen_erdos_renyi(n, (2 * k + 3) / n, seed=seed)
            engine = TwoKEngine(g, k)
            for e in range(g.m):
                u, v = g.edge_u[e], g.edge_v[e]
                zero_pair_indegrees(engine.digraph, u, v)
                fast = insertable(engine.digraph, u, v)
                assert fast == naive_l2k_check(engine.digraph, u, v, k), (n, k, e)
                if fast:
                    engine.digraph.insert_arc(e, u, v)
                else:
                    rejected += 1
                points += 1
    assert points > 2000 and rejected > 300


def test_insertability_probes_stay_local(monkeypatch):
    # the global forward reach visited about n = 2000 nodes per examined
    # edge here (6.0M visits for m = 2994); the local probes stop near the
    # endpoints of the edge
    def no_reach(*args, **kwargs):
        raise AssertionError("the l = 2k pass must not run a forward reach")

    monkeypatch.setattr(InnerDigraph, "multi_source_forward_reach", no_reach)
    g = gen_erdos_renyi(2000, 0.0015, seed=7)
    rep = extract_maximal_2k(g, 2)
    assert rep.reason_counts()[Reason.INDEGREE_BLOCKED] > 0
    assert rep.counters.bfs_node_visits <= 20 * g.m


def test_verdict_reasons():
    rep = extract_maximal_2k(complete_graph(4), 1)
    reasons = [v.reason for v in rep.verdicts]
    assert reasons.count(Reason.ACCEPTED) == 2
    # the first two rejections expose tight blocks holding the other two
    assert reasons.count(Reason.INDEGREE_BLOCKED) == 2
    assert reasons.count(Reason.COVERED_BY_COMPONENT) == 2
    # no early termination in the maximal pass: every edge is examined
    assert Reason.EARLY_TERMINATED not in reasons


def test_empty_and_tiny_graphs():
    assert extract_maximal_2k(Multigraph(1, []), 2).accepted_count == 0
    assert extract_maximal_2k(Multigraph(2, [(0, 1)]), 1).accepted_count == 1


def test_zeroing_bound_is_checked_without_assert(monkeypatch):
    monkeypatch.setattr(InnerDigraph, "reverse", lambda self, path: None)
    with pytest.raises(ReversalBoundError):
        extract_maximal_2k(Multigraph(3, [(0, 1), (1, 2)]), 1)


def test_maximal_2k_stream_pinned():
    # sha256 of the verdict stream and of the counters, computed when the
    # l = 2k pass still had its own edge loop: any rewrite of the loop must
    # keep every verdict, every reversal count and every node visit (the
    # last case is the maximal-2k-er benchmark's input 0 of seed 1)
    cases = [
        (gen_erdos_renyi(80, 0.15, seed=5), 1,
         "f2db228eda79a8eb7d543e88ff1bbf79966e94fb142840dd1c3440286b1a6caa",
         "d4a972d745ef10e07632f6bc1b400bc3e36c6d5e2f2d094ac2f5e680afe4f9b0"),
        (gen_erdos_renyi(80, 0.15, seed=5), 2,
         "2e9c3bfdb0017ba1475c99a9c3ed54c7ffafaf83a73e4d39ea50f846ef32c940",
         "9a2eef8bf209f3484b2fb5cf1a957cb02705847769f3142a2b09c455aa0d7641"),
        (gen_erdos_renyi(80, 0.15, seed=5), 3,
         "d12a8ca07f89e0aeb11a628872b63da688a448dfc0550eda6b0e3d506a001873",
         "9bc87bed7caaf6de9c3f25ad471e030ce48f5cd04ec31dec85d0ec7349e235ea"),
        (gen_erdos_renyi(300, 0.05, seed=1000), 2,
         "2f5fd61e9e79e3ee166c8a620f61e9867a0d45eef851bea0980b4cbb190cfe79",
         "4fa9c368373f458d4776890f4b79e043565b192c6932361052d613a48f68ca6e"),
    ]
    for g, k, stream_digest, counts_digest in cases:
        rep = extract_maximal_2k(g, k)
        stream = repr([(v.edge, v.accepted, v.reversals_used, v.reason.value)
                       for v in rep.verdicts])
        c = rep.counters
        counts = repr((c.bfs_node_visits, c.path_reversals,
                       c.edges_processed, c.edges_accepted))
        assert hashlib.sha256(stream.encode()).hexdigest() == stream_digest, k
        assert hashlib.sha256(counts.encode()).hexdigest() == counts_digest, k
