"""Tests for the l = 2k degree certificate: an edge wx accepted with no
zeroing and no probe because w holds fewer than k accepted edges and no
node holds more than k - 1 accepted edges to {w, x}."""

from __future__ import annotations

import random

from klsparse import (
    Multigraph,
    Reason,
    SparsityParams,
    TwoKEngine,
    is_maximal_2k,
    is_sparse_bruteforce,
)
from klsparse import sparse2k
from klsparse.pebble import _FixedOrder
from conftest import random_simple_graph


class _ZeroOnly(TwoKEngine):
    """The reference engine: every uncovered edge is zeroed and probed."""

    def _certified(self, u: int, v: int) -> bool:
        return False


def _run(engine_class, graph: Multigraph, k: int):
    return engine_class(graph, k).run(_FixedOrder(list(range(graph.m))))


def _spec(graph: Multigraph, accepted, k: int, u: int, v: int) -> bool:
    """The certificate read off the accepted edge ids, not the digraph."""
    ends = [(graph.edge_u[e], graph.edge_v[e]) for e in accepted]
    # per node y, its accepted edges to {u, v}
    to_pair: dict[int, int] = {}
    for a, b in ends:
        for y, z in ((a, b), (b, a)):
            if z in (u, v):
                to_pair[y] = to_pair.get(y, 0) + 1
    if any(c > k - 1 for c in to_pair.values()):
        return False
    return any(sum(w in end for end in ends) < k for w in (u, v))


def test_certificate_keeps_the_accepted_sets():
    rng = random.Random(3400)
    for trial in range(160):
        # small graphs go to the brute-force oracle, larger ones only to
        # the reference engine
        g = random_simple_graph(rng, max_n=10 if trial < 120 else 30)
        for k in (1, 2, 3, 4):
            rep = _run(TwoKEngine, g, k)
            assert rep.accepted == _run(_ZeroOnly, g, k).accepted, (trial, k)
            if g.n <= 10:
                kept = Multigraph(g.n, [g.endpoints(e) for e in sorted(rep.accepted)])
                ok, witness = is_sparse_bruteforce(kept, SparsityParams(k, 2 * k))
                assert ok, witness
                assert is_maximal_2k(g, rep.accepted, k)


def test_certificate_fires_exactly_on_its_condition(monkeypatch):
    calls = []
    zeroed = []
    certified = TwoKEngine._certified
    zero = sparse2k.zero_pair_indegrees

    def spy(self, u, v):
        fired = certified(self, u, v)
        assert fired == _spec(self.graph, self.report.accepted, self.params.k,
                              u, v), (u, v)
        calls.append(fired)
        return fired

    def zero_spy(digraph, u, v):
        zeroed.append((u, v))
        return zero(digraph, u, v)

    monkeypatch.setattr(TwoKEngine, "_certified", spy)
    monkeypatch.setattr(sparse2k, "zero_pair_indegrees", zero_spy)
    rng = random.Random(34)
    for _ in range(80):
        g = random_simple_graph(rng, max_n=14)
        for k in (1, 2, 3, 4):
            start, zero_start = len(calls), len(zeroed)
            rep = _run(TwoKEngine, g, k)
            fired = sum(calls[start:])
            assert rep.counters.certified_accepts == fired
            # every uncovered edge runs the certificate once, and only the
            # edges it fails on are zeroed
            uncovered = g.m - rep.reason_counts()[Reason.COVERED_BY_COMPONENT]
            assert len(calls) - start == uncovered
            assert len(zeroed) - zero_start == uncovered - fired
    assert any(calls) and not all(calls)


def _steps(graph: Multigraph, k: int):
    """Feed the edges in id order to ``try_accept``; per edge, its result
    and the certified accepts it added."""
    engine = TwoKEngine(graph, k)
    counters = engine.digraph.counters
    out = []
    for e in range(graph.m):
        before = counters.certified_accepts
        out.append((engine.try_accept(e), counters.certified_accepts - before))
    return engine, out


def test_certificate_skips_the_k2_triangle():
    # k = 2: 0-2 and 1-2 are certified; for 01 each endpoint's one edge
    # goes to 2, a common neighbour, so the triangle's third edge is zeroed
    # and probed, and rejected (3 edges > 3k - 2k)
    _, steps = _steps(Multigraph(3, [(0, 2), (1, 2), (0, 1)]), 2)
    assert steps[:2] == [(0, 1), (0, 1)]
    assert steps[2][0] < 0 and steps[2][1] == 0


def test_certificate_fires_without_a_common_neighbour():
    # k = 2: 0's one edge goes to 2, which 1 does not touch
    _, steps = _steps(Multigraph(4, [(0, 2), (1, 3), (0, 1)]), 2)
    assert steps == [(0, 1), (0, 1), (0, 1)]


def test_certificate_skips_k1_when_x_holds_an_edge():
    # k = 1: node 0 holds no edge, but 1 holds 1-2, and {0, 1, 2} may hold
    # only one edge
    _, steps = _steps(Multigraph(3, [(1, 2), (0, 1)]), 1)
    assert steps[0] == (0, 1)
    assert steps[1][0] < 0 and steps[1][1] == 0


def test_certificate_needs_no_triangle_test_at_k3():
    # k = 3: 0 holds two edges, each to a neighbour of 1, and the four
    # nodes hold 5 <= 3 * 4 - 6 edges
    _, steps = _steps(Multigraph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 1)]), 3)
    assert steps == [(0, 1)] * 5


def test_certified_arc_avoids_a_saturated_larger_endpoint():
    # k = 2: 2-3 and 1-3 fill node 3 to indegree k, so the certified edge
    # 0-3 points its arc at 0
    engine, steps = _steps(Multigraph(4, [(2, 3), (1, 3), (0, 3)]), 2)
    assert steps == [(0, 1)] * 3
    assert engine.digraph.indeg == [1, 0, 0, 2]
