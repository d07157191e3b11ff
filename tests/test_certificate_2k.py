"""Tests for the l = 2k degree certificate: an edge wx accepted with no
zeroing and no probe because w holds fewer than k accepted edges and no
node holds more than k - 1 accepted edges to {w, x}; and for the triangle
rule, which rejects wx with no zeroing when some node holds k."""

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

    def _apex(self, u: int, v: int) -> int:
        return -1

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


def _apex_spec(graph: Multigraph, accepted, k: int, u: int, v: int) -> set[int]:
    """The nodes with k accepted edges to {u, v}, read off the edge ids."""
    to_pair: dict[int, int] = {}
    for e in accepted:
        a, b = graph.edge_u[e], graph.edge_v[e]
        for y, z in ((a, b), (b, a)):
            if z in (u, v):
                to_pair[y] = to_pair.get(y, 0) + 1
    return {y for y, c in to_pair.items() if c >= k}


def test_certificate_fires_exactly_on_its_condition(monkeypatch):
    calls = []
    apexes = []
    zeroed = []
    certified = TwoKEngine._certified
    apex = TwoKEngine._apex
    zero = sparse2k.zero_pair_indegrees

    def spy(self, u, v):
        fired = certified(self, u, v)
        assert fired == _spec(self.graph, self.report.accepted, self.params.k,
                              u, v), (u, v)
        calls.append(fired)
        return fired

    def apex_spy(self, u, v):
        y = apex(self, u, v)
        found = _apex_spec(self.graph, self.report.accepted, self.params.k, u, v)
        assert y in found if found else y == -1, (u, v)
        apexes.append(y >= 0)
        return y

    def zero_spy(digraph, u, v):
        zeroed.append((u, v))
        return zero(digraph, u, v)

    monkeypatch.setattr(TwoKEngine, "_certified", spy)
    monkeypatch.setattr(TwoKEngine, "_apex", apex_spy)
    monkeypatch.setattr(sparse2k, "zero_pair_indegrees", zero_spy)
    rng = random.Random(34)
    for _ in range(80):
        g = random_simple_graph(rng, max_n=14)
        for k in (1, 2, 3, 4):
            start, apex_start, zero_start = len(calls), len(apexes), len(zeroed)
            rep = _run(TwoKEngine, g, k)
            fired = sum(calls[start:])
            triangles = sum(apexes[apex_start:])
            assert rep.counters.certified_accepts == fired
            # every uncovered edge runs the triangle rule once, the edges
            # it refuses run the certificate, and only the edges both
            # refuse are zeroed: at k = 1, none
            uncovered = g.m - rep.reason_counts()[Reason.COVERED_BY_COMPONENT]
            assert len(apexes) - apex_start == uncovered
            assert len(calls) - start == uncovered - triangles
            assert len(zeroed) - zero_start == uncovered - triangles - fired
            if k == 1:
                assert len(zeroed) == zero_start
            if k >= 3:
                assert not triangles
    assert any(calls) and not all(calls) and any(apexes)
    assert len(zeroed) > 100


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


def _no_zeroing(digraph, u, v):
    raise AssertionError(f"edge {u}-{v} was zeroed")


def test_certificate_skips_the_k2_triangle(monkeypatch):
    # k = 2: 0-2 and 1-2 are certified; for 01 each endpoint's one edge
    # goes to 2, a common neighbour, so the triangle rule rejects the
    # third edge (3 edges > 3k - 2k) with no zeroing and records the
    # triangle as a block
    monkeypatch.setattr(sparse2k, "zero_pair_indegrees", _no_zeroing)
    engine, steps = _steps(Multigraph(3, [(0, 2), (1, 2), (0, 1)]), 2)
    assert steps == [(0, 1), (0, 1), (-1, 0)]
    assert engine.blocks.components() == [[0, 1, 2]]


def test_triangle_rule_rejects_between_two_full_endpoints(monkeypatch):
    # k = 2: 0 and 1 hold two edges each, so the certificate cannot fire,
    # and their common neighbour 4 closes the triangle {0, 1, 4}
    monkeypatch.setattr(sparse2k, "zero_pair_indegrees", _no_zeroing)
    edges = [(0, 2), (1, 3), (0, 4), (1, 4), (0, 1)]
    engine, steps = _steps(Multigraph(5, edges), 2)
    assert steps == [(0, 1)] * 4 + [(-1, 0)]
    assert engine.blocks.components() == [[0, 1, 4]]


def test_triangle_rule_rejects_the_k1_path(monkeypatch):
    # k = 1: the path 0-1-2 puts 2 > 3k - 2k edges on three nodes, so its
    # second edge is rejected with no zeroing, {1, 2, 0} recorded
    monkeypatch.setattr(sparse2k, "zero_pair_indegrees", _no_zeroing)
    engine, steps = _steps(Multigraph(3, [(0, 1), (1, 2)]), 1)
    assert steps == [(0, 1), (-1, 0)]
    assert engine.blocks.components() == [[0, 1, 2]]


def test_certificate_fires_without_a_common_neighbour():
    # k = 2: 0's one edge goes to 2, which 1 does not touch
    _, steps = _steps(Multigraph(4, [(0, 2), (1, 3), (0, 1)]), 2)
    assert steps == [(0, 1), (0, 1), (0, 1)]


def test_certificate_skips_k1_when_x_holds_an_edge():
    # k = 1: node 0 holds no edge, but 1 holds 1-2, and {0, 1, 2} may hold
    # only one edge: the triangle rule rejects 0-1 first
    _, steps = _steps(Multigraph(3, [(1, 2), (0, 1)]), 1)
    assert steps == [(0, 1), (-1, 0)]


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
