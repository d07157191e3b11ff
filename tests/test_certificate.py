"""Tests for the degree certificate: an edge accepted with no search
because an endpoint holds fewer than k accepted edges, none a loop and
none to the other endpoint."""

from __future__ import annotations

import random

import pytest

from klsparse import (
    STRATEGY_NAMES,
    Multigraph,
    PebbleEngine,
    SparsityParams,
    make_strategy,
)
from klsparse.oracle import is_sparse_bruteforce, max_sparse_size_oracle
from conftest import ALL_PAIRS, hub_pair, random_multigraph

# the orders that key on the engine's live indegrees, which the certificate
# changes by skipping reversals; every other order reads none of them
_LIVE_INDEGREE = {"IncInDegMin", "NInDegMin", "NInDegMinComp"}


class _DrainOnly(PebbleEngine):
    """The reference engine: every edge goes through ``drain``."""

    def _certified(self, u: int, v: int) -> bool:
        return False


def _spec(graph: Multigraph, accepted, k: int, u: int, v: int) -> bool:
    """The certificate read off the accepted edge ids, not the digraph."""
    for w, x in ((u, v), (v, u)):
        ends = [(graph.edge_u[e], graph.edge_v[e]) for e in accepted
                if w in (graph.edge_u[e], graph.edge_v[e])]
        if len(ends) < k and all(a != b and x not in (a, b) for a, b in ends):
            return True
    return False


@pytest.mark.parametrize("k, l", ALL_PAIRS)
def test_certificate_keeps_every_order_exact(k, l):
    rng = random.Random(3300 + 10 * k + l)
    p = SparsityParams(k, l)
    for _ in range(30):
        g = random_multigraph(rng, max_n=8, max_m=18)
        size = max_sparse_size_oracle(g, p)
        for name in STRATEGY_NAMES:
            seed = rng.randrange(100)
            rep = PebbleEngine(g, p).run(make_strategy(name, g, p, seed))
            assert rep.accepted_count == size, name
            kept = Multigraph(g.n, [(g.edge_u[e], g.edge_v[e])
                                    for e in sorted(rep.accepted)])
            assert is_sparse_bruteforce(kept, p)[0], name
            if name not in _LIVE_INDEGREE:
                ref = _DrainOnly(g, p).run(make_strategy(name, g, p, seed))
                assert rep.accepted == ref.accepted, name


def test_certificate_fires_exactly_on_its_condition(monkeypatch):
    calls = []
    certified = PebbleEngine._certified

    def spy(self, u, v):
        assert u != v, "the certificate ran on a loop"
        fired = certified(self, u, v)
        assert fired == _spec(self.graph, self.report.accepted, self.params.k,
                              u, v), (u, v)
        calls.append(fired)
        return fired

    monkeypatch.setattr(PebbleEngine, "_certified", spy)
    rng = random.Random(33)
    for _ in range(60):
        g = random_multigraph(rng, max_n=8, max_m=18)
        for k, l in ALL_PAIRS:
            p = SparsityParams(k, l)
            for name in ("Basic", "NInDegMin", "Transp", "UnionBasic"):
                start = len(calls)
                rep = PebbleEngine(g, p).run(make_strategy(name, g, p, seed=1))
                assert rep.counters.certified_accepts == sum(calls[start:])
    assert any(calls) and not all(calls)


def _steps(graph: Multigraph, params: SparsityParams, heads):
    """Feed the edges in id order to ``try_accept`` with the given
    preferred heads; per edge, its result and the certified accepts it
    added."""
    engine = PebbleEngine(graph, params)
    counters = engine.digraph.counters
    out = []
    for e, head in enumerate(heads):
        before = counters.certified_accepts
        out.append((engine.try_accept(e, head),
                    counters.certified_accepts - before))
    return out


def test_certificate_skips_a_loop():
    # (2,1): node 0 holds one arc, from 1, so the loop at 0 meets its
    # ceiling; a drain takes it, by one reversal
    g = Multigraph(2, [(0, 1), (0, 0)])
    assert _steps(g, SparsityParams(2, 1), (0, None)) == [(0, 0), (1, 0)]


def test_certificate_skips_a_second_parallel_edge():
    # (2,3): each endpoint holds one edge, to the other; the pair spans
    # 2k - l = 1 edge, so the drain fails
    g = Multigraph(3, [(0, 1), (0, 1)])
    assert _steps(g, SparsityParams(2, 3), (None, None)) == [(0, 0), (-1, 0)]


def test_certificate_skips_a_node_with_k_edges():
    # (2,3): each hub's second leaf edge is certified by its leaf, and the
    # hub edge, whose endpoints hold k edges each, drains by two reversals
    steps = _steps(hub_pair(), SparsityParams(2, 3), [None] * 5)
    assert steps == [(0, 0), (0, 1), (0, 0), (0, 1), (2, 0)]
