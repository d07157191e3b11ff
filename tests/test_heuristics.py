"""Tests for the heuristic catalog and the two-phase builders."""

from __future__ import annotations

import random

import pytest

from klsparse import (
    STRATEGY_NAMES,
    Multigraph,
    SparsityParams,
    build_phase_one,
    extract,
    make_strategy,
    max_sparse_size_oracle,
    phase_one_sparsity_check,
)
from klsparse.heuristics import BucketQueue
from conftest import ALL_PAIRS, complete_graph, random_multigraph


def test_catalog_has_twenty_one_strategies():
    assert len(STRATEGY_NAMES) == 21
    assert len(set(STRATEGY_NAMES)) == 21


def test_make_strategy_all_names():
    g = complete_graph(4)
    p = SparsityParams(2, 3)
    for name in STRATEGY_NAMES:
        s = make_strategy(name, g, p, seed=1)
        assert s.name == name
        assert s.kind in {"edge-order", "node-order", "transposed", "two-phase"}


def test_make_strategy_case_insensitive():
    g = complete_graph(3)
    p = SparsityParams(1, 1)
    assert make_strategy("basic", g, p).name == "Basic"
    assert make_strategy("TRANSPONE", g, p).name == "TranspOne"


def test_make_strategy_unknown_name():
    with pytest.raises(ValueError) as info:
        make_strategy("Bogus", complete_graph(3), SparsityParams(1, 1))
    assert "Bogus" in str(info.value)


def test_strategy_kind_partition():
    g = complete_graph(4)
    p = SparsityParams(2, 3)
    kinds = {name: make_strategy(name, g, p).kind for name in STRATEGY_NAMES}
    assert kinds["Basic"] == "edge-order"
    assert kinds["DegMin"] == "edge-order"
    assert kinds["IncProcMin"] == "edge-order"
    assert kinds["IncInDegMin"] == "edge-order"
    assert kinds["Transp"] == "transposed"
    assert kinds["TranspOne"] == "transposed"
    two_phase = [n for n, kind in kinds.items() if kind == "two-phase"]
    assert sorted(two_phase) == [
        "ForestsBFS",
        "ForestsDFS",
        "PForestsBFS",
        "PForestsDFS",
        "UnionBasic",
        "UnionNBasic",
        "UnionTranspOne",
    ]
    node_order = [n for n, kind in kinds.items() if kind == "node-order"]
    assert len(node_order) == 8
    comp = [n for n in STRATEGY_NAMES if make_strategy(n, g, p).uses_components]
    assert sorted(comp) == [
        "NBasicComp",
        "NDegMinComp",
        "NInDegMinComp",
        "NProcMinComp",
    ]


def test_all_strategies_reach_oracle_size():
    rng = random.Random(11)
    for _ in range(25):
        g = random_multigraph(rng, max_n=6, max_m=12)
        for k, l in ALL_PAIRS:
            p = SparsityParams(k, l)
            want = max_sparse_size_oracle(g, p)
            for name in STRATEGY_NAMES:
                rep = extract(g, p, order=make_strategy(name, g, p, seed=5))
                assert rep.accepted_count == want, (name, k, l)


def test_every_edge_gets_exactly_one_verdict():
    rng = random.Random(13)
    g = random_multigraph(rng, max_n=6, max_m=14)
    p = SparsityParams(2, 3)
    for name in STRATEGY_NAMES:
        rep = extract(g, p, order=make_strategy(name, g, p, seed=2))
        assert sorted(v.edge for v in rep.verdicts) == list(range(g.m))


def test_seed_zero_is_storage_order_for_basic():
    g = complete_graph(5)
    p = SparsityParams(2, 3)
    rep = extract(g, p, order=make_strategy("Basic", g, p, seed=0))
    assert [v.edge for v in rep.verdicts] == list(range(g.m))


def test_seeded_runs_are_deterministic():
    g = complete_graph(6)
    p = SparsityParams(2, 3)
    for name in STRATEGY_NAMES:
        a = extract(g, p, order=make_strategy(name, g, p, seed=9))
        b = extract(g, p, order=make_strategy(name, g, p, seed=9))
        assert [v.edge for v in a.verdicts] == [v.edge for v in b.verdicts]
        assert a.accepted == b.accepted


def test_different_seeds_usually_differ():
    g = complete_graph(6)
    p = SparsityParams(2, 3)
    a = extract(g, p, order=make_strategy("Basic", g, p, seed=1))
    b = extract(g, p, order=make_strategy("Basic", g, p, seed=2))
    assert [v.edge for v in a.verdicts] != [v.edge for v in b.verdicts]


def test_bucket_queue_orders_by_key():
    keys = {0: 2, 1: 0, 2: 1}
    q = BucketQueue()
    for item, key in keys.items():
        q.push(item, key)
    out = [q.pop(lambda item: keys[item]) for _ in range(3)]
    assert out == [1, 2, 0]
    assert q.pop(lambda item: keys[item]) is None


def test_bucket_queue_stale_reinsert():
    keys = {0: 0, 1: 1}
    q = BucketQueue()
    q.push(0, 0)
    q.push(1, 1)
    keys[0] = 3  # stale: bucket 0 now disagrees with the true key
    out = [q.pop(lambda item: keys[item]) for _ in range(2)]
    assert out == [1, 0]


def test_build_phase_one_structure_counts():
    g = complete_graph(6)
    # (3,1): two pseudoforests and one forest
    res = build_phase_one(g, SparsityParams(3, 1), method="bfs")
    assert len(res.structures) == 3
    # (2,2): no pseudoforests, two forests
    res = build_phase_one(g, SparsityParams(2, 2), method="bfs")
    assert len(res.structures) == 2
    # pseudoforests disabled: (3,1) becomes three forests
    res = build_phase_one(g, SparsityParams(3, 1), method="bfs", pseudoforests=False)
    assert len(res.structures) == 3


def test_phase_one_output_sparse_all_methods():
    rng = random.Random(17)
    graphs = [random_multigraph(rng, max_n=6, max_m=12) for _ in range(8)]
    for g in graphs:
        for k, l in [(1, 0), (1, 1), (2, 1), (2, 3), (3, 2)]:
            p = SparsityParams(k, l)
            for method in ("bfs", "dfs", "union"):
                for pseudo in (True, False):
                    res = build_phase_one(
                        g, p, method=method, pseudoforests=pseudo, seed=3
                    )
                    assert phase_one_sparsity_check(res, p)
                    assert set(res.accepted).isdisjoint(res.remaining)
                    assert len(res.accepted) + len(res.remaining) == g.m


def test_union_phase_one_structures_are_forests_or_pseudoforests():
    rng = random.Random(19)
    for _ in range(6):
        g = random_multigraph(rng, max_n=7, max_m=14)
        p = SparsityParams(2, 1)
        res = build_phase_one(g, p, method="union", seed=1)
        # structure 0 may carry one cycle per connected component,
        # structures beyond index 0 of the forest block may not
        n_pseudo = max(p.k - p.l, 0)
        for idx, edge_set in enumerate(res.structures):
            nodes: dict[int, int] = {}
            parent = list(range(g.n))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            cycles_by_root: dict[int, int] = {}
            for e in edge_set:
                u, v = g.endpoints(e)
                nodes[u] = nodes.get(u, 0) + 1
                nodes[v] = nodes.get(v, 0) + 1
                ru, rv = find(u), find(v)
                if ru == rv:
                    cycles_by_root[ru] = cycles_by_root.get(ru, 0) + 1
                else:
                    merged = cycles_by_root.get(ru, 0) + cycles_by_root.get(rv, 0)
                    parent[ru] = rv
                    cycles_by_root.pop(ru, None)
                    if merged:
                        cycles_by_root[rv] = merged
            if idx < n_pseudo:
                assert all(c <= 1 for c in cycles_by_root.values())
            else:
                assert not cycles_by_root


def test_two_phase_strategies_prime_the_engine():
    g = complete_graph(6)
    p = SparsityParams(2, 3)
    for name in (
        "PForestsBFS",
        "PForestsDFS",
        "ForestsBFS",
        "ForestsDFS",
        "UnionBasic",
        "UnionNBasic",
        "UnionTranspOne",
    ):
        rep = extract(g, p, order=make_strategy(name, g, p, seed=4))
        assert rep.accepted_count == 9
        assert len(rep.verdicts) == g.m
        # phase one acceptances are recorded with zero reversals
        assert any(v.accepted and v.reversals_used == 0 for v in rep.verdicts)


def test_transp_one_stays_put_while_accepting():
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    p = SparsityParams(2, 3)
    rep = extract(g, p, order=make_strategy("TranspOne", g, p, seed=0))
    assert rep.accepted_count == 4


def test_node_order_strategies_cover_isolated_free_graphs():
    g = Multigraph(5, [(0, 1), (2, 3)])
    p = SparsityParams(1, 1)
    for name in ("NBasic", "NDegMin", "NProcMin", "NInDegMin"):
        rep = extract(g, p, order=make_strategy(name, g, p, seed=6))
        assert rep.accepted_count == 2


def test_degmin_emits_ndegmin_order():
    # DegMin differs from NDegMin only in where an accepted arc points
    rng = random.Random(23)
    graphs = []
    while len(graphs) < 12:
        g = random_multigraph(rng, max_n=9, max_m=24)
        if any(g.edge_u[e] == g.edge_v[e] for e in range(g.m)):
            graphs.append(g)
    for g in graphs:
        for k, l in [(2, 3), (1, 1), (3, 4), (1, 0), (2, 1), (3, 5)]:
            p = SparsityParams(k, l)
            a = extract(g, p, order=make_strategy("DegMin", g, p, seed=3))
            b = extract(g, p, order=make_strategy("NDegMin", g, p, seed=3))
            assert a.order == b.order, (g.n, g.m, k, l)
            assert a.accepted_count == b.accepted_count
