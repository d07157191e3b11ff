"""Tests for the heuristic catalog and the two-phase builders."""

from __future__ import annotations

import hashlib
import random

import pytest

import klsparse.heuristics as heuristics
from klsparse import (
    STRATEGY_NAMES,
    Multigraph,
    PebbleEngine,
    SparsityParams,
    TwoKEngine,
    WrongRegimeError,
    build_phase_one,
    extract,
    gen_erdos_renyi,
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
    two_phase = [
        name for name in STRATEGY_NAMES
        if isinstance(make_strategy(name, g, p), heuristics._TwoPhase)
    ]
    assert sorted(two_phase) == [
        "ForestsBFS",
        "ForestsDFS",
        "PForestsBFS",
        "PForestsDFS",
        "UnionBasic",
        "UnionNBasic",
        "UnionTranspOne",
    ]
    # a two-phase strategy is its second-phase strategy with a phase-one start
    second = {
        heuristics.BasicStrategy: ["PForestsBFS", "PForestsDFS", "ForestsBFS",
                                   "ForestsDFS", "UnionBasic"],
        heuristics.NBasicStrategy: ["UnionNBasic"],
        heuristics.TranspOneStrategy: ["UnionTranspOne"],
    }
    for cls, names in second.items():
        for name in names:
            assert isinstance(make_strategy(name, g, p), cls), name


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
    pushed = BucketQueue()
    pushed.push(0, 0)
    pushed.push(1, 1)
    # BucketQueue(2) starts both items at key 0: item 1 is stale from the start
    for q in (pushed, BucketQueue(2)):
        keys = {0: 0, 1: 1}
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
                        g, p, method=method, pseudoforests=pseudo,
                        order=make_strategy("Basic", g, p, seed=3),
                    )
                    case = (method, pseudo, k, l)
                    assert phase_one_sparsity_check(res, p)[0], case
                    edges = [e for e, _, _ in res.arcs]
                    assert len(set(edges)) == len(edges), case


def test_union_phase_one_structures_are_forests_or_pseudoforests():
    rng = random.Random(19)
    for _ in range(6):
        g = random_multigraph(rng, max_n=7, max_m=14)
        p = SparsityParams(2, 1)
        res = build_phase_one(
            g, p, method="union", order=make_strategy("Basic", g, p, seed=1)
        )
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


def test_union_nbasic_builds_its_order_once(monkeypatch):
    calls = []
    original = heuristics.NBasicStrategy._node_order

    def counted(self):
        calls.append(self.seed)
        return original(self)

    monkeypatch.setattr(heuristics.NBasicStrategy, "_node_order", counted)
    g = gen_erdos_renyi(40, 0.3, seed=2)
    p = SparsityParams(2, 0)
    res = build_phase_one(
        g, p, method="union", order=make_strategy("NBasic", g, p, seed=1)
    )
    # two pseudoforests at (2,0), one scan order
    assert len(res.structures) == 2
    assert calls == [1]
    # verdict streams of UnionNBasic on plans of two and three structures,
    # frozen from the order rebuilt per structure
    digest = hashlib.sha256()
    for pair in ((2, 0), (3, 1)):
        p = SparsityParams(*pair)
        for seed in (0, 3):
            calls.clear()
            rep = PebbleEngine(g, p).run(make_strategy("UnionNBasic", g, p, seed=seed))
            assert calls == [seed]
            digest.update(repr([
                (v.edge, v.accepted, v.reversals_used, v.reason.value)
                for v in rep.verdicts
            ]).encode())
    assert digest.hexdigest() == (
        "907cb652831cbe0069f0dd0a0cc8492fe3437bbd532370e0dd78d8133e860bdb"
    )


_SINGLE_PHASE = [
    name for name in STRATEGY_NAMES
    if not isinstance(
        make_strategy(name, complete_graph(2), SparsityParams(1, 1)),
        heuristics._TwoPhase,
    )
]
# the single-phase orders that read no live indegree: restarting one over
# clear flags must give back the order of a run
_FLAG_ORDERS = [name for name in _SINGLE_PHASE if "InDeg" not in name]


@pytest.mark.parametrize("name", _FLAG_ORDERS)
def test_restart_reproduces_the_order(name):
    assert len(_FLAG_ORDERS) == 11
    g = gen_erdos_renyi(40, 0.3, seed=4)
    p = SparsityParams(2, 3)
    for seed in (0, 3):
        strategy = make_strategy(name, g, p, seed=seed)
        rep = PebbleEngine(g, p).run(strategy)
        order = rep.order
        flags = bytearray(g.m)
        strategy.restart(flags)
        drained = []
        while (e := strategy.next_edge()) is not None:
            flags[e] = 1
            drained.append(e)
            strategy.on_processed(e, e in rep.accepted)
        assert drained == order
        # over flags set on the first half, the other half, each edge once
        half = g.m // 2
        flags = bytearray(g.m)
        for e in order[:half]:
            flags[e] = 1
        strategy.restart(flags)
        rest = []
        while (e := strategy.next_edge()) is not None:
            flags[e] = 1
            rest.append(e)
            strategy.on_processed(e, False)
        assert sorted(rest) == sorted(order[half:])


@pytest.mark.parametrize("name", _SINGLE_PHASE)
def test_run_after_preaccept_yields_each_edge_once(name):
    # an edge the caller preaccepted is processed already: no order may
    # yield it again (the edge-keyed queues used to)
    g = complete_graph(5)
    p = SparsityParams(2, 3)
    engine = PebbleEngine(g, p)
    engine.preaccept(0, 0, 1)
    rep = engine.run(make_strategy(name, g, p, seed=2))
    assert sorted(rep.order) == list(range(g.m))
    assert rep.accepted_count == 7


@pytest.mark.parametrize("name", ["Basic", "NBasic", "TranspOne"])
def test_union_scan_walks_the_second_phase_order(name):
    # Union<S> preaccepts exactly the arcs that phase one builds over S
    g = gen_erdos_renyi(40, 0.3, seed=4)
    for pair in ((2, 3), (2, 0), (3, 1)):
        p = SparsityParams(*pair)
        for seed in (0, 3):
            engine = PebbleEngine(g, p)
            make_strategy("Union" + name, g, p, seed=seed).start(engine)
            d = engine.digraph
            plan = build_phase_one(
                g, p, "union", pseudoforests=False,
                order=make_strategy(name, g, p, seed=seed),
            )
            assert plan.arcs == list(zip(d.arc_edge, d.arc_tail, d.arc_head))
            if seed:
                # and the order matters: storage order builds other forests
                storage = build_phase_one(g, p, "union", pseudoforests=False)
                assert plan.arcs != storage.arcs


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


def test_two_phase_strategies_refuse_the_l_equals_2k_engine():
    g = complete_graph(5)
    p = SparsityParams(2, 4)
    two_phase = [
        name for name in STRATEGY_NAMES
        if isinstance(make_strategy(name, g, p), heuristics._TwoPhase)
    ]
    assert len(two_phase) == 7
    for name in two_phase:
        engine = TwoKEngine(g, 2)
        with pytest.raises(WrongRegimeError) as raised:
            engine.run(make_strategy(name, g, p, seed=1))
        message = str(raised.value)
        assert message.startswith(f"{name} is a two-phase order, which needs l < 2k")
        assert "maximal-2k path" not in message
        # refused before phase one seeded any arc
        assert engine.digraph.arc_count == 0


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


def test_degmin_names_point_at_the_smaller_degree_endpoint():
    # DegMin and NDegMinComp are NDegMin's factory; that is only sound while
    # every head NDegMin names is DegMin's pick, the smaller-(degree, id)
    # endpoint, loops included
    rng = random.Random(23)
    graphs = []
    while len(graphs) < 12:
        g = random_multigraph(rng, max_n=9, max_m=24)
        if any(g.edge_u[e] == g.edge_v[e] for e in range(g.m)):
            graphs.append(g)
    heads = []
    for g in graphs:
        d = g.degree
        for k, l in [(2, 3), (1, 1), (3, 4), (1, 0), (2, 1), (3, 5)]:
            p = SparsityParams(k, l)
            for name in ("DegMin", "NDegMin", "NDegMinComp"):
                strategy = make_strategy(name, g, p, seed=3)

                def spy(u, v, orient=strategy.orient, name=name):
                    head = orient(u, v)
                    heads.append((name, u, v, head, min((d[u], u), (d[v], v))[1]))
                    return head

                strategy.orient = spy
                extract(g, p, order=strategy)
    assert len(heads) > 1000
    wrong = [call for call in heads if call[3] != call[4]]
    assert not wrong, wrong[:5]


# G(1000, degree/n) with graph seed 1, every order at strategy seed 1:
# the one accepted size, and whether it is the tight size (spanning)
_LARGE_ROWS = [
    (8, (2, 3), 1994, False),
    (12, (3, 3), 2997, True),
    (12, (2, 1), 1999, True),
    (6, (1, 0), 996, False),
    (8, (2, 0), 1997, False),
]


@pytest.mark.parametrize(
    "degree, pair, size, spanning",
    _LARGE_ROWS,
    ids=[f"deg{d}-k{k}l{l}" for d, (k, l), *_ in _LARGE_ROWS],
)
def test_all_strategies_reach_one_size_at_n_1000(degree, pair, size, spanning):
    g = gen_erdos_renyi(1000, degree / 1000, seed=1)
    p = SparsityParams(*pair)
    sizes = {
        name: extract(g, p, order=make_strategy(name, g, p, seed=1)).accepted_count
        for name in STRATEGY_NAMES
    }
    # the matroid guarantee, far past the oracle's reach: one size for all
    assert set(sizes.values()) == {size}, sizes
    # the tight size certifies maximality with no reference to other runs
    assert (size == p.tight_size(g.n)) is spanning
