"""Tests for the heuristic catalog and the two-phase start step."""

from __future__ import annotations

import hashlib
import random

import pytest

import klsparse.heuristics as heuristics
import klsparse.pebble as pebble
from klsparse import (
    STRATEGY_NAMES,
    Multigraph,
    PebbleEngine,
    Reason,
    SparsityParams,
    TwoKEngine,
    WrongRegimeError,
    extract,
    gen_erdos_renyi,
    is_sparse_bruteforce,
    make_strategy,
    max_sparse_size_oracle,
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
    q = BucketQueue(3)
    out = [q.pop(lambda item: keys[item]) for _ in range(3)]
    assert out == [1, 2, 0]
    assert q.pop(lambda item: keys[item]) is None


def test_bucket_queue_stale_reinsert():
    # BucketQueue(2) starts both items at key 0: both are stale at once
    q = BucketQueue(2)
    keys = {0: 3, 1: 1}
    out = [q.pop(lambda item: keys[item]) for _ in range(2)]
    assert out == [1, 0]


def test_bucket_queue_shrinking_key_waits_for_the_scan():
    # the first pop re-keys all three items into bucket 5; item 2's key
    # then drops to 1, but its entry still sits behind item 1 in bucket 5,
    # so item 1 (key 5) comes first: the lazy approximation
    keys = [5, 5, 5]
    q = BucketQueue(3)
    assert q.pop(keys.__getitem__) == 0
    keys[2] = 1
    out = [q.pop(keys.__getitem__) for _ in range(3)]
    assert out == [1, 2, None]


_TWO_PHASE = (
    "PForestsBFS",
    "PForestsDFS",
    "ForestsBFS",
    "ForestsDFS",
    "UnionBasic",
    "UnionNBasic",
    "UnionTranspOne",
)


def _phase_one_arcs(name, g, p, seed=0):
    """The arcs the named two-phase strategy's start step preaccepts, as
    (edge, tail, head) in insertion order."""
    engine = PebbleEngine(g, p)
    make_strategy(name, g, p, seed=seed).start(engine)
    d = engine.digraph
    # preaccept lists each edge as it inserts the arc
    return list(zip(engine.report.order, d.arc_tail, d.arc_head))


def test_phase_one_arc_counts():
    # each BFS structure grows over the edges its predecessors left, so
    # only the first one spans K6
    g = complete_graph(6)
    # (3,1): two pseudoforests and one forest, of 6 + 5 + 3 edges
    assert len(_phase_one_arcs("PForestsBFS", g, SparsityParams(3, 1))) == 14
    # (2,2): no pseudoforests, two forests of 5 + 4 edges
    assert len(_phase_one_arcs("PForestsBFS", g, SparsityParams(2, 2))) == 9
    # plain forests: (3,1) becomes three forests, of 5 + 4 + 3 edges
    assert len(_phase_one_arcs("ForestsBFS", g, SparsityParams(3, 1))) == 12


def test_phase_one_output_sparse_all_methods():
    rng = random.Random(17)
    graphs = [random_multigraph(rng, max_n=6, max_m=12) for _ in range(8)]
    for g in graphs:
        for k, l in [(1, 0), (1, 1), (2, 1), (2, 3), (3, 2)]:
            p = SparsityParams(k, l)
            for name in _TWO_PHASE:
                arcs = _phase_one_arcs(name, g, p, seed=3)
                case = (name, k, l)
                seeded = Multigraph(g.n, [(t, h) for _, t, h in arcs])
                assert is_sparse_bruteforce(seeded, p)[0], case
                edges = [e for e, _, _ in arcs]
                assert len(set(edges)) == len(edges), case


def test_union_scan_structures_are_forests():
    rng = random.Random(19)
    for _ in range(6):
        g = random_multigraph(rng, max_n=7, max_m=14)
        order = make_strategy("Basic", g, SparsityParams(2, 1), seed=1)
        used = bytearray(g.m)
        taken: set[int] = set()
        for _ in range(3):
            structure = heuristics._structure_union_scan(order, used)
            edges = [e for e, _, _ in structure]
            assert taken.isdisjoint(edges)
            taken.update(edges)
            assert taken == {e for e in range(g.m) if used[e]}
            parent = list(range(g.n))

            def find(x: int) -> int:
                while parent[x] != x:
                    x = parent[x]
                return x

            for e in edges:
                ru, rv = find(g.edge_u[e]), find(g.edge_v[e])
                assert ru != rv, "cycle"
                parent[ru] = rv


def test_union_nbasic_builds_its_order_once(monkeypatch):
    calls = []
    original = heuristics.NBasicStrategy._node_order

    def counted(self):
        calls.append(self.seed)
        return original(self)

    monkeypatch.setattr(heuristics.NBasicStrategy, "_node_order", counted)
    g = gen_erdos_renyi(40, 0.3, seed=2)
    p = SparsityParams(2, 0)
    # two forests at (2,0), of 39 + 37 edges, from one scan order
    assert len(_phase_one_arcs("UnionNBasic", g, p, seed=1)) == 76
    assert calls == [1]
    # verdict streams of UnionNBasic on plans of two and three structures,
    # frozen from the order rebuilt per structure, then with each stream's
    # early-terminated suffix sorted by edge id
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
        "c8cdff55b04c82db6ef7fdebc065a9020f68cfee75d5e8d41b628e112dd37975"
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
        assert rep.counters.early_termination_hit == 1
        # a fresh strategy drained on its own, told the run's verdicts
        order = _drain(make_strategy(name, g, p, seed=seed), bytearray(g.m),
                       rep.accepted)
        assert sorted(order) == list(range(g.m))
        examined = g.m - rep.reason_counts()[Reason.EARLY_TERMINATED]
        assert rep.order[:examined] == order[:examined]
        assert _drain(strategy, bytearray(g.m), rep.accepted) == order
        # over flags set on the first half, the other half, each edge once
        half = g.m // 2
        flags = bytearray(g.m)
        for e in order[:half]:
            flags[e] = 1
        assert sorted(_drain(strategy, flags, set())) == sorted(order[half:])


def _drain(strategy, flags, accepted) -> list[int]:
    """Restart ``strategy`` over ``flags`` and take its whole order, telling
    it each edge's verdict by membership in ``accepted``."""
    strategy.restart(flags)
    drained = []
    while (e := strategy.next_edge()) is not None:
        flags[e] = 1
        drained.append(e)
        strategy.on_processed(e, e in accepted)
    return drained


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
        # min(l, 2k-l) + (k-l)+ forests
        structures = min(p.k, 2 * p.k - p.l)

        def scanned(order):
            used = bytearray(g.m)
            return [
                arc
                for _ in range(structures)
                for arc in heuristics._structure_union_scan(order, used)
            ]

        for seed in (0, 3):
            arcs = _phase_one_arcs("Union" + name, g, p, seed=seed)
            assert arcs == scanned(make_strategy(name, g, p, seed=seed))
            if seed:
                # and the order matters: storage order builds other forests
                storage = scanned(pebble._FixedOrder(list(range(g.m)), g, p))
                assert arcs != storage


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
        assert len(engine.digraph.arc_tail) == 0


def test_transp_one_stays_put_while_accepting():
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    p = SparsityParams(2, 3)
    rep = extract(g, p, order=make_strategy("TranspOne", g, p, seed=0))
    assert rep.accepted_count == 4


_SWEEP_INPUTS = {
    # two node pairs carry every edge, the other 7,996 nodes are isolated
    "pairs": [(0, 1)] * 1000 + [(2, 3)] * 1000,
    # every node past 1 is drained by the first sweep
    "leaves": [(0, 1)] * 1000 + [(v, v + 1) for v in range(2, 7999, 2)],
}


@pytest.mark.parametrize("name, graph", [
    ("Transp", "pairs"),
    ("TranspOne", "pairs"),
    ("UnionTranspOne", "pairs"),
    ("Transp", "leaves"),
    ("TranspOne", "leaves"),
])
def test_transp_sweep_probes_a_drained_node_once(name, graph, monkeypatch):
    # the sweep's ring drops a node once it is found drained; a scan over
    # every node made about n incidence probes per edge here
    calls = 0
    original = heuristics._take

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(heuristics, "_take", counted)
    g = Multigraph(8000, _SWEEP_INPUTS[graph])
    p = SparsityParams(2, 3)
    rep = extract(g, p, order=make_strategy(name, g, p))
    assert sorted(rep.order) == list(range(g.m))
    assert calls <= g.m + 2 * g.n


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
