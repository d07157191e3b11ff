"""Tests for the augmenting-path extraction engine."""

from __future__ import annotations

import gc
import hashlib
import re
import weakref

import pytest

from klsparse import (
    STRATEGY_NAMES,
    InnerDigraph,
    Multigraph,
    PebbleEngine,
    Reason,
    ReversalBoundError,
    SparsityParams,
    StrategyContractError,
    UnweightedInputError,
    WrongRegimeError,
    decide,
    extract,
    extract_weighted,
    gen_erdos_renyi,
    make_strategy,
)
from klsparse.heuristics import BasicStrategy
from klsparse.pebble import _FixedOrder
from conftest import complete_graph


def test_params_validation():
    with pytest.raises(ValueError):
        SparsityParams(0, 0)
    with pytest.raises(ValueError):
        SparsityParams(2, -1)
    with pytest.raises(ValueError):
        SparsityParams(2, 5)
    p = SparsityParams(2, 3)
    assert p.ceiling(0, 1) == 1
    assert p.ceiling(1, 1) == -2
    assert p.tight_size(4) == 5
    assert p.is_augmenting_regime
    assert not SparsityParams(2, 4).is_augmenting_regime


@pytest.mark.parametrize("k, l", [(2.5, 3), (2, 3.0), (2.0, 3), (True, 1),
                                  (2, False), ("2", 3), (2, None)])
def test_params_reject_non_integers(k, l):
    with pytest.raises(ValueError, match="must be an integer"):
        SparsityParams(k, l)


def test_wrong_regime_rejected():
    with pytest.raises(WrongRegimeError):
        extract(complete_graph(4), SparsityParams(2, 4))


def test_tight_size_floor_at_zero():
    p = SparsityParams(1, 1)
    assert p.tight_size(0) == 0
    assert p.tight_size(1) == 0
    assert p.tight_size(2) == 1


def test_complete_graph_sizes():
    # maximum sparse subgraph sizes, frozen from exhaustive search
    cases = [
        (4, 2, 3, 5),
        (5, 2, 3, 7),
        (6, 2, 3, 9),
        (4, 1, 1, 3),
        (4, 2, 2, 6),
        (4, 1, 0, 4),
        (5, 1, 1, 4),
        (4, 3, 2, 6),
        (5, 2, 1, 9),
        (4, 2, 0, 6),
    ]
    for n, k, l, want in cases:
        rep = extract(complete_graph(n), SparsityParams(k, l))
        assert rep.accepted_count == want, (n, k, l)


def test_loops_accepted_when_allowed():
    g = Multigraph(2, [(0, 0), (0, 0), (1, 1)])
    # (2,0): each node may carry up to two loops
    rep = extract(g, SparsityParams(2, 0))
    assert rep.accepted_count == 3
    # (2,1): one loop per node at most
    rep = extract(g, SparsityParams(2, 1))
    assert rep.accepted_count == 2
    # (1,1): loops never fit
    rep = extract(g, SparsityParams(1, 1))
    assert rep.accepted_count == 0
    assert all(v.reason is Reason.INDEGREE_BLOCKED for v in rep.verdicts)


def test_parallel_edges():
    g = Multigraph(2, [(0, 1), (0, 1), (0, 1)])
    # (2,3) allows a single edge on two nodes; (2,2) allows two
    assert extract(g, SparsityParams(2, 3)).accepted_count == 1
    assert extract(g, SparsityParams(2, 2)).accepted_count == 2
    assert extract(g, SparsityParams(2, 0)).accepted_count == 3


def test_reversal_bound_per_acceptance():
    for n in (4, 5, 6):
        for k, l in [(1, 0), (1, 1), (2, 0), (2, 2), (2, 3), (3, 4), (3, 5)]:
            rep = extract(complete_graph(n), SparsityParams(k, l))
            for v in rep.verdicts:
                if v.accepted:
                    assert v.reversals_used <= l + 1


def test_reversal_bound_is_checked_without_assert(monkeypatch):
    monkeypatch.setattr(InnerDigraph, "reverse", lambda self, path: None)
    with pytest.raises(ReversalBoundError):
        extract(complete_graph(3), SparsityParams(2, 3))


def test_verdict_reasons_cover_run():
    rep = extract(complete_graph(5), SparsityParams(1, 1))
    reasons = {v.reason for v in rep.verdicts}
    assert Reason.ACCEPTED in reasons
    # K5 saturates the (1,1) bound after 4 edges, the rest short-circuit
    assert Reason.EARLY_TERMINATED in reasons
    assert rep.counters.early_termination_hit == 1


def test_early_termination_skips_traversal():
    g = complete_graph(6)
    rep = extract(g, SparsityParams(1, 1))
    c = rep.counters
    accepted_seen = 0
    terminated = False
    for v in rep.verdicts:
        if v.accepted:
            accepted_seen += 1
        if v.reason is Reason.EARLY_TERMINATED:
            terminated = True
            assert v.reversals_used == 0
            assert accepted_seen == 5
    assert terminated


def test_custom_order_changes_nothing_for_size():
    g = complete_graph(5)
    p = SparsityParams(2, 3)
    forward = extract(g, p, order=list(range(g.m)))
    backward = extract(g, p, order=list(reversed(range(g.m))))
    assert forward.accepted_count == backward.accepted_count == 7


@pytest.mark.parametrize("order, message", [
    ([-1, 0, 0], "order entry 0 is -1, not an edge id in range(18)"),
    ([0, 1, 2], "order leaves out edge 3"),
    (list(range(17)) + [18], "order entry 17 is 18, not an edge id in range(18)"),
    ([0, 1, 1] + list(range(2, 18)), "order entry 2 repeats edge 1"),
    ([0.0] + list(range(1, 18)), "order entry 0 is 0.0, not an edge id"),
    (["0"] + list(range(1, 18)), "order entry 0 is '0', not an edge id"),
    # True would be read as edge 1
    ([True] + list(range(1, 18)), "order entry 0 is True, not an edge id"),
])
def test_explicit_order_must_be_a_permutation(order, message):
    # a negative id would alias an edge from the end, a short order would
    # leave edges unexamined, and an id past m would fail inside the run
    g = gen_erdos_renyi(10, 0.5, seed=1)
    p = SparsityParams(2, 3)
    assert g.m == 18
    with pytest.raises(ValueError, match=re.escape(message)):
        extract(g, p, order=order)
    assert extract(g, p, order=range(17, -1, -1)).accepted_count == 17


def test_extract_weighted_frozen_values():
    g = Multigraph(
        4,
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        weights=[5.0, 1.0, 4.0, 3.0, 2.0, 6.0],
    )
    rep = extract_weighted(g, SparsityParams(2, 3))
    assert rep.total_weight == 20.0
    assert sorted(rep.accepted) == [0, 2, 3, 4, 5]

    tri = Multigraph(3, [(0, 1), (0, 2), (1, 2), (0, 1)], weights=[2.5, 1.0, 3.5, 4.0])
    rep = extract_weighted(tri, SparsityParams(1, 1))
    assert rep.total_weight == 7.5
    assert sorted(rep.accepted) == [2, 3]


def test_extract_weighted_requires_weights():
    with pytest.raises(UnweightedInputError):
        extract_weighted(complete_graph(3), SparsityParams(2, 3))


def test_decide_flags():
    tri = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    p11 = SparsityParams(1, 1)
    d = decide(tri, p11)
    assert not d.is_sparse
    assert d.is_spanning
    assert not d.is_tight

    k4 = complete_graph(4)
    d = decide(k4, SparsityParams(2, 2))
    assert d.is_sparse and d.is_spanning and d.is_tight

    path = Multigraph(3, [(0, 1), (1, 2)])
    d = decide(path, p11)
    assert d.is_sparse and d.is_spanning and d.is_tight

    lonely = Multigraph(4, [(0, 1)])
    d = decide(lonely, p11)
    assert d.is_sparse
    assert not d.is_spanning
    assert not d.is_tight


def test_decide_flags_at_l_equals_2k():
    # one maximal pass decides sparse and tight; spanning is not decided
    p12 = SparsityParams(1, 2)
    tri = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    d = decide(tri, p12)
    assert (d.accepted_count, d.is_sparse, d.is_tight) == (1, False, False)
    assert d.is_spanning is None

    lone = Multigraph(3, [(0, 1)])
    d = decide(lone, p12)
    assert (d.accepted_count, d.is_sparse, d.is_tight) == (1, True, True)
    assert d.is_spanning is None


def test_report_shape():
    g = complete_graph(4)
    p = SparsityParams(2, 3)
    rep = extract(g, p)
    assert rep.params == p
    assert rep.n == 4
    assert rep.m == 6
    assert len(rep.verdicts) == 6
    assert rep.accepted_count == len(rep.accepted)
    assert rep.total_weight is None
    assert rep.is_sparse is None


# sha256 of the verdict stream and of the counters over every strategy with
# seeds 0 and 3; both graphs reach the tight size early under every strategy
_PINNED_STREAMS = {
    ((80, 0.3, 5), (2, 3)): (
        "df57889eb24989f1e350f2548f9470f48e73783f32877e54c066b8516ac47a51",
        "dcf3544ed22ce0afd6662e40d6a69dd8935437f89ff26ce759dd5476b97622d4",
    ),
    ((60, 0.4, 6), (1, 1)): (
        "fbd4958909b6446e95e7c64bebed8a92099d364ba1658927f76138724b78b237",
        "21bc3cea5e3efe034461aba13fafac3b19133ee902cee8c919b6a2a8e3f07a09",
    ),
}


@pytest.mark.parametrize("case", list(_PINNED_STREAMS))
def test_verdict_stream_pinned(case):
    (n, prob, graph_seed), pair = case
    g = gen_erdos_renyi(n, prob, seed=graph_seed)
    p = SparsityParams(*pair)
    verdicts, counters = hashlib.sha256(), hashlib.sha256()
    for name in STRATEGY_NAMES:
        for seed in (0, 3):
            rep = PebbleEngine(g, p).run(make_strategy(name, g, p, seed=seed))
            c = rep.counters
            assert c.early_termination_hit == 1, name
            verdicts.update(repr([
                (v.edge, v.accepted, v.reversals_used, v.reason.value)
                for v in rep.verdicts
            ]).encode())
            counters.update(repr((
                c.bfs_node_visits, c.path_reversals, c.edges_processed,
                c.edges_accepted, c.early_termination_hit,
            )).encode())
    assert (verdicts.hexdigest(), counters.hexdigest()) == _PINNED_STREAMS[case]


def test_no_engine_work_after_tight_size(monkeypatch):
    calls = {"try_accept": 0, "orient": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(PebbleEngine, "try_accept",
                        counted("try_accept", PebbleEngine.try_accept))
    monkeypatch.setattr(BasicStrategy, "orient",
                        counted("orient", BasicStrategy.orient))
    g = complete_graph(50)
    rep = extract(g, SparsityParams(1, 1))
    assert calls == {"try_accept": 49, "orient": 49}
    verdicts = rep.verdicts
    assert len(verdicts) == g.m == 1225
    assert all(v.accepted for v in verdicts[:49])
    tail = verdicts[49:]
    assert len(tail) == 1176
    assert all(v.reason is Reason.EARLY_TERMINATED and not v.accepted
               and v.reversals_used == 0 for v in tail)
    assert rep.counters.edges_processed == g.m
    assert rep.counters.early_termination_hit == 1


def test_verdicts_built_from_compact_records():
    g = complete_graph(6)
    rep = extract(g, SparsityParams(2, 3))
    verdicts = rep.verdicts
    assert [v.edge for v in verdicts] == rep.order
    assert {v.edge for v in verdicts if v.accepted} == rep.accepted
    assert verdicts == rep.verdicts  # rebuilt equal on each read
    with pytest.raises(AttributeError):
        rep.verdicts = []


def test_reason_counts_match_verdicts():
    # K_8 under (2,3): rejections, covered edges and a drained tail
    g = complete_graph(8)
    rep = extract(g, SparsityParams(2, 3))
    counts = rep.reason_counts()
    assert counts == {
        reason: sum(v.reason is reason for v in rep.verdicts) for reason in Reason
    }
    assert counts[Reason.EARLY_TERMINATED] > 0
    assert sum(counts.values()) == g.m


def _count_calls(monkeypatch, cls, attrs) -> dict[str, int]:
    calls = dict.fromkeys(attrs, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in attrs:
        monkeypatch.setattr(cls, name, counted(name, getattr(cls, name)))
    return calls


def test_run_stops_at_the_tight_size_and_defers_the_tail(monkeypatch):
    calls = _count_calls(monkeypatch, BasicStrategy, ("next_edge", "on_processed"))
    g = complete_graph(50)
    rep = extract(g, SparsityParams(1, 1))
    # K_50 under (1,1) is tight after 49 edges: no strategy call past the cut
    assert calls == {"next_edge": 49, "on_processed": 49}
    assert rep.counters.edges_processed == g.m == 1225
    assert rep.counters.early_termination_hit == 1
    assert rep.accepted_count == 49
    order = rep.order
    # the 1176 tail edges, and one None that ends the order
    assert calls == {"next_edge": 49 + 1177, "on_processed": 49 + 1176}
    assert order == list(range(g.m))  # seed 0: storage order
    verdicts = rep.verdicts
    assert all(v.accepted for v in verdicts[:49])
    assert all(v.reason is Reason.EARLY_TERMINATED for v in verdicts[49:])
    assert rep.order is order
    rep.reason_counts()
    assert calls == {"next_edge": 49 + 1177, "on_processed": 49 + 1176}


@pytest.mark.parametrize("first_read", ["order", "verdicts", "reason_counts"])
def test_each_reader_walks_the_deferred_tail(first_read):
    g = complete_graph(50)
    rep = extract(g, SparsityParams(1, 1))
    if first_read == "order":
        assert len(rep.order) == g.m
    elif first_read == "verdicts":
        assert [v.edge for v in rep.verdicts] == list(range(g.m))
    else:
        counts = rep.reason_counts()
        assert counts[Reason.ACCEPTED] == 49
        assert counts[Reason.EARLY_TERMINATED] == 1176
    assert rep.order == list(range(g.m))
    assert rep.reason_counts()[Reason.EARLY_TERMINATED] == 1176


def test_deferred_tail_looks_strategy_methods_up_when_walked(monkeypatch):
    # a wrapper installed after the run (as a tracer's removal is, in
    # reverse) must see the tail: no bound method from the run is kept
    g = complete_graph(50)
    rep = extract(g, SparsityParams(1, 1))
    calls = _count_calls(monkeypatch, BasicStrategy, ("next_edge", "on_processed"))
    rep.order
    assert calls == {"next_edge": 1177, "on_processed": 1176}


class _DropsLastEdge(BasicStrategy):
    """Basic in storage order that never yields the last edge id."""

    def next_edge(self):
        e = super().next_edge()
        return None if e == self.graph.m - 1 else e


class _RepeatsAfterCut(BasicStrategy):
    """Basic in storage order that yields edge 0 again past the cut."""

    def next_edge(self):
        e = super().next_edge()
        if e is not None and e == self.params.tight_size(self.graph.n):
            self._pos -= 1
            return 0
        return e


@pytest.mark.parametrize("stub", [_DropsLastEdge, _RepeatsAfterCut])
def test_tail_contract_is_checked_without_assert(stub):
    g = complete_graph(50)
    p = SparsityParams(1, 1)
    rep = PebbleEngine(g, p).run(stub(g, p))
    # the counters are set at the cut, before the tail is walked
    assert rep.counters.edges_processed == g.m
    assert rep.counters.early_termination_hit == 1
    assert rep.accepted_count == 49
    with pytest.raises(StrategyContractError):
        rep.order
    assert issubclass(StrategyContractError, RuntimeError)


def test_strategy_for_another_graph_is_refused():
    # run unchecked, Basic of a 52-edge graph walks 52 of these 119 edges
    # and accepts 37 where the maximum is 57
    g = gen_erdos_renyi(30, 0.3, seed=1)
    other = gen_erdos_renyi(30, 0.1, seed=2)
    p = SparsityParams(2, 3)
    with pytest.raises(ValueError, match="Basic was made for graph"):
        extract(g, p, order=make_strategy("Basic", other, p))
    assert extract(g, p, order=make_strategy("Basic", g, p)).accepted_count == 57


def test_strategy_for_another_pair_is_refused():
    # run unchecked, phase one of (1,0) seeds all three edges, which (2,3)
    # does not allow
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
    p = SparsityParams(2, 3)
    order = make_strategy("PForestsBFS", g, SparsityParams(1, 0))
    with pytest.raises(ValueError, match="PForestsBFS was made for params"):
        PebbleEngine(g, p).run(order)
    assert extract(g, p, order=make_strategy("PForestsBFS", g, p)).accepted_count == 2


def test_order_ending_below_the_stop_is_a_contract_error():
    # a strategy bound to no graph, whose order ends after 52 of 119 edges
    # while more could still be accepted
    g = gen_erdos_renyi(30, 0.3, seed=1)
    order = _FixedOrder(list(range(52)))
    with pytest.raises(StrategyContractError, match="67 edge"):
        PebbleEngine(g, SparsityParams(2, 3)).run(order)


def test_no_tail_without_remaining_edges():
    # a tight input reaches the tight size on its last edge
    g = complete_graph(4)
    rep = extract(g, SparsityParams(2, 2))
    assert rep.accepted_count == g.m == 6
    assert rep.counters.early_termination_hit == 0
    assert rep.order == list(range(6))


class _RecordsOutcomes(BasicStrategy):
    """Basic that keeps every (edge, accepted) pair it is told about."""

    def start(self, engine):
        super().start(engine)
        self.seen = []

    def on_processed(self, edge, accepted):
        self.seen.append((edge, accepted))


def test_on_processed_sees_the_report_stream():
    # G(40, 0.3, seed 4) under (2,3), Basic with seed 2: acceptances,
    # searched and covered rejections, then a deferred tail
    g = gen_erdos_renyi(40, 0.3, seed=4)
    p = SparsityParams(2, 3)
    strategy = _RecordsOutcomes(g, p, seed=2)
    rep = PebbleEngine(g, p).run(strategy)
    counts = rep.reason_counts()
    assert all(counts[reason] > 0 for reason in Reason)
    assert strategy.seen == [(v.edge, v.accepted) for v in rep.verdicts]
    assert [e for e, _ in strategy.seen] == rep.order


def test_rejection_keeps_the_reversals_it_made():
    # triangle plus an isolated node under (1,1): the third edge reverses
    # one path, then its second search fails
    g = Multigraph(4, [(0, 1), (0, 2), (1, 2)])
    rep = extract(g, SparsityParams(1, 1))
    last = rep.verdicts[2]
    assert (last.accepted, last.reason, last.reversals_used) == (
        False, Reason.INDEGREE_BLOCKED, 1)
    # every reversal of the run is listed against its edge
    assert sum(v.reversals_used for v in rep.verdicts) == rep.counters.path_reversals


@pytest.mark.parametrize("name", ["Basic", "Transp", "PForestsBFS", "UnionNBasic"])
@pytest.mark.parametrize("n, prob", [(30, 0.5), (60, 0.03)])
def test_counters_match_the_report(name, n, prob):
    # the dense graph reaches the tight size and defers a tail, the sparse
    # one drains the order
    g = gen_erdos_renyi(n, prob, seed=5)
    p = SparsityParams(2, 3)
    rep = PebbleEngine(g, p).run(make_strategy(name, g, p, seed=1))
    c = rep.counters
    tail = c.early_termination_hit == 1
    assert tail == (prob > 0.1)
    # complete before any tail is walked
    assert c.edges_processed == g.m
    assert c.edges_accepted == rep.accepted_count
    assert c.edges_processed == len(rep.order)
    assert c.edges_accepted == rep.reason_counts()[Reason.ACCEPTED]


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_engine_is_freed_without_the_cyclic_collector(name):
    g = gen_erdos_renyi(40, 0.3, seed=4)
    p = SparsityParams(2, 3)
    gc.disable()
    try:
        engine = PebbleEngine(g, p)
        report = engine.run(make_strategy(name, g, p, seed=1))
        assert report._tail is not None  # the strategy is kept for the tail
        dead_engine, dead_report = weakref.ref(engine), weakref.ref(report)
        del engine, report
        assert dead_engine() is None and dead_report() is None

        engine = PebbleEngine(g, p)
        report = engine.run(make_strategy(name, g, p, seed=1))
        dead_engine = weakref.ref(engine)
        del engine
        assert dead_engine() is None
        # the tail is walked after its engine is gone
        assert sorted(report.order) == list(range(g.m))
    finally:
        gc.enable()
