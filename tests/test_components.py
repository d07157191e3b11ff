"""Tests for block detection and the offline component pass."""

from __future__ import annotations

import hashlib
import random

import pytest

from klsparse import (
    STRATEGY_NAMES,
    ComponentSet,
    Multigraph,
    NotSparseInputError,
    PebbleEngine,
    Reason,
    ReversalBoundError,
    SparsityParams,
    components_of,
    extract,
    extract_with_components,
    gen_erdos_renyi,
    gen_rigid,
    make_strategy,
)
from klsparse import components
from klsparse.orientation import InnerDigraph
from conftest import ALL_PAIRS, brute_force_components, random_multigraph


def test_detect_block_on_tight_pair():
    # a single (2,3)-tight edge: two nodes, one edge
    g = Multigraph(2, [(0, 1)])
    p = SparsityParams(2, 3)
    rep, comps = extract_with_components(g, p)
    assert comps == [[0, 1]]


def test_detect_block_reports_maximal_set():
    # triangle under (2,3): after the third edge the whole triangle is tight
    g = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    assert components_of(g, SparsityParams(2, 3)) == [[0, 1, 2]]


def test_component_frozen_examples():
    p23 = SparsityParams(2, 3)
    two_tri = Multigraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    assert components_of(two_tri, p23) == [[0, 1, 2], [2, 3, 4]]

    path3 = Multigraph(3, [(0, 1), (1, 2)])
    assert components_of(path3, p23) == [[0, 1], [1, 2]]
    assert components_of(path3, SparsityParams(1, 1)) == [[0, 1, 2]]

    loops = Multigraph(4, [(0, 0), (1, 1), (2, 3), (2, 2)])
    assert components_of(loops, SparsityParams(1, 0)) == [[0, 1, 2, 3]]

    tri_iso = Multigraph(4, [(0, 1), (0, 2), (1, 2)])
    assert components_of(tri_iso, p23) == [[0, 1, 2]]


def test_components_match_brute_force():
    rng = random.Random(33)
    checked = 0
    for _ in range(60):
        g = random_multigraph(rng, max_n=6, max_m=12)
        for k, l in ALL_PAIRS:
            p = SparsityParams(k, l)
            if extract(g, p).accepted_count != g.m:
                continue
            got = sorted(sorted(c) for c in components_of(g, p))
            assert got == brute_force_components(g, p), (g.edges(), k, l)
            checked += 1
    assert checked > 100


def test_disjoint_regime_components_never_overlap():
    rng = random.Random(35)
    for _ in range(40):
        g = random_multigraph(rng, max_n=7, max_m=12)
        for k in (1, 2, 3):
            for l in range(0, k + 1):
                p = SparsityParams(k, l)
                rep, comps = extract_with_components(
                    g, p, order=make_strategy("NBasicComp", g, p, seed=1)
                )
                seen: set[int] = set()
                for comp in comps:
                    assert seen.isdisjoint(comp)
                    seen.update(comp)


def test_sharing_regime_components_overlap_in_at_most_one_node():
    rng = random.Random(37)
    for _ in range(40):
        g = random_multigraph(rng, max_n=7, max_m=12)
        for k in (2, 3):
            for l in range(k + 1, 2 * k):
                p = SparsityParams(k, l)
                rep, comps = extract_with_components(
                    g, p, order=make_strategy("NBasicComp", g, p, seed=1)
                )
                for i in range(len(comps)):
                    for j in range(i + 1, len(comps)):
                        assert len(set(comps[i]) & set(comps[j])) <= 1


def test_covered_edges_short_circuit():
    # triangle plus two parallel edges inside the tight triangle: the
    # first copy's failed search records {0, 1}, the second is covered
    g = Multigraph(3, [(0, 1), (0, 2), (1, 2), (0, 1), (0, 1)])
    p = SparsityParams(2, 3)
    rep, comps = extract_with_components(g, p)
    assert comps == [[0, 1, 2]]
    covered = [v for v in rep.verdicts if v.reason is Reason.COVERED_BY_COMPONENT]
    assert len(covered) == 1
    assert covered[0].reversals_used == 0
    assert not covered[0].accepted


def _accepted_subgraph(g: Multigraph, report) -> Multigraph:
    return Multigraph(g.n, [g.endpoints(e) for e in sorted(report.accepted)])


def test_every_strategy_matches_brute_force_on_the_accepted_subgraph():
    # sparse and non-sparse inputs alike: the components are those of the
    # accepted subgraph, whatever strategy (two-phase included) built it
    rng = random.Random(39)
    truth: dict[tuple, list[list[int]]] = {}
    checked = non_sparse = 0
    for _ in range(60):
        g = random_multigraph(rng, max_n=7, max_m=16)
        for k, l in ALL_PAIRS:
            p = SparsityParams(k, l)
            for name in STRATEGY_NAMES:
                strategy = make_strategy(name, g, p, seed=rng.randrange(100))
                report, comps = extract_with_components(g, p, strategy)
                sub = _accepted_subgraph(g, report)
                key = (g.n, tuple(sorted(sub.edges())), k, l)
                if key not in truth:
                    truth[key] = brute_force_components(sub, p)
                assert comps == truth[key], (g.edges(), k, l, name)
                non_sparse += report.accepted_count < g.m
                checked += 1
    assert checked == 60 * len(ALL_PAIRS) * len(STRATEGY_NAMES)
    assert non_sparse > checked // 4


TWO_PHASE = ("PForestsBFS", "PForestsDFS", "ForestsBFS", "ForestsDFS",
             "UnionBasic", "UnionNBasic", "UnionTranspOne")


def test_two_phase_strategies_accepted():
    g = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    p = SparsityParams(2, 3)
    for name in TWO_PHASE:
        assert name in STRATEGY_NAMES
        report, comps = extract_with_components(g, p, make_strategy(name, g, p))
        assert report.accepted_count == 3
        assert comps == [[0, 1, 2]], name


def test_component_pass_takes_any_strategy_for_node_sharing():
    # k < l: components may share a node, and a strategy without the Comp
    # orientation rule still drives the pass
    g = Multigraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
    p = SparsityParams(2, 3)
    for name in ("Basic", "NBasic", "Transp", "DegMin"):
        report, comps = extract_with_components(g, p, make_strategy(name, g, p))
        assert report.accepted_count == g.m
        assert comps == [[0, 1, 2], [2, 3, 4]], name
    # in the disjoint regime too
    tri = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    p11 = SparsityParams(1, 1)
    rep, comps = extract_with_components(tri, p11, make_strategy("Basic", tri, p11))
    assert comps == [[0, 1, 2]]


def test_tight_subsets_of_a_component_do_not_stop_the_pass():
    # blocks the engine records at failed searches are tight but need not
    # be maximal; an edge inside one still gets probed
    g = Multigraph(5, [(3, 3), (0, 4), (2, 2), (2, 3), (4, 4), (0, 0)])
    p = SparsityParams(1, 0)  # at l = 0 disjoint tight sets have a tight union
    report, comps = extract_with_components(g, p, make_strategy("Basic", g, p, seed=3))
    assert comps == [[0, 2, 3, 4]]

    g = Multigraph(5, [(2, 4), (2, 4), (3, 4), (1, 4), (3, 4), (2, 3), (1, 4),
                       (0, 4), (0, 1), (0, 1), (1, 4), (1, 4), (4, 4), (2, 3)])
    p = SparsityParams(2, 3)  # parallel edges record 2-node blocks
    report, comps = extract_with_components(g, p, make_strategy("Basic", g, p))
    assert comps == [[0, 1, 4], [2, 3, 4]]


def test_rigid_components_visits_stay_linear():
    g = gen_rigid(200, seed=1000)
    p = SparsityParams(2, 3)
    tight = _accepted_subgraph(g, extract(g, p))
    assert (tight.n, tight.m) == (1394, 2785)
    report, comps = extract_with_components(tight, p)
    assert comps == [list(range(tight.n))]
    # a block probe after every accepted edge makes about 3.9M visits here
    assert report.counters.bfs_node_visits <= 20 * tight.m


def test_pass_reversal_bound_is_checked_without_assert(monkeypatch):
    g = Multigraph(3, [(0, 1), (0, 2), (1, 2)])  # the pass reverses a path
    p = SparsityParams(2, 3)
    engine = PebbleEngine(g, p)
    engine.run(make_strategy("NBasicComp", g, p))
    monkeypatch.setattr(InnerDigraph, "reverse", lambda self, path: None)
    with pytest.raises(ReversalBoundError):
        components._components(engine)


def test_components_of_rejects_non_sparse_input():
    k4_plus = Multigraph(3, [(0, 1), (0, 1), (0, 1), (1, 2)])
    with pytest.raises(NotSparseInputError):
        components_of(k4_plus, SparsityParams(2, 3))


def test_component_set_skips_singletons():
    p = SparsityParams(1, 0)
    cs = ComponentSet(3, p)
    cs.record(frozenset({0}))
    assert cs.components() == []
    cs.record(frozenset({0, 1}))
    assert cs.components() == [[0, 1]]


def test_component_pass_reads_the_order_before_reorienting():
    # sha256 computed before the engine deferred its early-termination
    # tail.  The indegree-keyed strategies order that tail by the live
    # digraph, so the digest moves if the pass reorients before the order
    # is read.  G(120, 0.1) has 728 edges: not sparse, a long tail.
    g = gen_erdos_renyi(120, 0.1, seed=11)
    digest = hashlib.sha256()
    for pair in ((2, 3), (1, 1)):
        p = SparsityParams(*pair)
        for name in ("IncInDegMin", "NInDegMin", "NInDegMinComp", "Transp", "Basic"):
            rep, comps = extract_with_components(
                g, p, order=make_strategy(name, g, p, seed=3)
            )
            c = rep.counters
            digest.update(repr((
                rep.order, sorted(rep.accepted), comps,
                c.edges_processed, c.early_termination_hit,
            )).encode())
    assert digest.hexdigest() == (
        "c89757f1aafeadb53ea4d838850316ee6e880f042ab0b93446c651f10eb06344"
    )


def test_component_pass_runs_one_backward_closure_per_probe(monkeypatch):
    # the failed search that ends a probe's reversals already exhausted the
    # endpoints' saturated closure; the probe must not search it again
    # G(60, 0.06) under (2,3): one 49-node component and twelve 2-node ones
    g = gen_erdos_renyi(60, 0.06, seed=3)
    p = SparsityParams(2, 3)
    engine = PebbleEngine(g, p)
    engine.run(make_strategy("NBasicComp", g, p))
    exhausted = probes = 0
    search = InnerDigraph.find_reversal_path
    closure = InnerDigraph.saturated_closure
    probe = components.detect_block

    def counted_search(self, *args):
        nonlocal exhausted
        path = search(self, *args)
        exhausted += path is None
        return path

    def counted_closure(self, *args):
        nonlocal exhausted
        nodes = closure(self, *args)
        exhausted += nodes is not None
        return nodes

    def counted_probe(*args, **kwargs):
        nonlocal probes
        probes += 1
        return probe(*args, **kwargs)

    monkeypatch.setattr(InnerDigraph, "find_reversal_path", counted_search)
    monkeypatch.setattr(InnerDigraph, "saturated_closure", counted_closure)
    monkeypatch.setattr(components, "detect_block", counted_probe)
    found = components._components(engine)
    assert len(found.components()) > 1
    assert probes > 1
    assert exhausted == probes
