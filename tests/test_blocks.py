"""Tests for the engine's block store: tight blocks found by failed
searches, the covered-edge short cut, and order invariance."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

from klsparse import (
    STRATEGY_NAMES,
    ComponentSet,
    Multigraph,
    PebbleEngine,
    Reason,
    SparsityParams,
    TwoKEngine,
    extract,
    extract_maximal_2k,
    extract_weighted,
    extract_with_components,
    gen_erdos_renyi,
    is_sparse_bruteforce,
    make_strategy,
)
from klsparse.pebble import _FixedOrder
from conftest import ALL_PAIRS


def _random_multigraph(rng: random.Random, n: int, m: int) -> Multigraph:
    return Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])


def _induced(graph: Multigraph, edges, nodes: set[int]) -> int:
    return sum(
        1 for e in edges if graph.edge_u[e] in nodes and graph.edge_v[e] in nodes
    )


def _check_blocks(graph, params, report, blocks) -> None:
    """Every stored block is tight in the accepted subgraph, and every
    covered edge lies inside one of them."""
    k, l = params.k, params.l
    node_sets = [set(b) for b in blocks]
    for nodes in node_sets:
        # at l = 2k the counting bound starts at three nodes
        assert len(nodes) >= (3 if l == 2 * k else 2)
        assert _induced(graph, report.accepted, nodes) == k * len(nodes) - l
    for v in report.verdicts:
        if v.reason is Reason.COVERED_BY_COMPONENT:
            assert not v.accepted and v.reversals_used == 0
            u, w = graph.endpoints(v.edge)
            assert any(u in nodes and w in nodes for nodes in node_sets)


def test_stored_blocks_are_tight_for_every_strategy():
    rng = random.Random(71)
    covered = 0
    for _ in range(6):
        n = rng.randint(8, 40)
        g = _random_multigraph(rng, n, rng.randint(n, 4 * n))
        for k, l in ALL_PAIRS:
            p = SparsityParams(k, l)
            for name in STRATEGY_NAMES:
                strategy = make_strategy(name, g, p, seed=rng.randrange(1, 100))
                engine = PebbleEngine(g, p)
                report = engine.run(strategy)
                _check_blocks(g, p, report, engine.blocks.components())
                covered += sum(
                    v.reason is Reason.COVERED_BY_COMPONENT for v in report.verdicts
                )
                if name.endswith("Comp"):
                    strategy = make_strategy(name, g, p, seed=1)
                    report, comps = extract_with_components(g, p, strategy)
                    _check_blocks(g, p, report, comps)
    assert covered > 1000


def _naive_greedy(graph: Multigraph, params: SparsityParams, order) -> set[int]:
    """Accept each edge in ``order`` iff the accepted set stays sparse, by
    exhaustive subset enumeration."""
    accepted: list[int] = []
    for e in order:
        trial = Multigraph(graph.n, [graph.endpoints(f) for f in accepted + [e]])
        if is_sparse_bruteforce(trial, params)[0]:
            accepted.append(e)
    return set(accepted)


def test_fixed_order_matches_naive_greedy():
    rng = random.Random(73)
    for _ in range(8):
        n = rng.randint(4, 8)
        m = rng.randint(n, 14)
        g = _random_multigraph(rng, n, m)
        weighted = Multigraph(
            n, g.edges(), weights=[float(rng.randint(0, 3)) for _ in range(m)]
        )
        for k, l in ALL_PAIRS:
            p = SparsityParams(k, l)
            runs = [extract(g, p, make_strategy("Basic", g, p, seed=s))
                    for s in range(4)]
            order = list(range(m))
            rng.shuffle(order)
            explicit = extract(g, p, order)
            assert [v.edge for v in explicit.verdicts] == order
            runs.append(explicit)
            runs.append(extract_weighted(weighted, p))
            for report in runs:
                seen = [v.edge for v in report.verdicts]
                assert report.accepted == _naive_greedy(g, p, seen), (
                    g.edges(), k, l, seen,
                )


def test_default_extract_digest_pinned():
    # sha256 of the sorted accepted ids, one per line, computed before the
    # block store existed: a fixed order yields the same greedy set
    g = gen_erdos_renyi(300, 0.1, seed=7)
    report = extract(g, SparsityParams(2, 3))
    text = "\n".join(str(e) for e in sorted(report.accepted))
    assert report.accepted_count == 597
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "48d2c29dc13706bbd6f0ca28c631556a01211fcd9fbd19d8656b09996425dbf1"
    )


def test_failed_search_closure_rejects_later_edges_without_search():
    # (2,3) on four nodes: after the triangle, the first parallel edge
    # fails its search and leaves a block through 0 and 1 behind; the
    # second one is covered by it
    g = Multigraph(4, [(0, 1), (0, 2), (1, 2), (0, 1), (0, 1)])
    p = SparsityParams(2, 3)
    engine = PebbleEngine(g, p)
    report = engine.run(make_strategy("Basic", g, p))
    reasons = [v.reason for v in report.verdicts]
    assert reasons == [Reason.ACCEPTED] * 3 + [
        Reason.INDEGREE_BLOCKED, Reason.COVERED_BY_COMPONENT,
    ]
    assert report.verdicts[-1].reversals_used == 0
    assert engine.blocks.covers(0, 1)
    _check_blocks(g, p, report, engine.blocks.components())


def test_loop_in_block_is_covered():
    p = SparsityParams(2, 1)
    blocks = ComponentSet(4, p)
    blocks.record([0, 1])
    assert blocks.covers(1, 1)
    assert not blocks.covers(2, 2)
    assert not blocks.covers(1, 2)


def test_merge_threshold_follows_regime():
    # l <= k: one shared node merges
    disjoint = ComponentSet(6, SparsityParams(2, 1))
    disjoint.record([0, 1, 2])
    disjoint.record([2, 3])
    disjoint.record([4, 5])
    assert disjoint.components() == [[0, 1, 2, 3], [4, 5]]
    assert disjoint.covers(0, 3) and not disjoint.covers(3, 4)

    # k < l: one shared node keeps blocks apart, two merge
    sharing = ComponentSet(6, SparsityParams(2, 3))
    sharing.record([0, 1, 2])
    sharing.record([2, 3])
    assert sharing.components() == [[0, 1, 2], [2, 3]]
    assert not sharing.covers(0, 3)
    sharing.record([1, 2, 3])
    assert sharing.components() == [[0, 1, 2, 3]]


def test_merge_cascades_through_grown_block():
    # {1,4} meets {1,2,3} and {2,3,4} in one node each, but the union of
    # those two (they share {2,3}) contains it: all three merge
    blocks = ComponentSet(5, SparsityParams(2, 3))
    blocks.record([1, 2, 3])
    blocks.record([1, 4])
    blocks.record([2, 3, 4])
    assert blocks.components() == [[1, 2, 3, 4]]
    assert blocks.covers(1, 4)


def test_maximal_2k_blocks_are_tight():
    rng = random.Random(79)
    covered = 0
    for _ in range(12):
        n = rng.randint(8, 60)
        g = gen_erdos_renyi(n, rng.uniform(0.1, 0.6), seed=rng.randrange(10**6))
        for k in (1, 2, 3):
            engine = TwoKEngine(g, k)
            report = engine.run(_FixedOrder(list(range(g.m))))
            _check_blocks(g, engine.params, report, engine.blocks.components())
            counts = report.reason_counts()
            assert counts[Reason.ACCEPTED] == report.accepted_count
            assert counts[Reason.EARLY_TERMINATED] == 0
            assert sum(counts.values()) == g.m
            covered += counts[Reason.COVERED_BY_COMPONENT]
    assert covered > 1000


def test_maximal_2k_block_is_the_failed_probe_closure():
    # K4 at k = 1: edge (0,2) fails at the saturated neighbour 1 of node 0,
    # whose closure is {1, 0}; edge (0,3) likewise, giving a second block
    engine = TwoKEngine(Multigraph(4, list(combinations(range(4), 2))), 1)
    engine.run(_FixedOrder(list(range(6))))
    assert engine.blocks.components() == [[0, 1, 2], [0, 1, 3]]

    rng = random.Random(83)
    checked = smaller = 0
    for _ in range(10):
        n = rng.randint(20, 80)
        g = gen_erdos_renyi(n, rng.uniform(0.05, 0.3), seed=rng.randrange(10**6))
        for k in (1, 2, 3):
            engine = TwoKEngine(g, k)
            digraph = engine.digraph
            recorded = []
            record = engine.blocks.record

            def spy(nodes, record=record, recorded=recorded):
                recorded.append(nodes)
                record(nodes)

            engine.blocks.record = spy
            try_accept = engine.try_accept

            def check(e, head=None, try_accept=try_accept, recorded=recorded):
                nonlocal checked, smaller
                r = try_accept(e, head)
                if r >= 0:
                    return r
                u, v = g.endpoints(e)
                closure = digraph.last_closure
                assert recorded[-1] == closure + [u, v]
                block = set(recorded[-1])
                # the probe started at a saturated out-neighbour of u or v
                w = closure[0]
                assert w not in (u, v) and digraph.indeg[w] == k
                assert any(
                    digraph.arc_head[a] == w for x in (u, v) for a in digraph.inc[x]
                )
                assert len(block) >= 3
                induced = _induced(g, engine.report.accepted, block)
                assert induced == k * len(block) - 2 * k
                # inside the nodes that no deficient node but u or v reaches
                reach = digraph.multi_source_forward_reach(excluded=(u, v))
                unreached = set(range(g.n)) - set(reach)
                assert block <= unreached
                smaller += len(block) < len(unreached)
                checked += 1
                return r

            # checked after each rejection, inside one run
            engine.try_accept = check
            engine.run(_FixedOrder(list(range(g.m))))
            _check_blocks(g, engine.params, engine.report, engine.blocks.components())
    # the closure of one neighbour is often smaller than the unreached set
    assert checked > 1000 and smaller > 100


def test_maximal_2k_digests_pinned():
    # sha256 of the sorted accepted ids, computed before the l = 2k pass
    # had a block store: the greedy maximal set depends only on the order
    # (the first case is the maximal-2k-er benchmark's pinned input)
    cases = [
        (gen_erdos_renyi(300, 0.05, seed=1000), 2, 596,
         "6185ae7962957580ef9dfd423c781181ec95f88774aa737bc98b2f36b9ee845b"),
        (gen_erdos_renyi(200, 0.1, seed=3000), 3, 594,
         "8dca351f647e8df0de0c82287fb79d2420eac4272b102f0e0280f133fad6c2c3"),
    ]
    for g, k, count, digest in cases:
        report = extract_maximal_2k(g, k)
        text = "\n".join(str(e) for e in sorted(report.accepted))
        assert report.accepted_count == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_merge_threshold_at_l_equals_2k():
    # two shared nodes keep blocks apart, three merge; the grown block
    # still shares only two nodes with the first one
    blocks = ComponentSet(5, SparsityParams(2, 4))
    blocks.record([0, 1, 2])
    blocks.record([1, 2, 3])
    assert blocks.components() == [[0, 1, 2], [1, 2, 3]]
    assert not blocks.covers(0, 3)
    blocks.record([1, 2, 3, 4])
    assert blocks.components() == [[0, 1, 2], [1, 2, 3, 4]]
    assert blocks.covers(1, 4) and not blocks.covers(0, 4)


def test_merge_at_l_equals_2k_counts_pending_and_target():
    # the record meets {5,6,7} in two nodes and {0,1,2,5} in three; once
    # it joins {0,1,2,5}, that block plus the record meets {5,6,7} in three
    blocks = ComponentSet(8, SparsityParams(2, 4))
    blocks.record([0, 1, 2, 5])
    blocks.record([5, 6, 7])
    blocks.record([0, 1, 2, 6, 7])
    assert blocks.components() == [[0, 1, 2, 5, 6, 7]]

    # one node from the record and one from the target make only two
    split = ComponentSet(8, SparsityParams(2, 4))
    split.record([0, 1, 2, 5])
    split.record([5, 6, 7])
    split.record([0, 1, 2, 6])
    assert split.components() == [[0, 1, 2, 5, 6], [5, 6, 7]]
    assert not split.covers(0, 7)


class _NaiveBlocks:
    """Reference block store: a list of node sets.  A record absorbs any
    stored block that meets it in ``threshold`` nodes, repeatedly, until
    none does, and is then stored (singletons ignored)."""

    def __init__(self, threshold: int) -> None:
        self.threshold = threshold
        self.blocks: list[set[int]] = []

    def record(self, nodes) -> None:
        grown = set(nodes)
        if len(grown) < 2:
            return
        merged = True
        while merged:
            merged = False
            for block in self.blocks:
                if len(block & grown) >= self.threshold:
                    grown |= block
                    self.blocks.remove(block)
                    merged = True
                    break
        self.blocks.append(grown)

    def covers(self, u: int, v: int) -> bool:
        return any(u in block and v in block for block in self.blocks)

    def components(self) -> list[list[int]]:
        return sorted(sorted(block) for block in self.blocks)


def _check_node_ids(store: ComponentSet, n: int) -> None:
    """Each node's owner plus its further ids are exactly its blocks."""
    holding = [set() for _ in range(n)]
    for c, nodes in store._block_nodes.items():
        for x in nodes:
            holding[x].add(c)
    for x in range(n):
        owner, more = store._owner[x], store._extra.get(x)
        assert more is None or (more and owner not in more)
        ids = ({owner} | (more or set())) if owner >= 0 else set()
        assert ids == holding[x] and (owner >= 0 or more is None)


def test_block_store_matches_naive_fixpoint():
    """Seeded differential test of the block store at merge thresholds 1,
    2 and 3: after every record its blocks and every coverage answer,
    loops included, equal those of the naive fixpoint."""
    nodes_in_two_blocks = 0
    for k, l, threshold in ((2, 1, 1), (2, 3, 2), (2, 4, 3)):
        rng = random.Random(1009 * threshold)
        for _ in range(60):
            n = rng.randint(3, 14)
            store = ComponentSet(n, SparsityParams(k, l))
            naive = _NaiveBlocks(threshold)
            for _ in range(rng.randint(1, 20)):
                # overlapping closures: part of a stored block, plus fresh
                # nodes; repeats allowed, as in a closure plus its endpoints
                nodes = [rng.randrange(n) for _ in range(rng.randint(1, 5))]
                if naive.blocks and rng.random() < 0.7:
                    block = sorted(rng.choice(naive.blocks))
                    nodes += rng.sample(block, rng.randint(1, len(block)))
                store.record(nodes)
                naive.record(nodes)
                assert store.components() == naive.components()
                for u in range(n):
                    for v in range(n):
                        assert store.covers(u, v) == naive.covers(u, v), (u, v)
                stored = [set(block) for block in store.components()]
                for a, b in combinations(stored, 2):
                    assert len(a & b) < threshold
                _check_node_ids(store, n)
                if l <= k:
                    assert not store._extra
                nodes_in_two_blocks += len(store._extra)
    # the further-id path was exercised, not just the one-owner path
    assert nodes_in_two_blocks > 100
