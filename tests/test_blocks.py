"""Tests for the engine's block store: tight blocks found by failed
searches, blocks grown on acceptance, the covered-edge short cut, and
order invariance."""

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
    gen_rigid,
    is_maximal_2k,
    is_sparse_bruteforce,
    make_strategy,
    max_sparse_size_oracle,
)
from klsparse.oracle import _induced_counts
from klsparse.orientation import InnerDigraph
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


def _spy_on_record(engine) -> list:
    """The node lists of ``engine.blocks.record``'s calls, in call order."""
    recorded = []
    record = engine.blocks.record

    def spy(nodes):
        recorded.append(nodes)
        return record(nodes)

    engine.blocks.record = spy
    return recorded


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
                    for s in range(30)]
            order = list(range(m))
            rng.shuffle(order)
            explicit = extract(g, p, order)
            # the explicit order up to the tight size, the rest by id
            examined = m - explicit.reason_counts()[Reason.EARLY_TERMINATED]
            seen = explicit.order
            assert seen[:examined] == order[:examined]
            assert seen[examined:] == sorted(order[examined:])
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


def test_failed_drain_records_the_maximal_block():
    # at each failed drain the engine records the largest node set through
    # u and v that is tight in the edges accepted so far, found here by
    # brute force over node subsets
    rng = random.Random(2027)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 10)
        g = _random_multigraph(rng, n, rng.randint(n, 4 * n))
        for k, l in ALL_PAIRS:
            p = SparsityParams(k, l)
            for name in ("Basic", "NInDegMin", "Transp", "IncProcMin", "UnionBasic"):
                engine = PebbleEngine(g, p)
                recorded = _spy_on_record(engine)
                try_accept = engine.try_accept

                def check(e, head=None, try_accept=try_accept, recorded=recorded):
                    nonlocal checked
                    before = len(recorded)
                    r = try_accept(e, head)
                    u, v = g.endpoints(e)
                    if r >= 0 or (u == v and k <= l):
                        # accepted, or a loop no orientation can take
                        assert len(recorded) == before
                        return r
                    assert len(recorded) == before + 1
                    cnt = _induced_counts(g, engine.report.accepted)
                    ends = (1 << u) | (1 << v)
                    tight = [
                        mask for mask in range(1 << n)
                        if mask & ends == ends
                        and cnt[mask] == k * bin(mask).count("1") - l
                    ]
                    largest = max(tight, key=lambda mask: bin(mask).count("1"))
                    assert all(mask | largest == largest for mask in tight)
                    assert set(recorded[-1]) == {x for x in range(n) if largest >> x & 1}
                    checked += 1
                    return r

                engine.try_accept = check
                engine.run(make_strategy(name, g, p, seed=rng.randrange(1, 100)))
    assert checked > 1000


def test_local_probe_agrees_with_the_sweep(monkeypatch):
    # wherever the local probe settles a block, the forward sweep from the
    # other deficient nodes leaves exactly that block unreached; rigid
    # inputs keep blocks small enough for the probe, which then joins
    # out-neighbours both by their in-arcs and by saturated closures
    local_block = InnerDigraph._local_block
    closure = InnerDigraph.saturated_closure
    settled = grown = searches = 0

    def counted_closure(self, *args):
        nonlocal searches
        searches += 1
        return closure(self, *args)

    def checked(self, u, v):
        nonlocal settled, grown, searches
        before = len(self.last_closure)
        calls = searches
        block = local_block(self, u, v)
        if block is not None:
            unreached = set(range(self.n)) - set(self.multi_source_forward_reach((u, v)))
            assert sorted(block) == sorted(unreached)
            settled += 1
            grown += len(block) > before
        else:
            searches = calls
        return block

    monkeypatch.setattr(InnerDigraph, "_local_block", checked)
    monkeypatch.setattr(InnerDigraph, "saturated_closure", counted_closure)
    rng = random.Random(31)
    graphs = [gen_rigid(60, seed=1), gen_rigid(40, seed=2), gen_rigid(50, seed=3),
              _random_multigraph(rng, 200, 700)]
    for g in graphs:
        for pair in ((2, 3), (2, 1), (1, 1), (3, 5)):
            p = SparsityParams(*pair)
            for name in ("Basic", "NDegMin", "IncProcMin", "Transp"):
                extract(g, p, make_strategy(name, g, p, seed=rng.randrange(2)))
    assert settled > 1000 and grown > 300 and searches > 100


def test_every_rejection_has_a_tight_block_certificate():
    # a rejected edge that is neither a loop nor past the tight size lies in
    # one stored block, and each stored block induces exactly k|X| - l
    # accepted edges: the witness behind every covered-by-component verdict
    rng = random.Random(29)
    rejected = 0
    for _ in range(3):
        n = rng.randint(20, 80)
        g = _random_multigraph(rng, n, rng.randint(2 * n, 5 * n))
        for k, l in ((1, 0), (2, 0), (2, 1), (2, 3), (3, 5)):
            p = SparsityParams(k, l)
            for name in STRATEGY_NAMES:
                engine = PebbleEngine(g, p)
                report = engine.run(make_strategy(name, g, p, seed=rng.randrange(1, 100)))
                for verdict in report.verdicts:
                    u, v = g.endpoints(verdict.edge)
                    if verdict.accepted or u == v or (
                        verdict.reason is Reason.EARLY_TERMINATED
                    ):
                        continue
                    assert engine.blocks.covers(u, v), (name, verdict)
                    rejected += 1
                for nodes in engine.blocks.components():
                    assert _induced(g, report.accepted, set(nodes)) == k * len(nodes) - l
    assert rejected > 1000


def test_maximal_blocks_cover_a_rigid_region_after_one_failure():
    # sparse near-rigid G(2000, 0.004) at (2,3) under Transp: with the
    # failed search's backward closure as the block, 879 edges were
    # indegree-blocked and the run made 1.78M node visits
    g = gen_erdos_renyi(2000, 0.004, seed=1)
    p = SparsityParams(2, 3)
    report = extract(g, p, make_strategy("Transp", g, p, seed=1))
    assert report.accepted_count == 3991
    assert report.reason_counts()[Reason.INDEGREE_BLOCKED] <= 20
    assert report.counters.bfs_node_visits <= 300_000


def test_weighted_run_rejects_by_maximal_blocks():
    # the weight order is fixed, so the block store is a weighted run's only
    # lever: the closure blocks made 2.14M node visits here, for the same
    # total weight
    g = gen_erdos_renyi(2000, 0.02, seed=1)
    rng = random.Random(1)
    weights = [rng.randrange(10**6) for _ in range(g.m)]
    g = Multigraph(g.n, [g.endpoints(e) for e in range(g.m)], weights=weights)
    report = extract_weighted(g, SparsityParams(2, 3))
    assert report.total_weight == 3786320105
    assert report.counters.bfs_node_visits <= 1_000_000


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
    # K4 at k = 1: edge (0,2) meets the accepted edge 0-1, so the triangle
    # rule rejects it and records {0, 2, 1}; edge (0,3) likewise records
    # {0, 3, 1}.  Edge (2,3) is then accepted with 2 in {0,1,2} and 3 in
    # {0,1,3}: its one edge (k = 1) grows {0,1,2} by node 3, and the grown
    # block meets {0,1,3} in three nodes, so the two merge into all of K4
    engine = TwoKEngine(Multigraph(4, list(combinations(range(4), 2))), 1)
    recorded = _spy_on_record(engine)
    engine.run(_FixedOrder(list(range(6))))
    assert recorded == [(0, 2, 1), (0, 3, 1)]
    assert engine.blocks.components() == [[0, 1, 2, 3]]

    rng = random.Random(83)
    cases = []
    for _ in range(10):
        n = rng.randint(20, 80)
        g = gen_erdos_renyi(n, rng.uniform(0.05, 0.3), seed=rng.randrange(10**6))
        cases.append((g, (1, 2, 3)))
    # the triangle rule rejects most edges of the small graphs with no
    # probe; sparser, larger graphs keep failed probes coming at k = 2, 3
    cases += [(gen_erdos_renyi(500, 8 / 500, seed=s), (2, 3)) for s in range(30)]
    checked = smaller = triangles = 0
    for g, ks in cases:
        for k in ks:
            engine = TwoKEngine(g, k)
            digraph = engine.digraph
            recorded = _spy_on_record(engine)
            try_accept = engine.try_accept

            def check(e, head=None, try_accept=try_accept, recorded=recorded,
                      engine=engine):
                nonlocal checked, smaller, triangles
                before = len(recorded)
                u, v = g.endpoints(e)
                apex = engine._apex(u, v)
                r = try_accept(e, head)
                if r >= 0:
                    assert len(recorded) == before
                    return r
                assert len(recorded) == before + 1
                if apex >= 0:
                    # a triangle: rejected with no zeroing, recorded as is
                    assert r == -1 and recorded[-1] == (u, v, apex)
                    # apex's accepted edges to {u, v}: k, so the three nodes
                    # hold k = 3k - 2k (uv itself is not accepted)
                    ends = [digraph.arc_tail[a] + digraph.arc_head[a] - apex
                            for a in digraph.inc[apex]]
                    assert ends.count(u) + ends.count(v) == k
                    triangles += 1
                    return r
                # one record per failed probe: its closure plus u and v
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
    assert checked > 1000 and smaller > 100 and triangles > 100


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
    2 and 3: after every record, and every grow of block c by node w,
    which the naive fixpoint takes as a record of c's nodes plus w, its
    blocks and every coverage answer, loops included, equal those of the
    naive fixpoint."""
    nodes_in_two_blocks = grown = 0
    for k, l, threshold in ((2, 1, 1), (2, 3, 2), (2, 4, 3)):
        rng = random.Random(1009 * threshold)
        for _ in range(60):
            n = rng.randint(3, 14)
            store = ComponentSet(n, SparsityParams(k, l))
            naive = _NaiveBlocks(threshold)
            for _ in range(rng.randint(1, 20)):
                # blocks of fewer than ``threshold`` nodes never grow, as in
                # the engine, where no block at l = 2k has fewer than three
                ids = [c for c, block in store._block_nodes.items()
                       if len(block) >= threshold]
                if ids and rng.random() < 0.3:
                    c, w = rng.choice(ids), rng.randrange(n)
                    naive.record(store._block_nodes[c] | {w})
                    store.grow(c, w)
                    grown += 1
                else:
                    # overlapping closures: part of a stored block, plus
                    # fresh nodes; repeats allowed, as in a closure plus
                    # its endpoints
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
    assert nodes_in_two_blocks > 100 and grown > 300



def test_grow_adds_a_node_in_no_block():
    blocks = ComponentSet(5, SparsityParams(2, 3))
    blocks.record([0, 1, 2])
    blocks.grow(0, 3)
    assert blocks.components() == [[0, 1, 2, 3]]
    assert blocks.covers(3, 1) and not blocks.covers(3, 4)
    _check_node_ids(blocks, 5)


def test_grow_merges_at_the_union_threshold():
    # l <= k: w's own block shares w with the grown block, one node: merge
    disjoint = ComponentSet(5, SparsityParams(2, 1))
    disjoint.record([0, 1, 2])
    disjoint.record([3, 4])
    disjoint.grow(0, 3)
    assert disjoint.components() == [[0, 1, 2, 3, 4]]
    _check_node_ids(disjoint, 5)

    # k < l < 2k: w alone is one shared node; w and an old shared node
    # are two, and merge
    sharing = ComponentSet(6, SparsityParams(2, 3))
    sharing.record([0, 1, 2])
    sharing.record([3, 4])
    sharing.grow(0, 3)
    assert sharing.components() == [[0, 1, 2, 3], [3, 4]]
    assert sharing.covers(0, 3) and not sharing.covers(0, 4)
    _check_node_ids(sharing, 6)
    sharing.record([2, 5])
    sharing.grow(1, 2)  # {3,4} plus 2 meets {0,1,2,3} in {2,3}
    assert sharing.components() == [[0, 1, 2, 3, 4], [2, 5]]
    _check_node_ids(sharing, 6)

    # l = 2k: two shared nodes keep blocks apart, three merge
    pinned = ComponentSet(7, SparsityParams(2, 4))
    pinned.record([0, 1, 2])
    pinned.record([2, 4, 5])
    pinned.grow(0, 4)
    assert pinned.components() == [[0, 1, 2, 4], [2, 4, 5]]
    assert not pinned.covers(0, 5)
    _check_node_ids(pinned, 7)
    pinned.record([1, 2, 6])
    pinned.grow(2, 4)  # {1,2,6} plus 4 meets {0,1,2,4} in {1,2,4}
    assert pinned.components() == [[0, 1, 2, 4, 6], [2, 4, 5]]
    _check_node_ids(pinned, 7)


def test_grow_ignores_a_dead_block_and_a_node_inside():
    blocks = ComponentSet(8, SparsityParams(2, 1))
    blocks.record([0, 1, 2])  # block 0
    blocks.record([3, 4, 5, 6])  # block 1
    blocks.record([2, 3])  # merges block 0 into block 1, the larger
    assert blocks.components() == [[0, 1, 2, 3, 4, 5, 6]]
    before = (blocks._owner[:], blocks._block_nodes[1].copy())
    blocks.grow(0, 7)  # a dead id
    blocks.grow(1, 3)  # a node already inside
    blocks.grow(9, 7)  # never an id
    assert (blocks._owner, blocks._block_nodes[1]) == before
    _check_node_ids(blocks, 8)


def _spy_on_grow(engine, check) -> None:
    """Wrap ``engine.blocks.grow``: after each call that adds node w to
    block c, run ``check(w, members)`` with c's nodes from before it."""
    blocks = engine.blocks
    grow = blocks.grow

    def spy(c, w):
        members = blocks._block_nodes.get(c)
        members = None if members is None or w in members else set(members)
        grow(c, w)
        if members is not None:
            check(w, members)

    blocks.grow = spy


def _edges_into(graph, edges, w: int, members: set[int]) -> int:
    """The edges of ``edges`` between node ``w`` and a node of ``members``
    (a loop at w is never one, since w lies outside ``members``)."""
    return sum(
        1 for e in edges
        if (graph.edge_u[e] == w and graph.edge_v[e] in members)
        or (graph.edge_v[e] == w and graph.edge_u[e] in members)
    )


def test_grown_blocks_stay_tight():
    # each grow adds a node with at least k accepted edges into the block,
    # and right after it every stored block is tight (brute-force counts);
    # the accepted sizes stay the matroid rank
    rng = random.Random(2032)
    grows = 0
    for _ in range(60):
        n = rng.randint(2, 10)
        g = _random_multigraph(rng, n, rng.randint(n, 4 * n))
        for k, l in ALL_PAIRS:
            p = SparsityParams(k, l)
            rank = max_sparse_size_oracle(g, p)
            for name in ("Basic", "NInDegMin", "Transp", "TranspOne",
                         "IncProcMin", "UnionBasic"):
                engine = PebbleEngine(g, p)

                def check(w, members, engine=engine, k=k, l=l):
                    nonlocal grows
                    accepted = engine.report.accepted
                    assert _edges_into(g, accepted, w, members) >= k
                    for nodes in engine.blocks.components():
                        assert _induced(g, accepted, set(nodes)) == k * len(nodes) - l
                    grows += 1

                _spy_on_grow(engine, check)
                report = engine.run(make_strategy(name, g, p, seed=rng.randrange(4)))
                assert report.accepted_count == rank, (name, k, l)
    assert grows > 500


def test_grown_blocks_stay_tight_at_l_equals_2k():
    # the same on the l = 2k pass over random simple graphs, whose accepted
    # sets stay sparse and inclusion-maximal
    rng = random.Random(2033)
    grows = 0
    for _ in range(40):
        n = rng.randint(3, 10)
        g = gen_erdos_renyi(n, rng.uniform(0.3, 1.0), seed=rng.randrange(10**6))
        for k in (1, 2, 3):
            engine = TwoKEngine(g, k)

            def check(w, members, engine=engine, k=k):
                nonlocal grows
                accepted = engine.report.accepted
                assert _edges_into(g, accepted, w, members) >= k
                for nodes in engine.blocks.components():
                    assert _induced(g, accepted, set(nodes)) == k * len(nodes) - 2 * k
                grows += 1

            _spy_on_grow(engine, check)
            report = engine.run(_FixedOrder(list(range(g.m))))
            assert is_maximal_2k(g, report.accepted, k)
    assert grows > 100


def test_growth_counts_parallel_edges_and_no_loops():
    # (2,1): three parallel edges 01 fill {0,1}, and the fourth records it.
    # Node 2's two parallel edges to 0 grow the block at the second, so
    # edge 21 is covered.  Node 3 has a loop and one edge to 0: the loop
    # does not count and one edge is k - 1, so 3 does not join, and edge
    # 31 pays the search (it fails: the loop makes {0,1,2,3} tight).
    # Node 4 keeps the tight size out of reach.
    edges = [(0, 1)] * 4 + [(0, 2), (0, 2), (1, 2), (3, 3), (0, 3), (1, 3)]
    g = Multigraph(5, edges)
    engine = PebbleEngine(g, SparsityParams(2, 1))
    grown = []
    _spy_on_grow(engine, lambda w, members: grown.append((w, sorted(members))))
    report = engine.run(_FixedOrder(list(range(g.m))))
    A, B, C = Reason.ACCEPTED, Reason.INDEGREE_BLOCKED, Reason.COVERED_BY_COMPONENT
    assert [v.reason for v in report.verdicts] == [A, A, A, B, A, A, C, A, A, B]
    assert grown == [(2, [0, 1])]
    assert engine.blocks.components() == [[0, 1, 2, 3]]
