"""Tests for the bounded-indegree orientation and its searches."""

from __future__ import annotations

import random
from collections import deque

import pytest

from klsparse import (
    IndegreeOverflowError,
    InnerDigraph,
    Multigraph,
    ReversalBoundError,
    SparsityParams,
    StalePathError,
    decide,
    extract,
    extract_maximal_2k,
    extract_with_components,
    gen_erdos_renyi,
    make_strategy,
)


def build_path_digraph() -> InnerDigraph:
    """Arcs 0->1->2 with k = 1, so node 0 is the only deficient node."""
    d = InnerDigraph(3, 1)
    d.insert_arc(0, 0, 1)
    d.insert_arc(1, 1, 2)
    return d


def test_insert_arc_updates_state():
    d = InnerDigraph(3, 2)
    a = d.insert_arc(7, 0, 1)
    assert a == 0
    assert d.arc_tail[a] == 0
    assert d.arc_head[a] == 1
    assert d.arc_edge[a] == 7
    assert d.indeg == [0, 1, 0]
    assert d.arc_count == 1
    assert a in d.inc[0] and a in d.inc[1]
    assert d.in_arcs[1] == [a]


def test_loop_arc_listed_once():
    d = InnerDigraph(2, 2)
    a = d.insert_arc(0, 1, 1)
    assert d.inc[1] == [a]
    assert d.in_arcs[1] == [a]
    assert d.indeg[1] == 1


def test_indegree_overflow_rejected():
    d = InnerDigraph(2, 1)
    d.insert_arc(0, 0, 1)
    with pytest.raises(IndegreeOverflowError):
        d.insert_arc(1, 0, 1)


def test_find_reversal_path_nearest_source():
    d = build_path_digraph()
    path = d.find_reversal_path((2,))
    assert path is not None
    assert path.source == 0
    assert path.target == 2
    assert len(path) == 2


def test_reverse_moves_indegree():
    d = build_path_digraph()
    path = d.find_reversal_path((2,))
    d.reverse(path)
    assert d.indeg == [1, 1, 0]
    assert d.arc_tail == [1, 2]
    assert d.arc_head == [0, 1]
    # the in-arc lists follow the flips
    assert d.in_arcs[0] == [0]
    assert d.in_arcs[1] == [1]
    assert d.in_arcs[2] == []


def test_reverse_stale_path_rejected():
    d = build_path_digraph()
    path = d.find_reversal_path((2,))
    d.reverse(path)
    with pytest.raises(StalePathError):
        d.reverse(path)


@pytest.mark.parametrize(
    "later",
    [
        lambda d: d.find_reversal_path((2,)),
        # a failed search
        lambda d: d.find_reversal_path((2,), forbidden_sources=(0,)),
        lambda d: d.saturated_closure((2,), (), set()),
        lambda d: d.multi_source_forward_reach(),
        lambda d: d.reverse(d.find_reversal_path((1,))),
    ],
    ids=["search", "failed search", "closure", "forward reach", "reversal"],
)
def test_path_goes_stale_after_any_later_search_or_reversal(later):
    d = build_path_digraph()
    path = d.find_reversal_path((2,))
    later(d)
    tails, heads, indeg = list(d.arc_tail), list(d.arc_head), list(d.indeg)
    with pytest.raises(StalePathError):
        d.reverse(path)
    # a refused path changes nothing
    assert (d.arc_tail, d.arc_head, d.indeg) == (tails, heads, indeg)


def test_path_survives_arc_insertion():
    d = InnerDigraph(4, 1)
    d.insert_arc(0, 0, 1)
    path = d.find_reversal_path((1,))
    d.insert_arc(1, 2, 3)
    d.reverse(path)
    assert d.indeg == [1, 0, 0, 1]


def test_path_goes_stale_when_an_insertion_fills_its_source():
    # the path 0 -> 1 is found while node 0 is deficient; the arc 2 -> 0
    # then fills it, and reversing would push it to indegree k + 1
    d = InnerDigraph(3, 1)
    d.insert_arc(0, 0, 1)
    path = d.find_reversal_path((1,))
    assert path.source == 0
    d.insert_arc(1, 2, 0)
    tails, heads, indeg = list(d.arc_tail), list(d.arc_head), list(d.indeg)
    with pytest.raises(StalePathError, match="indegree k"):
        d.reverse(path)
    assert (d.arc_tail, d.arc_head, d.indeg) == (tails, heads, indeg)
    assert indeg == [1, 1, 0]


def _reference_search(d, targets, forbidden=(), reached=frozenset()):
    """Backward BFS by the book, with a set and a deque: the first node
    (in BFS order) that is deficient outside ``forbidden`` or lies in
    ``reached``, or -1; the nodes in the order they were marked; and the
    node path from that source to a target."""
    order = list(targets)
    marked = set(targets)
    via = {}
    queue = deque(targets)
    while queue:
        x = queue.popleft()
        for a in d.in_arcs[x]:
            y = d.arc_tail[a]
            if y in marked:
                continue
            marked.add(y)
            via[y] = d.arc_head[a]
            order.append(y)
            queue.append(y)
            if d.indeg[y] < d.k and y not in forbidden or y in reached:
                path = [y]
                while path[-1] not in targets:
                    path.append(via[path[-1]])
                return y, order, path
    return -1, order, []


def test_reverse_flips_path_arcs_only():
    """On seeded random digraphs, both backward searches agree with a
    reference BFS on source, path, closure order, visit count and the
    growth of ``reached``, across forbidden sources, reached sets, loops
    and parallel arcs; each reversal flips exactly ``len(path)`` arcs,
    moves one indegree unit from the target to the source, and keeps
    ``in_arcs`` equal to the arcs by head."""
    rng = random.Random(12)
    found = failed = 0
    for _ in range(100):
        n, k = rng.randint(2, 12), rng.randint(1, 3)
        d = InnerDigraph(n, k)
        for e in range(rng.randint(1, 3 * n)):
            t, h = rng.randrange(n), rng.randrange(n)
            if rng.random() < 0.1:
                t = h  # more loops; repeated draws give parallel arcs
            if d.indeg[h] < k:
                d.insert_arc(e, t, h)
        for _ in range(10):
            targets = tuple(rng.sample(range(n), rng.randint(1, min(2, n))))
            forbidden = tuple(rng.sample(range(n), rng.randint(0, min(3, n))))
            reached = set(rng.sample(range(n), rng.randint(0, min(3, n))))

            source, order, nodes = _reference_search(d, targets, forbidden, reached)
            grown = set(reached)
            before = d.counters.bfs_node_visits
            closure = d.saturated_closure(targets, forbidden, grown)
            assert d.counters.bfs_node_visits - before == len(order)
            assert closure == (order if source < 0 else None)
            assert grown == reached.union(nodes)

            source, order, nodes = _reference_search(d, targets, forbidden)
            assert d.saturated_closure(targets, forbidden, set()) == (
                order if source < 0 else None
            )
            before = d.counters.bfs_node_visits
            path = d.find_reversal_path(targets, forbidden)
            assert d.counters.bfs_node_visits - before == len(order)
            if source < 0:
                failed += 1
                assert path is None
                assert d.last_closure == order
                continue
            found += 1
            assert (path.source, path.target, len(path)) == (
                source, nodes[-1], len(nodes) - 1
            )

            arcs = list(zip(d.arc_tail, d.arc_head))
            indeg = list(d.indeg)
            d.reverse(path)
            flipped = [
                a for a, (t, h) in enumerate(arcs)
                if (d.arc_tail[a], d.arc_head[a]) != (t, h)
            ]
            assert len(flipped) == len(path) >= 1
            assert all(
                (d.arc_tail[a], d.arc_head[a]) == arcs[a][::-1] for a in flipped
            )
            assert path.source not in targets and path.target in targets
            indeg[path.target] -= 1
            indeg[path.source] += 1
            assert d.indeg == indeg
            assert max(d.indeg) <= k
            for x in range(n):
                assert sorted(d.in_arcs[x]) == [
                    a for a in range(d.arc_count) if d.arc_head[a] == x
                ]
    assert found > 100 and failed > 100


def test_forbidden_sources_skipped():
    d = build_path_digraph()
    assert d.find_reversal_path((2,), forbidden_sources=(0,)) is None


def test_target_not_its_own_source():
    d = InnerDigraph(2, 1)
    d.insert_arc(0, 0, 1)
    # node 1 is saturated and node 0 is deficient
    path = d.find_reversal_path((1,))
    assert path.source == 0
    # searching from the deficient node itself finds nothing upstream
    assert d.find_reversal_path((0,)) is None


def test_drain_returns_reversals_on_success():
    d = build_path_digraph()
    # indeg(1) + indeg(2) = 2: one reversal of the arc 0 -> 1 drops it to 1
    assert d.drain(1, 2, 2) == 1
    assert d.indeg == [1, 0, 1]
    # already below the ceiling: no search at all
    visits = d.counters.bfs_node_visits
    assert d.drain(1, 2, 2) == 0
    assert d.counters.bfs_node_visits == visits


def test_drain_failure_returns_minus_one_minus_reversals():
    d = build_path_digraph()
    # the first search reverses 0 -> 1; the second finds no deficient node
    assert d.drain(1, 2, 1) == -2
    assert d.indeg == [1, 0, 1]
    assert d.counters.path_reversals == 1
    assert sorted(d.last_closure) == [1, 2]


def test_drain_counts_a_loop_node_twice():
    d = build_path_digraph()
    # 2 * indeg(2) = 2 reaches the ceiling 2, though indeg(2) alone does not
    assert d.drain(2, 2, 2) == 1
    assert d.indeg == [1, 1, 0]
    # the search targets (2,) once: it stamped 2, 1 and 0
    assert d.counters.bfs_node_visits == 3


def test_drain_never_uses_a_forbidden_source():
    d = InnerDigraph(3, 2)
    d.insert_arc(0, 0, 2)
    d.insert_arc(1, 1, 2)
    # 0 and 1 are both deficient; with 0 forbidden only 1 gives a path
    assert d.drain(2, 2, 1, (0,)) == -2
    assert d.indeg == [0, 1, 1]
    assert (d.arc_tail[0], d.arc_head[0]) == (0, 2)
    assert sorted(d.last_closure) == [0, 2]


# (k, arcs, drain arguments, the drain's bound): a pair whose indegree sum
# 4 must fall below the (2,3) ceiling 1, and one node zeroed with node 1
# forbidden as a source, so its second path runs from node 3 through node 1
_BOUND_CASES = [
    (2, [(2, 0), (3, 0), (4, 1), (5, 1)], (0, 1, 1, ()), 4),
    (2, [(1, 0), (2, 0), (3, 1)], (0, 0, 1, (1,)), 2),
]


def _digraph(k, arcs):
    d = InnerDigraph(1 + max(max(arc) for arc in arcs), k)
    for e, (tail, head) in enumerate(arcs):
        d.insert_arc(e, tail, head)
    return d


@pytest.mark.parametrize("k, arcs, args, bound", _BOUND_CASES, ids=["pair", "single"])
def test_drain_may_take_exactly_its_bound(k, arcs, args, bound):
    d = _digraph(k, arcs)
    assert d.drain(*args) == bound
    u, v, ceiling, _ = args
    assert d.indeg[u] + d.indeg[v] < ceiling


@pytest.mark.parametrize("k, arcs, args, bound", _BOUND_CASES, ids=["pair", "single"])
def test_drain_stops_at_its_bound_when_reversals_move_nothing(
    k, arcs, args, bound, monkeypatch
):
    calls = 0

    def move_nothing(self, path):
        nonlocal calls
        calls += 1

    d = _digraph(k, arcs)
    monkeypatch.setattr(InnerDigraph, "reverse", move_nothing)
    with pytest.raises(ReversalBoundError):
        d.drain(*args)
    assert calls == bound


def test_saturated_closure():
    d = build_path_digraph()
    # node 2's backward closure contains the deficient node 0
    assert d.saturated_closure((2,), (), set()) is None
    d.reverse(d.find_reversal_path((2,)))
    d2 = InnerDigraph(3, 1)
    d2.insert_arc(0, 0, 1)
    d2.insert_arc(1, 1, 0)
    # the 2-cycle is saturated on both nodes
    closure = d2.saturated_closure((0,), (), set())
    assert closure is not None
    assert sorted(closure) == [0, 1]


def test_saturated_closure_with_forbidden_sources_and_reached_nodes():
    d = build_path_digraph()
    # with the only deficient node forbidden, node 2's closure is saturated
    # off it and holds it
    assert sorted(d.saturated_closure((2,), (0,), set())) == [0, 1, 2]
    reached: set[int] = set()
    assert d.saturated_closure((2,), (), reached) is None
    # the found path 0 -> 1 -> 2 is reached, source and target included
    assert reached == {0, 1, 2}
    # a search stops at a reached node even with every source forbidden
    before = d.counters.bfs_node_visits
    assert d.saturated_closure((2,), (0,), {1}) is None
    assert d.counters.bfs_node_visits - before == 2


def test_multi_source_forward_reach():
    d = build_path_digraph()
    reach = d.multi_source_forward_reach()
    assert sorted(reach) == [0, 1, 2]
    reach = d.multi_source_forward_reach(excluded=(1,))
    assert sorted(reach) == [0]


def test_forward_reach_skips_excluded_sources():
    d = InnerDigraph(4, 1)
    d.insert_arc(0, 0, 1)
    d.insert_arc(1, 2, 3)
    # sources 0 and 2; excluding 2 leaves node 3 neither reached nor excluded
    reach = d.multi_source_forward_reach(excluded=(2,))
    assert reach == [0, 1]
    assert d.counters.bfs_node_visits == 2


def test_counters_accumulate():
    d = InnerDigraph(3, 1)
    c = d.counters
    d.insert_arc(0, 0, 1)
    d.insert_arc(1, 1, 2)
    d.find_reversal_path((2,))
    assert c.bfs_node_visits > 0
    before = c.path_reversals
    d.reverse(d.find_reversal_path((2,)))
    # the deficiency moved to node 2, so the next path targets node 0
    d.reverse(d.find_reversal_path((0,)))
    assert c.path_reversals == before + 2


def test_in_arcs_consistent_after_many_reversals():
    d = InnerDigraph(4, 2)
    arcs = [(0, 1), (1, 2), (2, 3), (1, 3), (0, 2)]
    for e, (t, h) in enumerate(arcs):
        d.insert_arc(e, t, h)
    for target in (3, 2, 3, 1):
        path = d.find_reversal_path((target,))
        if path is not None:
            d.reverse(path)
        for x in range(4):
            assert sorted(d.in_arcs[x]) == sorted(
                a for a in range(d.arc_count) if d.arc_head[a] == x
            )
            assert d.indeg[x] == len(d.in_arcs[x])


def test_undirected_edges():
    d = build_path_digraph()
    assert sorted(d.undirected_edges()) == [(0, 1, 0), (1, 2, 1)]
    d.reverse(d.find_reversal_path((2,)))
    # reversal changes arc directions, not the underlying edge set
    assert sorted(d.undirected_edges()) == [(0, 1, 0), (1, 2, 1)]


@pytest.mark.parametrize(
    "run, traversal",
    [
        ("Basic", "find_reversal_path"),
        ("Transp", "find_reversal_path"),
        ("UnionBasic", "find_reversal_path"),
        ("decide", "find_reversal_path"),
        ("components", "multi_source_forward_reach"),
        ("maximal-2k", "saturated_closure"),
    ],
)
def test_searches_and_reversals_go_through_the_traced_methods(
    run, traversal, monkeypatch
):
    """Every node visit is made inside one of the digraph's traversal
    methods and every reversal inside ``reverse``, for ``extract`` under
    three orders, ``decide``, ``extract_with_components`` and
    ``extract_maximal_2k``: the layer boundaries a tracer wraps see all of
    the work."""
    p = SparsityParams(2, 3)
    g = gen_erdos_renyi(120, 0.08, seed=5)
    if run == "components":
        # its accepted subgraph, the sparse input components_of takes
        g = Multigraph(g.n, [g.endpoints(e) for e in sorted(extract(g, p).accepted)])
    visits = 0
    calls = dict.fromkeys(
        ("find_reversal_path", "saturated_closure", "multi_source_forward_reach",
         "reverse"),
        0,
    )

    def spy(name):
        method = getattr(InnerDigraph, name)

        def counted(self, *args, **kwargs):
            nonlocal visits
            before = self.counters.bfs_node_visits
            try:
                return method(self, *args, **kwargs)
            finally:
                visits += self.counters.bfs_node_visits - before
                calls[name] += 1

        monkeypatch.setattr(InnerDigraph, name, counted)

    for name in calls:
        spy(name)
    if run == "decide":
        rep = decide(g, p)
    elif run == "components":
        rep, _ = extract_with_components(g, p)
    elif run == "maximal-2k":
        rep = extract_maximal_2k(g, 2)
    else:
        rep = extract(g, p, make_strategy(run, g, p, seed=2))
    c = rep.counters
    assert c.bfs_node_visits > 0
    assert visits == c.bfs_node_visits
    assert calls["reverse"] == c.path_reversals > 0
    assert calls["find_reversal_path"] > 0 and calls[traversal] > 0
