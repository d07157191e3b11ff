"""Edge-ordering strategies for the extraction engine.

Four families:

* edge orders   -- Basic, DegMin, IncProcMin, IncInDegMin; DegMin is
                   NDegMin (see :class:`NDegMinStrategy`)
* node orders   -- NBasic, NDegMin, NProcMin, NInDegMin and their *Comp
                   variants (same order, flipped arc rule; NDegMinComp is
                   NDegMin, NBasicComp the default order of the component
                   pass)
* transposed    -- Transp, TranspOne (one cyclic node sweep; TranspOne
                   stays at a node while its edges keep being accepted)
* two-phase     -- PForestsBFS/DFS, ForestsBFS/DFS, UnionBasic, UnionNBasic,
                   UnionTranspOne: seed the digraph with edge-disjoint
                   structures grown by BFS, DFS or a union-find scan, then
                   stream the leftovers through a paired second-phase
                   order.  Only PForests* seed pseudoforests (where k > l);
                   the others seed forests, and the Union* scans walk the
                   second phase's own order

A strategy is a configuration of the :class:`~klsparse.pebble.Strategy`
protocol, which lives next to the engine loop that drives it (and is
re-exported here): which edge comes next and where its arc points.  Each
order is its own ``edges(flags)`` iterator over the edges whose flag is
clear, built afresh on each call.  Basic is the engine's one
edge-sequence order, ``pebble._FixedOrder``, a C-level filter over a
seeded permutation, plus a coin for the arc.  The node orders drain one
node's incidence list at a time through the same filter, and the sweeps
keep one read position per node on a ring of live nodes.  The four keyed
orders are a count source mixed into a queue order: the count is each
node's processed edges (``ProcMin``) or its live indegree (``InDegMin``),
and the order pops from a :class:`BucketQueue` the edge with the least
endpoint-count sum (``Inc``) or the node with the least count (``N``).  A
two-phase strategy is its second-phase class with phase one as a
``start`` step, and a union-find phase one reads that same order afresh,
on flags of its own, for each forest it scans.
One table, ``_CATALOG``, maps each of the 21 names to its factory and its
whole configuration, a node order's arc rule (toward the current node or
away from it) and a two-phase name's structure builder included.  Ordering
never changes the accepted cardinality (matroid regime); it only moves the
traversal work around.  Every strategy is deterministic for a fixed seed,
with seed 0 meaning exact storage order where a shuffle would otherwise
apply.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterator
from functools import partial
from itertools import compress, filterfalse

from . import pebble
from .multigraph import Multigraph
from .pebble import SparsityParams, Strategy

class BucketQueue:
    """Integer-keyed FIFO buckets with lazy re-keying.

    ``BucketQueue(count)`` starts with items ``0..count-1`` at key 0, in
    id order.  ``pop(key_of)`` takes the front entry of the lowest
    non-empty bucket; when its stored key went stale it moves the entry to
    the back of the bucket of its current key and looks again.  With keys
    that only grow the returned entry is an exact minimum; with keys that
    can also shrink (indegrees) a stale-low entry surfaces only once the
    scan reaches its old bucket, so the pop is a deterministic
    approximation of the instantaneous minimum.
    """

    __slots__ = ("_buckets", "_min", "_size")

    def __init__(self, count: int) -> None:
        self._buckets: list[deque] = [deque(range(count))]
        self._min = 0
        self._size = count

    def pop(self, key_of) -> int | None:
        if not self._size:
            return None
        buckets = self._buckets
        lo = self._min
        # every entry lies at lo or above: the scan meets a non-empty bucket
        while True:
            while not buckets[lo]:
                lo += 1
            item = buckets[lo].popleft()
            key = key_of(item)
            if key == lo:
                break
            while len(buckets) <= key:
                buckets.append(deque())
            buckets[key].append(item)
            if key < lo:
                lo = key
        self._min = lo
        self._size -= 1
        return item


def _shuffled(items: list[int], seed: int, salt: str) -> list[int]:
    if seed != 0:
        random.Random(f"{seed}:{salt}").shuffle(items)
    return items


class BasicStrategy(pebble._FixedOrder):
    """The sequence order over a random edge permutation (seed 0 =
    storage order), with a random arc orientation; the no-frills
    baseline."""

    def __init__(self, graph, params, seed=0):
        order = _shuffled(list(range(graph.m)), seed, "edge-order")
        super().__init__(order, graph, params, seed)
        self._coin = random.Random(f"{seed}:orient")

    def orient(self, u, v):
        # one draw per processed edge, so the stream is independent of
        # accept/reject outcomes
        return u if self._coin.random() < 0.5 else v


class _ProcCountStrategy(Strategy):
    """Count source: ``_count[v]`` is the number of processed edges at
    node ``v`` (a loop counts once), made afresh by each ``edges`` call."""

    def edges(self, flags):
        # bound before the queue order builds its key on it
        self._count = [0] * self.graph.n
        return super().edges(flags)

    def on_processed(self, edge, accepted):
        g = self.graph
        u, v = g.edge_u[edge], g.edge_v[edge]
        self._count[u] += 1
        if v != u:
            self._count[v] += 1


class _InDegreeStrategy(Strategy):
    """Count source: ``_count`` is the engine's live indegree list, which
    reversals can also lower."""

    def start(self, engine):
        self._count = engine.digraph.indeg
        super().start(engine)


class _EdgeKeyStrategy(Strategy):
    """Queue order over edges: next edge by minimum ``_count[u] +
    _count[v]``, popped from a queue of all edges; a flagged edge is popped
    and passed over."""

    def edges(self, flags):
        count, edge_u, edge_v = self._count, self.graph.edge_u, self.graph.edge_v

        def key(e):
            return count[edge_u[e]] + count[edge_v[e]]

        pops = iter(partial(BucketQueue(self.graph.m).pop, key), None)
        return filterfalse(flags.__getitem__, pops)


class IncProcMinStrategy(_ProcCountStrategy, _EdgeKeyStrategy):
    """Next edge minimizing the endpoints' processed-incident-edge total,
    arc oriented toward the endpoint with fewer processed edges."""

    def orient(self, u, v):
        count = self._count
        return u if (count[u], u) <= (count[v], v) else v


class IncInDegMinStrategy(_InDegreeStrategy, _EdgeKeyStrategy):
    """Next edge minimizing the endpoints' current indegree total; the
    engine's default rule already orients toward the smaller indegree."""


class _NodeOrderStrategy(Strategy):
    """Shared machinery: take a node from ``_nodes()``, drain all its
    unflagged incident edges (in incidence order), move on.  Each node is
    current once.  Subclasses pick the nodes; ``toward_current`` is the
    arc rule: point each accepted arc at the current node, or away from
    it."""

    def __init__(self, graph, params, seed=0, *, toward_current):
        super().__init__(graph, params, seed)
        self._toward_current = toward_current

    def _nodes(self) -> Iterator[int]:
        raise NotImplementedError

    def edges(self, flags):
        incidence, skip = self.graph.incidence, flags.__getitem__
        for v in self._nodes():
            self._cur = v
            yield from filterfalse(skip, incidence[v])

    def orient(self, u, v):
        c = self._cur
        if self._toward_current:
            return c
        return u + v - c  # the other endpoint; a loop stays at c


class NBasicStrategy(_NodeOrderStrategy):
    """One pass over a random node permutation (seed 0 = id order)."""

    def __init__(self, graph, params, seed=0, *, toward_current):
        super().__init__(graph, params, seed, toward_current=toward_current)
        self._perm = self._node_order()

    def _node_order(self) -> list[int]:
        return _shuffled(list(range(self.graph.n)), self.seed, "node-order")

    def _nodes(self):
        return self._perm


class NDegMinStrategy(NBasicStrategy):
    """Nodes by minimum input-graph degree, ties by id: the key never
    changes, so this is NBasic over a fixed sorted permutation.  With arcs
    toward the current node it is also DegMin and NDegMinComp: while node
    x is current every edge of an earlier node has been processed, so x is
    the smaller-(degree, id) endpoint of every edge it yields, the head
    DegMin's rule picks."""

    def _node_order(self) -> list[int]:
        return sorted(range(self.graph.n), key=self.graph.degree.__getitem__)


class _NodeKeyStrategy(_NodeOrderStrategy):
    """Queue order over nodes: next node by minimum ``_count``, popped
    from a queue of all nodes."""

    def _nodes(self):
        pop = partial(BucketQueue(self.graph.n).pop, self._count.__getitem__)
        return iter(pop, None)


class NProcMinStrategy(_ProcCountStrategy, _NodeKeyStrategy):
    """Nodes by minimum processed-incident-edge count (monotone key, exact
    minimum)."""


class NInDegMinStrategy(_InDegreeStrategy, _NodeKeyStrategy):
    """Nodes by minimum current indegree (lazy approximation, the key also
    shrinks under reversals)."""


class TranspStrategy(Strategy):
    """Cyclic node sweep taking one unflagged edge per visited node; arcs
    point toward the current node.

    The sweep walks a ring of live nodes, a ``deque`` in id order of the
    nodes with incident edges, whose front is the current node: it rotates
    after each edge and pops a node when it first finds it drained.  The
    flags only grow within one read, so a popped node would yield nothing
    again, and the ring visits the remaining nodes in the order the full
    cyclic scan would.  Each node keeps one int, how far its incidence list
    has been read, so each list is walked once per read of the order and
    each node costs at most one failed probe, not one per edge.
    TranspOne's ``on_processed`` sets ``_stay`` to skip one rotation."""

    def edges(self, flags):
        self._stay = False
        n, incidence = self.graph.n, self.graph.incidence
        ptr = [0] * n
        self._ring = ring = deque(compress(range(n), incidence))
        while ring:
            v = ring[0]
            inc = incidence[v]
            i, end = ptr[v], len(inc)
            while i < end and flags[inc[i]]:
                i += 1
            if i == end:
                ring.popleft()
                continue
            ptr[v] = i + 1
            yield inc[i]
            if self._stay:
                self._stay = False
            else:
                ring.rotate(-1)

    def orient(self, u, v):
        return self._ring[0]


class TranspOneStrategy(TranspStrategy):
    """Transp's sweep, but it stays at the current node while its edges
    keep being accepted; a rejection (or running out of edges) moves the
    sweep on."""

    def on_processed(self, edge, accepted):
        if accepted:
            self._stay = True


def _orient_component_tree(
    graph: Multigraph,
    arcs: list[tuple[int, int, int]],
    arc_at: dict[int, int],
    e: int,
) -> None:
    """Apply the pseudoforest fix-up for the extra edge ``e``: flip the
    tree path from its attach node (its first endpoint) up to the root,
    each node's parent being the tail of the arc ``arc_at`` names for it
    (a root has none), then point the extra arc at the freed attach
    node."""
    attach = graph.edge_u[e]
    node = attach
    while (idx := arc_at.get(node)) is not None:
        a_e, tail, head = arcs[idx]
        arcs[idx] = (a_e, head, tail)
        node = tail
    arcs.append((e, graph.edge_v[e], attach))


def _structure_traversal(
    strategy: Strategy,
    used: bytearray,
    take_extra: bool = False,
    *,
    dfs: bool,
) -> list[tuple[int, int, int]]:
    """Grow one spanning forest (plus one cycle edge per component when
    ``take_extra``) over the unused edges of ``strategy``'s graph by BFS
    or DFS; arcs are oriented parent -> child from each root, so per-node
    indegree stays <= 1."""
    g = strategy.graph
    visited = bytearray(g.n)
    arcs: list[tuple[int, int, int]] = []
    frontier: deque[int] = deque()
    take = frontier.pop if dfs else frontier.popleft
    for root in range(g.n):
        if visited[root]:
            continue
        visited[root] = 1
        arc_at: dict[int, int] = {}
        extra: int | None = None
        frontier.append(root)
        while frontier:
            x = take()
            for e in g.incidence[x]:
                if used[e]:
                    continue
                y = g.edge_u[e] + g.edge_v[e] - x
                if not visited[y]:
                    visited[y] = 1
                    used[e] = 1
                    arc_at[y] = len(arcs)
                    arcs.append((e, x, y))
                    frontier.append(y)
                elif take_extra and extra is None:
                    # y visited means same component here, a cross-component
                    # edge would already have been taken as a tree edge
                    used[e] = 1
                    extra = e
        if extra is not None:
            _orient_component_tree(g, arcs, arc_at, extra)
    return arcs


def _orient_forest(
    graph: Multigraph, tree_edges: list[int]
) -> list[tuple[int, int, int]]:
    """Root every tree at its smallest node and orient parent -> child."""
    g = graph
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in tree_edges:
        u, v = g.edge_u[e], g.edge_v[e]
        adj.setdefault(u, []).append((e, v))
        adj.setdefault(v, []).append((e, u))
    visited: set[int] = set()
    arcs: list[tuple[int, int, int]] = []
    for root in sorted(adj):
        if root in visited:
            continue
        visited.add(root)
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for e, y in adj[x]:
                if y in visited:
                    continue
                visited.add(y)
                arcs.append((e, x, y))
                queue.append(y)
    return arcs


def _structure_union_scan(
    strategy: Strategy, used: bytearray
) -> list[tuple[int, int, int]]:
    """Grow one forest with a union-find pass over ``strategy``'s own
    order, read afresh through ``edges`` over the unused edges, as the
    engine reads it.  Each edge it takes is marked in ``used``, and
    an order with an ``on_processed`` hook hears every verdict before it
    yields the next edge.  The scan grows forests only, so a configuration
    that asks it for a pseudoforest fails on the ``take_extra`` keyword."""
    g = strategy.graph
    parent = list(range(g.n))
    tree: list[int] = []
    seen = bytearray(used)
    on_processed = pebble._hook(strategy, "on_processed")
    for e in strategy.edges(seen):
        seen[e] = 1
        # the roots of both endpoints, halving the paths walked
        u, v = g.edge_u[e], g.edge_v[e]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        took = u != v
        if took:
            parent[u] = v
            tree.append(e)
            used[e] = 1
        if on_processed is not None:
            on_processed(e, took)
        if took and len(tree) == g.n - 1:
            break  # one spanning tree: no further edge joins two trees
    return _orient_forest(g, tree)


class _TwoPhase(Strategy):
    """Phase one as a start step, mixed in before the second-phase class.

    ``start`` seeds the digraph with edge-disjoint structures grown over
    the edges no earlier structure took: with ``pseudoforests`` (the
    PForests names) (k-l)+ pseudoforests first, then min(l, 2k-l) forests;
    without, min(l, 2k-l) + (k-l)+ plain forests.  Their union is
    (k,l)-sparse by the map-decomposition counts of Haas, Lee, Streinu &
    Theran, and each structure gives a node indegree at most 1, so every
    arc goes to :meth:`~klsparse.pebble.PebbleEngine.preaccept` as grown.
    ``grow(strategy, used)`` builds one forest and, with
    ``take_extra=True``, one pseudoforest; the union scan walks this
    strategy's own order.  Then the second phase starts, whose order and
    orientation the engine drives.  Keywords other than ``grow`` and
    ``pseudoforests`` go to the second phase."""

    def __init__(self, graph, params, seed=0, *, grow, pseudoforests=False, **second):
        super().__init__(graph, params, seed, **second)
        self._grow = grow
        self._pseudoforests = pseudoforests

    def start(self, engine):
        p = engine.params
        if not p.is_augmenting_regime:
            raise pebble.WrongRegimeError(
                f"{pebble._name(self)} is a two-phase order, which needs "
                f"l < 2k; (k={p.k}, l={p.l}) has l = 2k"
            )
        k, l = p.k, p.l
        n_pseudo = max(k - l, 0) if self._pseudoforests else 0
        n_forest = min(l, 2 * k - l) + max(k - l, 0) - n_pseudo
        used = bytearray(self.graph.m)
        for i in range(n_pseudo + n_forest):
            if i < n_pseudo:
                arcs = self._grow(self, used, take_extra=True)
            else:
                arcs = self._grow(self, used)
            for e, t, h in arcs:
                engine.preaccept(e, t, h)
        super().start(engine)


class _TwoPhaseBasic(_TwoPhase, BasicStrategy):
    pass


class _TwoPhaseNBasic(_TwoPhase, NBasicStrategy):
    pass


class _TwoPhaseTranspOne(_TwoPhase, TranspOneStrategy):
    pass


_NDEGMIN = partial(NDegMinStrategy, toward_current=True)
_BFS = partial(_structure_traversal, dfs=False)
_DFS = partial(_structure_traversal, dfs=True)

# name -> factory with its whole configuration; a Comp variant flips its
# node order's arc rule, except NDegMinComp, which is NDegMin.
# STRATEGY_NAMES keeps this order, which pinned digests iterate
_CATALOG = {
    "Basic": BasicStrategy,
    "DegMin": _NDEGMIN,
    "IncProcMin": IncProcMinStrategy,
    "IncInDegMin": IncInDegMinStrategy,
    "NBasic": partial(NBasicStrategy, toward_current=True),
    "NDegMin": _NDEGMIN,
    "NProcMin": partial(NProcMinStrategy, toward_current=True),
    "NInDegMin": partial(NInDegMinStrategy, toward_current=False),
    "NBasicComp": partial(NBasicStrategy, toward_current=False),
    "NDegMinComp": _NDEGMIN,
    "NProcMinComp": partial(NProcMinStrategy, toward_current=False),
    "NInDegMinComp": partial(NInDegMinStrategy, toward_current=True),
    "PForestsBFS": partial(_TwoPhaseBasic, grow=_BFS, pseudoforests=True),
    "PForestsDFS": partial(_TwoPhaseBasic, grow=_DFS, pseudoforests=True),
    "ForestsBFS": partial(_TwoPhaseBasic, grow=_BFS),
    "ForestsDFS": partial(_TwoPhaseBasic, grow=_DFS),
    "UnionBasic": partial(_TwoPhaseBasic, grow=_structure_union_scan),
    "UnionNBasic": partial(
        _TwoPhaseNBasic, grow=_structure_union_scan, toward_current=True
    ),
    "UnionTranspOne": partial(_TwoPhaseTranspOne, grow=_structure_union_scan),
    "Transp": TranspStrategy,
    "TranspOne": TranspOneStrategy,
}
STRATEGY_NAMES = tuple(_CATALOG)
_BY_LOWER = {name.lower(): name for name in _CATALOG}


def make_strategy(
    name: str,
    graph: Multigraph,
    params: SparsityParams,
    seed: int = 0,
) -> Strategy:
    """Instantiate a strategy by catalog name (case-insensitive); the
    catalog spelling becomes its ``name``."""
    key = _BY_LOWER.get(name.lower())
    if key is None:
        valid = ", ".join(STRATEGY_NAMES)
        raise ValueError(f"unknown heuristic {name!r}; valid names: {valid}")
    strategy = _CATALOG[key](graph, params, seed)
    strategy.name = key
    return strategy
