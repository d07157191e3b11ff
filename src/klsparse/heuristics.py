"""Edge-ordering strategies for the extraction engine.

Four families:

* edge orders   -- Basic, DegMin, IncProcMin, IncInDegMin; DegMin walks
                   NDegMin's order and only orients arcs by degree
* node orders   -- NBasic, NDegMin, NProcMin, NInDegMin and their *Comp
                   variants (same order, flipped arc orientation; NBasicComp
                   is the default order of the component pass)
* transposed    -- Transp, TranspOne (one cyclic node sweep; TranspOne
                   stays at a node while its edges keep being accepted)
* two-phase     -- PForestsBFS/DFS, ForestsBFS/DFS, UnionBasic, UnionNBasic,
                   UnionTranspOne: seed the digraph with edge-disjoint
                   forests (and pseudoforests where k > l), then stream the
                   leftovers through a paired second-phase order, which
                   the Union* forest scans also walk

A strategy is a configuration of the :class:`~klsparse.pebble.Strategy`
protocol, which lives next to the engine loop that drives it (and is
re-exported here): which edge comes next and where its arc points.  Basic
is the engine's one edge-sequence cursor, ``pebble._FixedOrder``, over a
seeded permutation, plus a coin for the arc.  The node orders, DegMin and
the sweeps step through incidence lists with one resumable cursor,
:func:`_take`.  ``restart`` begins an order afresh over the edges not yet
flagged, so a two-phase strategy is its second-phase class with phase one
as a ``start`` step, and a union-find phase one restarts that same order
for each forest it scans.  One table, ``_CATALOG``, maps each of the 21
names to its factory.  Ordering never changes the accepted cardinality
(matroid regime); it only moves the traversal work around.  Every strategy
is deterministic for a fixed seed, with seed 0 meaning exact storage order
where a shuffle would otherwise apply.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import partial

from . import pebble
from .multigraph import Multigraph
from .pebble import SparsityParams, Strategy

EDGE_ORDER = "edge-order"
NODE_ORDER = "node-order"
TRANSPOSED = "transposed"
TWO_PHASE = "two-phase"

class BucketQueue:
    """Integer-keyed FIFO buckets with lazy re-keying.

    ``BucketQueue(count)`` starts with items ``0..count-1`` at key 0, in
    id order.
    ``pop`` re-inserts an entry at its current key when the stored key went
    stale.  With keys that only grow the returned entry is an exact minimum;
    with keys that can also shrink (indegrees) a stale-low entry surfaces
    only once the scan reaches its old bucket, so the pop is a deterministic
    approximation of the instantaneous minimum.
    """

    __slots__ = ("_buckets", "_min", "_size")

    def __init__(self, count: int = 0) -> None:
        self._buckets: list[deque] = [deque(range(count))]
        self._min = 0
        self._size = count

    def push(self, item: int, key: int) -> None:
        buckets = self._buckets
        while len(buckets) <= key:
            buckets.append(deque())
        buckets[key].append(item)
        if key < self._min:
            self._min = key
        self._size += 1

    def pop(self, key_of) -> int | None:
        buckets = self._buckets
        while self._size:
            b = None
            while self._min < len(buckets):
                b = buckets[self._min]
                if b:
                    break
                self._min += 1
            if self._min >= len(buckets):
                return None
            item = b.popleft()
            key = key_of(item)
            if key == self._min:
                self._size -= 1
                return item
            self._size -= 1
            self.push(item, key)
        return None


def _shuffled(items: list[int], seed: int, salt: str) -> list[int]:
    if seed != 0:
        random.Random(f"{seed}:{salt}").shuffle(items)
    return items


class BasicStrategy(pebble._FixedOrder):
    """The sequence cursor over a random edge permutation (seed 0 =
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
    """Keeps ``_proc[v]``, the number of processed edges at node ``v`` (a
    loop counts once), for the strategies keyed on it."""

    def restart(self, flags):
        super().restart(flags)
        self._proc = [0] * self.graph.n

    def on_processed(self, edge, accepted):
        g = self.graph
        u, v = g.edge_u[edge], g.edge_v[edge]
        self._proc[u] += 1
        if v != u:
            self._proc[v] += 1


class _EdgeKeyStrategy(Strategy):
    """Next edge by minimum ``_key``, from a queue of all edges made in
    ``restart``; an edge set in the restart flags is popped and passed
    over."""

    kind = EDGE_ORDER

    def restart(self, flags):
        super().restart(flags)
        self._bq = BucketQueue(self.graph.m)

    def next_edge(self):
        pop, key, flags = self._bq.pop, self._key, self._processed
        while (e := pop(key)) is not None and flags[e]:
            pass
        return e


class IncProcMinStrategy(_ProcCountStrategy, _EdgeKeyStrategy):
    """Next edge minimizing the endpoints' processed-incident-edge total,
    arc oriented toward the endpoint with fewer processed edges."""

    def _key(self, e: int) -> int:
        g = self.graph
        proc = self._proc
        return proc[g.edge_u[e]] + proc[g.edge_v[e]]

    def orient(self, u, v):
        proc = self._proc
        return u if (proc[u], u) <= (proc[v], v) else v


class IncInDegMinStrategy(_EdgeKeyStrategy):
    """Next edge minimizing the endpoints' current indegree total; the
    engine's default rule already orients toward the smaller indegree."""

    def start(self, engine):
        self._indeg = engine.digraph.indeg
        super().start(engine)

    def _key(self, e: int) -> int:
        g = self.graph
        indeg = self._indeg
        return indeg[g.edge_u[e]] + indeg[g.edge_v[e]]


def _take(incidence: list[list[int]], ptr: list[int], flags, v: int) -> int | None:
    """The incidence cursor: node ``v``'s next edge whose flag is clear,
    from ``ptr[v]`` on, moving ``ptr[v]`` past it; None when the list is
    drained.  Flagged edges are skipped for good, so each node's list is
    walked once in total."""
    inc = incidence[v]
    i = ptr[v]
    end = len(inc)
    while i < end and flags[inc[i]]:
        i += 1
    if i < end:
        ptr[v] = i + 1
        return inc[i]
    ptr[v] = i
    return None


class _NodeOrderStrategy(Strategy):
    """Shared machinery: select a node, drain all its unprocessed incident
    edges (in incidence order), move on.  Subclasses pick the node; the
    ``comp`` flag flips the arc-orientation rule for component runs."""

    kind = NODE_ORDER
    _toward_current_plain = True
    _toward_current_comp = False

    def __init__(self, graph, params, seed=0, comp=False):
        super().__init__(graph, params, seed)
        self.uses_components = comp
        self._toward_current = (
            self._toward_current_comp if comp else self._toward_current_plain
        )

    def restart(self, flags):
        super().restart(flags)
        self._ptr = [0] * self.graph.n
        self._cur = None

    def _select_node(self) -> int | None:
        raise NotImplementedError

    def next_edge(self):
        incidence = self.graph.incidence
        processed = self._processed
        ptr = self._ptr
        v = self._cur
        while True:
            if v is not None:
                e = _take(incidence, ptr, processed, v)
                if e is not None:
                    return e
            v = self._cur = self._select_node()
            if v is None:
                return None

    def orient(self, u, v):
        c = self._cur
        if self._toward_current:
            return c
        return u + v - c  # the other endpoint; a loop stays at c


class NBasicStrategy(_NodeOrderStrategy):
    """One pass over a random node permutation (seed 0 = id order); arcs
    point toward the current node (outward in the Comp variant)."""

    _toward_current_plain = True
    _toward_current_comp = False

    def __init__(self, graph, params, seed=0, comp=False):
        super().__init__(graph, params, seed, comp)
        self._perm = self._node_order()

    def _node_order(self) -> list[int]:
        return _shuffled(list(range(self.graph.n)), self.seed, "node-order")

    def restart(self, flags):
        super().restart(flags)
        self._idx = 0

    def _select_node(self):
        if self._idx >= len(self._perm):
            return None
        v = self._perm[self._idx]
        self._idx += 1
        return v


class NDegMinStrategy(NBasicStrategy):
    """Nodes by minimum input-graph degree, ties by id: the key never
    changes, so this is NBasic over a fixed sorted permutation.  Arcs point
    toward the current node in both variants."""

    _toward_current_plain = True
    _toward_current_comp = True

    def _node_order(self) -> list[int]:
        return sorted(range(self.graph.n), key=self.graph.degree.__getitem__)


class DegMinStrategy(NDegMinStrategy):
    """NDegMin's order (nodes by minimum input-graph degree, each one's
    edges drained in incidence order) as an edge order: arcs point toward
    the smaller-degree endpoint, not toward the current node."""

    kind = EDGE_ORDER

    def orient(self, u, v):
        d = self.graph.degree
        return u if (d[u], u) <= (d[v], v) else v


class NProcMinStrategy(_ProcCountStrategy, _NodeOrderStrategy):
    """Nodes by minimum processed-incident-edge count (monotone key, exact
    minimum); arcs toward the current node (outward in Comp)."""

    _toward_current_plain = True
    _toward_current_comp = False

    def restart(self, flags):
        super().restart(flags)
        self._bq = BucketQueue(self.graph.n)

    def _select_node(self):
        proc = self._proc
        return self._bq.pop(lambda v: proc[v])


class NInDegMinStrategy(_NodeOrderStrategy):
    """Nodes by minimum current indegree (lazy approximation, the key also
    shrinks under reversals); arcs point outward from the current node
    (toward it in the Comp variant)."""

    _toward_current_plain = False
    _toward_current_comp = True

    def start(self, engine):
        self._indeg = engine.digraph.indeg
        super().start(engine)

    def restart(self, flags):
        super().restart(flags)
        self._bq = BucketQueue(self.graph.n)

    def _select_node(self):
        indeg = self._indeg
        return self._bq.pop(lambda v: indeg[v])


class TranspStrategy(Strategy):
    """Cyclic node sweep taking one unprocessed edge per visited node;
    arcs point toward the current node."""

    kind = TRANSPOSED

    def restart(self, flags):
        super().restart(flags)
        self._ptr = [0] * self.graph.n
        self._at = 0  # where the next scan starts
        self._last = -1  # node of the last edge taken

    def next_edge(self):
        incidence = self.graph.incidence
        ptr = self._ptr
        flags = self._processed
        n = len(incidence)
        v = self._at
        for _ in range(n):
            e = _take(incidence, ptr, flags, v)
            nxt = (v + 1) % n
            if e is not None:
                self._last = v
                self._at = nxt
                return e
            v = nxt
        return None

    def orient(self, u, v):
        return self._last


class TranspOneStrategy(TranspStrategy):
    """Transp's sweep, but it stays at the current node while its edges
    keep being accepted; a rejection (or running out of edges) moves the
    sweep on."""

    def on_processed(self, edge, accepted):
        if accepted:
            self._at = self._last


@dataclass
class PhaseOneResult:
    """Forest/pseudoforest seeding for a two-phase run.

    ``arcs`` holds (edge, tail, head) in insertion order, structure by
    structure, and ``structures`` the edge ids of each structure.  The
    engine inserts the arcs (:meth:`~klsparse.pebble.PebbleEngine.preaccept`),
    which enforces the indegree bound; the paired strategy streams the
    unused edges.
    """

    arcs: list[tuple[int, int, int]]
    structures: list[list[int]]


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
    graph: Multigraph,
    used: bytearray,
    take_extra: bool,
    dfs: bool,
) -> list[tuple[int, int, int]]:
    """Grow one spanning forest (plus one cycle edge per component when
    ``take_extra``) over the unused edges by BFS or DFS; arcs are oriented
    parent -> child from each root, so per-node indegree stays <= 1."""
    g = graph
    visited = bytearray(g.n)
    arcs: list[tuple[int, int, int]] = []
    for root in range(g.n):
        if visited[root]:
            continue
        visited[root] = 1
        arc_at: dict[int, int] = {}
        extra: int | None = None
        frontier = [root]
        qi = 0
        while qi < len(frontier) if not dfs else frontier:
            if dfs:
                x = frontier.pop()
            else:
                x = frontier[qi]
                qi += 1
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


class _UnionFind:
    __slots__ = ("parent", "size", "cycled")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n
        self.cycled = bytearray(n)

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> int:
        if self.size[a] < self.size[b]:
            a, b = b, a
        self.parent[b] = a
        self.size[a] += self.size[b]
        if self.cycled[b]:
            self.cycled[a] = 1
        return a


def _orient_structure_edges(
    graph: Multigraph,
    tree_edges: list[int],
    extra_edges: list[int],
) -> list[tuple[int, int, int]]:
    """Root every tree at its smallest node, orient parent -> child, then
    fix up each component's extra edge."""
    g = graph
    adj: dict[int, list[tuple[int, int]]] = {}
    for e in tree_edges:
        u, v = g.edge_u[e], g.edge_v[e]
        adj.setdefault(u, []).append((e, v))
        adj.setdefault(v, []).append((e, u))
    visited: set[int] = set()
    arcs: list[tuple[int, int, int]] = []
    arc_at: dict[int, int] = {}
    touched = sorted(
        set(adj)
        | {g.edge_u[e] for e in extra_edges}
        | {g.edge_v[e] for e in extra_edges}
    )
    for root in touched:
        if root in visited:
            continue
        visited.add(root)
        queue = [root]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for e, y in adj.get(x, ()):
                if y in visited:
                    continue
                visited.add(y)
                arc_at[y] = len(arcs)
                arcs.append((e, x, y))
                queue.append(y)
    for e in extra_edges:
        _orient_component_tree(g, arcs, arc_at, e)
    return arcs


def _structure_union_scan(
    graph: Multigraph,
    used: bytearray,
    take_extra: bool,
    order: Strategy,
) -> list[tuple[int, int, int]]:
    """Grow one forest (plus one cycle edge per component when asked) with
    a union-find pass over ``order``, restarted over the unused edges.
    Each edge it takes is marked in ``used``, and ``order`` hears every
    verdict before it yields the next edge."""
    g = graph
    uf = _UnionFind(g.n)
    tree: list[int] = []
    extras: list[int] = []
    seen = bytearray(used)
    order.restart(seen)
    next_edge, on_processed = order.next_edge, order.on_processed
    find, cycled = uf.find, uf.cycled
    while (e := next_edge()) is not None:
        seen[e] = 1
        ru, rv = find(g.edge_u[e]), find(g.edge_v[e])
        if ru != rv:
            # joining two unicyclic components would carry two cycles
            took = not (take_extra and cycled[ru] and cycled[rv])
            if took:
                uf.union(ru, rv)
                tree.append(e)
        else:
            took = take_extra and not cycled[ru]
            if took:
                cycled[ru] = 1
                extras.append(e)
        on_processed(e, took)
        if took:
            used[e] = 1
            if len(tree) == g.n - 1 and (extras or not take_extra):
                # one spanning component that takes no further edge
                break
    return _orient_structure_edges(g, tree, extras)


def build_phase_one(
    graph: Multigraph,
    params: SparsityParams,
    method: str = "bfs",
    *,
    pseudoforests: bool = True,
    order: Strategy | None = None,
) -> PhaseOneResult:
    """Build the edge-disjoint first-phase structures.

    With ``pseudoforests`` (the PForests variants): (k-l)+ pseudoforests
    first, then min(l, 2k-l) forests.  Without: min(l, 2k-l) + (k-l)+
    plain forests.  Their union is (k,l)-sparse, and per-structure
    indegrees stay <= 1, so the seeded digraph respects the k bound.
    ``method`` is one of bfs / dfs / union.  The union-find scan walks
    ``order``, a strategy it restarts over the unused edges for each
    structure (storage order by default); a two-phase strategy passes
    itself, so its scan walks its second phase's own order.  bfs and dfs
    ignore ``order``.
    """
    params.require_augmenting_regime()
    if method not in ("bfs", "dfs", "union"):
        raise ValueError(f"unknown phase-one method {method!r}")
    k, l = params.k, params.l
    n_pseudo = max(k - l, 0) if pseudoforests else 0
    n_forest = min(l, 2 * k - l) + (0 if pseudoforests else max(k - l, 0))

    used = bytearray(graph.m)
    arcs: list[tuple[int, int, int]] = []
    structures: list[list[int]] = []
    plan = [True] * n_pseudo + [False] * n_forest
    if method == "union" and order is None:
        order = pebble._FixedOrder(list(range(graph.m)))
    for take_extra in plan:
        if method == "union":
            structure = _structure_union_scan(graph, used, take_extra, order)
        else:
            structure = _structure_traversal(graph, used, take_extra, method == "dfs")
        arcs.extend(structure)
        structures.append([e for e, _, _ in structure])
    return PhaseOneResult(arcs=arcs, structures=structures)


def phase_one_sparsity_check(
    result: PhaseOneResult, params: SparsityParams
) -> tuple[bool, list[int] | None]:
    """Brute-force check that the seeded union is (k,l)-sparse (small n).

    Its graph spans the nodes up to the largest arc endpoint: a node that
    no arc touches never takes part in a violated count.
    """
    from .oracle import is_sparse_bruteforce

    edges = [(t, h) for _, t, h in result.arcs]
    n = max((max(edge) + 1 for edge in edges), default=0)
    return is_sparse_bruteforce(Multigraph(n, edges), params)


class _TwoPhase(Strategy):
    """Phase one as a start step, mixed in before the second-phase class:
    seed the digraph with :func:`build_phase_one`'s arcs (a union scan
    walks this strategy's own order), then start the second phase, whose
    order and orientation the engine drives."""

    kind = TWO_PHASE

    def __init__(self, graph, params, seed=0, *, method, pseudoforests=False):
        super().__init__(graph, params, seed)
        self._method = method
        self._pseudoforests = pseudoforests

    def start(self, engine):
        p = engine.params
        if not p.is_augmenting_regime:
            raise pebble.WrongRegimeError(
                f"{pebble._name(self)} is a two-phase order, which needs "
                f"l < 2k; (k={p.k}, l={p.l}) has l = 2k"
            )
        plan = build_phase_one(
            self.graph,
            self.params,
            self._method,
            pseudoforests=self._pseudoforests,
            order=self,
        )
        for e, t, h in plan.arcs:
            engine.preaccept(e, t, h)
        super().start(engine)


class _TwoPhaseBasic(_TwoPhase, BasicStrategy):
    pass


class _TwoPhaseNBasic(_TwoPhase, NBasicStrategy):
    pass


class _TwoPhaseTranspOne(_TwoPhase, TranspOneStrategy):
    pass


# name -> factory; STRATEGY_NAMES keeps this order, which pinned digests
# iterate
_CATALOG = {
    "Basic": BasicStrategy,
    "DegMin": DegMinStrategy,
    "IncProcMin": IncProcMinStrategy,
    "IncInDegMin": IncInDegMinStrategy,
    "NBasic": NBasicStrategy,
    "NDegMin": NDegMinStrategy,
    "NProcMin": NProcMinStrategy,
    "NInDegMin": NInDegMinStrategy,
    "NBasicComp": partial(NBasicStrategy, comp=True),
    "NDegMinComp": partial(NDegMinStrategy, comp=True),
    "NProcMinComp": partial(NProcMinStrategy, comp=True),
    "NInDegMinComp": partial(NInDegMinStrategy, comp=True),
    "PForestsBFS": partial(_TwoPhaseBasic, method="bfs", pseudoforests=True),
    "PForestsDFS": partial(_TwoPhaseBasic, method="dfs", pseudoforests=True),
    "ForestsBFS": partial(_TwoPhaseBasic, method="bfs"),
    "ForestsDFS": partial(_TwoPhaseBasic, method="dfs"),
    "UnionBasic": partial(_TwoPhaseBasic, method="union"),
    "UnionNBasic": partial(_TwoPhaseNBasic, method="union"),
    "UnionTranspOne": partial(_TwoPhaseTranspOne, method="union"),
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
