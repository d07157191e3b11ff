"""Edge-ordering strategies for the extraction engine.

Four families:

* edge orders   -- Basic, DegMin, IncProcMin, IncInDegMin; DegMin walks
                   NDegMin's order and only orients arcs by degree
* node orders   -- NBasic, NDegMin, NProcMin, NInDegMin and their *Comp
                   variants (same order, flipped arc orientation, meant for
                   the component-based engine)
* transposed    -- Transp, TranspOne (one cyclic node sweep; TranspOne
                   stays at a node while its edges keep being accepted)
* two-phase     -- PForestsBFS/DFS, ForestsBFS/DFS, UnionBasic, UnionNBasic,
                   UnionTranspOne: seed the digraph with edge-disjoint
                   forests (and pseudoforests where k > l), then stream the
                   leftovers through a paired second-phase order

A strategy is a configuration: which edge comes next and where its arc
points.  The node orders, DegMin, the sweeps and UnionTranspOne's first
phase step through incidence lists with one resumable cursor,
:func:`_take`.  Ordering never changes the accepted cardinality
(matroid regime); it only moves the traversal work around.  Every strategy
is deterministic for a fixed seed, with seed 0 meaning exact storage order
where a shuffle would otherwise apply.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import partial

from .multigraph import Multigraph
from .orientation import InnerDigraph
from .pebble import PebbleEngine, SparsityParams

EDGE_ORDER = "edge-order"
NODE_ORDER = "node-order"
TRANSPOSED = "transposed"
TWO_PHASE = "two-phase"

STRATEGY_NAMES = (
    "Basic",
    "DegMin",
    "IncProcMin",
    "IncInDegMin",
    "NBasic",
    "NDegMin",
    "NProcMin",
    "NInDegMin",
    "NBasicComp",
    "NDegMinComp",
    "NProcMinComp",
    "NInDegMinComp",
    "PForestsBFS",
    "PForestsDFS",
    "ForestsBFS",
    "ForestsDFS",
    "UnionBasic",
    "UnionNBasic",
    "UnionTranspOne",
    "Transp",
    "TranspOne",
)


class BucketQueue:
    """Integer-keyed FIFO buckets with lazy re-keying.

    ``pop`` re-inserts an entry at its current key when the stored key went
    stale.  With keys that only grow the returned entry is an exact minimum;
    with keys that can also shrink (indegrees) a stale-low entry surfaces
    only once the scan reaches its old bucket, so the pop is a deterministic
    approximation of the instantaneous minimum.
    """

    __slots__ = ("_buckets", "_min", "_size")

    def __init__(self) -> None:
        self._buckets: list[deque] = []
        self._min = 0
        self._size = 0

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


class Strategy:
    """Base interface the engine drives.

    ``next_edge`` yields unprocessed edge ids (None when drained);
    ``orient`` may name a preferred arc head for an accepted edge
    (None defers to the engine's smaller-indegree rule);
    ``on_processed`` receives the verdict for bookkeeping.
    """

    name = ""
    kind = ""
    uses_components = False

    def __init__(self, graph: Multigraph, params: SparsityParams, seed: int = 0) -> None:
        self.graph = graph
        self.params = params
        self.seed = seed
        self.engine: PebbleEngine | None = None

    def start(self, engine: PebbleEngine) -> None:
        self.engine = engine

    def next_edge(self) -> int | None:
        raise NotImplementedError

    def orient(self, u: int, v: int) -> int | None:
        return None

    def on_processed(self, edge: int, accepted: bool) -> None:
        pass


def _shuffled(items: list[int], seed: int, salt: str) -> list[int]:
    if seed != 0:
        random.Random(f"{seed}:{salt}").shuffle(items)
    return items


class BasicStrategy(Strategy):
    """Random edge permutation (seed 0 = storage order), random arc
    orientation; the no-frills baseline."""

    name = "Basic"
    kind = EDGE_ORDER

    def __init__(self, graph, params, seed=0):
        super().__init__(graph, params, seed)
        self._order = _shuffled(list(range(graph.m)), seed, "edge-order")
        self._pos = 0
        self._coin = random.Random(f"{seed}:orient")

    def next_edge(self):
        order = self._order
        processed = self.engine.processed
        while self._pos < len(order):
            e = order[self._pos]
            self._pos += 1
            if not processed[e]:
                return e
        return None

    def orient(self, u, v):
        # one draw per processed edge, so the stream is independent of
        # accept/reject outcomes
        return u if self._coin.random() < 0.5 else v


class _ProcCountStrategy(Strategy):
    """Keeps ``_proc[v]``, the number of processed edges at node ``v`` (a
    loop counts once), for the strategies keyed on it."""

    def start(self, engine):
        super().start(engine)
        self._proc = [0] * self.graph.n

    def on_processed(self, edge, accepted):
        g = self.graph
        u, v = g.edge_u[edge], g.edge_v[edge]
        self._proc[u] += 1
        if v != u:
            self._proc[v] += 1


class IncProcMinStrategy(_ProcCountStrategy):
    """Next edge minimizing the endpoints' processed-incident-edge total,
    arc oriented toward the endpoint with fewer processed edges."""

    name = "IncProcMin"
    kind = EDGE_ORDER

    def start(self, engine):
        super().start(engine)
        bq = BucketQueue()
        for e in range(self.graph.m):
            bq.push(e, 0)
        self._bq = bq

    def _key(self, e: int) -> int:
        g = self.graph
        proc = self._proc
        return proc[g.edge_u[e]] + proc[g.edge_v[e]]

    def next_edge(self):
        return self._bq.pop(self._key)

    def orient(self, u, v):
        proc = self._proc
        return u if (proc[u], u) <= (proc[v], v) else v


class IncInDegMinStrategy(Strategy):
    """Next edge minimizing the endpoints' current indegree total; the
    engine's default rule already orients toward the smaller indegree."""

    name = "IncInDegMin"
    kind = EDGE_ORDER

    def start(self, engine):
        super().start(engine)
        bq = BucketQueue()
        for e in range(self.graph.m):
            bq.push(e, 0)
        self._bq = bq
        self._indeg = engine.digraph.indeg

    def _key(self, e: int) -> int:
        g = self.graph
        indeg = self._indeg
        return indeg[g.edge_u[e]] + indeg[g.edge_v[e]]

    def next_edge(self):
        return self._bq.pop(self._key)


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
    _base_name = ""
    _toward_current_plain = True
    _toward_current_comp = False

    def __init__(self, graph, params, seed=0, comp=False):
        super().__init__(graph, params, seed)
        self.comp = comp
        self.uses_components = comp
        self.name = self._base_name + ("Comp" if comp else "")
        self._toward_current = (
            self._toward_current_comp if comp else self._toward_current_plain
        )

    def start(self, engine):
        super().start(engine)
        self._ptr = [0] * self.graph.n
        self._cur = None

    def _select_node(self) -> int | None:
        raise NotImplementedError

    def next_edge(self):
        incidence = self.graph.incidence
        processed = self.engine.processed
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

    _base_name = "NBasic"
    _toward_current_plain = True
    _toward_current_comp = False

    def start(self, engine):
        super().start(engine)
        self._perm = _shuffled(list(range(self.graph.n)), self.seed, "node-order")
        self._idx = 0

    def _select_node(self):
        if self._idx >= len(self._perm):
            return None
        v = self._perm[self._idx]
        self._idx += 1
        return v


class NDegMinStrategy(_NodeOrderStrategy):
    """Nodes by minimum input-graph degree; arcs point toward the current
    node in both variants."""

    _base_name = "NDegMin"
    _toward_current_plain = True
    _toward_current_comp = True

    def start(self, engine):
        super().start(engine)
        g = self.graph
        bq = BucketQueue()
        for v in range(g.n):
            bq.push(v, g.degree[v])
        self._bq = bq

    def _select_node(self):
        g = self.graph
        return self._bq.pop(lambda v: g.degree[v])


class DegMinStrategy(NDegMinStrategy):
    """NDegMin's order (nodes by minimum input-graph degree, each one's
    edges drained in incidence order) as an edge order: arcs point toward
    the smaller-degree endpoint, not toward the current node."""

    _base_name = "DegMin"
    kind = EDGE_ORDER

    def orient(self, u, v):
        d = self.graph.degree
        return u if (d[u], u) <= (d[v], v) else v


class NProcMinStrategy(_ProcCountStrategy, _NodeOrderStrategy):
    """Nodes by minimum processed-incident-edge count (monotone key, exact
    minimum); arcs toward the current node (outward in Comp)."""

    _base_name = "NProcMin"
    _toward_current_plain = True
    _toward_current_comp = False

    def start(self, engine):
        super().start(engine)
        bq = BucketQueue()
        for v in range(self.graph.n):
            bq.push(v, 0)
        self._bq = bq

    def _select_node(self):
        proc = self._proc
        return self._bq.pop(lambda v: proc[v])


class NInDegMinStrategy(_NodeOrderStrategy):
    """Nodes by minimum current indegree (lazy approximation, the key also
    shrinks under reversals); arcs point outward from the current node
    (toward it in the Comp variant)."""

    _base_name = "NInDegMin"
    _toward_current_plain = False
    _toward_current_comp = True

    def start(self, engine):
        super().start(engine)
        bq = BucketQueue()
        for v in range(self.graph.n):
            bq.push(v, 0)
        self._bq = bq
        self._indeg = engine.digraph.indeg

    def _select_node(self):
        indeg = self._indeg
        return self._bq.pop(lambda v: indeg[v])


class TranspStrategy(Strategy):
    """Cyclic node sweep taking one unprocessed edge per visited node;
    arcs point toward the current node."""

    name = "Transp"
    kind = TRANSPOSED

    def start(self, engine):
        super().start(engine)
        self._sweep(engine.processed)

    def _sweep(self, flags) -> None:
        """Begin the sweep at node 0 over the edges not flagged in
        ``flags``."""
        self._flags = flags
        self._ptr = [0] * self.graph.n
        self._at = 0  # where the next scan starts
        self._last = -1  # node of the last edge taken

    def next_edge(self):
        incidence = self.graph.incidence
        ptr = self._ptr
        flags = self._flags
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

    name = "TranspOne"

    def on_processed(self, edge, accepted):
        if accepted:
            self._at = self._last


@dataclass
class PhaseOneResult:
    """Forest/pseudoforest seeding for a two-phase run.

    ``arcs`` holds (edge, tail, head) in insertion order, structure by
    structure; ``remaining`` lists the unused edge ids in id order (the
    second-phase ordering itself is applied by the paired strategy).
    """

    arcs: list[tuple[int, int, int]]
    accepted: set[int]
    remaining: list[int]
    seeded_digraph: InnerDigraph
    structures: list[list[int]]


def _orient_component_tree(
    graph: Multigraph,
    parent: dict[int, tuple[int, int] | None],
    arcs: list[tuple[int, int, int]],
    arc_at: dict[int, int],
    extra: tuple[int, int] | None,
) -> None:
    """Apply the pseudoforest fix-up: flip the tree path from the extra
    edge's attach node up to the root, then point the extra arc at the
    freed attach node."""
    if extra is None:
        return
    e, attach = extra
    node = attach
    while parent[node] is not None:
        idx = arc_at[node]
        a_e, t, h = arcs[idx]
        arcs[idx] = (a_e, h, t)
        node = parent[node][1]
    u, v = graph.edge_u[e], graph.edge_v[e]
    arcs.append((e, u + v - attach, attach))


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
        parent: dict[int, tuple[int, int] | None] = {root: None}
        arc_at: dict[int, int] = {}
        extra: tuple[int, int] | None = None
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
                    parent[y] = (e, x)
                    arc_at[y] = len(arcs)
                    arcs.append((e, x, y))
                    frontier.append(y)
                elif take_extra and extra is None:
                    # y visited means same component here, a cross-component
                    # edge would already have been taken as a tree edge
                    used[e] = 1
                    extra = (e, g.edge_u[e])
        _orient_component_tree(g, parent, arcs, arc_at, extra)
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
    parent: dict[int, tuple[int, int] | None] = {}
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
        parent[root] = None
        queue = [root]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for e, y in adj.get(x, ()):
                if y in visited:
                    continue
                visited.add(y)
                parent[y] = (e, x)
                arc_at[y] = len(arcs)
                arcs.append((e, x, y))
                queue.append(y)
    for e in extra_edges:
        attach = g.edge_u[e]
        _orient_component_tree(g, parent, arcs, arc_at, (e, attach))
    return arcs


def _structure_union_scan(
    graph: Multigraph,
    used: bytearray,
    take_extra: bool,
    stream: Iterable[int],
) -> list[tuple[int, int, int]]:
    """Grow one forest (plus one cycle edge per component when asked) with
    a union-find pass over ``stream``, marking each edge it takes in
    ``used`` before it reads the next one."""
    g = graph
    uf = _UnionFind(g.n)
    tree: list[int] = []
    extras: list[int] = []
    for e in stream:
        if used[e]:
            continue
        u, v = g.edge_u[e], g.edge_v[e]
        ru, rv = uf.find(u), uf.find(v)
        if ru != rv:
            if take_extra and uf.cycled[ru] and uf.cycled[rv]:
                # joining two unicyclic components would carry two cycles
                continue
            uf.union(ru, rv)
            used[e] = 1
            tree.append(e)
        elif take_extra and not uf.cycled[ru]:
            uf.cycled[ru] = 1
            used[e] = 1
            extras.append(e)
        else:
            continue
        if len(tree) == g.n - 1 and (extras or not take_extra):
            # one spanning component that takes no further edge
            break
    return _orient_structure_edges(g, tree, extras)


def _transpone_stream(
    graph: Multigraph, params: SparsityParams, used: bytearray
) -> Iterator[int]:
    """The unused edges in TranspOne's sweep order, for
    :func:`_structure_union_scan`: the scan's verdict on each yielded edge
    is read back from ``used``, so the sweep stays at a node while its
    edges keep joining the structure."""
    seen = bytearray(used)
    sweep = TranspOneStrategy(graph, params)
    sweep._sweep(seen)
    while (e := sweep.next_edge()) is not None:
        seen[e] = 1
        yield e
        sweep.on_processed(e, bool(used[e]))


def _nbasic_edge_sequence(graph: Multigraph, seed: int) -> list[int]:
    perm = _shuffled(list(range(graph.n)), seed, "node-order")
    seen = bytearray(graph.m)
    out: list[int] = []
    for v in perm:
        for e in graph.incidence[v]:
            if not seen[e]:
                seen[e] = 1
                out.append(e)
    return out


def build_phase_one(
    graph: Multigraph,
    params: SparsityParams,
    method: str = "bfs",
    *,
    pseudoforests: bool = True,
    seed: int = 0,
    union_order: str = "basic",
) -> PhaseOneResult:
    """Build the edge-disjoint first-phase structures.

    With ``pseudoforests`` (the PForests variants): (k-l)+ pseudoforests
    first, then min(l, 2k-l) forests.  Without: min(l, 2k-l) + (k-l)+
    plain forests.  Their union is (k,l)-sparse, and per-structure
    indegrees stay <= 1, so the seeded digraph respects the k bound.
    ``method`` is one of bfs / dfs / union; ``union_order`` picks the
    union-find scan order (basic / nbasic / transpone).
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
    for take_extra in plan:
        if method == "union":
            if union_order == "basic":
                stream = _shuffled(list(range(graph.m)), seed, "edge-order")
            elif union_order == "nbasic":
                stream = _nbasic_edge_sequence(graph, seed)
            elif union_order == "transpone":
                stream = _transpone_stream(graph, params, used)
            else:
                raise ValueError(f"unknown union order {union_order!r}")
            structure = _structure_union_scan(graph, used, take_extra, stream)
        else:
            structure = _structure_traversal(graph, used, take_extra, method == "dfs")
        arcs.extend(structure)
        structures.append([e for e, _, _ in structure])

    seeded = InnerDigraph(graph.n, params.k)
    for e, t, h in arcs:
        seeded.insert_arc(e, t, h)
    accepted = {e for e, _, _ in arcs}
    remaining = [e for e in range(graph.m) if e not in accepted]
    return PhaseOneResult(
        arcs=arcs,
        accepted=accepted,
        remaining=remaining,
        seeded_digraph=seeded,
        structures=structures,
    )


def phase_one_sparsity_check(
    result: PhaseOneResult, params: SparsityParams
) -> tuple[bool, list[int] | None]:
    """Brute-force check that the seeded union is (k,l)-sparse (small n)."""
    from .oracle import is_sparse_bruteforce

    d = result.seeded_digraph
    edges = [
        (d.arc_tail[a], d.arc_head[a]) for a in range(d.arc_count)
    ]
    return is_sparse_bruteforce(Multigraph(d.n, edges), params)


class TwoPhaseStrategy(Strategy):
    """Seed the digraph from :func:`build_phase_one`, then stream the
    leftover edges through the paired second-phase strategy."""

    kind = TWO_PHASE

    def __init__(
        self,
        graph,
        params,
        seed=0,
        *,
        name: str,
        method: str,
        pseudoforests: bool,
        second: str,
    ):
        super().__init__(graph, params, seed)
        self.name = name
        self._method = method
        self._pseudoforests = pseudoforests
        self._second = second

    def start(self, engine):
        super().start(engine)
        plan = build_phase_one(
            self.graph,
            self.params,
            self._method,
            pseudoforests=self._pseudoforests,
            seed=self.seed,
            union_order=self._second if self._method == "union" else "basic",
        )
        for e, t, h in plan.arcs:
            engine.preaccept(e, t, h)
        factory = {
            "basic": BasicStrategy,
            "nbasic": NBasicStrategy,
            "transpone": TranspOneStrategy,
        }[self._second]
        self._sub = factory(self.graph, self.params, self.seed)
        self._sub.start(engine)

    def next_edge(self):
        return self._sub.next_edge()

    def orient(self, u, v):
        return self._sub.orient(u, v)

    def on_processed(self, edge, accepted):
        self._sub.on_processed(edge, accepted)


def _two_phase(name: str, method: str, pseudoforests: bool, second: str):
    return partial(TwoPhaseStrategy, name=name, method=method,
                   pseudoforests=pseudoforests, second=second)


_FACTORIES = {
    "basic": BasicStrategy,
    "degmin": DegMinStrategy,
    "incprocmin": IncProcMinStrategy,
    "incindegmin": IncInDegMinStrategy,
    "nbasic": NBasicStrategy,
    "ndegmin": NDegMinStrategy,
    "nprocmin": NProcMinStrategy,
    "nindegmin": NInDegMinStrategy,
    "nbasiccomp": partial(NBasicStrategy, comp=True),
    "ndegmincomp": partial(NDegMinStrategy, comp=True),
    "nprocmincomp": partial(NProcMinStrategy, comp=True),
    "nindegmincomp": partial(NInDegMinStrategy, comp=True),
    "pforestsbfs": _two_phase("PForestsBFS", "bfs", True, "basic"),
    "pforestsdfs": _two_phase("PForestsDFS", "dfs", True, "basic"),
    "forestsbfs": _two_phase("ForestsBFS", "bfs", False, "basic"),
    "forestsdfs": _two_phase("ForestsDFS", "dfs", False, "basic"),
    "unionbasic": _two_phase("UnionBasic", "union", False, "basic"),
    "unionnbasic": _two_phase("UnionNBasic", "union", False, "nbasic"),
    "uniontranspone": _two_phase("UnionTranspOne", "union", False, "transpone"),
    "transp": TranspStrategy,
    "transpone": TranspOneStrategy,
}


def make_strategy(
    name: str,
    graph: Multigraph,
    params: SparsityParams,
    seed: int = 0,
) -> Strategy:
    """Instantiate a strategy by catalog name (case-insensitive)."""
    factory = _FACTORIES.get(name.lower())
    if factory is None:
        valid = ", ".join(STRATEGY_NAMES)
        raise ValueError(f"unknown heuristic {name!r}; valid names: {valid}")
    return factory(graph, params, seed)
