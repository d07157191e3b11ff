"""Maximum (k,l)-sparse subgraph extraction by path augmentation.

An edge uv is accepted exactly when the inner digraph can be reoriented so
that indeg(u) + indeg(v) < 2k - l (for a loop: indeg(v) <= k - l - 1);
each reorientation step reverses one path found by a backward search from
{u, v} to a node of indegree below k.  For 0 <= l < 2k the accepted sets
form the independent sets of a matroid, so any processing order yields a
maximum-size subgraph and non-increasing weight order yields a maximum-
weight one.

A failed search leaves a tight block behind: its backward closure X has no
arc entering from outside and every node but the endpoints at indegree k,
so X induces at least k|X| - l accepted edges, and stays tight as more are
accepted.  The engine records every such closure in one block store, and
rejects a later edge inside a recorded block (or a loop at a node of one)
with zero traversal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .multigraph import Multigraph
from .orientation import InnerDigraph, Instrumentation


class WrongRegimeError(ValueError):
    """The operation requires l < 2k (or l = 2k, for the 2k-only path)."""


class UnweightedInputError(ValueError):
    """Weighted extraction was asked for a graph without weights."""


class ReversalBoundError(RuntimeError):
    """An edge took more path reversals than the proven bound allows;
    impossible on a digraph built by the engine, so it signals a corrupted
    orientation state."""


class Reason(enum.Enum):
    """Why an edge got its verdict."""

    ACCEPTED = "accepted"
    INDEGREE_BLOCKED = "indegree-blocked"
    COVERED_BY_COMPONENT = "covered-by-component"
    EARLY_TERMINATED = "early-terminated"


@dataclass(frozen=True)
class SparsityParams:
    """The pair (k, l) with k >= 1 and 0 <= l <= 2k."""

    k: int
    l: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if not 0 <= self.l <= 2 * self.k:
            raise ValueError(
                f"l must lie in [0, 2k] = [0, {2 * self.k}], got {self.l}"
            )

    @property
    def is_augmenting_regime(self) -> bool:
        """True when l < 2k, the regime the augmenting engine handles."""
        return self.l < 2 * self.k

    @property
    def pair_threshold(self) -> int:
        """Acceptance demands indeg(u) + indeg(v) strictly below this."""
        return 2 * self.k - self.l

    @property
    def loop_threshold(self) -> int:
        """A loop at v is acceptable once indeg(v) is at most this."""
        return self.k - self.l - 1

    @property
    def reversal_bound(self) -> int:
        """Most path reversals one acceptance can take: l + 1."""
        return self.l + 1

    def tight_size(self, n: int) -> int:
        """Edge count of a tight subgraph on n nodes: max(k*n - l, 0)."""
        return max(self.k * n - self.l, 0)

    def require_augmenting_regime(self) -> None:
        if not self.is_augmenting_regime:
            raise WrongRegimeError(
                f"(k={self.k}, l={self.l}) has l = 2k; use the maximal-2k path"
            )


@dataclass(frozen=True)
class Verdict:
    edge: int
    accepted: bool
    reversals_used: int
    reason: Reason


_REASONS = tuple(Reason)
_CODE = {reason: code for code, reason in enumerate(_REASONS)}
_EARLY_TERMINATED = _CODE[Reason.EARLY_TERMINATED]


@dataclass
class ExtractionReport:
    """Outcome of one extraction run.

    ``accepted`` is the accepted edge-id set and ``order`` the processed
    edge ids in processing order.  Per-edge outcomes are kept compact: a
    reason code per edge id and the non-zero reversal counts, written by
    :meth:`record`.  Codes start at EARLY_TERMINATED, so the edges an
    engine lists in ``order`` after the tight size need no write at all.
    ``verdicts`` builds the :class:`Verdict` list from these records on
    demand.  The classification flags are filled by :func:`decide` and
    stay None otherwise.
    """

    params: SparsityParams
    n: int
    m: int
    accepted: set[int] = field(default_factory=set)
    order: list[int] = field(default_factory=list)
    counters: Instrumentation = field(default_factory=Instrumentation)
    total_weight: float | None = None
    is_sparse: bool | None = None
    is_tight: bool | None = None
    is_spanning: bool | None = None

    def __post_init__(self) -> None:
        self._reasons = bytearray([_EARLY_TERMINATED]) * self.m
        self._reversals: dict[int, int] = {}

    @property
    def accepted_count(self) -> int:
        return len(self.accepted)

    def record(self, verdict: Verdict) -> None:
        """Append one processed edge's verdict."""
        e = verdict.edge
        self.order.append(e)
        self._reasons[e] = _CODE[verdict.reason]
        if verdict.reversals_used:
            self._reversals[e] = verdict.reversals_used
        self.counters.edges_processed += 1
        if verdict.accepted:
            self.counters.edges_accepted += 1
            self.accepted.add(e)

    def reason_counts(self) -> dict[Reason, int]:
        """Number of processed edges per verdict reason (every reason
        listed, zeros included)."""
        counts = [0] * len(_REASONS)
        reasons = self._reasons
        for e in self.order:
            counts[reasons[e]] += 1
        return dict(zip(_REASONS, counts))

    @property
    def verdicts(self) -> list[Verdict]:
        """One :class:`Verdict` per processed edge, in processing order."""
        reasons, reversals = self._reasons, self._reversals
        accepted = _CODE[Reason.ACCEPTED]
        return [
            Verdict(e, reasons[e] == accepted, reversals.get(e, 0),
                    _REASONS[reasons[e]])
            for e in self.order
        ]


class ComponentSet:
    """Tight node sets (blocks) with the pair-coverage query.

    By the block union lemma (Lee & Streinu, Pebble game algorithms and
    sparse graphs, 2008) two tight blocks sharing at least one node for
    l <= k, two nodes for k < l < 2k, or three nodes for l = 2k have a
    tight union: i(X | Y) >= i(X) + i(Y) - i(X & Y), and the sparsity
    bound i(X & Y) <= k|X & Y| - l holds from that many shared nodes on.
    A record merges every block it meets that far into the largest block
    involved (union by size: only the smaller sets move) and repeats
    while the grown block, counted with the nodes still to join it, meets
    another that far.  Stored blocks thus stay disjoint for l <= k, share
    at most one node for k < l < 2k and at most two for l = 2k.  Each
    node lists the ids of its blocks.
    """

    def __init__(self, n: int, params: SparsityParams) -> None:
        self.params = params
        k, l = params.k, params.l
        self._threshold = 1 if l <= k else 2 if l < 2 * k else 3
        self._node_blocks: list[list[int]] = [[] for _ in range(n)]
        self._block_nodes: dict[int, set[int]] = {}
        self._next_id = 0

    def covers(self, u: int, v: int) -> bool:
        """True when one recorded block contains both u and v (for a
        loop, when u lies in any block)."""
        a = self._node_blocks[u]
        if not a or u == v:
            return bool(a)
        b = self._node_blocks[v]
        if len(b) < len(a):
            a, v = b, u
        block_nodes = self._block_nodes
        for c in a:
            if v in block_nodes[c]:
                return True
        return False

    def record(self, nodes) -> None:
        """Merge a tight node set into the records (singletons ignored)."""
        pending = set(nodes)
        if len(pending) < 2:
            return
        node_blocks = self._node_blocks
        block_nodes = self._block_nodes
        threshold = self._threshold
        # ``pending`` nodes join block ``target`` (-1: a new block) once no
        # other block meets target plus pending in ``threshold`` nodes
        target, members = -1, set()
        while True:
            met: dict[int, int] = {}
            for x in pending:
                for c in node_blocks[x]:
                    met[c] = met.get(c, 0) + 1
            merging = [
                c for c, shared in met.items()
                if shared >= threshold
                or shared + len(members & block_nodes[c]) >= threshold
            ]
            if not merging:
                break
            if target >= 0:
                merging.append(target)
            target = max(merging, key=lambda c: len(block_nodes[c]))
            members = block_nodes[target]
            for c in merging:
                if c != target:
                    for x in block_nodes.pop(c):
                        node_blocks[x].remove(c)
                        pending.add(x)
            pending = {x for x in pending if x not in members}
        if target < 0:
            target = self._next_id
            self._next_id += 1
            members = block_nodes[target] = set()
        members |= pending
        for x in pending:
            node_blocks[x].append(target)

    def components(self) -> list[list[int]]:
        """Sorted node lists of the recorded blocks."""
        return sorted(sorted(nodes) for nodes in self._block_nodes.values())


class PebbleEngine:
    """Streaming acceptance engine for one graph and one (k, l) pair.

    Drives a strategy's edge order through :meth:`try_accept`, maintaining
    the inner digraph, the processed flags shared with the strategy, the
    block store fed by failed searches, and the early-termination cutoff
    at max(k*n - l, 0) arcs, after which :meth:`run` only drains the
    order.
    """

    def __init__(
        self,
        graph: Multigraph,
        params: SparsityParams,
        counters: Instrumentation | None = None,
    ) -> None:
        params.require_augmenting_regime()
        self.graph = graph
        self.params = params
        self.counters = counters if counters is not None else Instrumentation()
        self.digraph = InnerDigraph(graph.n, params.k, self.counters)
        self.processed = [False] * graph.m
        self.blocks = ComponentSet(graph.n, params)
        self.report = ExtractionReport(params=params, n=graph.n, m=graph.m,
                                       counters=self.counters)
        self._tight_size = params.tight_size(graph.n)

    def try_accept(self, e: int, preferred_head: int | None = None) -> Verdict:
        """Process edge ``e``: augment until the acceptance condition holds
        or the search fails, inserting the arc on success.

        An edge inside a recorded block is rejected before any search; a
        failed search records its closure as a block.  Reversals performed
        before a rejection are kept; they only reorient the same accepted
        set.  ``preferred_head`` is honoured if its indegree allows,
        otherwise the other endpoint takes the arc.
        """
        g = self.graph
        u = g.edge_u[e]
        v = g.edge_v[e]
        p = self.params
        digraph = self.digraph
        indeg = digraph.indeg
        blocks = self.blocks
        reversals = 0

        if blocks.covers(u, v):
            return Verdict(e, False, 0, Reason.COVERED_BY_COMPONENT)
        if u == v:
            limit = p.loop_threshold
            if limit < 0:
                return Verdict(e, False, 0, Reason.INDEGREE_BLOCKED)
            while indeg[u] > limit:
                path = digraph.find_reversal_path((u,))
                if path is None:
                    blocks.record(digraph.last_closure)
                    return Verdict(e, False, reversals, Reason.INDEGREE_BLOCKED)
                digraph.reverse(path)
                reversals += 1
            digraph.insert_arc(e, u, u)
        else:
            threshold = p.pair_threshold
            while indeg[u] + indeg[v] >= threshold:
                path = digraph.find_reversal_path((u, v))
                if path is None:
                    blocks.record(digraph.last_closure)
                    return Verdict(e, False, reversals, Reason.INDEGREE_BLOCKED)
                digraph.reverse(path)
                reversals += 1
            if preferred_head is not None and indeg[preferred_head] < p.k:
                head = preferred_head
            else:
                # default rule (and fallback): smaller indegree takes the
                # arc, ties to the smaller id; that endpoint is below k
                # because the indegree sum is below 2k
                head = u if (indeg[u], u) <= (indeg[v], v) else v
            digraph.insert_arc(e, u + v - head, head)
        if reversals > p.reversal_bound:
            raise ReversalBoundError(
                f"edge {e} took {reversals} reversals, bound {p.reversal_bound}"
            )
        return Verdict(e, True, reversals, Reason.ACCEPTED)

    def preaccept(self, e: int, tail: int, head: int) -> None:
        """Record ``e`` as accepted with a caller-supplied orientation.

        Used by two-phase strategies whose first phase is sparse by
        construction; the indegree bound is still enforced on insert.
        """
        self.digraph.insert_arc(e, tail, head)
        self.processed[e] = True
        self.report.record(Verdict(e, True, 0, Reason.ACCEPTED))

    def _process_edge(self, e: int, strategy) -> Verdict:
        preferred = strategy.orient(self.graph.edge_u[e], self.graph.edge_v[e])
        return self.try_accept(e, preferred)

    def run(self, strategy) -> ExtractionReport:
        """Drain ``strategy``'s edge order through the engine.

        Once the digraph holds max(k*n - l, 0) arcs no further edge can be
        accepted, so the main loop stops there, and a tail loop only marks
        each remaining edge of the strategy's order processed, lists it in
        the report (its reason code already reads EARLY_TERMINATED) and
        tells the strategy; it makes no verdict and no search.
        """
        strategy.start(self)
        digraph = self.digraph
        tight_size = self._tight_size
        processed = self.processed
        record = self.report.record
        next_edge = strategy.next_edge
        on_processed = strategy.on_processed
        while digraph.arc_count < tight_size:
            e = next_edge()
            if e is None:
                return self.report
            verdict = self._process_edge(e, strategy)
            processed[e] = True
            record(verdict)
            on_processed(e, verdict.accepted)
        order = self.report.order
        cut = len(order)
        while (e := next_edge()) is not None:
            processed[e] = True
            order.append(e)
            on_processed(e, False)
        if len(order) > cut:
            self.counters.edges_processed += len(order) - cut
            self.counters.early_termination_hit = 1
        return self.report


def extract(
    graph: Multigraph,
    params: SparsityParams,
    order=None,
    counters: Instrumentation | None = None,
) -> ExtractionReport:
    """Extract a maximum-size (k,l)-sparse subgraph, l < 2k.

    ``order`` is a heuristic strategy or an explicit edge-id sequence
    (default: Basic with seed 0); the accepted cardinality is
    order-independent, the work done is not.
    """
    strategy = resolve_order(order, graph, params, "Basic")
    return PebbleEngine(graph, params, counters).run(strategy)


def resolve_order(order, graph: Multigraph, params: SparsityParams, default: str):
    """The strategy an ``order`` argument names: the ``default`` heuristic
    (seed 0) for None, a :class:`_FixedOrder` for an explicit edge-id
    sequence, and the object itself when it is already a strategy."""
    if order is None:
        from .heuristics import make_strategy

        return make_strategy(default, graph, params)
    if hasattr(order, "next_edge"):
        return order
    return _FixedOrder(list(order))


class _FixedOrder:
    """Minimal strategy over a fixed edge sequence with the default
    orientation rule; used for weighted extraction."""

    name = "fixed"
    kind = "edge-order"
    uses_components = False

    def __init__(self, sequence: list[int]) -> None:
        self._sequence = sequence
        self._pos = 0

    def start(self, engine: PebbleEngine) -> None:
        self._engine = engine

    def next_edge(self) -> int | None:
        seq = self._sequence
        processed = self._engine.processed
        while self._pos < len(seq):
            e = seq[self._pos]
            self._pos += 1
            if not processed[e]:
                return e
        return None

    def orient(self, u: int, v: int) -> int | None:
        return None

    def on_processed(self, edge: int, accepted: bool) -> None:
        pass


def extract_weighted(
    graph: Multigraph,
    params: SparsityParams,
    counters: Instrumentation | None = None,
) -> ExtractionReport:
    """Extract a maximum-weight (k,l)-sparse subgraph, l < 2k.

    Processes edges by non-increasing weight (ties by edge id); matroid
    exchange makes this greedy optimal.  Raises
    :class:`UnweightedInputError` when the graph carries no weights.
    """
    params.require_augmenting_regime()
    if graph.weights is None:
        raise UnweightedInputError("graph has no edge weights")
    weights = graph.weights
    sequence = sorted(range(graph.m), key=lambda e: (-weights[e], e))
    engine = PebbleEngine(graph, params, counters)
    report = engine.run(_FixedOrder(sequence))
    report.total_weight = sum(weights[e] for e in report.accepted)
    return report


def decide(
    graph: Multigraph,
    params: SparsityParams,
    counters: Instrumentation | None = None,
) -> ExtractionReport:
    """Classify the graph: fills is_sparse / is_tight / is_spanning.

    sparse: every edge accepted; spanning: the accepted subgraph reaches
    max(k*n - l, 0) edges; tight: both at once.
    """
    report = extract(graph, params, counters=counters)
    tight_size = params.tight_size(graph.n)
    report.is_sparse = len(report.accepted) == graph.m
    report.is_spanning = len(report.accepted) == tight_size
    report.is_tight = report.is_sparse and graph.m == tight_size
    return report
