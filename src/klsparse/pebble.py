"""Maximum (k,l)-sparse subgraph extraction by path augmentation.

An edge uv is accepted exactly when the inner digraph can be reoriented so
that indeg(u) + indeg(v) < 2k - l (for a loop: indeg(v) <= k - l - 1);
:meth:`~klsparse.orientation.InnerDigraph.drain` reorients it, one path
found by a backward search from {u, v} to a node of indegree below k at a
time.  For 0 <= l < 2k the accepted sets form the independent sets of a
matroid, so any processing order yields a maximum-size subgraph and
non-increasing weight order yields a maximum-weight one.

Most edges need no search.  The degree certificate (the count behind
Henneberg's type-1 move, Lee & Streinu 2008): let e = wx be a non-loop
edge and A the accepted set.  If w has fewer than k edges in A, none a
loop and none to x, then A + e is (k,l)-sparse for every 0 <= l < 2k.
Take X with w and x in it and X' = X - w; w's edges inside X number at
most k after e is added.  For |X'| >= 2, i(X) <= k|X'| - l + k = k|X| - l.
For X' = {x}, only e joins w to x, so i(X) <= i({x}) + 1 <= 2k - l, since
i({x}) <= k - l for l <= k, and no loop exists for l > k.  Also indeg(w) <=
k - 1, so the arc goes in with no reversal.  When the endpoints' indegree
sum demands a drain and an endpoint passes this test, the engine inserts
the arc at once and counts it in ``certified_accepts``.  It cannot fire at
l = 0, where the drain starts only with both endpoints at indegree k.

A failed search certifies a tight block through u and v: a node set X
with no arc entering from outside and every node but the endpoints at
indegree k, so X induces k|X| - l accepted edges, and stays tight as more
are accepted.  The engine records the maximal one,
:meth:`~klsparse.orientation.InnerDigraph.maximal_block` (every node that
no deficient node other than u and v reaches, as in Lee & Streinu's
component detection), in one block store, and rejects a later edge inside
a recorded block (or a loop at a node of one) with zero traversal.  So
each rigid region costs one failed search and one probe, not one failed
search per edge in it.

Blocks also grow on acceptance.  If B is a stored tight block and a node w
outside it has k accepted edges into B, then B + w is tight:
i(B + w) >= k|B| - l + k = k|B + w| - l, for every 0 <= l <= 2k.  After
each accepted edge whose endpoints have different owner blocks the loop
counts the edge for each endpoint against the other's block, and at the
k-th edge :meth:`ComponentSet.grow` adds the node, so its later edges into
the block are covered instead of searched.  A record credits the edges
already there: each node it adds to a block, new or moved in by a merge,
has its accepted edges walked, and every endpoint outside the block counts
toward it in the same tallies, joining at its k-th; the nodes such a join
adds are walked in turn.  A node enters a given block id once and ids are
never reused, so each (accepted edge, block) pair counts at most once, and
a count that restarts when a node's edges switch blocks can fall short but
never over.  A node that joins at its k-th counted edge is not walked, so
the edges it held before it joined still go uncounted.

The order comes from a :class:`Strategy`, the protocol the engine loop
drives: next edge, preferred arc head, verdict callback.  Its one cursor
over an edge sequence, ``_FixedOrder``, runs explicit orders, the weight
order and the l = 2k storage order; the heuristic Basic is the same cursor
over a seeded permutation (:mod:`klsparse.heuristics` holds the catalog).
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Collection
from dataclasses import dataclass, field
from itertools import compress

from .multigraph import Multigraph
from .orientation import (
    InnerDigraph,
    Instrumentation,
    InvariantError,
    ReversalBoundError,  # noqa: F401 - re-exported: drain raises it
)


class WrongRegimeError(ValueError):
    """The operation requires l < 2k (or l = 2k, for the 2k-only path)."""


class UnweightedInputError(ValueError):
    """Weighted extraction was asked for a graph without weights."""


class Reason(enum.Enum):
    """Why an edge got its verdict."""

    ACCEPTED = "accepted"
    INDEGREE_BLOCKED = "indegree-blocked"
    COVERED_BY_COMPONENT = "covered-by-component"
    EARLY_TERMINATED = "early-terminated"


@dataclass(frozen=True)
class SparsityParams:
    """The pair (k, l) of integers with k >= 1 and 0 <= l <= 2k; anything
    else (a float or a bool included) raises ``ValueError``."""

    k: int
    l: int

    def __post_init__(self) -> None:
        for name, value in (("k", self.k), ("l", self.l)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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

    def ceiling(self, u: int, v: int) -> int:
        """Edge uv is acceptable once indeg(u) + indeg(v) is below this
        (a loop counting its node twice): 2k - l, or 2(k - l) for a loop."""
        return 2 * (self.k - self.l) if u == v else 2 * self.k - self.l

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


# reason codes, as stored per edge id in ExtractionReport: index into _REASONS
_REASONS = tuple(Reason)
_CODE = {reason: code for code, reason in enumerate(_REASONS)}
_ACCEPTED = _CODE[Reason.ACCEPTED]
_BLOCKED = _CODE[Reason.INDEGREE_BLOCKED]
_COVERED = _CODE[Reason.COVERED_BY_COMPONENT]
_EARLY_TERMINATED = _CODE[Reason.EARLY_TERMINATED]


class StrategyContractError(InvariantError):
    """A strategy's order broke the engine's contract: it yielded an edge
    already processed, or it ended with edges unprocessed while more could
    be accepted."""


def _name(strategy) -> str:
    return getattr(strategy, "name", "") or type(strategy).__name__


@dataclass
class ExtractionReport:
    """Outcome of one extraction run.

    ``accepted`` is the accepted edge-id set and ``order`` the processed
    edge ids in processing order; ``counters`` is the run's one
    :class:`Instrumentation`, made by the engine's digraph.  Per-edge
    outcomes are kept compact: a reason code per edge id and the non-zero
    reversal counts, written by :meth:`PebbleEngine.run` (and
    :meth:`PebbleEngine.preaccept`), the one recording path of both
    engines.  Codes start at EARLY_TERMINATED, so
    the edges past the tight size need no write at all.  :class:`Verdict`
    objects exist only on read: ``verdicts`` builds them from these
    records.  The classification flags are filled by
    :func:`decide` and stay None otherwise.

    A run that stops at the tight size never examines the remaining
    edges, so no order is theirs: ``order`` lists them after the examined
    edges in id order, from their codes, on first read.
    """

    params: SparsityParams
    n: int
    m: int
    counters: Instrumentation
    accepted: set[int] = field(default_factory=set)
    total_weight: float | None = None
    is_sparse: bool | None = None
    is_tight: bool | None = None
    is_spanning: bool | None = None

    def __post_init__(self) -> None:
        self._order: list[int] = []
        self._reasons = bytearray([_EARLY_TERMINATED]) * self.m
        self._reversals: dict[int, int] = {}

    @property
    def accepted_count(self) -> int:
        return len(self.accepted)

    @property
    def order(self) -> list[int]:
        """Processed edge ids in processing order, the never-examined
        edges of an early-terminated run last, in id order."""
        order = self._order
        if self.counters.early_termination_hit and len(order) < self.m:
            order += compress(range(self.m),
                              map(_EARLY_TERMINATED.__eq__, self._reasons))
        return order

    def reason_counts(self) -> dict[Reason, int]:
        """Number of edges per verdict reason (every reason listed, zeros
        included), by their codes."""
        return {reason: self._reasons.count(code)
                for code, reason in enumerate(_REASONS)}

    @property
    def verdicts(self) -> list[Verdict]:
        """One :class:`Verdict` per processed edge, in processing order."""
        reasons, reversals = self._reasons, self._reversals
        return [
            Verdict(e, reasons[e] == _ACCEPTED, reversals.get(e, 0),
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
    at most one node for k < l < 2k and at most two for l = 2k.

    Each node has one owner: the id of a block holding it, or -1.  The ids
    of its further blocks, which exist only for l > k, live in a dict of
    sets keyed by the few nodes that lie in two or more blocks.  A
    coverage query is then one comparison of owners, and intersects id
    sets only at such a node.  A record counts its nodes in each block it
    meets by one set difference per block, drops the nodes already in its
    target block by one more, and spends per-node Python work only on
    nodes that change block, lie in several blocks or lie in none.  A
    :meth:`grow` by one node runs the same union check from the grown
    block, or none when the node lies in no block.  Both return the block
    the nodes joined and the nodes it gained, or None when it gained none:
    the engine credits those nodes' accepted edges
    (:meth:`PebbleEngine._credit`).
    """

    def __init__(self, n: int, params: SparsityParams) -> None:
        self.params = params
        k, l = params.k, params.l
        self._threshold = 1 if l <= k else 2 if l < 2 * k else 3
        self._owner: list[int] = [-1] * n
        self._extra: dict[int, set[int]] = {}
        self._block_nodes: dict[int, set[int]] = {}
        self._next_id = 0

    def covers(self, u: int, v: int) -> bool:
        """True when one recorded block contains both u and v (for a
        loop, when u lies in any block)."""
        owner = self._owner
        c = owner[u]
        if c < 0:
            return False
        d = owner[v]
        if c == d:
            return True
        extra = self._extra
        if d < 0 or not (u in extra or v in extra):
            return False
        ids = extra.get(u, set()) | {c}
        return d in ids or not ids.isdisjoint(extra.get(v, ()))

    def record(self, nodes) -> tuple[int, set[int]] | None:
        """Merge a tight node set into the records (singletons ignored).

        Returns :meth:`_merge`'s ``(block id, nodes added)``, or None when
        no node joined a block."""
        pending = set(nodes)
        if len(pending) >= 2:
            return self._merge(pending, -1, set())
        return None

    def grow(self, c: int, w: int) -> tuple[int, Collection[int]] | None:
        """Add node ``w`` to block ``c``, which stays tight with it once
        ``w`` has k accepted edges into ``c`` (the module docstring's growth
        rule).  Returns None at once when ``c`` is no longer a block id or
        already holds ``w``.  A ``w`` in no block joins in O(1) and returns
        ``(c, (w,))``, a tuple, which costs the engine's frequent calls less
        than a set; any other runs :meth:`record`'s union check from the
        grown block and returns as :meth:`record` does."""
        members = self._block_nodes.get(c)
        if members is None or w in members:
            return None
        if self._owner[w] < 0:
            self._owner[w] = c
            members.add(w)
            return c, (w,)
        return self._merge({w}, c, members)

    def _merge(self, pending: set[int], target: int,
               members: set[int]) -> tuple[int, set[int]] | None:
        """Join the ``pending`` nodes to block ``target`` (-1: a new block)
        with node set ``members``, merging every block that the grown block
        meets in the union threshold, until none does.

        Returns the id of the block the nodes joined and the nodes that
        block did not hold before, those moved in from merged blocks
        included; None when there are none."""
        owner = self._owner
        extra = self._extra
        block_nodes = self._block_nodes
        threshold = self._threshold
        while True:
            # the blocks pending meets, with the pending nodes in each: a
            # node of several blocks counts for each of them; the first node
            # met of any other block is counted with the rest of that block
            # in pending by one set difference, over the smaller set
            met: dict[int, int] = {}
            multi = extra.keys() & pending if extra else ()
            for x in multi:
                for c in (owner[x], *extra[x]):
                    met[c] = met.get(c, 0) + 1
            rest = pending.difference(multi)
            while rest:
                c = owner[rest.pop()]
                if c >= 0:
                    left = len(rest)
                    block = block_nodes[c]
                    if len(block) < left:
                        rest -= block
                    else:
                        rest = rest - block
                    met[c] = met.get(c, 0) + 1 + left - len(rest)
            merging = []
            for c, shared in met.items():
                if (shared >= threshold
                        or shared + len(members & block_nodes[c]) >= threshold):
                    merging.append(c)
            if not merging:
                break
            settled = len(merging) == len(met)
            if target >= 0:
                merging.append(target)
            target = (max(merging, key=lambda c: len(block_nodes[c]))
                      if len(merging) > 1 else merging[0])
            members = block_nodes[target]
            for c in merging:
                if c != target:
                    moved = block_nodes.pop(c)
                    self._forget(c, moved)
                    pending |= moved
                    settled = False
            pending = pending - members
            if settled:
                # every block met joined and no node moved: the rest of
                # pending lies in no block, so the fixpoint is reached
                break
        if not pending:
            return None
        if target < 0:
            target = self._next_id
            self._next_id += 1
            members = block_nodes[target] = set()
        members |= pending
        for x in pending:
            if owner[x] < 0:
                owner[x] = target
            else:
                extra.setdefault(x, set()).add(target)
        return target, pending

    def _forget(self, c: int, nodes: set[int]) -> None:
        """Drop block id ``c`` from the ids of each of its ``nodes``."""
        owner = self._owner
        extra = self._extra
        for x in nodes:
            more = extra.get(x)
            if owner[x] == c:
                owner[x] = more.pop() if more else -1
            else:
                more.remove(c)
            if more is not None and not more:
                del extra[x]

    def components(self) -> list[list[int]]:
        """Sorted node lists of the recorded blocks."""
        return sorted(sorted(nodes) for nodes in self._block_nodes.values())


class Strategy:
    """The protocol :meth:`PebbleEngine.run` drives.

    ``next_edge`` yields unprocessed edge ids (None when drained);
    ``orient`` may name a preferred arc head for an accepted edge
    (None defers to the engine's smaller-indegree rule);
    ``on_processed`` receives the verdict for bookkeeping.
    :func:`~klsparse.heuristics.make_strategy` sets ``name`` to the
    catalog name.

    Contract: called until it returns None, ``next_edge`` yields every
    edge not yet processed exactly once, and ``graph`` and ``params``,
    where set, are the engine's.  The engine checks the second part
    before the run, and during it refuses an edge yielded twice and an
    order that ends early.  Once the engine stops at the tight size it
    asks the strategy for nothing more.

    ``start`` binds what the order reads from the engine (the indegree
    orders also bind its live indegrees), then begins the order over the
    engine's processed flags with ``restart``.  ``restart(flags)`` makes
    all of a run's order state afresh, over the edges not set in
    ``flags``; phase one's union scan restarts its second phase's order
    this way, once per structure, on flags of its own.
    """

    name = ""

    def __init__(self, graph: Multigraph, params: SparsityParams, seed: int = 0) -> None:
        self.graph = graph
        self.params = params
        self.seed = seed

    def start(self, engine: PebbleEngine) -> None:
        self.restart(engine.processed)

    def restart(self, flags) -> None:
        self._processed = flags

    def next_edge(self) -> int | None:
        raise NotImplementedError

    def orient(self, u: int, v: int) -> int | None:
        return None

    def on_processed(self, edge: int, accepted: bool) -> None:
        pass


class _FixedOrder(Strategy):
    """The one cursor over an edge sequence: each edge of ``sequence``
    not yet processed, in turn, with the default orientation rule.  It is
    the weight order of :func:`extract_weighted`, the storage order of the
    l = 2k pass and the explicit orders of :func:`extract`, and the
    heuristic Basic is this cursor over a seeded permutation."""

    def __init__(self, sequence: list[int], graph=None, params=None, seed=0) -> None:
        super().__init__(graph, params, seed)
        self._sequence = sequence

    def restart(self, flags) -> None:
        super().restart(flags)
        self._pos = 0

    def next_edge(self) -> int | None:
        seq = self._sequence
        processed = self._processed
        while self._pos < len(seq):
            e = seq[self._pos]
            self._pos += 1
            if not processed[e]:
                return e
        return None


class PebbleEngine:
    """Streaming acceptance engine for one graph and one (k, l) pair.

    Drives a strategy's edge order through :meth:`try_accept`, maintaining
    the inner digraph, the processed flags shared with the strategy, the
    block store fed by failed searches and grown on acceptance, and the
    early-termination cutoff at max(k*n - l, 0) arcs, where :meth:`run`
    stops.  This class decides l < 2k;
    :class:`~klsparse.sparse2k.TwoKEngine` configures it for l = 2k with
    its own :meth:`try_accept` and no cutoff.
    """

    augmenting = True  # False in the l = 2k configuration

    def __init__(self, graph: Multigraph, params: SparsityParams) -> None:
        if self.augmenting:
            params.require_augmenting_regime()
        self.graph = graph
        self.params = params
        self.digraph = InnerDigraph(graph.n, params.k)
        self.processed = [False] * graph.m
        self.blocks = ComponentSet(graph.n, params)
        self.report = ExtractionReport(params=params, n=graph.n, m=graph.m,
                                       counters=self.digraph.counters)
        # arc count at which run stops: no further edge can be accepted
        self._stop = params.tight_size(graph.n)
        # try_accept's per-edge constants: the pair and loop ceilings of
        # SparsityParams.ceiling
        self._pair_ceiling = params.ceiling(0, 1)
        self._loop_ceiling = params.ceiling(0, 0)
        # per node w: the block its latest counted accepted edges enter, and
        # how many they are (run and _credit count; see _credit)
        self._tally_block = [-1] * graph.n
        self._tally = [0] * graph.n

    def try_accept(self, e: int, preferred_head: int | None = None) -> int:
        """Process edge ``e``: drain its endpoints below the ceiling of
        :meth:`SparsityParams.ceiling`, inserting the arc on success.

        A non-loop edge whose indegree sum reaches its ceiling skips the
        drain when the degree certificate holds (module docstring): an
        endpoint with fewer than k accepted edges, none a loop and none to
        the other endpoint.  The edge is then accepted with 0 reversals, and
        the arc rule below finds that endpoint, or another, below k.

        Returns the path reversals performed, r >= 0, when ``e`` is
        accepted and -1 - r when it is rejected.  The caller checks block
        coverage first; a failed drain records the maximal block through
        the endpoints and credits the accepted edges of the nodes the
        record adds (:meth:`_credit`).
        Reversals performed before a rejection are kept; they only reorient
        the same accepted set.  ``preferred_head`` is honoured if its
        indegree allows, otherwise the other endpoint takes the arc.  The
        ceilings are read once, when the engine is built.
        """
        g = self.graph
        u = g.edge_u[e]
        v = g.edge_v[e]
        ceiling = self._loop_ceiling if u == v else self._pair_ceiling
        if ceiling <= 0:
            # a loop at l >= k: no orientation can ever take it
            return -1
        digraph = self.digraph
        indeg = digraph.indeg
        if u != v and indeg[u] + indeg[v] >= ceiling and self._certified(u, v):
            digraph.counters.certified_accepts += 1
            reversals = 0
        else:
            reversals = digraph.drain(u, v, ceiling)
            if reversals < 0:
                self._credit(self.blocks.record(digraph.maximal_block(u, v)))
                return reversals
        if preferred_head is not None and indeg[preferred_head] < digraph.k:
            head = preferred_head
        else:
            # default rule (and fallback): smaller indegree takes the arc,
            # ties to the smaller id; that endpoint is below k because the
            # indegree sum is below 2k (a loop's one node is below k - l)
            head = u if (indeg[u], u) <= (indeg[v], v) else v
        digraph.insert_arc(u + v - head, head)
        return reversals

    def _certified(self, u: int, v: int) -> bool:
        """The degree certificate for the non-loop edge uv: an endpoint w
        with fewer than k accepted edges, none a loop and none to the other
        endpoint (the module docstring's proof)."""
        digraph = self.digraph
        inc = digraph.inc
        arc_tail = digraph.arc_tail
        arc_head = digraph.arc_head
        k = digraph.k
        for w, x in ((u, v), (v, u)):
            arcs = inc[w]
            if len(arcs) < k:
                for a in arcs:
                    # the arc's other end: w itself for a loop
                    y = arc_tail[a] + arc_head[a] - w
                    if y == w or y == x:
                        break
                else:
                    return True
        return False

    def _credit(self, joined: tuple[int, Collection[int]] | None) -> None:
        """Count the accepted edges that nodes joining a block already hold.

        ``joined`` is a ``(block id, nodes added)`` pair as
        :meth:`ComponentSet.record` and :meth:`ComponentSet.grow` return
        it, or None.  Each accepted edge xy of an added node x, with y
        outside the block, counts for y toward the block in the tallies of
        :meth:`run`, and y joins by :meth:`ComponentSet.grow` at its k-th
        counted edge; the nodes grow adds are credited in turn, from a work
        list.  Sound because a node enters a given block id once and ids
        are never reused: an edge accepted before x joined counts here, one
        accepted after in :meth:`run`, so each (accepted edge, block) pair
        counts at most once, and a tally that restarts only under-counts.
        """
        if joined is None:
            return
        blocks = self.blocks
        block_nodes = blocks._block_nodes
        grow = blocks.grow
        digraph = self.digraph
        inc, arc_tail, arc_head = digraph.inc, digraph.arc_tail, digraph.arc_head
        tally_block, tally = self._tally_block, self._tally
        k = digraph.k
        work = [joined]
        while work:
            c, added = work.pop()
            members = block_nodes.get(c)
            if members is None:
                # merged into another block since: its nodes were credited
                # toward that one
                continue
            for x in added:
                for a in inc[x]:
                    y = arc_tail[a] + arc_head[a] - x
                    if y in members:
                        continue
                    t = tally[y] + 1 if tally_block[y] == c else 1
                    tally_block[y] = c
                    tally[y] = t
                    if t == k:
                        grown = grow(c, y)
                        if grown is not None:
                            work.append(grown)
                if c not in block_nodes:
                    # c merged into a larger block: the rest of its nodes
                    # moved with it and are credited toward that block
                    break

    def preaccept(self, e: int, tail: int, head: int) -> None:
        """Record ``e`` as accepted with a caller-supplied orientation.

        Used in ``start`` by two-phase strategies whose first phase is
        sparse by construction, so :meth:`run` counts the edge; the
        indegree bound is still enforced on insert.
        """
        self.digraph.insert_arc(tail, head)
        self.processed[e] = True
        report = self.report
        report._order.append(e)
        report._reasons[e] = _ACCEPTED
        report.accepted.add(e)

    def run(self, strategy) -> ExtractionReport:
        """Drive ``strategy``'s edge order through the engine.

        Each edge's outcome goes straight into the report's records: an
        edge inside a recorded block is rejected with no further call, any
        other goes through :meth:`try_accept`.  An accepted edge from a
        block to a node outside it counts toward that node joining the
        block, by :meth:`ComponentSet.grow` at its k-th such edge, in the
        tallies :meth:`_credit` also counts in when a record adds nodes.

        Once the digraph holds max(k*n - l, 0) arcs no further edge can be
        accepted, so the run stops there (the l = 2k configuration stops
        only at m arcs, so it examines every edge).  The counters count
        the remaining edges as processed and set the early-termination
        flag; the report lists them last in ``order``, in id order.

        Raises ``ValueError`` before the run when ``strategy`` was made for
        another graph or (k, l) pair (one whose ``graph`` or ``params`` is
        set and differs from the engine's), and
        :class:`StrategyContractError` when its order yields an edge
        already processed or ends below the stop value with edges left
        unprocessed.
        """
        for name, mine in (("graph", self.graph), ("params", self.params)):
            theirs = getattr(strategy, name, None)
            if theirs is not None and theirs is not mine and theirs != mine:
                raise ValueError(
                    f"{_name(strategy)} was made for {name} {theirs!r}, "
                    f"not the engine's {mine!r}"
                )
        report = self.report
        order = report._order
        reasons = report._reasons
        reversals_of = report._reversals
        accepted = report.accepted
        strategy.start(self)
        edge_u, edge_v = self.graph.edge_u, self.graph.edge_v
        arcs = self.digraph.arc_tail
        stop = self._stop
        processed = self.processed
        blocks = self.blocks
        covers = blocks.covers
        grow = blocks.grow
        owner = blocks._owner
        k = self.params.k
        # block ids are never reused, so a stale tally entry only
        # under-counts
        tally_block = self._tally_block
        tally = self._tally
        try_accept = self.try_accept
        next_edge = strategy.next_edge
        orient = strategy.orient
        on_processed = strategy.on_processed
        while len(arcs) < stop:
            e = next_edge()
            if e is None:
                break
            if processed[e]:
                raise StrategyContractError(
                    f"{_name(strategy)} yielded edge {e}, already processed"
                )
            u = edge_u[e]
            v = edge_v[e]
            head = orient(u, v)
            processed[e] = True
            order.append(e)
            if covers(u, v):
                reasons[e] = _COVERED
                on_processed(e, False)
                continue
            r = try_accept(e, head)
            ok = r >= 0
            if ok:
                reasons[e] = _ACCEPTED
                accepted.add(e)
                c = owner[u]
                d = owner[v]
                if c != d:
                    # an endpoint in a block: count the edge for the other
                    # endpoint, which joins that block at its k-th counted
                    # edge (a loop has one owner, so it never counts)
                    if c >= 0:
                        t = tally[v] + 1 if tally_block[v] == c else 1
                        tally_block[v] = c
                        tally[v] = t
                        if t == k:
                            grow(c, v)
                    if d >= 0:
                        t = tally[u] + 1 if tally_block[u] == d else 1
                        tally_block[u] = d
                        tally[u] = t
                        if t == k:
                            grow(d, u)
            else:
                reasons[e] = _BLOCKED
                r = -1 - r
            if r:
                reversals_of[e] = r
            on_processed(e, ok)
        rest = report.m - len(order)
        if rest > 0 and len(arcs) < stop:
            raise StrategyContractError(
                f"{_name(strategy)} ended its order with {rest} edge(s) "
                "unprocessed"
            )
        # the edges past the tight size count as processed, early-terminated;
        # the accepted count includes the edges two-phase strategies
        # preaccept in ``start``
        counters = report.counters
        counters.edges_processed = report.m
        counters.edges_accepted = len(accepted)
        if rest > 0:
            counters.early_termination_hit = 1
        return report


def extract(graph: Multigraph, params: SparsityParams, order=None) -> ExtractionReport:
    """Extract a maximum-size (k,l)-sparse subgraph, l < 2k.

    ``order`` is a heuristic strategy or an explicit edge-id sequence,
    a permutation of ``range(m)`` (default: Basic with seed 0); the
    accepted cardinality is order-independent, the work done is not.
    """
    strategy = resolve_order(order, graph, params, "Basic")
    return PebbleEngine(graph, params).run(strategy)


def resolve_order(order, graph: Multigraph, params: SparsityParams, default: str):
    """The strategy an ``order`` argument names: the ``default`` heuristic
    (seed 0) for None, a :class:`_FixedOrder` for an explicit edge-id
    sequence, and the object itself when it is already a strategy.

    An explicit sequence must hold every edge id in ``range(m)`` exactly
    once, each an integer and not a bool; otherwise ``ValueError`` names
    the first bad entry (or the first id left out)."""
    if order is None:
        from .heuristics import make_strategy

        return make_strategy(default, graph, params)
    if hasattr(order, "next_edge"):
        return order
    m = graph.m
    seen = bytearray(m)
    sequence = []
    for i, item in enumerate(order):
        try:
            if isinstance(item, bool):
                raise TypeError
            e = operator.index(item)
        except TypeError:
            raise ValueError(f"order entry {i} is {item!r}, not an edge id") from None
        if not 0 <= e < m:
            raise ValueError(f"order entry {i} is {e}, not an edge id in range({m})")
        if seen[e]:
            raise ValueError(f"order entry {i} repeats edge {e}")
        seen[e] = 1
        sequence.append(e)
    if len(sequence) < m:
        raise ValueError(f"order leaves out edge {seen.index(0)}")
    return _FixedOrder(sequence)


def extract_weighted(graph: Multigraph, params: SparsityParams) -> ExtractionReport:
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
    report = PebbleEngine(graph, params).run(_FixedOrder(sequence))
    report.total_weight = sum(weights[e] for e in report.accepted)
    return report


def decide(graph: Multigraph, params: SparsityParams) -> ExtractionReport:
    """Classify the graph: fills is_sparse / is_tight / is_spanning.

    sparse: every edge accepted; spanning: the accepted subgraph reaches
    max(k*n - l, 0) edges; tight: sparse with exactly that many edges.

    For l < 2k the edges are processed in the Transp order (seed 0), not
    :func:`extract`'s default Basic: the flags and the accepted count
    depend only on the matroid rank, so any order gives the same answer,
    and Transp reaches the tight size after far fewer edges (on
    G(600, 0.1, seed 1000) at (2,3), strategy seed 0: 1,199 edges and 1.5k
    node visits, against NInDegMin's 2,905 edges and 6.8k visits and
    Basic's 17,707 edges and 3.0k visits; ``tools/order_table.py``
    compares the orders on more inputs).  The accepted set, the verdicts
    and the counters do follow the order.

    For l = 2k the accepted sets form no matroid, so spanning is not
    decided and stays None; one maximal pass of
    :func:`~klsparse.sparse2k.extract_maximal_2k` decides sparse and
    tight, since every subgraph of a sparse graph is sparse.
    """
    tight_size = params.tight_size(graph.n)
    if params.is_augmenting_regime:
        strategy = resolve_order(None, graph, params, "Transp")
        report = extract(graph, params, strategy)
        report.is_spanning = len(report.accepted) == tight_size
    else:
        from .sparse2k import extract_maximal_2k

        report = extract_maximal_2k(graph, params.k)
    report.is_sparse = len(report.accepted) == graph.m
    report.is_tight = report.is_sparse and graph.m == tight_size
    return report
