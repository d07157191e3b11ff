"""Inclusion-wise maximal (k,2k)-sparse subgraphs of simple graphs.

At l = 2k the counting bound constrains only node sets of size >= 3, the
accepted sets no longer form a matroid, and the augmenting engine's
acceptance test stops being meaningful, so this path targets maximality
instead of maximum size.  Per edge uv, the digraph is first reoriented so
both endpoints reach indegree 0 (at most 2k reversals); uv is then
insertable exactly when every other node can still reach spare capacity:
a forward search from the nodes of indegree below k (u and v excluded)
must cover all of V minus {u, v}.  Accepted arcs point at the larger
endpoint id.  One pass over the edges yields an inclusion-wise maximal
(k,2k)-sparse subgraph.

A failed search exposes a tight block: the nodes it did not reach, with
u and v, are saturated off the endpoints and entered by no arc from the
reached side, so they induce k|X| - 2k accepted edges on |X| >= 3 nodes.
The engine records each one in the block store shared with
:class:`~klsparse.pebble.PebbleEngine` and rejects a later edge inside a
recorded block with no zeroing and no search.  So the forward reach,
O(n + m) each, runs only for accepted edges and for rejections that
create or grow a block; every other edge costs one coverage query.
"""

from __future__ import annotations

from .multigraph import Multigraph
from .orientation import InnerDigraph, Instrumentation
from .pebble import (
    ComponentSet,
    ExtractionReport,
    Reason,
    ReversalBoundError,
    SparsityParams,
    Verdict,
)


class NotSimpleInputError(ValueError):
    """The l = 2k path is defined for simple graphs only."""


class OrientationInfeasibleError(RuntimeError):
    """Zeroing an endpoint indegree failed; impossible on a digraph built
    by this engine, so it signals a corrupted orientation state."""


def _zeroing_bound(k: int) -> int:
    """Most reversals zeroing both endpoints can take: k per endpoint."""
    return 2 * k


def zero_pair_indegrees(digraph: InnerDigraph, u: int, v: int) -> int:
    """Reverse paths until indeg(u) = indeg(v) = 0, first u then v.

    While draining one endpoint the other is forbidden as a path source,
    so arcs never pile up on it and the total stays at most 2k reversals.
    """
    reversals = 0
    for target, other in ((u, v), (v, u)):
        while digraph.indeg[target] > 0:
            path = digraph.find_reversal_path((target,), forbidden_sources=(other,))
            if path is None:
                raise OrientationInfeasibleError(
                    f"cannot drain indegree of node {target}"
                )
            digraph.reverse(path)
            reversals += 1
    bound = _zeroing_bound(digraph.k)
    if reversals > bound:
        raise ReversalBoundError(
            f"zeroing nodes {u} and {v} took {reversals} reversals, bound {bound}"
        )
    return reversals


def insertable(digraph: InnerDigraph, u: int, v: int) -> bool:
    """Insertability test for edge uv once both endpoints sit at
    indegree 0: every node but u and v must be forward-reachable from a
    node of indegree below k outside {u, v}."""
    indeg = digraph.indeg
    k = digraph.k
    reached = digraph.multi_source_forward_reach(
        lambda x: indeg[x] < k, excluded=(u, v)
    )
    return len(reached) == digraph.n - 2


class TwoKEngine:
    """One-pass maximality engine for l = 2k on a simple graph, with the
    tight blocks exposed by failed searches in ``blocks``."""

    def __init__(
        self,
        graph: Multigraph,
        k: int,
        counters: Instrumentation | None = None,
    ) -> None:
        self.params = SparsityParams(k, 2 * k)
        seen: set[tuple[int, int]] = set()
        for e in range(graph.m):
            u, v = graph.edge_u[e], graph.edge_v[e]
            if u == v:
                raise NotSimpleInputError(f"loop at node {u} (edge {e})")
            if (u, v) in seen:
                raise NotSimpleInputError(
                    f"parallel edges between {u} and {v} (edge {e})"
                )
            seen.add((u, v))
        self.graph = graph
        self.counters = counters if counters is not None else Instrumentation()
        self.digraph = InnerDigraph(graph.n, k, self.counters)
        self.blocks = ComponentSet(graph.n, self.params)
        self.report = ExtractionReport(
            params=self.params, n=graph.n, m=graph.m, counters=self.counters
        )

    def process(self, e: int) -> Verdict:
        u, v = self.graph.edge_u[e], self.graph.edge_v[e]
        digraph = self.digraph
        if self.blocks.covers(u, v):
            verdict = Verdict(e, False, 0, Reason.COVERED_BY_COMPONENT)
        else:
            reversals = zero_pair_indegrees(digraph, u, v)
            if insertable(digraph, u, v):
                # arc toward the larger id (v, by canonical endpoint storage)
                digraph.insert_arc(e, u, v)
                verdict = Verdict(e, True, reversals, Reason.ACCEPTED)
            else:
                # the reach's stamps still mark u, v and every reached node
                self.blocks.record(digraph.unstamped() + [u, v])
                verdict = Verdict(e, False, reversals, Reason.INDEGREE_BLOCKED)
        self.report.record(verdict)
        return verdict

    def run(self) -> ExtractionReport:
        for e in range(self.graph.m):
            self.process(e)
        return self.report


def extract_maximal_2k(
    graph: Multigraph,
    k: int,
    counters: Instrumentation | None = None,
) -> ExtractionReport:
    """Extract an inclusion-wise maximal (k,2k)-sparse subgraph of a
    simple graph, processing edges in storage order."""
    return TwoKEngine(graph, k, counters).run()
