"""Inclusion-wise maximal (k,2k)-sparse subgraphs of simple graphs.

At l = 2k the counting bound constrains only node sets of size >= 3, the
accepted sets no longer form a matroid, and the augmenting engine's
acceptance test stops being meaningful, so this path targets maximality
instead of maximum size.  Per edge uv, the digraph is first reoriented so
both endpoints reach indegree 0 (at most 2k reversals, by the one
augmentation routine :meth:`~klsparse.orientation.InnerDigraph.drain`).
Then uv is insertable exactly when every other node can still be reached
from spare capacity, i.e. from a node of indegree below k outside {u, v}.
Only the saturated out-neighbours of u and v need checking: the unreached
nodes other than u and v are saturated and entered only from themselves,
u and v, so if none had an arc from u or v they would induce k arcs per
node, which a simple (k,2k)-sparse graph cannot hold.  Each such neighbour w
gets one backward search (the pebble game's search of Lee & Streinu,
2008) with u and v forbidden as sources; uv is insertable exactly when
every one of them finds a node of indegree below k.  Within one test the
nodes on a path an earlier search found are known to be reached, so later
searches stop at them and a neighbour among them is skipped.  Accepted
arcs point at the larger endpoint id.  One pass over the edges yields an
inclusion-wise maximal (k,2k)-sparse subgraph.

The pass is a configuration of :class:`~klsparse.pebble.PebbleEngine`:
:class:`TwoKEngine` supplies the test above as its ``try_accept`` and
runs the shared loop, which writes the verdicts, over the order it is
given: storage order (a ``_FixedOrder`` of all edge ids) in
:func:`extract_maximal_2k`.  It has no early stop: the loop's stop value
is m arcs, so every edge is examined.

A failed probe exposes a tight block: the closure of w is saturated off
the endpoints and entered by no arc from outside, so with u and v it
induces k|X| - 2k accepted edges on |X| >= 3 nodes.  The engine records
each one in the block store shared with
:class:`~klsparse.pebble.PebbleEngine` and rejects a later edge inside a
recorded block with no zeroing and no search.

Cost per examined edge: at most 2k zeroing searches, plus at most one
probe per saturated out-neighbour of u or v.  Every search stops at the
first deficient node it meets and visits at most n nodes over at most kn
arcs, O(n + kn) in the worst case; probes are usually far shorter.  This
is the bound the code achieves, not one taken from the paper.  (A global
forward reach from every deficient node, the test this replaces, costs
Theta(n + kn) on every examined edge.)  Covered edges cost one coverage
query.
"""

from __future__ import annotations

from operator import eq

from .multigraph import Multigraph
from .orientation import InnerDigraph, InvariantError
from .pebble import (
    ExtractionReport,
    PebbleEngine,
    SparsityParams,
    _FixedOrder,
)


class NotSimpleInputError(ValueError):
    """The l = 2k path is defined for simple graphs only."""


class OrientationInfeasibleError(InvariantError):
    """Zeroing an endpoint indegree failed; impossible on a digraph built
    by this engine, so it signals a corrupted orientation state."""


def zero_pair_indegrees(digraph: InnerDigraph, u: int, v: int) -> int:
    """Reverse paths until indeg(u) = indeg(v) = 0, first u then v.

    Each endpoint is one :meth:`~klsparse.orientation.InnerDigraph.drain`
    with ceiling 1 (its indegree counted twice, as for a loop), which takes
    at most k reversals and checks that bound itself.  While draining one
    endpoint the other is forbidden as a path source, so arcs never pile up
    on it and the total stays at most 2k reversals.
    """
    reversals = 0
    for target, other in ((u, v), (v, u)):
        r = digraph.drain(target, target, 1, (other,))
        if r < 0:
            raise OrientationInfeasibleError(
                f"cannot drain indegree of node {target}"
            )
        reversals += r
    return reversals


def insertable(digraph: InnerDigraph, u: int, v: int) -> bool:
    """Insertability test for edge uv once both endpoints sit at
    indegree 0: every saturated out-neighbour w of u or v must have a
    backward path from a node of indegree below k outside {u, v}.

    Probes the neighbours one backward search each, u's arcs first, and
    stops at the first failure, leaving that search's closure (holding w
    and never deficient off u and v) in ``digraph.last_closure``.  Nodes on
    the path a probe found are reached as well, so later probes stop at
    them and skip a neighbour among them.  Costs at most one search per
    saturated out-neighbour, each O(n + kn) at worst.
    """
    indeg = digraph.indeg
    arc_head = digraph.arc_head
    k = digraph.k
    endpoints = (u, v)
    reached: set[int] = set()
    for x in endpoints:
        # at indegree 0 every arc at x leaves x
        for a in digraph.inc[x]:
            w = arc_head[a]
            if indeg[w] == k and w not in reached:
                closure = digraph.saturated_closure((w,), endpoints, reached)
                if closure is not None:
                    digraph.last_closure = closure
                    return False
    return True


class TwoKEngine(PebbleEngine):
    """One-pass maximality engine for l = 2k on a simple graph: the
    :class:`~klsparse.pebble.PebbleEngine` loop and records with its own
    :meth:`try_accept` and no early stop, with the tight blocks exposed by
    failed probes in ``blocks``."""

    augmenting = False

    def __init__(self, graph: Multigraph, k: int) -> None:
        edge_u, edge_v = graph.edge_u, graph.edge_v
        if any(map(eq, edge_u, edge_v)) or len(set(zip(edge_u, edge_v))) < graph.m:
            _raise_first_non_simple_edge(graph)
        super().__init__(graph, SparsityParams(k, 2 * k))
        # no early stop: the digraph holds m arcs only once every edge
        # has been accepted
        self._stop = graph.m

    def try_accept(self, e: int, preferred_head: int | None = None) -> int:
        """Zero both endpoints of ``e``, then insert its arc if insertable.

        Returns the zeroing reversals r >= 0 when ``e`` is accepted and
        -1 - r when it is rejected, after recording the failed probe's
        closure plus {u, v} as a block.  The arc always points at the
        larger endpoint id; ``preferred_head`` is ignored.
        """
        u, v = self.graph.edge_u[e], self.graph.edge_v[e]
        digraph = self.digraph
        reversals = zero_pair_indegrees(digraph, u, v)
        if insertable(digraph, u, v):
            # arc toward the larger id (v, by canonical endpoint storage)
            digraph.insert_arc(e, u, v)
            return reversals
        # the failed probe's closure, tight once u and v join it
        self.blocks.record(digraph.last_closure + [u, v])
        return -1 - reversals


def _raise_first_non_simple_edge(graph: Multigraph) -> None:
    """Raise :class:`NotSimpleInputError` naming the first loop or repeated
    pair in storage order."""
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


def extract_maximal_2k(graph: Multigraph, k: int) -> ExtractionReport:
    """Extract an inclusion-wise maximal (k,2k)-sparse subgraph of a
    simple graph, processing edges in storage order."""
    return TwoKEngine(graph, k).run(_FixedOrder(list(range(graph.m))))
