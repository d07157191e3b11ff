"""(k,l)-components in one offline pass over the final orientation.

A block is a node set whose induced subgraph is tight (meets the counting
bound with equality); a component is an inclusion-maximal block.  The
components of the accepted set A are read off after the extraction, by
the fact behind pebble-game component detection (Lee & Streinu, Pebble
game algorithms and sparse graphs, 2008): in the sparse set A, the
endpoints of an edge uv can be driven below indeg(u) + indeg(v) = 2k - l
(for a loop, below indeg(u) = k - l) exactly when no tight set contains
both.  So the pass walks A in processing order and, for each edge that no
component found so far covers, drains its endpoints below that ceiling by
:meth:`~klsparse.orientation.InnerDigraph.drain`, the engine's own
augmentation routine, which also checks its own reversal bound.  When
the drain fails instead, :func:`detect_block` reads the maximal block
through the edge, its component, off the failed drain by one forward
sweep.

Every component of at least two nodes induces an edge, and an edge inside
a found component needs no probe, so the pass costs one probe per
accepted edge that no component covers: one probe on a tight input.  The
found blocks live in their own :class:`ComponentSet`, apart from the
engine's store.  That store holds failed-search closures, which are tight
but not maximal, and an edge inside one can still lie in a larger
component.
"""

from __future__ import annotations

from .multigraph import Multigraph
from .orientation import InnerDigraph
from .pebble import (
    ComponentSet,  # re-exported: the block store
    ExtractionReport,
    PebbleEngine,
    SparsityParams,
    resolve_order,
)


class NotSparseInputError(ValueError):
    """The input graph was expected to be (k,l)-sparse but is not."""


def detect_block(digraph: InnerDigraph, u: int, v: int) -> frozenset[int]:
    """The node set of the maximal block through the accepted edge uv,
    read off a drain of u and v that just failed at the edge's ceiling.

    The failed search certifies that a tight set contains both endpoints.
    Tight sets are backward-closed and saturated off the endpoints, so the
    maximal one is every node that no deficient node other than u and v
    reaches: the complement of one forward sweep.  Nothing is reversed.
    """
    reach = digraph.multi_source_forward_reach(excluded=(u, v))
    return frozenset(range(digraph.n)).difference(reach)


def _components(engine: PebbleEngine) -> ComponentSet:
    """Components of the engine's accepted set, by one probe per accepted
    edge that no component found so far covers.  Reorients the engine's
    digraph; the accepted set is unchanged."""
    graph, params, digraph = engine.graph, engine.params, engine.digraph
    report = engine.report
    found = ComponentSet(graph.n, params)
    # reading ``order`` walks the engine's deferred early-termination tail,
    # and indegree-keyed strategies order that tail by the live digraph:
    # read it here, before the first reversal below reorients the digraph
    for e in report.order:
        if e not in report.accepted:
            continue
        u, v = graph.edge_u[e], graph.edge_v[e]
        if not found.covers(u, v) and digraph.drain(u, v, params.ceiling(u, v)) < 0:
            found.record(detect_block(digraph, u, v))
    return found


def extract_with_components(
    graph: Multigraph, params: SparsityParams, order=None
) -> tuple[ExtractionReport, list[list[int]]]:
    """Run an extraction with any strategy (default NBasicComp, seed 0),
    then find the components of its accepted set in one offline pass.
    Returns the report and the sorted component list; the report's
    ``counters`` include the pass's searches and reversals."""
    engine = PebbleEngine(graph, params)
    report = engine.run(resolve_order(order, graph, params, "NBasicComp"))
    return report, _components(engine).components()


def components_of(graph: Multigraph, params: SparsityParams) -> list[list[int]]:
    """Components of a (k,l)-sparse graph (every edge must be accepted).
    :func:`extract_with_components` also returns the run's report."""
    report, comps = extract_with_components(graph, params)
    if report.accepted_count != graph.m:
        raise NotSparseInputError(
            f"input graph is not ({params.k},{params.l})-sparse: "
            f"{graph.m - report.accepted_count} edge(s) rejected"
        )
    return comps
