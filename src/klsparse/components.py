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
augmentation routine.  When a search fails instead, the probe
:func:`detect_block` reads off the maximal block through the edge, which
is its component.

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
from .orientation import InnerDigraph, Instrumentation
from .pebble import (
    ComponentSet,  # re-exported: the block store
    ExtractionReport,
    PebbleEngine,
    ReversalBoundError,
    SparsityParams,
    resolve_order,
)


class NotSparseInputError(ValueError):
    """The input graph was expected to be (k,l)-sparse but is not."""


def detect_block(
    digraph: InnerDigraph,
    u: int,
    v: int,
    params: SparsityParams,
    *,
    saturated: bool = False,
) -> frozenset[int] | None:
    """The node set of the maximal block through the accepted edge uv, or
    None when no tight set contains both endpoints.

    A tight set through u and v forces their indegree sum up to
    ``params.ceiling(u, v)`` (below it: None without any traversal).  The
    backward probe then looks for a deficient node with a path to {u, v};
    finding one refutes every candidate (tight sets are backward-closed and
    saturated off the endpoints), while exhaustion certifies the backward
    closure as tight.  The maximal tight set is the complement of the
    forward-reach of the remaining deficient nodes, collected by a second
    sweep.  Nothing is reversed; the digraph is left untouched.

    ``saturated`` says the caller's own search from {u, v} (or {u}) just
    failed at the ceiling, which is the same certificate: the backward
    probe is skipped and only the forward sweep runs.
    """
    indeg = digraph.indeg
    if indeg[u] + indeg[v] < params.ceiling(u, v):
        return None
    targets = (u,) if u == v else (u, v)
    if not saturated and digraph.saturated_closure(targets) is None:
        return None
    k = params.k
    digraph.multi_source_forward_reach(lambda x: indeg[x] < k, excluded=targets)
    return frozenset(digraph.unstamped()).union(targets)


def _components(engine: PebbleEngine) -> ComponentSet:
    """Components of the engine's accepted set, by one probe per accepted
    edge that no component found so far covers.  Reorients the engine's
    digraph; the accepted set is unchanged."""
    graph, params, digraph = engine.graph, engine.params, engine.digraph
    report = engine.report
    bound = params.reversal_bound
    found = ComponentSet(graph.n, params)
    # reading ``order`` walks the engine's deferred early-termination tail,
    # and indegree-keyed strategies order that tail by the live digraph:
    # read it here, before the first reversal below reorients the digraph
    for e in report.order:
        if e not in report.accepted:
            continue
        u, v = graph.edge_u[e], graph.edge_v[e]
        if found.covers(u, v):
            continue
        reversals = digraph.drain(u, v, params.ceiling(u, v))
        if reversals < 0:
            # the failed search exhausted the saturated backward closure:
            # the probe needs only its forward sweep
            block = detect_block(digraph, u, v, params, saturated=True)
            if block is not None:
                found.record(block)
            reversals = -1 - reversals
        if reversals > bound:
            raise ReversalBoundError(
                f"edge {e} took {reversals} reversals, bound {bound}"
            )
    return found


def extract_with_components(
    graph: Multigraph,
    params: SparsityParams,
    order=None,
    counters: Instrumentation | None = None,
) -> tuple[ExtractionReport, list[list[int]]]:
    """Run an extraction with any strategy (default NBasicComp, seed 0),
    then find the components of its accepted set in one offline pass.
    Returns the report and the sorted component list."""
    engine = PebbleEngine(graph, params, counters)
    report = engine.run(resolve_order(order, graph, params, "NBasicComp"))
    return report, _components(engine).components()


def components_of(
    graph: Multigraph,
    params: SparsityParams,
    counters: Instrumentation | None = None,
) -> list[list[int]]:
    """Components of a (k,l)-sparse graph (every edge must be accepted)."""
    report, comps = extract_with_components(graph, params, counters=counters)
    if report.accepted_count != graph.m:
        raise NotSparseInputError(
            f"input graph is not ({params.k},{params.l})-sparse: "
            f"{graph.m - report.accepted_count} edge(s) rejected"
        )
    return comps
