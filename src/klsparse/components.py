"""Online (k,l)-component tracking on top of the extraction engine.

A block is a node set whose induced subgraph is tight (meets the counting
bound with equality); a component is an inclusion-maximal block.  The
engine's one block store (:class:`ComponentSet`) is fed by every failed
search and rejects covered edges with zero traversal; this module adds
the probe that makes the stored blocks the components.  After an accepted
edge uv leaves indeg(u) + indeg(v) at its ceiling 2k - l, one extra
backward probe settles whether a new block appeared:

* the probe reaches a node with indegree below k outside {u, v}: no tight
  set contains both endpoints, nothing to record;
* the probe exhausts: a block through u and v exists, and the maximal one
  is the complement of the forward-reach of the remaining deficient nodes
  (a tight set is backward-closed with every node outside the edge's
  endpoints saturated, so it avoids that reach; the complement itself
  satisfies sum(indeg) = k|X| - l exactly).

The probe result is read without reversing anything and recorded in the
same store, which merges overlapping blocks: components stay pairwise
disjoint for l <= k and share at most one node for k < l.
"""

from __future__ import annotations

from dataclasses import dataclass

from .multigraph import Multigraph
from .orientation import InnerDigraph, Instrumentation
from .pebble import (
    ComponentSet,  # re-exported: the engine's block store
    ExtractionReport,
    PebbleEngine,
    SparsityParams,
    Verdict,
)


class OrderRegimeViolationError(ValueError):
    """Strategy/regime combination unsupported by component tracking."""


class NotSparseInputError(ValueError):
    """The input graph was expected to be (k,l)-sparse but is not."""


@dataclass(frozen=True)
class Block:
    """A tight node set detected by the probe."""

    nodes: frozenset[int]

    def __len__(self) -> int:
        return len(self.nodes)


def detect_block(
    digraph: InnerDigraph, u: int, v: int, params: SparsityParams
) -> Block | None:
    """Probe for a block through u and v right after their edge was
    accepted; returns the maximal one, or None when no tight set contains
    both endpoints.

    A new tight set must contain u and v, forcing their indegree sum to
    the ceiling (below it: None without any traversal).  The backward
    probe then looks for a deficient node with a path to {u, v}; finding
    one refutes every candidate (tight sets are backward-closed and
    saturated off the endpoints), while exhaustion certifies the backward
    closure as tight.  The maximal tight set is the complement of the
    forward-reach of the remaining deficient nodes, collected by a second
    sweep.  Nothing is reversed; the digraph is left untouched.
    """
    indeg = digraph.indeg
    k, l = params.k, params.l
    if u == v:
        if indeg[u] < k - l:
            return None
        targets = (u,)
    else:
        if indeg[u] + indeg[v] < 2 * k - l:
            return None
        targets = (u, v)
    if digraph.saturated_closure(targets) is None:
        return None
    digraph.multi_source_forward_reach(lambda x: indeg[x] < k, excluded=targets)
    return Block(frozenset(digraph.unstamped()).union(targets))


class ComponentEngine(PebbleEngine):
    """Extraction engine that also probes each accepted edge for the
    maximal block through it, recording it in ``blocks``."""

    def preaccept(self, edge: int, tail: int, head: int) -> None:
        raise OrderRegimeViolationError(
            "two-phase seeding can leave endpoint indegree sums above the "
            "probe threshold, which breaks online block detection"
        )

    def _process_edge(self, edge: int, strategy) -> Verdict:
        verdict = super()._process_edge(edge, strategy)
        if verdict.accepted:
            u, v = self.graph.endpoints(edge)
            block = detect_block(self.digraph, u, v, self.params)
            if block is not None:
                self.blocks.record(block.nodes)
        return verdict


def extract_with_components(
    graph: Multigraph,
    params: SparsityParams,
    order=None,
    counters: Instrumentation | None = None,
) -> tuple[ExtractionReport, list[list[int]]]:
    """Run an extraction with online component tracking.

    For l <= k any non-two-phase strategy is allowed; for k < l the
    orientation of arcs interacts with block detection, so only the
    node-order Comp strategies are accepted.  Returns the report and the
    final component list.
    """
    params.require_augmenting_regime()
    engine = ComponentEngine(graph, params, counters)
    if order is None:
        from .heuristics import make_strategy

        order = make_strategy("NBasicComp", graph, params)
    elif not hasattr(order, "next_edge"):
        from .pebble import _FixedOrder

        order = _FixedOrder(list(order))
    if order.kind == "two-phase":
        raise OrderRegimeViolationError(
            f"strategy {order.name} seeds the digraph in bulk and cannot "
            "drive component tracking"
        )
    if params.l > params.k and not (
        order.kind == "node-order" and order.uses_components
    ):
        raise OrderRegimeViolationError(
            f"strategy {order.name} cannot drive component tracking for "
            f"k < l; use one of the node-order Comp strategies"
        )
    report = engine.run(order)
    return report, engine.blocks.components()


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
