"""Brute-force reference checks, independent of the extraction engine.

Everything here enumerates node subsets as bitmasks and counts induced
edges directly, so results depend only on the counting definition of
sparsity: i(X) <= max(k|X| - l, 0) for every X (restricted to |X| >= 3
when l = 2k).  Each check takes graphs of at most :data:`MAX_N` nodes.
"""

from __future__ import annotations

from .multigraph import Multigraph
from .orientation import InnerDigraph
from .pebble import SparsityParams


class BudgetExceededError(ValueError):
    """The instance is too large for exhaustive subset enumeration."""


# the largest node count a check enumerates the 2^n node subsets of
MAX_N = 12


def _check_budget(n: int) -> None:
    if n > MAX_N:
        raise BudgetExceededError(
            f"n={n} exceeds oracle budget (max_n={MAX_N}, "
            f"max_subsets={1 << MAX_N})"
        )


def _induced_counts(graph: Multigraph, edges=None) -> list[int]:
    """cnt[mask] = number of selected edges with both endpoints in mask."""
    n = graph.n
    full = (1 << n) - 1
    cnt = [0] * (1 << n)
    edge_ids = range(graph.m) if edges is None else edges
    for e in edge_ids:
        base = (1 << graph.edge_u[e]) | (1 << graph.edge_v[e])
        rest = full & ~base
        sub = rest
        while True:
            cnt[base | sub] += 1
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return cnt


def _bounds(n: int, params: SparsityParams) -> list[int]:
    """bound[mask] = max(k*|mask| - l, 0), with -1 marking masks the
    counting condition does not constrain (|X| < 3 when l = 2k)."""
    k, l = params.k, params.l
    min_size = 3 if l == 2 * k else 1
    bounds = [0] * (1 << n)
    for mask in range(1 << n):
        size = bin(mask).count("1")
        bounds[mask] = max(k * size - l, 0) if size >= min_size else -1
    return bounds


def _mask_nodes(mask: int) -> list[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def is_sparse_bruteforce(
    graph: Multigraph, params: SparsityParams
) -> tuple[bool, list[int] | None]:
    """Exhaustively test (k,l)-sparsity.

    Returns ``(True, None)`` or ``(False, witness)`` where the witness is
    the sorted node list of one subset violating the counting bound.
    """
    _check_budget(graph.n)
    cnt = _induced_counts(graph)
    bounds = _bounds(graph.n, params)
    for mask in range(1, 1 << graph.n):
        b = bounds[mask]
        if b >= 0 and cnt[mask] > b:
            return False, _mask_nodes(mask)
    return True, None


def max_sparse_size_oracle(graph: Multigraph, params: SparsityParams) -> int:
    """Size of a maximum (k,l)-sparse subgraph, l < 2k, by greedy scan.

    Edges are taken in storage order whenever adding them keeps every
    subset within bound; for l < 2k the sparse edge sets form a matroid,
    so the greedy size is the true maximum.
    """
    params.require_augmenting_regime()
    _check_budget(graph.n)
    n = graph.n
    full = (1 << n) - 1
    bounds = _bounds(n, params)
    cnt = [0] * (1 << n)
    taken = 0
    for e in range(graph.m):
        base = (1 << graph.edge_u[e]) | (1 << graph.edge_v[e])
        rest = full & ~base
        # would any subset containing both endpoints overflow?
        sub = rest
        ok = True
        while True:
            mask = base | sub
            if cnt[mask] + 1 > bounds[mask]:
                ok = False
                break
            if sub == 0:
                break
            sub = (sub - 1) & rest
        if not ok:
            continue
        taken += 1
        sub = rest
        while True:
            cnt[base | sub] += 1
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return taken


def is_maximal_2k(graph: Multigraph, accepted: set[int], k: int) -> bool:
    """True iff ``accepted`` is (k,2k)-sparse and no rejected edge could
    be added without breaking the bound on some subset of size >= 3."""
    _check_budget(graph.n)
    params = SparsityParams(k, 2 * k)
    n = graph.n
    full = (1 << n) - 1
    bounds = _bounds(n, params)
    cnt = _induced_counts(graph, sorted(accepted))
    for mask in range(1, 1 << n):
        b = bounds[mask]
        if b >= 0 and cnt[mask] > b:
            return False
    for e in range(graph.m):
        if e in accepted:
            continue
        base = (1 << graph.edge_u[e]) | (1 << graph.edge_v[e])
        rest = full & ~base
        sub = rest
        addable = True
        while True:
            mask = base | sub
            b = bounds[mask]
            if b >= 0 and cnt[mask] + 1 > b:
                addable = False
                break
            if sub == 0:
                break
            sub = (sub - 1) & rest
        if addable:
            return False
    return True


def naive_l2k_check(digraph: InnerDigraph, u: int, v: int, k: int) -> bool:
    """Reference acceptance test for the l = 2k insertion step.

    With indeg(u) = indeg(v) = 0, the edge uv is insertable iff every node
    w outside {u, v} has a directed path from some node outside {u, v}
    whose indegree is below k.  Checked per node with an independent
    backward walk (set-based, no shared traversal machinery).
    """
    indeg = digraph.indeg
    inc = digraph.inc
    arc_tail = digraph.arc_tail
    arc_head = digraph.arc_head
    for w in range(digraph.n):
        if w == u or w == v:
            continue
        seen = {w}
        stack = [w]
        found = False
        while stack:
            x = stack.pop()
            if indeg[x] < k and x != u and x != v:
                found = True
                break
            for a in inc[x]:
                if arc_head[a] != x:
                    continue
                y = arc_tail[a]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if not found:
            return False
    return True
