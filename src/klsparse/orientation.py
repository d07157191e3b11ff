"""Mutable orientation state over accepted edges.

Arcs are stored column-wise (tail, head, source edge per arc id) with a
single incidence list per node; direction is read off the arc record, so
reversing a path is one tail/head swap per arc with no adjacency surgery.
Traversal bookkeeping uses epoch stamps: visited state is never cleared,
a stamp is simply overwritten the next time the node is actually reached,
which keeps reset work proportional to the nodes visited.  A found path is
the search's parent pointers, so it is reversed along them with no copy of
its arcs; it is stale, and refused, once the digraph has searched or
reversed since.  The two backward searches,
:meth:`InnerDigraph.find_reversal_path` and
:meth:`InnerDigraph.saturated_closure`, each run their BFS in their own
frame: most searches visit a handful of nodes, so a shared helper call
would cost about as much as the visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class InvariantError(RuntimeError):
    """An engine invariant failed: a bug, not bad input.  The base of every
    such error the package raises; the CLI maps it to exit code 4."""


class StalePathError(InvariantError):
    """A reversal path no longer matches the current arc directions."""


class IndegreeOverflowError(InvariantError):
    """Inserting the arc would push the head's indegree above k."""


class ReversalBoundError(InvariantError):
    """A drain took more path reversals than its indegree sum allows;
    impossible on a digraph built by the engine, so it signals a corrupted
    orientation state."""


@dataclass
class Instrumentation:
    """Monotone work counters of one extraction run: its digraph makes
    them, and callers read them as the report's ``counters``.

    With epoch stamps a traversal's reset work is one stamp write per node
    it visits, so ``bfs_node_visits`` counts both.
    """

    bfs_node_visits: int = 0
    path_reversals: int = 0
    edges_processed: int = 0
    edges_accepted: int = 0
    early_termination_hit: int = 0


@dataclass(slots=True)
class ReversalPath:
    """A directed path from a deficient source node to a target, as found
    by :meth:`InnerDigraph.find_reversal_path`; ``len()`` is its arc count.

    The arcs themselves are the search's parent pointers, so the path is a
    handle on the digraph's state right after that search: it goes stale
    once the digraph that found it searches or reverses again, and
    :meth:`InnerDigraph.reverse` refuses a stale path.
    """

    source: int
    target: int
    arcs: int
    epoch: int

    def __len__(self) -> int:
        return self.arcs


class InnerDigraph:
    """Orientation of the accepted edges with all indegrees at most ``k``."""

    __slots__ = (
        "n",
        "k",
        "arc_tail",
        "arc_head",
        "arc_edge",
        "inc",
        "in_arcs",
        "indeg",
        "counters",
        "last_closure",
        "_stamp",
        "_parent",
        "_epoch",
    )

    def __init__(self, n: int, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.n = n
        self.k = k
        self.arc_tail: list[int] = []
        self.arc_head: list[int] = []
        self.arc_edge: list[int] = []
        self.inc: list[list[int]] = [[] for _ in range(n)]
        self.in_arcs: list[list[int]] = [[] for _ in range(n)]
        self.indeg: list[int] = [0] * n
        self.counters = Instrumentation()
        self.last_closure: list[int] = []
        self._stamp = [0] * n
        self._parent = [0] * n
        self._epoch = 0

    @property
    def arc_count(self) -> int:
        return len(self.arc_tail)

    def insert_arc(self, edge: int, tail: int, head: int) -> int:
        """Add the arc ``tail -> head`` for ``edge``; returns the arc id."""
        if self.indeg[head] >= self.k:
            raise IndegreeOverflowError(
                f"head {head} already has indegree {self.indeg[head]} = k"
            )
        a = len(self.arc_tail)
        self.arc_tail.append(tail)
        self.arc_head.append(head)
        self.arc_edge.append(edge)
        self.inc[tail].append(a)
        if head != tail:
            self.inc[head].append(a)
        self.in_arcs[head].append(a)
        self.indeg[head] += 1
        return a

    def reverse(self, path: ReversalPath) -> None:
        """Flip every arc on ``path``, moving one indegree unit from
        ``path.target`` to ``path.source``.

        Raises :class:`StalePathError` if this digraph has searched or
        reversed since it found ``path``, or if an arc inserted since then
        has filled the source to indegree k.
        """
        if path.epoch != self._epoch:
            raise StalePathError(
                f"path {path.source}->{path.target} is stale: the digraph "
                "searched or reversed since it was found"
            )
        if self.indeg[path.source] >= self.k:
            raise StalePathError(
                f"path {path.source}->{path.target} is stale: its source "
                f"is at indegree k = {self.k}"
            )
        self._epoch += 1
        arc_tail = self.arc_tail
        arc_head = self.arc_head
        in_arcs = self.in_arcs
        parent = self._parent
        node = path.source
        target = path.target
        while node != target:
            # the search's parent arc runs node -> head, one step nearer
            a = parent[node]
            head = arc_head[a]
            arc_tail[a] = head
            arc_head[a] = node
            in_arcs[head].remove(a)
            in_arcs[node].append(a)
            node = head
        self.indeg[target] -= 1
        self.indeg[path.source] += 1
        self.counters.path_reversals += 1

    def find_reversal_path(
        self, targets: Sequence[int], forbidden_sources: Sequence[int] = ()
    ) -> ReversalPath | None:
        """Find a directed path into one of ``targets`` from a node with
        indegree below k, excluding ``forbidden_sources`` and the targets
        themselves as sources.

        A backward BFS from the targets along incoming arcs, so the first
        source found is one of minimum arc distance; returns None when the
        backward closure holds no eligible deficient node, and leaves that
        closure (targets included) in ``last_closure``.
        """
        self._epoch += 1
        epoch = self._epoch
        stamp = self._stamp
        parent = self._parent
        indeg = self.indeg
        arc_tail = self.arc_tail
        in_arcs = self.in_arcs
        k = self.k

        queue = list(targets)
        for t in queue:
            stamp[t] = epoch
        append = queue.append
        for x in queue:
            for a in in_arcs[x]:
                y = arc_tail[a]
                if stamp[y] != epoch:
                    stamp[y] = epoch
                    parent[y] = a
                    append(y)
                    if indeg[y] < k and y not in forbidden_sources:
                        break
            else:
                continue
            break
        else:
            # every stamped node is queued once: the targets, then each visit
            self.counters.bfs_node_visits += len(queue)
            self.last_closure = queue
            return None
        self.counters.bfs_node_visits += len(queue)
        arc_head = self.arc_head
        arcs = 0
        node = y
        while node not in targets:
            node = arc_head[parent[node]]
            arcs += 1
        return ReversalPath(y, node, arcs, epoch)

    def drain(
        self, u: int, v: int, ceiling: int, forbidden_sources: Sequence[int] = ()
    ) -> int:
        """Reverse paths into {u, v} while indeg(u) + indeg(v) >= ceiling;
        a loop (u = v) counts its node twice and searches from (u,) alone.

        The one augmentation routine: returns the reversals r >= 0 once
        the sum is below ``ceiling``, or -1 - r when a search fails first,
        leaving that search's closure in ``last_closure``.  Sources are
        never taken from ``forbidden_sources``.

        Targets are never sources, so each reversal lowers the sum by one
        step (two for a loop) and a drain from sum s takes at most
        (s - ceiling) // step + 1 reversals: l + 1 at the engine's ceiling
        2k - l, k to zero one node.  Reaching that bound with the sum still
        at the ceiling raises :class:`ReversalBoundError`.
        """
        indeg = self.indeg
        s = indeg[u] + indeg[v]
        if s < ceiling:
            return 0
        targets = (u,) if u == v else (u, v)
        bound = (s - ceiling) // (2 if u == v else 1) + 1
        reversals = 0
        while indeg[u] + indeg[v] >= ceiling:
            if reversals == bound:
                raise ReversalBoundError(
                    f"drain of {targets} below {ceiling} from indegree sum "
                    f"{s} used its bound of {bound} reversal(s)"
                )
            path = self.find_reversal_path(targets, forbidden_sources)
            if path is None:
                return -1 - reversals
            self.reverse(path)
            reversals += 1
        return reversals

    def saturated_closure(
        self,
        targets: Sequence[int],
        forbidden_sources: Sequence[int],
        reached: set[int],
    ) -> list[int] | None:
        """Backward closure of ``targets`` if it contains no deficient node
        outside the targets and ``forbidden_sources``, else None.

        The returned list is every node with a directed path to a target
        (targets included); all of them except possibly the targets and the
        forbidden nodes have indegree exactly k.  The backward BFS stops at
        the first eligible deficient node it meets.  ``reached`` holds
        nodes already known to have a path from such a node; the search
        stops at them too, and a successful search adds the nodes of its
        path.
        """
        self._epoch += 1
        epoch = self._epoch
        stamp = self._stamp
        parent = self._parent
        indeg = self.indeg
        arc_tail = self.arc_tail
        in_arcs = self.in_arcs
        k = self.k

        queue = list(targets)
        for t in queue:
            stamp[t] = epoch
        append = queue.append
        for x in queue:
            for a in in_arcs[x]:
                y = arc_tail[a]
                if stamp[y] != epoch:
                    stamp[y] = epoch
                    parent[y] = a
                    append(y)
                    if indeg[y] < k and y not in forbidden_sources or y in reached:
                        break
            else:
                continue
            break
        else:
            # every stamped node is queued once: the targets, then each visit
            self.counters.bfs_node_visits += len(queue)
            return queue
        self.counters.bfs_node_visits += len(queue)
        # the source reaches every node on its path to the target
        arc_head = self.arc_head
        node = y
        while node not in targets:
            reached.add(node)
            node = arc_head[parent[node]]
        reached.add(node)
        return None

    def multi_source_forward_reach(self, excluded: Iterable[int] = ()) -> list[int]:
        """Nodes reachable by directed paths from any non-excluded node of
        indegree below k; excluded nodes are never visited."""
        self._epoch += 1
        epoch = self._epoch
        stamp = self._stamp
        arc_head = self.arc_head
        inc = self.inc
        indeg = self.indeg
        k = self.k
        c = self.counters

        for v in excluded:
            stamp[v] = epoch
        queue = [v for v in range(self.n) if stamp[v] != epoch and indeg[v] < k]
        for v in queue:
            stamp[v] = epoch
        visits = len(queue)
        append = queue.append
        for x in queue:
            # an in-arc's head is x itself, already stamped
            for a in inc[x]:
                y = arc_head[a]
                if stamp[y] != epoch:
                    stamp[y] = epoch
                    visits += 1
                    append(y)
        c.bfs_node_visits += visits
        return queue

    def undirected_edges(self) -> list[tuple[int, int, int]]:
        """Current arcs as ``(min_endpoint, max_endpoint, edge_id)`` tuples,
        one per accepted edge (test/inspection helper)."""
        out = []
        for a in range(len(self.arc_tail)):
            t, h = self.arc_tail[a], self.arc_head[a]
            if t > h:
                t, h = h, t
            out.append((t, h, self.arc_edge[a]))
        return out
