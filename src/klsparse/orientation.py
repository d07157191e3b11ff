"""Mutable orientation state over accepted edges.

Arcs are stored column-wise (tail and head per arc id), with
two lists per node: ``inc``, every arc at the node in either direction,
which never changes, and ``in_arcs``, the arcs whose head it is, which
the backward searches walk.  Reversing a path swaps tail and head per arc
and moves the arc from its old head's ``in_arcs`` list to its new head's.
Traversal bookkeeping uses epoch stamps: visited state is never cleared,
a stamp is simply overwritten the next time the node is actually reached,
which keeps reset work proportional to the nodes visited.  A successful
:meth:`InnerDigraph.find_reversal_path` returns only its source: the path
is the search's parent pointers, which :meth:`InnerDigraph.drain` flips in
one walk from that source, with no copy of its arcs and no second pass.
The two backward searches, :meth:`InnerDigraph.find_reversal_path` and
:meth:`InnerDigraph.saturated_closure`, each run their BFS in their own
frame: most searches visit a handful of nodes, so a shared helper call
would cost about as much as the visits.  The one forward sweep,
:meth:`InnerDigraph.multi_source_forward_reach`, finds its sources and
:meth:`InnerDigraph.maximal_block` its complement by C-level scans over
all n nodes; the probe sweeps only when its local search, one saturated
closure per out-neighbour of the block, does not settle the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import lt, ne
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
    it visits, so ``bfs_node_visits`` counts both.  ``certified_accepts``
    counts the edges an engine accepted by its degree certificate, with
    no search: below l = 2k those whose endpoints' indegrees demanded a
    drain, and at l = 2k those accepted with no zeroing and no
    insertability probe.
    """

    bfs_node_visits: int = 0
    path_reversals: int = 0
    certified_accepts: int = 0
    edges_processed: int = 0
    edges_accepted: int = 0
    early_termination_hit: int = 0


class InnerDigraph:
    """Orientation of the accepted edges with all indegrees at most ``k``."""

    __slots__ = (
        "n",
        "k",
        "arc_tail",
        "arc_head",
        "inc",
        "in_arcs",
        "indeg",
        "counters",
        "last_closure",
        "_stamp",
        "_parent",
        "_epoch",
        "_found",
        "_last_block",
    )

    def __init__(self, n: int, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        self.n = n
        self.k = k
        self.arc_tail: list[int] = []
        self.arc_head: list[int] = []
        self.inc: list[list[int]] = [[] for _ in range(n)]
        self.in_arcs: list[list[int]] = [[] for _ in range(n)]
        self.indeg: list[int] = [0] * n
        self.counters = Instrumentation()
        self.last_closure: list[int] = []
        self._stamp = [0] * n
        self._parent = [0] * n
        self._epoch = 0
        # (source, targets, epoch) of the latest successful search
        self._found: tuple[int, Sequence[int], int] = (-1, (), -1)
        # the first probe sweeps: a tight input's one probe finds all n nodes
        self._last_block = n

    def insert_arc(self, tail: int, head: int) -> int:
        """Add the arc ``tail -> head``; returns the arc id."""
        if self.indeg[head] >= self.k:
            raise IndegreeOverflowError(
                f"head {head} already has indegree {self.indeg[head]} = k"
            )
        a = len(self.arc_tail)
        self.arc_tail.append(tail)
        self.arc_head.append(head)
        self.inc[tail].append(a)
        if head != tail:
            self.inc[head].append(a)
        self.in_arcs[head].append(a)
        self.indeg[head] += 1
        return a

    def reverse(self, source: int) -> None:
        """Flip the path that the latest search found from ``source``: the
        single step of :meth:`drain`, for callers that search and reverse
        one path at a time.

        Raises :class:`StalePathError` unless this digraph's latest search
        or reversal was a successful :meth:`find_reversal_path` that
        returned ``source``, or if an arc inserted since has filled
        ``source`` to indegree k.
        """
        found, targets, epoch = self._found
        if epoch != self._epoch or source != found:
            raise StalePathError(
                f"path from {source} is stale: it is not the path of the "
                "digraph's latest search or reversal"
            )
        if self.indeg[source] >= self.k:
            raise StalePathError(
                f"path from {source} is stale: its source is at indegree "
                f"k = {self.k}"
            )
        self._flip(source, targets)

    def _flip(self, source: int, targets: Sequence[int]) -> None:
        """Flip every arc on the latest search's path from ``source`` to
        the first of ``targets`` it reaches, moving one indegree unit from
        that target to ``source``; the one flip loop of the digraph."""
        self._epoch += 1
        arc_tail = self.arc_tail
        arc_head = self.arc_head
        in_arcs = self.in_arcs
        parent = self._parent
        node = source
        while node not in targets:
            # the search's parent arc runs node -> head, one step nearer
            a = parent[node]
            head = arc_head[a]
            arc_tail[a] = head
            arc_head[a] = node
            in_arcs[head].remove(a)
            in_arcs[node].append(a)
            node = head
        self.indeg[node] -= 1
        self.indeg[source] += 1
        self.counters.path_reversals += 1

    def find_reversal_path(
        self, targets: Sequence[int], forbidden_sources: Sequence[int] = ()
    ) -> int | None:
        """The source of a directed path into one of ``targets`` from a
        node with indegree below k, excluding ``forbidden_sources`` and the
        targets themselves as sources.

        A backward BFS from the targets along incoming arcs, so the first
        source found is one of minimum arc distance.  The path is left in
        the search's parent pointers, for :meth:`drain` or :meth:`reverse`
        to flip; nothing walks it here.  Returns None when the backward
        closure holds no eligible deficient node, and leaves that closure
        (targets included) in ``last_closure``.
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
        self._found = (y, targets, epoch)
        return y

    def drain(
        self, u: int, v: int, ceiling: int, forbidden_sources: Sequence[int] = ()
    ) -> int:
        """Reverse paths into {u, v} while indeg(u) + indeg(v) >= ceiling;
        a loop (u = v) counts its node twice and searches from (u,) alone.

        The one augmentation routine: returns the reversals r >= 0 once
        the sum is below ``ceiling``, or -1 - r when a search fails first,
        leaving that search's closure in ``last_closure``.  Sources are
        never taken from ``forbidden_sources``.  Each reversal is one
        :meth:`find_reversal_path` call, which returns the path's source,
        and one walk that flips the path from that source to the target it
        reaches; :meth:`reverse` is not called.

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
            source = self.find_reversal_path(targets, forbidden_sources)
            if source is None:
                return -1 - reversals
            self._flip(source, targets)
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
        indegree below k; excluded nodes are never visited, and every node
        the sweep returns or excludes is stamped with the current epoch."""
        self._epoch += 1
        epoch = self._epoch
        stamp = self._stamp
        arc_head = self.arc_head
        inc = self.inc
        k = self.k
        c = self.counters

        # the sources, by C-level scans over the indegrees
        deficient = list(map(lt, self.indeg, repeat(k)))
        for v in excluded:
            stamp[v] = epoch
            deficient[v] = False
        queue = list(compress(range(self.n), deficient))
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

    def maximal_block(self, u: int, v: int) -> list[int]:
        """The node list of the maximal block Y through u and v, read right
        after a drain of u and v failed at the ceiling of edge uv, while
        ``last_closure`` still holds the failed search's closure.

        The failed search certifies that a tight set contains both
        endpoints.  Tight sets are backward-closed and saturated off the
        endpoints, so Y is every node that no deficient node other than u
        and v reaches: the complement of one forward sweep, taken by a
        C-level scan of the sweep's stamps.  Nothing is reversed.

        The sweep costs O(n) however small Y is, so for l >= 1 (at the
        failure indeg(u) + indeg(v) = 2k - l, so the endpoints tell) the
        local probe :meth:`_local_block` runs first, unless the last block,
        or the whole digraph before the first block, held more than n/8
        nodes: blocks that large come in runs, and the local probe gives
        up at that size anyway.
        """
        block = None
        if (self.indeg[u] + self.indeg[v] < 2 * self.k
                and self._last_block <= self.n >> 3):
            block = self._local_block(u, v)
        if block is None:
            self.multi_source_forward_reach((u, v))
            unreached = map(ne, self._stamp, repeat(self._epoch))
            block = list(compress(range(self.n), unreached))
            block.append(u)
            if v != u:
                block.append(v)
        self._last_block = len(block)
        return block

    def _local_block(self, u: int, v: int) -> list[int] | None:
        """Lee & Streinu's local component detection: the maximal block Y
        through u and v for l >= 1, or None once Y and the probe's searches
        pass n/8 nodes.

        For l >= 1 u or v reaches every node of Y: a part of Y they do not
        reach would be saturated with no entering arc, k|Z| edges on Z.  A
        path from u or v into Y stays in Y, so the probe walks out-arcs
        from ``last_closure``, which lies in Y.  An out-neighbour whose
        backward closure holds no deficient node but u and v joins Y with
        that closure; one that a deficient node reaches is outside, and so
        is every node of the path found, which later searches stop at.
        """
        frontier = self.last_closure[:]
        inside = set(frontier)
        outside: set[int] = set()
        indeg = self.indeg
        arc_tail = self.arc_tail
        arc_head = self.arc_head
        in_arcs = self.in_arcs
        inc = self.inc
        k = self.k
        counters = self.counters
        # Y and the searches' visits may grow to n/8 nodes together
        budget = self.n >> 3
        spent = 0
        while frontier:
            if len(inside) + spent > budget:
                return None
            for a in inc[frontier.pop()]:
                w = arc_head[a]
                if w in inside or w in outside:
                    continue
                if indeg[w] < k:
                    outside.add(w)
                    continue
                for b in in_arcs[w]:
                    if arc_tail[b] not in inside:
                        break
                else:
                    # every arc into w comes from Y: its closure adds only w
                    inside.add(w)
                    frontier.append(w)
                    continue
                start = counters.bfs_node_visits
                closure = self.saturated_closure((w,), (u, v), outside)
                spent += counters.bfs_node_visits - start
                if closure is not None:
                    joined = set(closure).difference(inside)
                    inside |= joined
                    frontier.extend(joined)
        return list(inside)
