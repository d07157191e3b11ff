"""Multigraph data model and edge-list file I/O.

The on-disk format is a plain UTF-8 edge list::

    kl-graph <n> <m> [weighted]
    <u> <v> [<weight>]
    ...

``#`` starts a comment line; blank lines are ignored.  Node ids are dense
integers in ``[0, n)``, edge ids are the 0-based position of the edge line.
Loops and parallel edges are allowed.  A count, id or weight token holding
``_`` or a non-ASCII character is malformed, though Python's ``int`` and
``float`` would read it.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable
from operator import gt, index


class GraphParseError(ValueError):
    """Malformed edge-list input; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class MalformedHeaderError(GraphParseError):
    pass


class MalformedEdgeError(GraphParseError):
    pass


class NodeIdOutOfRangeError(GraphParseError):
    pass


class EdgeCountMismatchError(GraphParseError):
    pass


class NegativeWeightError(GraphParseError):
    pass


class Multigraph:
    """Immutable multigraph with dense integer node and edge ids.

    Endpoints are stored canonically with ``u <= v``.  A loop appears once
    in the incidence list of its node but contributes 2 to the node degree,
    so degree-keyed heuristics see loops consistently.
    """

    __slots__ = ("n", "m", "edge_u", "edge_v", "weights", "incidence", "degree")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        weights: list[float] | None = None,
    ) -> None:
        """Build from ``n`` and any iterable of endpoint pairs (a list, a
        generator, a ``zip`` of two columns); edge ids follow its order.

        ``weights``, when given, must have one entry per pair.  Raises
        ``ValueError`` for an ``n`` that is not an ``int`` (a bool
        included) in ``[0, sys.maxsize]``, the valid list lengths.  One
        pass over the pairs orders each ``u <= v`` and names the first bad
        edge: a pair of the wrong length, an endpoint outside ``[0, n)``
        (NaN included) or a non-integer endpoint (a bool included), checked
        in that order.
        A bad weight or a weights list of the wrong length raises last.
        """
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"node count must be an integer, got {n!r}")
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        if n > sys.maxsize:
            raise ValueError(f"node count must be at most {sys.maxsize}, got {n}")
        edge_u: list = []
        edge_v: list = []
        # a non-iterable raises its own TypeError here
        for e, pair in enumerate(edges):
            try:
                try:
                    u, v = pair
                except ValueError:
                    raise ValueError(
                        f"edge {e}: expected a pair of endpoints, got {pair!r}"
                    ) from None
                if u > v:
                    u, v = v, u
                # with u <= v these bound both endpoints; NaN fails them
                if not (0 <= u and v < n):
                    raise ValueError(f"edge {e}: endpoint out of range [0, {n})")
                if u.__class__ is not int or v.__class__ is not int:
                    # any other integer type is kept as given, but a bool
                    # would be written as True or False
                    if isinstance(u, bool) or isinstance(v, bool):
                        raise TypeError
                    index(u)
                    index(v)
            except TypeError:
                raise ValueError(
                    f"edge {e}: endpoints must be a pair of integers, got {pair!r}"
                ) from None
            edge_u.append(u)
            edge_v.append(v)
        self._build(n, edge_u, edge_v)
        if weights is not None:
            if len(weights) != self.m:
                raise ValueError(f"{self.m} edges but {len(weights)} weights")
            checked: list[float] = []
            for e, w in enumerate(weights):
                try:
                    w = float(w)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"edge {e}: weight must be a number, got {w!r}"
                    ) from None
                if not 0 <= w < math.inf:  # also rejects NaN
                    raise ValueError(
                        f"edge {e}: weight must be finite and non-negative, got {w}"
                    )
                checked.append(w)
            weights = checked
        self.weights = weights

    @classmethod
    def _from_columns(
        cls, n: int, edge_u: list[int], edge_v: list[int],
        weights: list[float] | None = None,
    ) -> Multigraph:
        """The graph of endpoint columns a parser has already produced.

        Precondition: every endpoint is an ``int`` in ``[0, n)``, which each
        parser proves on its own (the line parser per line, the canonical
        path by its id table); nothing here checks it again.  ``weights`` is
        taken as it is.
        """
        self = cls.__new__(cls)
        self._build(n, *_ordered(edge_u, edge_v))
        self.weights = weights
        return self

    def _build(self, n: int, edge_u: list, edge_v: list) -> None:
        """Set every field but ``weights`` from two endpoint columns with
        ``u <= v`` in every pair.

        The caller has proved every endpoint an integer in ``[0, n)``: a
        negative id would index the incidence lists from the end.
        """
        m = len(edge_u)
        incidence: list[list[int]] = [[] for _ in range(n)]
        loops: list[int] = []
        for e, u, v in zip(range(m), edge_u, edge_v):
            incidence[u].append(e)
            if v != u:
                incidence[v].append(e)
            else:
                loops.append(u)
        # a loop is listed once in its node's incidence but counts 2
        degree = list(map(len, incidence))
        for u in loops:
            degree[u] += 1
        self.n = n
        self.m = m
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.incidence = incidence
        self.degree = degree

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.edge_u[e], self.edge_v[e]

    def edges(self) -> list[tuple[int, int]]:
        """Endpoint pairs in storage order; feeding them back to the
        constructor reproduces the graph (weights aside)."""
        return list(zip(self.edge_u, self.edge_v))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edge_u == other.edge_u
            and self.edge_v == other.edge_v
            and self.weights == other.weights
        )

    def __repr__(self) -> str:
        tag = " weighted" if self.is_weighted else ""
        return f"Multigraph(n={self.n}, m={self.m}{tag})"


def _ordered(edge_u: list, edge_v: list) -> tuple[list, list]:
    """The endpoint columns with each pair ordered ``u <= v``."""
    if any(map(gt, edge_u, edge_v)):
        # min(u, v) keeps u and max(v, u) keeps v on a tie, exactly as
        # swapping only when u > v does
        return list(map(min, edge_u, edge_v)), list(map(max, edge_v, edge_u))
    return edge_u, edge_v


# The canonical unweighted form, exactly what serialize_graph writes: a
# 3-token header, then "<u> <v>\n" lines of ASCII digits and single spaces.
_CANONICAL_HEADER = re.compile(rb"kl-graph ([0-9]+) ([0-9]+)\n")
# Bytes per tokenized slice.  One split of the whole body would hold a token
# object per endpoint at once: peak RSS of a 100k-edge `extract` read
# 33.7 MiB that way against 24.2 MiB chunked.
_CHUNK = 8192


def parse_graph(text: str | bytes) -> Multigraph:
    """Parse edge-list text into a :class:`Multigraph`.

    Input in the canonical unweighted form (a ``kl-graph <n> <m>`` header,
    then exactly ``m`` lines ``<u> <v>\\n`` of ASCII digits separated by one
    space, as :func:`serialize_graph` writes them) is read as integer
    columns in newline-aligned chunks, with no per-line strings: each token
    is looked up in a table from an id's decimal bytes to its ``int``.  An
    ASCII ``str`` is encoded once and takes the same path.  Everything else
    (weights, comments, blank lines, CRLF, tabs, a missing final newline)
    and any anomaly the gate lets through, such as an empty token or an
    endpoint outside ``[0, n)``, goes to the line-by-line parser, which
    gives the same graph or the same error with its exact line.  Either
    way every endpoint of one node is the same ``int`` object.

    Raises a :class:`GraphParseError` naming the offending 1-based line
    number: the base class for bytes that are not UTF-8, otherwise one of
    :class:`MalformedHeaderError`, :class:`MalformedEdgeError`,
    :class:`NodeIdOutOfRangeError`, :class:`EdgeCountMismatchError` or
    :class:`NegativeWeightError`.
    """
    if isinstance(text, bytes):
        graph = _parse_canonical(text)
    elif isinstance(text, str) and text.isascii():
        graph = _parse_canonical(text.encode("ascii"))
    else:
        graph = None
    return graph if graph is not None else _parse_lines(text)


def _parse_canonical(data: bytes) -> Multigraph | None:
    """The graph of canonical unweighted ``data``, or ``None`` to fall back.

    The gate is one pass over the whole of ``data``, header included: with
    its digits deleted it must read ``b"kl-graph  \\n"`` followed by
    ``" \\n"`` exactly ``m`` times, and ``data`` must end in a newline, so
    every line is digits, one space, digits, one newline.  The gate is all
    ASCII, so it also proves ``data`` is valid UTF-8.  The body is then
    read in newline-aligned slices of about ``_CHUNK`` bytes.  Each slice
    is split at its spaces and newlines and each token looked up in an
    :class:`_IdTable`, which refuses a token that is not an id below
    ``n``.  Every endpoint of a node is one shared object, a count other
    than ``2m`` tokens means an empty one, and no negative id passes the
    gate.
    """
    header = _CANONICAL_HEADER.match(data)
    if header is None:
        return None
    start = header.end()
    end = len(data)
    edge_u: list[int] = []
    edge_v: list[int] = []
    try:
        n, m = int(header[1]), int(header[2])
    except ValueError:  # a count past int's digit limit
        return None
    # the newline count comes first, so a huge header m never builds a
    # huge string below
    if data.count(b"\n", start) != m or not data.endswith(b"\n"):
        return None
    # the header already matched, so it reads b"kl-graph  \n" here:
    # no copy of the body is made only to drop its digits
    if data.translate(None, b"0123456789") != b"kl-graph  \n" + b" \n" * m:
        return None
    try:
        ids = _node_ids(n, 1)
    except OverflowError:  # an n too large for a list
        return None
    node = _IdTable(ids, min(n, 2 * m)).__getitem__
    try:
        while start < end:
            stop = data.find(b"\n", start + _CHUNK) + 1 or end
            tokens = data[start:stop].split()
            edge_u += map(node, tokens[0::2])
            edge_v += map(node, tokens[1::2])
            start = stop
    except (IndexError, ValueError):
        # an endpoint >= n, or a number past int's digit limit
        return None
    if len(edge_u) + len(edge_v) != 2 * m:  # an empty token
        return None
    # frees the ids no edge uses before the incidence lists exist
    del ids, node
    return Multigraph._from_columns(n, edge_u, edge_v)


def _node_ids(n: int, line: int) -> list[int]:
    """``list(range(n))``: both parsers map every endpoint through it, so
    all endpoints of a node are one ``int`` object.

    A list too large to allocate is a :class:`MalformedHeaderError` at the
    header's ``line``: the incidence lists would fail the same way.  An
    ``n`` past ``sys.maxsize`` raises ``OverflowError``.
    """
    try:
        return list(range(n))
    except MemoryError:
        raise MalformedHeaderError(
            f"node count {n} is too large to allocate", line
        ) from None


class _IdTable(dict):
    """Maps the decimal bytes of a node id to its ``int`` in ``ids``.

    Only the ids below ``size`` are filled in up front: a canonical body
    of ``m`` lines holds at most ``2m`` distinct ids, so the table stays
    O(m) whatever the header's ``n``.  Any other token, such as one with a
    leading zero, is read with ``int`` as the line parser reads it: an id
    ``>= n`` raises ``IndexError``, a number past ``int``'s digit limit
    ``ValueError``.
    """

    __slots__ = ("ids",)

    def __init__(self, ids: list[int], size: int) -> None:
        super().__init__({b"%d" % i: i for i in ids[:size]})
        self.ids = ids

    def __missing__(self, token: bytes) -> int:
        return self.ids[int(token)]


def _parse_lines(text: str | bytes) -> Multigraph:
    """The line-by-line parser behind :func:`parse_graph`: every accepted
    form, and each error with its exact line."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text.count(b"\n", 0, exc.start) + 1
            raise GraphParseError(
                f"input is not valid UTF-8 (byte offset {exc.start})", line
            ) from None
    lines = text.splitlines()
    eof = len(lines) + 1

    header: int | None = None  # the header's line
    edge_u: list[int] = []
    edge_v: list[int] = []
    weights: list[float] = []
    n = m = 0
    weighted = False

    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if header is None:
            if tokens[0] != "kl-graph" or len(tokens) not in (3, 4):
                raise MalformedHeaderError(
                    f"expected 'kl-graph <n> <m> [weighted]', got {stripped!r}",
                    lineno,
                )
            if len(tokens) == 4 and tokens[3] != "weighted":
                raise MalformedHeaderError(
                    f"unknown header flag {tokens[3]!r}", lineno
                )
            try:
                n, m = int(_plain(tokens[1])), int(_plain(tokens[2]))
            except ValueError:
                raise MalformedHeaderError(
                    f"node/edge counts must be integers, got {stripped!r}",
                    lineno,
                ) from None
            if n < 0 or m < 0:
                raise MalformedHeaderError(
                    f"node/edge counts must be non-negative, got {n}, {m}",
                    lineno,
                )
            if n > sys.maxsize:
                # a node count must be a valid list length
                raise MalformedHeaderError(
                    f"node count must be at most {sys.maxsize}, got {n}", lineno
                )
            weighted = len(tokens) == 4
            header = lineno
            continue

        if len(edge_u) >= m:
            raise EdgeCountMismatchError(
                f"expected {m} edge lines, found more", lineno
            )
        expected = 3 if weighted else 2
        if len(tokens) != expected:
            raise MalformedEdgeError(
                f"expected {expected} tokens on edge line, got {len(tokens)}",
                lineno,
            )
        try:
            u, v = int(_plain(tokens[0])), int(_plain(tokens[1]))
        except ValueError:
            raise MalformedEdgeError(
                f"endpoints must be integers, got {stripped!r}", lineno
            ) from None
        if not (0 <= u < n and 0 <= v < n):
            raise NodeIdOutOfRangeError(
                f"endpoint outside [0, {n}) on edge line {stripped!r}", lineno
            )
        if weighted:
            try:
                w = float(_plain(tokens[2]))
            except ValueError:
                raise MalformedEdgeError(
                    f"weight must be a decimal number, got {tokens[2]!r}",
                    lineno,
                ) from None
            if not math.isfinite(w):
                raise MalformedEdgeError(
                    f"weight must be finite, got {tokens[2]!r}", lineno
                )
            if w < 0:
                raise NegativeWeightError(f"negative weight {tokens[2]}", lineno)
            weights.append(w)
        edge_u.append(u)
        edge_v.append(v)

    if header is None:
        raise MalformedHeaderError("missing 'kl-graph' header", eof)
    if len(edge_u) != m:
        raise EdgeCountMismatchError(
            f"expected {m} edge lines, found {len(edge_u)}", eof
        )
    # after every edge line is checked, so a huge n fails no earlier than
    # the incidence lists would
    ids = _node_ids(n, header)
    edge_u = list(map(ids.__getitem__, edge_u))
    edge_v = list(map(ids.__getitem__, edge_v))
    del ids  # frees the ids no edge uses before the incidence lists exist
    return Multigraph._from_columns(
        n, edge_u, edge_v, weights if weighted else None
    )


def _plain(token: str) -> str:
    """``token`` itself, or ``ValueError`` when it holds ``_`` or a
    non-ASCII character: ``int`` and ``float`` read ``1_0`` as 10 and the
    digits of other scripts as numbers, which the format does not."""
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return token


def serialize_graph(g: Multigraph) -> str:
    """Render ``g`` in the edge-list format (inverse of :func:`parse_graph`).

    ``parse_graph(serialize_graph(g))`` reproduces ``g`` exactly; float
    weights are written with ``repr`` so the value round-trips bit-for-bit.
    """
    weights = g.weights
    tag = " weighted" if weights is not None else ""
    out = [f"kl-graph {g.n} {g.m}{tag}"]
    if weights is not None:
        for e in range(g.m):
            out.append(f"{g.edge_u[e]} {g.edge_v[e]} {weights[e]!r}")
    else:
        for e in range(g.m):
            out.append(f"{g.edge_u[e]} {g.edge_v[e]}")
    return "\n".join(out) + "\n"
