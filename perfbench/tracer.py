"""Span tracing of the klsparse layers from outside the library.

:class:`Tracer` replaces public functions and methods of the package modules
with wrappers while it is installed, and restores them on exit.  Each wrapper
records one span: name, start, end, parent span, and a value (node visits,
arcs, a boolean result) read at the layer boundary.  The op a span belongs to
is its index range in the log.  Spans stay in compact arrays in memory until
:meth:`Tracer.write` saves them; :meth:`Tracer.metrics` folds them into the
per-layer metrics.

A span's layer is its name up to the first dot.  Its self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array
from collections import Counter
from pathlib import Path

# (metric, unit) in report order; every workload reports all of them, with 0
# for a layer the workload does not run
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("multigraph.parse_s", "s"),
    ("multigraph.build_s", "s"),
    ("heuristics.make_s", "s"),
    ("heuristics.stream_s", "s"),
    ("heuristics.stream_calls", "count"),
    ("pebble.self_s", "s"),
    ("pebble.edges_processed", "count"),
    ("pebble.verdicts.accepted", "count"),
    ("pebble.verdicts.indegree_blocked", "count"),
    ("pebble.verdicts.early_terminated", "count"),
    ("pebble.verdicts.covered_by_component", "count"),
    ("orientation.search_ok.calls", "count"),
    ("orientation.search_ok.s", "s"),
    ("orientation.search_ok.visits", "count"),
    ("orientation.search_fail.calls", "count"),
    ("orientation.search_fail.s", "s"),
    ("orientation.search_fail.visits", "count"),
    ("orientation.search_useful_ratio", "1"),
    ("orientation.reverse.calls", "count"),
    ("orientation.reverse.s", "s"),
    ("orientation.reverse.arcs", "count"),
    ("orientation.closure.calls", "count"),
    ("orientation.closure.s", "s"),
    ("orientation.closure.visits", "count"),
    ("orientation.reach.calls", "count"),
    ("orientation.reach.s", "s"),
    ("orientation.reach.visits", "count"),
    ("components.self_s", "s"),
    ("components.probe.calls", "count"),
    ("components.probe.s", "s"),
    ("components.probe.blocks", "count"),
    ("components.record.s", "s"),
    ("components.covers.calls", "count"),
    ("components.covers.hits", "count"),
    ("sparse2k.self_s", "s"),
    ("sparse2k.zero.calls", "count"),
    ("sparse2k.zero.s", "s"),
    ("sparse2k.zero.reversals", "count"),
    ("sparse2k.insertable.calls", "count"),
    ("sparse2k.insertable.s", "s"),
    ("sparse2k.insertable.accepted", "count"),
    ("generators.build_s", "s"),
    ("generators.serialize_s", "s"),
    ("trace.overhead_ratio", "1"),
    ("trace.corrected_ratio", "1"),
)

# span name -> name of its value; each gives <span>.calls, <span>.s and
# <span>.<value> metrics
_CALL_METRICS = {
    "orientation.search_ok": "visits",
    "orientation.search_fail": "visits",
    "orientation.reverse": "arcs",
    "orientation.closure": "visits",
    "orientation.reach": "visits",
    "components.probe": "blocks",
    "components.covers": "hits",
    "sparse2k.zero": "reversals",
    "sparse2k.insertable": "accepted",
}

_SEARCH_OK, _SEARCH_FAIL = "orientation.search_ok", "orientation.search_fail"

_REASONS = ("accepted", "indegree_blocked", "early_terminated",
            "covered_by_component")


PLAIN, PROBE = 0, 1  # wrapper kinds, calibrated separately


class Tracer:
    """Span log plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.kinds: list[int] = []
        self._ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.name = array("H")
        self.value = array("q")
        self.op_first: list[int] = []  # first span index of each op
        self.reports: list = []  # extraction reports, read after each op
        self._verdicts: Counter = Counter()
        self._edges_processed = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str, kind: int = PROBE) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.kinds.append(kind)
        return self._ids[name]

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, probe=None):
        """Wrapper recording one span per call of ``fn``.

        ``probe(args) -> finish`` runs before the call; ``finish(result)``
        runs after the span's end is taken and returns ``(rename, value)``,
        where ``rename`` is None or the span's name by result.
        """
        nid = self._id(name, PLAIN if probe is None else PROBE)
        start, end, parent = self.start, self.end, self.parent
        names, values, stack = self.name, self.value, self._stack
        clock = time.perf_counter_ns
        ids = self._id

        if probe is None:
            def wrapper(*args, **kwargs):
                i = len(start)
                parent.append(stack[-1])
                names.append(nid)
                values.append(0)
                end.append(0)
                stack.append(i)
                start.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
        else:
            def wrapper(*args, **kwargs):
                finish = probe(args)
                i = len(start)
                parent.append(stack[-1])
                names.append(nid)
                values.append(0)
                end.append(0)
                stack.append(i)
                start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end[i] = clock()
                    stack.pop()
                rename, value = finish(result)
                if rename is not None:
                    names[i] = ids(rename)
                values[i] = value
                return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, probe=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, probe))

    def install(self) -> None:
        """Wrap the layer boundaries; :meth:`uninstall` undoes it."""
        from klsparse import (cli, components, heuristics, multigraph,
                              orientation, pebble, sparse2k)

        p = self._patch
        p(cli, "main", "cli.main")
        p(cli, "parse_graph", "multigraph.parse")
        p(multigraph.Multigraph, "__init__", "multigraph.build")
        p(heuristics, "make_strategy", "heuristics.make")
        p(cli, "make_strategy", "heuristics.make")
        strategies = [c for c in vars(heuristics).values()
                      if isinstance(c, type) and issubclass(c, heuristics.Strategy)]
        for cls in strategies + [pebble._FixedOrder]:
            for attr in ("start", "next_edge", "orient", "on_processed"):
                if attr in vars(cls):
                    span = "heuristics.start" if attr == "start" else "heuristics.stream"
                    p(cls, attr, span)
        p(pebble.PebbleEngine, "__init__", "pebble.init")
        p(pebble.PebbleEngine, "run", "pebble.run", self._keep_report)
        p(cli, "decide", "pebble.api")
        p(pebble, "extract", "pebble.api")
        digraph = orientation.InnerDigraph
        p(digraph, "find_reversal_path", _SEARCH_OK, _search)
        p(digraph, "reverse", "orientation.reverse", _reverse)
        p(digraph, "saturated_closure", "orientation.closure", _visits)
        p(digraph, "multi_source_forward_reach", "orientation.reach", _visits)
        p(components, "detect_block", "components.probe", _found)
        p(components.ComponentSet, "covers", "components.covers", _truth)
        p(components.ComponentSet, "record", "components.record")
        p(cli, "components_of", "components.api")
        p(cli, "extract_with_components", "components.api")
        p(components, "extract_with_components", "components.api")
        p(sparse2k, "zero_pair_indegrees", "sparse2k.zero", _count)
        p(sparse2k, "insertable", "sparse2k.insertable", _truth)
        p(cli, "extract_maximal_2k", "sparse2k.api")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _keep_report(self, args):
        def finish(report):
            self.reports.append(report)
            return None, 0

        return finish

    # -- op boundaries ----------------------------------------------------

    def begin_op(self) -> None:
        self.op_first.append(len(self.start))

    def end_op(self) -> None:
        """Fold the op's extraction reports into verdict counts."""
        for report in self.reports:
            self._edges_processed += report.counters.edges_processed
            self._verdicts.update(v.reason.name.lower() for v in report.verdicts)
        self.reports.clear()

    # -- output -----------------------------------------------------------

    def metrics(self, extra: dict[str, float], cost: dict[int, tuple[float, float]],
                untraced_s: float, scale: float) -> dict[str, float]:
        """Per-layer metrics, by name in :data:`LAYER_METRICS` order.

        Times and counts are means over the traced ops.  Times are corrected
        by ``cost`` (see :func:`calibrate`): each span's duration loses the
        bookkeeping of the wrappers inside it, so a parent's self time does
        not absorb its children's tracing cost.  ``extra`` supplies the
        metrics measured outside the span log; ``untraced_s`` is the untraced
        time of the same ops, the base of ``trace.corrected_ratio``.  Times
        in seconds are multiplied by ``scale``, the run's host-speed factor.
        """
        ops = len(self.op_first)
        n_spans = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        cost_in = [cost[kind][0] for kind in self.kinds]  # by name id
        cost_out = [cost[kind][1] for kind in self.kinds]
        # children have larger indices than their parent, so one backward
        # sweep accumulates each span's inner overhead before its parent's
        overhead = array("d", bytes(8 * n_spans))
        for i in range(n_spans - 1, -1, -1):
            nid = name[i]
            inner = overhead[i] + cost_in[nid]
            overhead[i] = inner
            p = parent[i]
            if p >= 0:
                overhead[p] += inner + cost_out[nid]
        dur = array("d", (end[i] - start[i] - overhead[i] for i in range(n_spans)))
        del overhead
        child = array("d", bytes(8 * n_spans))
        for i in range(n_spans):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        ids = len(self.names)
        self_by_id, incl_by_id = [0.0] * ids, [0.0] * ids
        calls_by_id, values_by_id = [0] * ids, [0] * ids
        for i in range(n_spans):
            nid = name[i]
            self_by_id[nid] += dur[i] - child[i]
            p = parent[i]
            if p < 0 or name[p] != nid:  # outermost of nested same-name spans
                calls_by_id[nid] += 1
                incl_by_id[nid] += dur[i]
            values_by_id[nid] += self.value[i]
        self_ns: Counter = Counter(dict(zip(self.names, self_by_id)))
        incl_ns: Counter = Counter(dict(zip(self.names, incl_by_id)))
        calls: Counter = Counter(dict(zip(self.names, calls_by_id)))
        values: Counter = Counter(dict(zip(self.names, values_by_id)))
        layer_self_ns: Counter = Counter()
        for span_name, ns in self_ns.items():
            layer_self_ns[span_name.split(".", 1)[0]] += ns

        raw: dict[str, float] = {
            "cli.self_s": self_ns["cli.main"] / 1e9,
            "multigraph.parse_s": self_ns["multigraph.parse"] / 1e9,
            "multigraph.build_s": self_ns["multigraph.build"] / 1e9,
            "heuristics.make_s": (self_ns["heuristics.make"]
                                  + self_ns["heuristics.start"]) / 1e9,
            "heuristics.stream_s": self_ns["heuristics.stream"] / 1e9,
            "heuristics.stream_calls": calls["heuristics.stream"],
            "pebble.self_s": layer_self_ns["pebble"] / 1e9,
            "pebble.edges_processed": self._edges_processed,
            "components.self_s": layer_self_ns["components"] / 1e9,
            "components.record.s": incl_ns["components.record"] / 1e9,
            "sparse2k.self_s": layer_self_ns["sparse2k"] / 1e9,
        }
        for reason in _REASONS:
            raw[f"pebble.verdicts.{reason}"] = self._verdicts[reason]
        for span, value_name in _CALL_METRICS.items():
            raw[f"{span}.calls"] = calls[span]
            raw[f"{span}.s"] = incl_ns[span] / 1e9
            raw[f"{span}.{value_name}"] = values[span]
        searches = calls["orientation.search_ok"] + calls["orientation.search_fail"]
        ratios = {
            "orientation.search_useful_ratio":
                calls["orientation.search_ok"] / searches if searches else 0.0,
            "trace.corrected_ratio": incl_ns["cli.main"] / 1e9 / untraced_s,
        }
        units = dict(LAYER_METRICS)
        per_op = {name: value / ops * (scale if units.get(name) == "s" else 1)
                  for name, value in raw.items()}
        merged = {**per_op, **ratios, **extra}
        return {name: merged[name] for name, _ in LAYER_METRICS}

    def write(self, path: Path) -> None:
        """Save the span log: a JSON header line, then the raw arrays."""
        op = array("I")
        bounds = self.op_first + [len(self.start)]
        for k in range(len(self.op_first)):
            op.extend([k] * (bounds[k + 1] - bounds[k]))
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["op:I", "name:H", "parent:i", "start_ns:q",
                             "end_ns:q", "value:q"]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (op, self.name, self.parent, self.start, self.end,
                        self.value):
                arr.tofile(fh)


def calibrate(calls: int = 20000, reps: int = 5) -> dict[int, tuple[float, float]]:
    """Tracing cost per span, in ns, for each wrapper kind.

    Returns ``{kind: (inside, outside)}``: ``inside`` is the part of a
    span's own duration that the wrapper adds, ``outside`` the part that
    lands in the parent's time.  Measured by timing a loop of calls to a
    no-op method, direct and wrapped, against an empty loop.
    """
    class Counters:
        bfs_node_visits = 0

    class Target:
        counters = Counters()

        def method(self, arg):
            return None

    target = Target()
    log = Tracer()
    wrapped = {PLAIN: log._wrap(Target.method, "plain"),
               PROBE: log._wrap(Target.method, "probe", _visits)}

    def loop_ns(fn) -> float:
        t0 = time.perf_counter_ns()
        if fn is None:
            for _ in range(calls):
                pass
        else:
            for _ in range(calls):
                fn(target, 1)
        return (time.perf_counter_ns() - t0) / calls

    samples: dict[int, list[tuple[float, float]]] = {PLAIN: [], PROBE: []}
    for _ in range(reps):
        empty = loop_ns(None)
        call = loop_ns(Target.method) - empty
        for kind, fn in wrapped.items():
            first = len(log.start)
            total = loop_ns(fn) - empty
            inner = statistics.mean(
                log.end[i] - log.start[i] for i in range(first, len(log.start)))
            samples[kind].append((inner - call, total - inner))
    return {kind: (max(0.0, statistics.median(s[0] for s in v)),
                   max(0.0, statistics.median(s[1] for s in v)))
            for kind, v in samples.items()}


def _search(args):
    counters = args[0].counters
    before = counters.bfs_node_visits

    def finish(path):
        rename = _SEARCH_FAIL if path is None else None
        return rename, counters.bfs_node_visits - before

    return finish


def _reverse(args):
    arcs = len(args[1])
    return lambda _: (None, arcs)


def _visits(args):
    counters = args[0].counters
    before = counters.bfs_node_visits
    return lambda _: (None, counters.bfs_node_visits - before)


def _found(args):
    return lambda result: (None, int(result is not None))


def _truth(args):
    return lambda result: (None, int(bool(result)))


def _count(args):
    return lambda result: (None, int(result))
