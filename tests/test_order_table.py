"""Tests for tools/order_table.py, the order comparison of ROADMAP item 5."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from klsparse import extract_maximal_2k, gen_erdos_renyi

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "order_table.py"
_spec = importlib.util.spec_from_file_location("order_table", _TOOL)
order_table = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(order_table)

_ROWS = [("G(60, 0.15)", lambda s: gen_erdos_renyi(60, 0.15, s), (2, 3))]
_ROWS_2K = [("G(60, 0.15)", lambda s: gen_erdos_renyi(60, 0.15, s), 2)]


def test_one_line_per_order_with_one_accepted_size():
    header, *lines = order_table.table(_ROWS, graph_seed=1, seed=0, repeat=1)
    assert header == order_table.HEADER
    cells = [line.strip("| ").split(" | ") for line in lines]
    assert [c[2] for c in cells] == list(order_table.ORDERS)
    assert len({c[7] for c in cells}) == 1
    m = gen_erdos_renyi(60, 0.15, 1).m
    assert all(0 < int(c[3]) <= m for c in cells)
    # certified accepts are accepted edges
    assert all(0 <= int(c[6]) <= int(c[7]) for c in cells)


def test_l2k_rows_follow_the_orders():
    header, *lines = order_table.table(_ROWS, graph_seed=1, seed=0, repeat=1,
                                       rows_2k=_ROWS_2K)
    cells = [line.strip("| ").split(" | ") for line in lines]
    *orders, last = cells
    assert [c[2] for c in orders] == list(order_table.ORDERS)
    g = gen_erdos_renyi(60, 0.15, 1)
    report = extract_maximal_2k(g, 2)
    # the l = 2k engine examines every edge, in storage order
    assert last[:4] == ["G(60, 0.15)", "(2,4)", "storage", str(g.m)]
    assert last[4:8] == [str(report.counters.bfs_node_visits),
                         str(report.counters.path_reversals),
                         str(report.counters.certified_accepts),
                         str(report.accepted_count)]
    assert 0 < int(last[6]) <= int(last[7])


def test_orders_that_disagree_stop_the_table(monkeypatch):
    sizes = iter(range(len(order_table.ORDERS)))
    monkeypatch.setattr(order_table, "measure",
                        lambda *args: (1, 0, 0, 0, next(sizes), 0.0))
    with pytest.raises(SystemExit, match=r"G\(60, 0.15\) at \(2,3\)"):
        list(order_table.table(_ROWS, graph_seed=1, seed=0, repeat=1))
