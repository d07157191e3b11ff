"""Tests for the brute-force reference oracle."""

from __future__ import annotations

import random

import pytest

from klsparse import (
    BudgetExceededError,
    Multigraph,
    SparsityParams,
    extract,
    is_maximal_2k,
    is_sparse_bruteforce,
    max_sparse_size_oracle,
)
from conftest import ALL_PAIRS, complete_graph, induced_count, random_multigraph


def test_is_sparse_accepts_known_sparse():
    tri = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    ok, witness = is_sparse_bruteforce(tri, SparsityParams(2, 3))
    assert ok
    assert witness is None


def test_is_sparse_rejects_with_witness():
    k4 = complete_graph(4)
    p = SparsityParams(2, 3)
    ok, witness = is_sparse_bruteforce(k4, p)
    assert not ok
    nodes = set(witness)
    assert induced_count(k4, nodes) > p.k * len(nodes) - p.l


def test_is_sparse_l2k_ignores_pairs():
    # two parallel edges only constrain node sets of size >= 3 when l = 2k
    g = Multigraph(2, [(0, 1), (0, 1)])
    ok, _ = is_sparse_bruteforce(g, SparsityParams(1, 2))
    assert ok
    tri = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    ok, witness = is_sparse_bruteforce(tri, SparsityParams(1, 2))
    assert not ok
    assert sorted(witness) == [0, 1, 2]


def test_loop_counting():
    g = Multigraph(1, [(0, 0)])
    assert is_sparse_bruteforce(g, SparsityParams(1, 0))[0]
    assert not is_sparse_bruteforce(g, SparsityParams(1, 1))[0]
    assert not is_sparse_bruteforce(g, SparsityParams(2, 2))[0]


def test_budget_enforced():
    big = Multigraph(13, [])
    message = r"^n=13 exceeds oracle budget \(max_n=12, max_subsets=4096\)$"
    with pytest.raises(BudgetExceededError, match=message):
        is_sparse_bruteforce(big, SparsityParams(1, 1))
    with pytest.raises(BudgetExceededError, match=message):
        max_sparse_size_oracle(big, SparsityParams(1, 1))
    with pytest.raises(BudgetExceededError, match=message):
        is_maximal_2k(big, set(), 1)
    ok, _ = is_sparse_bruteforce(Multigraph(12, []), SparsityParams(1, 1))
    assert ok


def test_max_size_matches_engine():
    rng = random.Random(71)
    for _ in range(20):
        g = random_multigraph(rng, max_n=6, max_m=10)
        for k, l in ALL_PAIRS:
            p = SparsityParams(k, l)
            assert extract(g, p).accepted_count == max_sparse_size_oracle(g, p)


def test_max_size_known_values():
    p = SparsityParams(2, 3)
    assert max_sparse_size_oracle(complete_graph(4), p) == 5
    assert max_sparse_size_oracle(complete_graph(5), p) == 7
    assert max_sparse_size_oracle(complete_graph(6), p) == 9


def test_is_maximal_2k():
    tri = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    assert is_maximal_2k(tri, {0}, 1)
    assert not is_maximal_2k(tri, set(), 1)
    # {0} cannot be extended, {1} and {2} cannot either
    assert is_maximal_2k(tri, {1}, 1)
    k4 = complete_graph(4)
    star = {0, 1, 2}  # edges (0,1),(0,2),(0,3)
    assert is_maximal_2k(k4, star, 2)
    assert not is_maximal_2k(k4, {0, 1}, 2)
