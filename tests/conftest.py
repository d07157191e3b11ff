"""Shared fixtures and helpers for the klsparse test suite."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from klsparse import Multigraph, SparsityParams

ALL_PAIRS = [(k, l) for k in (1, 2, 3) for l in range(0, 2 * k)]

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    """Queue a criterion result line for the terminal summary."""
    _ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def complete_graph(n: int) -> Multigraph:
    return Multigraph(n, list(combinations(range(n), 2)))


def hub_pair() -> Multigraph:
    """Hubs 0 and 1, each with two leaves, then the hub edge 01 last.

    At (2,3), in storage order with the engine's arc rule, the hub edge
    meets two endpoints that hold k accepted edges each, at indegree 1, so
    no degree certificate covers it and its drain reverses two paths."""
    return Multigraph(6, [(0, 2), (0, 3), (1, 4), (1, 5), (0, 1)])


def random_multigraph(rng: random.Random, max_n: int = 7, max_m: int = 16) -> Multigraph:
    """A random multigraph with loops and parallel edges allowed."""
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return Multigraph(n, edges)


def random_simple_graph(rng: random.Random, max_n: int = 10) -> Multigraph:
    n = rng.randint(2, max_n)
    pairs = list(combinations(range(n), 2))
    m = rng.randint(0, len(pairs))
    return Multigraph(n, sorted(rng.sample(pairs, m)))


def induced_count(g: Multigraph, nodes: set[int]) -> int:
    return sum(
        1 for e in range(g.m) if g.edge_u[e] in nodes and g.edge_v[e] in nodes
    )


def brute_force_components(g: Multigraph, p: SparsityParams) -> list[list[int]]:
    """Inclusion-maximal tight node sets of size >= 2, by enumeration."""
    tight: list[set[int]] = []
    for size in range(2, g.n + 1):
        if p.l == 2 * p.k and size < 3:
            continue
        for comb in combinations(range(g.n), size):
            s = set(comb)
            if induced_count(g, s) == max(p.k * size - p.l, 0):
                tight.append(s)
    maximal = [s for s in tight if not any(s < t for t in tight)]
    return sorted(sorted(s) for s in maximal)


@pytest.fixture(scope="session")
def small_corpus() -> list[Multigraph]:
    """500 seeded random multigraphs with n <= 7 and m <= 16."""
    rng = random.Random(2024)
    return [random_multigraph(rng) for _ in range(500)]


@pytest.fixture(scope="session")
def simple_corpus() -> list[Multigraph]:
    """200 seeded random simple graphs with n <= 10."""
    rng = random.Random(4096)
    return [random_simple_graph(rng) for _ in range(200)]
