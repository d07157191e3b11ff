"""Acceptance criteria, one reported pass/fail line per criterion.

Run with ``pytest -v``; each criterion prints a summary line that is also
echoed in the terminal summary section.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import pytest

from klsparse import (
    Multigraph,
    Reason,
    SparsityParams,
    STRATEGY_NAMES,
    TwoKEngine,
    decide,
    components_of,
    extract,
    extract_maximal_2k,
    extract_weighted,
    gen_erdos_renyi,
    gen_rigid,
    gen_tight,
    insertable,
    is_maximal_2k,
    is_sparse_bruteforce,
    make_strategy,
    max_sparse_size_oracle,
    naive_l2k_check,
    zero_pair_indegrees,
)
from klsparse.cli import main as cli_main
from klsparse.pebble import PebbleEngine
from conftest import (
    ALL_PAIRS,
    brute_force_components,
    complete_graph,
    record_acceptance,
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        record_acceptance(f"FAIL criterion {num}: {label}")
        raise
    record_acceptance(f"PASS criterion {num}: {label}")


@pytest.fixture(scope="module")
def oracle_sizes(small_corpus):
    """Reference maximum sizes for every corpus instance and pair."""
    sizes = {}
    for gi, g in enumerate(small_corpus):
        for k, l in ALL_PAIRS:
            sizes[gi, k, l] = max_sparse_size_oracle(g, SparsityParams(k, l))
    return sizes


def accepted_subgraph(g: Multigraph, accepted) -> Multigraph:
    return Multigraph(g.n, [g.endpoints(e) for e in sorted(accepted)])


def test_criterion_1_extraction_matches_oracle(small_corpus, oracle_sizes):
    label = (
        "500 random multigraphs, all (k,l) with 1<=k<=3, 0<=l<2k: "
        "extracted size equals brute force and output is sparse, under 60s"
    )
    with criterion(1, label):
        t0 = time.perf_counter()
        assert len(small_corpus) == 500
        for gi, g in enumerate(small_corpus):
            for k, l in ALL_PAIRS:
                p = SparsityParams(k, l)
                rep = extract(g, p)
                assert rep.accepted_count == oracle_sizes[gi, k, l], (gi, k, l)
                ok, witness = is_sparse_bruteforce(accepted_subgraph(g, rep.accepted), p)
                assert ok, (gi, k, l, witness)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_all_strategies_agree(small_corpus, oracle_sizes):
    label = "all 21 heuristics reach the same cardinality on every instance"
    with criterion(2, label):
        assert len(STRATEGY_NAMES) == 21
        for gi, g in enumerate(small_corpus):
            for k, l in ALL_PAIRS:
                p = SparsityParams(k, l)
                for name in STRATEGY_NAMES:
                    rep = extract(g, p, order=make_strategy(name, g, p, seed=gi))
                    assert rep.accepted_count == oracle_sizes[gi, k, l], (
                        gi, k, l, name,
                    )


def test_criterion_3_reversal_bounds(small_corpus, simple_corpus):
    label = (
        "every acceptance needs at most l+1 reversals and every "
        "endpoint-zeroing at most 2k"
    )
    with criterion(3, label):
        for g in small_corpus[:200]:
            for k, l in ALL_PAIRS:
                rep = extract(g, SparsityParams(k, l))
                for v in rep.verdicts:
                    if v.accepted:
                        assert v.reversals_used <= l + 1
        for g in simple_corpus[:80]:
            for k in (1, 2, 3):
                rep = extract_maximal_2k(g, k)
                for v in rep.verdicts:
                    assert v.reversals_used <= 2 * k


def test_criterion_4_maximal_2k_correct(simple_corpus):
    label = (
        "200 random simple graphs, k<=3: the l=2k pass returns a sparse, "
        "inclusion-maximal subgraph and the reach test matches the naive one"
    )
    with criterion(4, label):
        assert len(simple_corpus) == 200
        for g in simple_corpus:
            for k in (1, 2, 3):
                rep = extract_maximal_2k(g, k)
                p = SparsityParams(k, 2 * k)
                ok, witness = is_sparse_bruteforce(
                    accepted_subgraph(g, rep.accepted), p
                )
                assert ok, witness
                assert is_maximal_2k(g, rep.accepted, k)
        for g in simple_corpus[:60]:
            for k in (1, 2, 3):
                engine = TwoKEngine(g, k)
                for e in range(g.m):
                    u, v = g.edge_u[e], g.edge_v[e]
                    zero_pair_indegrees(engine.digraph, u, v)
                    fast = insertable(engine.digraph, u, v)
                    assert fast == naive_l2k_check(engine.digraph, u, v, k)
                    if fast:
                        engine.digraph.insert_arc(u, v)


def test_criterion_5_known_instances():
    label = "known instances: complete graphs, tight and rigid generators"
    with criterion(5, label):
        frozen = [
            (4, 2, 3, 5),
            (5, 2, 3, 7),
            (6, 2, 3, 9),
            (4, 1, 1, 3),
            (4, 2, 2, 6),
            (4, 1, 0, 4),
        ]
        for n, k, l, want in frozen:
            assert extract(complete_graph(n), SparsityParams(k, l)).accepted_count == want

        wk4 = Multigraph(
            4,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
            weights=[5.0, 1.0, 4.0, 3.0, 2.0, 6.0],
        )
        assert extract_weighted(wk4, SparsityParams(2, 3)).total_weight == 20.0

        assert extract_maximal_2k(complete_graph(4), 1).accepted_count == 2
        assert extract_maximal_2k(complete_graph(5), 3).accepted_count == 9

        for k in (1, 2, 3):
            for n in (5, 8, 11):
                for seed in (0, 1):
                    g = gen_tight(n, k, seed=seed)
                    d = decide(g, SparsityParams(k, k))
                    assert d.is_tight, (k, n, seed)

        for base in (2, 3, 4):
            for seed in (0, 1):
                g = gen_rigid(base, seed=seed)
                d = decide(g, SparsityParams(2, 3))
                assert d.is_spanning, (base, seed)


def test_criterion_6_component_structure(small_corpus):
    label = (
        "components match brute force, stay disjoint for l<=k and overlap "
        "in at most one node for k<l"
    )
    with criterion(6, label):
        two_tri = Multigraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert components_of(two_tri, SparsityParams(2, 3)) == [[0, 1, 2], [2, 3, 4]]

        checked = 0
        for g in small_corpus[:250]:
            for k, l in ALL_PAIRS:
                p = SparsityParams(k, l)
                if extract(g, p).accepted_count != g.m:
                    continue
                comps = components_of(g, p)
                got = sorted(sorted(c) for c in comps)
                assert got == brute_force_components(g, p), (g.edges(), k, l)
                for i in range(len(comps)):
                    for j in range(i + 1, len(comps)):
                        shared = set(comps[i]) & set(comps[j])
                        if l <= k:
                            assert not shared
                        else:
                            assert len(shared) <= 1
                checked += 1
        assert checked >= 500


def test_criterion_7_early_termination_is_free():
    label = (
        "K_50 under (1,1): after 49 acceptances every remaining edge "
        "short-circuits with zero extra traversal"
    )
    with criterion(7, label):
        g = complete_graph(50)
        rep = extract(g, SparsityParams(1, 1))
        c_full = rep.counters
        assert rep.accepted_count == 49
        accepted_seen = 0
        cut = None
        for idx, v in enumerate(rep.verdicts):
            if v.accepted:
                accepted_seen += 1
                if accepted_seen == 49:
                    cut = idx
                    break
        assert cut == 48  # the first 49 edges form a star and all land
        tail = rep.verdicts[cut + 1:]
        assert len(tail) == g.m - 49
        assert all(v.reason is Reason.EARLY_TERMINATED for v in tail)
        assert all(v.reversals_used == 0 for v in tail)

        # replaying only the accepted prefix produces identical traversal
        # counters, so the terminated tail cost zero visits
        prefix = Multigraph(50, [g.endpoints(e) for e in range(49)])
        c_prefix = extract(prefix, SparsityParams(1, 1)).counters
        assert c_full.bfs_node_visits == c_prefix.bfs_node_visits
        assert c_full.path_reversals == c_prefix.path_reversals
        assert c_full.early_termination_hit == 1


def test_criterion_8_large_instance_performance():
    label = "G(1000, 0.1) under (2,3): Basic finishes in under 2 seconds"
    with criterion(8, label):
        g = gen_erdos_renyi(1000, 0.1, seed=1)
        p = SparsityParams(2, 3)
        strategy = make_strategy("Basic", g, p, seed=1)
        engine = PebbleEngine(g, p)
        t0 = time.perf_counter()
        rep = engine.run(strategy)
        elapsed = time.perf_counter() - t0
        assert rep.accepted_count == p.tight_size(g.n)
        assert elapsed < 2.0, f"Basic took {elapsed:.2f}s"

        basic_times = []
        transp_times = []
        for seed in range(10):
            h = gen_erdos_renyi(1000, 0.1, seed=seed)
            for name, sink in (("Basic", basic_times), ("Transp", transp_times)):
                s = make_strategy(name, h, p, seed=seed)
                eng = PebbleEngine(h, p)
                t0 = time.perf_counter()
                eng.run(s)
                sink.append(time.perf_counter() - t0)
        mean_basic = statistics.mean(basic_times)
        mean_transp = statistics.mean(transp_times)
        if mean_transp > mean_basic:
            record_acceptance(
                f"WARN criterion 8: Transp mean {mean_transp:.3f}s exceeds "
                f"Basic mean {mean_basic:.3f}s"
            )


def test_criterion_9_cli_reproducibility(capsys):
    label = "CLI runs are byte-identical for a fixed seed (runtime aside)"
    with criterion(9, label):
        gen_argv = ["generate", "--family", "erdos-renyi", "--n", "40",
                    "--p", "0.2", "--seed", "13"]
        assert cli_main(gen_argv) == 0
        first = capsys.readouterr().out
        assert cli_main(gen_argv) == 0
        assert capsys.readouterr().out == first

        bench_argv = ["bench", "--family", "tight", "--n", "30",
                      "--pair", "2,1", "--heuristic", "Basic",
                      "--heuristic", "NDegMin", "--trials", "3", "--seed", "5"]
        assert cli_main(bench_argv) == 0
        rows_a = capsys.readouterr().out.splitlines()
        assert cli_main(bench_argv) == 0
        rows_b = capsys.readouterr().out.splitlines()

        def strip_runtime(rows: list[str]) -> list[str]:
            out = [rows[0]]
            for row in rows[1:]:
                cells = row.split(",")
                del cells[8]
                out.append(",".join(cells))
            return out

        assert strip_runtime(rows_a) == strip_runtime(rows_b)
        assert rows_a[0].split(",")[8] == "runtime_ns"
