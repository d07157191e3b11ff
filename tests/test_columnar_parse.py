"""The columnar parse of canonical edge lists against the line parser.

``parse_graph`` reads the canonical unweighted form (what ``serialize_graph``
writes) as integer columns and sends everything else to the line-by-line
parser.  The line parser is the reference: on every text, ``parse_graph``
must give the same graph, or the same exception class with the same line.
"""

from __future__ import annotations

import random
import tracemalloc

import pytest

from klsparse import GenSpec, Multigraph, multigraph, parse_graph, serialize_graph

from conftest import random_multigraph


def _family_graphs() -> list[tuple[str, Multigraph]]:
    rng = random.Random(5)
    looped = Multigraph(6, [(0, 0), (0, 1), (1, 0), (2, 2), (3, 4), (5, 5)])
    return [
        ("erdos-renyi", GenSpec("erdos-renyi", seed=1, n=60, p=0.1).build()),
        # more than one 8 KiB chunk
        ("erdos-renyi-large", GenSpec("erdos-renyi", seed=2, n=400, p=0.05).build()),
        ("barabasi-albert", GenSpec("barabasi-albert", seed=3, n=80, m_attach=3).build()),
        ("rigid", GenSpec("rigid", seed=4, base_n=30).build()),
        ("tight", GenSpec("tight", seed=5, n=40, k_trees=2).build()),
        ("molecular", GenSpec("molecular", multiplicity=3, base=looped).build()),
        (
            "molecular-random",
            GenSpec("molecular", multiplicity=2, base=random_multigraph(rng, 9, 40)).build(),
        ),
        ("empty", Multigraph(0, [])),
        ("edgeless", Multigraph(7, [])),
        # n > 2m with every id >= 2m: no endpoint is in the canonical
        # parser's prefilled id table
        (
            "sparse-ids",
            Multigraph(
                500,
                [(rng.randrange(300, 500), rng.randrange(300, 500)) for _ in range(45)],
            ),
        ),
    ]


FAMILIES = _family_graphs()


def _outcome(parse, text):
    """What a parser makes of ``text``: the graph's columns, or the
    exception class and line."""
    try:
        g = parse(text)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc), getattr(exc, "line", None)
    return g.n, g.m, g.edge_u, g.edge_v, g.weights, g.incidence, g.degree


def _assert_same(text) -> None:
    assert _outcome(parse_graph, text) == _outcome(multigraph._parse_lines, text)


def _mutants(text: str) -> dict[str, str]:
    """Near-canonical variants of the canonical ``text``."""
    header, *body = text.splitlines(keepends=True)
    n, m = (int(t) for t in header.split()[1:])
    assert len(body) >= 40, "the base text needs at least 40 edge lines"

    def at(i: int, line: str) -> str:
        rest = body[:i] + [line] + body[i + 1:]
        return header + "".join(rest)

    u, v = body[5].split()
    line37 = 37 - 2  # body index of file line 37
    return {
        "leading zeros": at(5, f"00{u} 0{v}\n"),
        "plus sign": at(5, f"+{u} {v}\n"),
        "arabic-indic one": at(5, f"١ {v}\n"),
        "superscript two": at(5, f"² {v}\n"),
        "underscore": at(5, f"1_0 {v}\n"),
        "negative": at(5, f"-1 {v}\n"),
        "empty first token": at(5, f" {v}\n"),
        "empty second token": at(5, f"{u} \n"),
        "empty last token": at(len(body) - 1, f"{u} \n"),
        "tab": at(5, f"{u}\t{v}\n"),
        "double space": at(5, f"{u}  {v}\n"),
        "leading space": at(5, f" {u} {v}\n"),
        "trailing spaces": at(5, f"{u} {v}  \n"),
        "three tokens": at(5, f"{u} {v} 1.5\n"),
        "one token": at(5, f"{u}\n"),
        "vertical tab": at(5, f"{u}\x0b{v}\n"),
        "form feed line": at(5, f"{u} {v}\x0c\n"),
        "file separator": at(5, f"{u}\x1c{v}\n"),
        "crlf": text.replace("\n", "\r\n"),
        "cr": text.replace("\n", "\r"),
        "blank line": at(5, f"\n{u} {v}\n"),
        "comment line": at(5, f"# note\n{u} {v}\n"),
        "leading comment": "# note\n" + text,
        "leading blank": "\n" + text,
        "no final newline": text[:-1],
        "extra final newline": text + "\n",
        "digits after the final newline": text + "7",
        "one line fewer": header + "".join(body[:-1]),
        "one line more": text + body[-1],
        "header m - 1": f"kl-graph {n} {m - 1}\n" + "".join(body),
        "header m + 1": f"kl-graph {n} {m + 1}\n" + "".join(body),
        "header m = 10**12": f"kl-graph {n} {10**12}\n" + "".join(body),
        "endpoint = n on line 37": at(line37, f"{u} {n}\n"),
        "endpoint = n on the last line": at(len(body) - 1, f"{n} {v}\n"),
        "endpoint = n - 1 on the last line": at(len(body) - 1, f"{u} {n - 1}\n"),
        "huge endpoint": at(line37, f"{u} {'9' * 5000}\n"),
        "huge node count": f"kl-graph {'9' * 5000} {m}\n" + "".join(body),
        "header n = 0": f"kl-graph 0 {m}\n" + "".join(body),
        "4-token header weighted": f"kl-graph {n} {m} weighted\n" + "".join(body),
        "4-token header other": f"kl-graph {n} {m} extra\n" + "".join(body),
        "2-token header": f"kl-graph {n}\n" + "".join(body),
        "header tab": f"kl-graph\t{n} {m}\n" + "".join(body),
        "header leading zeros": f"kl-graph 0{n} 00{m}\n" + "".join(body),
        "header other word": f"kl-graphs {n} {m}\n" + "".join(body),
        "bom": "\ufeff" + text,
        "m = 0": f"kl-graph {n} 0\n",
        "m = 0 with a line": f"kl-graph {n} 0\n" + body[0],
        "m = 0 with digits": f"kl-graph {n} 0\n7",
        "n = 0, m = 0": "kl-graph 0 0\n",
        "n = 0, m = 1": "kl-graph 0 1\n0 0\n",
        "header only, no newline": f"kl-graph {n} 0",
        "empty": "",
    }


BASE = serialize_graph(FAMILIES[0][1])
MUTANTS = _mutants(BASE)
SPARSE = serialize_graph(dict(FAMILIES)["sparse-ids"])
SPARSE_MUTANTS = _mutants(SPARSE)


@pytest.mark.parametrize("name", [name for name, _ in FAMILIES])
def test_generator_output_matches_line_parser(name):
    g = dict(FAMILIES)[name]
    text = serialize_graph(g)
    _assert_same(text)
    _assert_same(text.encode("ascii"))
    assert parse_graph(text) == g
    assert parse_graph(text.encode("ascii")) == g


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_matches_line_parser(name):
    text = MUTANTS[name]
    _assert_same(text)
    _assert_same(text.encode("utf-8"))


@pytest.mark.parametrize("name", sorted(SPARSE_MUTANTS))
def test_sparse_id_mutant_matches_line_parser(name):
    text = SPARSE_MUTANTS[name]
    _assert_same(text)
    _assert_same(text.encode("utf-8"))


def test_mutants_reach_every_outcome():
    # the corpus holds accepted texts and every error class the
    # canonical gate could mask
    kinds = {_outcome(parse_graph, t)[0] for t in MUTANTS.values()}
    assert {
        multigraph.MalformedHeaderError,
        multigraph.MalformedEdgeError,
        multigraph.NodeIdOutOfRangeError,
        multigraph.EdgeCountMismatchError,
    } <= kinds
    assert _outcome(parse_graph, MUTANTS["endpoint = n on line 37"]) == (
        multigraph.NodeIdOutOfRangeError,
        37,
    )
    assert parse_graph(MUTANTS["leading zeros"]) == parse_graph(BASE)


def test_weighted_and_undecodable_match_line_parser():
    g = Multigraph(4, [(0, 1), (1, 1), (2, 3)], weights=[1.0, 0.5, 2.25])
    _assert_same(serialize_graph(g))
    _assert_same(serialize_graph(g).encode("ascii"))
    _assert_same(b"kl-graph 2 1\n0 \xff\n")
    _assert_same(b"kl-graph 2 1\n0 1\n\xff")


def test_canonical_input_never_falls_back(monkeypatch):
    """Canonical output parses with the line parser disabled, so the gate
    does fire."""

    def no_fallback(text):
        raise AssertionError("canonical input reached the line parser")

    monkeypatch.setattr(multigraph, "_parse_lines", no_fallback)
    for _, g in FAMILIES:
        text = serialize_graph(g)
        assert parse_graph(text) == g
        assert parse_graph(text.encode("ascii")) == g
    with pytest.raises(AssertionError):
        parse_graph(MUTANTS["crlf"])


def test_anomaly_past_the_first_chunk_matches_line_parser():
    text = serialize_graph(dict(FAMILIES)["erdos-renyi-large"])
    assert len(text) > 3 * multigraph._CHUNK
    header, *body = text.splitlines(keepends=True)
    (a, b), (c, d) = body[-2].split(), body[-1].split()
    head = header + "".join(body[:-2])
    # same line and token counts as the canonical text, tokens regrouped
    regrouped = head + f"{a} {b} {c}\n{d}\n"
    assert _outcome(parse_graph, regrouped) == (
        multigraph.MalformedEdgeError,
        len(body),
    )
    for last in (f"{c}\t{d}\n", f"{c} {d}\r\n", f"{c} {d}"):
        tail = f"{a} {b}\n{last}"
        _assert_same(head + tail)
        _assert_same((head + tail).encode("ascii"))


@pytest.mark.parametrize(
    "text",
    [
        "kl-graph 4 5\n3 1\n2 2\n0 0\n1 0\n3 3\n",
        "kl-graph 3 3\n2 2\n2 0\n1 1\n",
        "kl-graph 5 0\n",
    ],
    ids=["swaps and loops", "swap after a loop", "no edges"],
)
def test_canonical_swaps_and_loops_take_the_column_path(text, monkeypatch):
    expected = _outcome(multigraph._parse_lines, text)
    monkeypatch.setattr(multigraph, "_parse_lines", None)
    assert _outcome(parse_graph, text) == expected
    assert _outcome(parse_graph, text.encode("ascii")) == expected


def test_empty_canonical_graph():
    g = parse_graph("kl-graph 5 0\n")
    assert (g.n, g.m, g.incidence, g.degree) == (5, 0, [[]] * 5, [0] * 5)


def test_reversed_pairs_past_the_first_chunk_match_line_parser():
    g = dict(FAMILIES)["erdos-renyi-large"]
    text = "".join(
        [f"kl-graph {g.n} {g.m}\n"]
        + [f"{v} {u}\n" for u, v in g.edges()]
    )
    assert len(text) > 3 * multigraph._CHUNK
    _assert_same(text)
    assert parse_graph(text) == g


def test_canonical_parse_shares_one_int_per_node(monkeypatch):
    """Every endpoint of one node is one ``int`` object: ids above 256 are
    not cached by the interpreter, so a parse that does not share them holds
    one object per endpoint."""
    text = serialize_graph(dict(FAMILIES)["erdos-renyi-large"])
    expected = _outcome(multigraph._parse_lines, text)

    def no_fallback(text):
        raise AssertionError("canonical input reached the line parser")

    monkeypatch.setattr(multigraph, "_parse_lines", no_fallback)
    for data in (text, text.encode("ascii")):
        g = parse_graph(data)
        assert g.n > 256
        assert len({id(x) for x in g.edge_u + g.edge_v}) <= g.n
        assert _outcome(parse_graph, data) == expected


def test_line_parser_shares_one_int_per_node():
    g = dict(FAMILIES)["erdos-renyi-large"]
    parsed = parse_graph("# note\n" + serialize_graph(g))
    assert parsed == g and g.n > 256
    assert len({id(x) for x in parsed.edge_u + parsed.edge_v}) <= g.n


_FUZZ_BYTES = b"0123456789 \n\r\t-+"


def _fuzzed(rng: random.Random, data: bytes) -> bytes:
    """``data`` with 1-3 single-byte substitutions, insertions or
    deletions, drawn from digits, separators and signs."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice("sid")
        if op == "i":
            out.insert(rng.randrange(len(out) + 1), rng.choice(_FUZZ_BYTES))
        elif op == "s":
            out[rng.randrange(len(out))] = rng.choice(_FUZZ_BYTES)
        else:
            del out[rng.randrange(len(out))]
    return bytes(out)


def test_fuzzed_texts_match_line_parser():
    rng = random.Random(14)
    for text in (BASE, SPARSE):
        base = text.encode("ascii")
        for _ in range(300):
            data = _fuzzed(rng, base)
            _assert_same(data)
            _assert_same(data.decode("ascii"))


@pytest.mark.parametrize("prefix", [b"", b"# note\n"], ids=["canonical", "comment"])
def test_header_node_count_costs_one_id_list(prefix):
    """A huge header ``n`` with one edge costs ``n`` ids and ``n``
    incidence lists, never both at once, and no table of ``n`` tokens:
    69.5 MiB at ``n = 10**6`` on CPython 3.10 to 3.13."""
    text = prefix + b"kl-graph 1000000 1\n0 1\n"
    tracemalloc.start()
    try:
        parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 75 << 20
