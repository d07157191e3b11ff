"""Set-up step of the CLI benchmark, run in its own interpreter.

Imports ``klsparse`` from the checkout, generates the workload's inputs with
the library generators and writes them as edge-list files.  It prints one
JSON line with the set-up time (import plus generate plus write), the
host reference time measured just before it (see ``hostref``), and the
mean generator and serializer time per input.  With ``--expect`` it then, untimed,
computes each input's expected answer by an independent in-process route and
writes ``expected.json`` next to the inputs.

    python3 perfbench/gen_inputs.py --spec '<workload json>' --seed 1 \
        --dir .perfbench_out/run/inputs [--expect]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from hostref import reference_s
from workloads import Workload, id_digest, input_seed

SRC = Path(__file__).resolve().parent.parent / "src"


def _build(spec: Workload, seed: int, klsparse):
    """Generate one input graph; returns it with the generator time."""
    if spec.family == "erdos-renyi":
        gen = klsparse.GenSpec("erdos-renyi", seed=seed, n=spec.n, p=spec.p)
    elif spec.family == "rigid-tight":
        gen = klsparse.GenSpec("rigid", seed=seed, base_n=spec.n)
    else:
        raise ValueError(f"unknown family {spec.family!r}")
    t0 = time.perf_counter()
    g = gen.build()
    build_s = time.perf_counter() - t0
    if spec.family == "rigid-tight":
        # the generator output is (2,3)-spanning; its accepted subgraph is
        # (2,3)-tight, which is the sparse input `components` requires
        params = klsparse.SparsityParams(2, 3)
        accepted = sorted(klsparse.extract(g, params).accepted)
        g = klsparse.Multigraph(g.n, [g.endpoints(e) for e in accepted])
        if g.m != params.tight_size(g.n):
            raise RuntimeError(f"rigid input has {g.m} edges, not 2n-3")
    return g, build_s


def _expected(spec: Workload, g, klsparse) -> dict:
    """Expected answer by a route other than the op's own."""
    out = {"n": g.n, "m": g.m}
    if spec.command in ("decide", "extract"):
        # the accepted count is a matroid rank, so any order gives it; use a
        # strategy the op does not run (the op runs Basic or Transp)
        params = klsparse.SparsityParams(spec.k, spec.l)
        other = "TranspOne" if spec.command == "decide" else "NBasic"
        order = klsparse.make_strategy(other, g, params, 1)
        out["rank"] = klsparse.extract(g, params, order).accepted_count
    elif spec.command == "maximal-2k":
        report = klsparse.extract_maximal_2k(g, spec.k)
        out["count"] = report.accepted_count
        out["digest"] = id_digest(report.accepted)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True, help="workload as JSON")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, help="output directory")
    ap.add_argument("--expect", action="store_true")
    args = ap.parse_args(argv)
    spec = Workload.from_dict(json.loads(args.spec))
    out_dir = Path(args.dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(SRC))

    ref_s = statistics.median(reference_s() for _ in range(5))
    t0 = time.perf_counter()
    import klsparse

    graphs, build_s, serialize_s = [], [], []
    for i in range(spec.pool):
        g, b = _build(spec, input_seed(args.seed, i), klsparse)
        t1 = time.perf_counter()
        text = klsparse.serialize_graph(g)
        serialize_s.append(time.perf_counter() - t1)
        (out_dir / f"in{i:03d}.txt").write_text(text, encoding="utf-8")
        graphs.append(g)
        build_s.append(b)
    setup_s = time.perf_counter() - t0

    print(json.dumps({"setup_s": setup_s, "ref_s": ref_s,
                      "build_s": statistics.mean(build_s),
                      "serialize_s": statistics.mean(serialize_s)}))
    if args.expect:
        expected = [
            {"file": f"in{i:03d}.txt", **_expected(spec, g, klsparse)}
            for i, g in enumerate(graphs)
        ]
        (out_dir / "expected.json").write_text(json.dumps(expected))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
