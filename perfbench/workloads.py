"""Workload definitions and answer checks for the CLI benchmark.

A workload names one ``klsparse`` subcommand, the generator family and size
of its inputs, and how many distinct inputs a run cycles through.  This
module does not import ``klsparse``: the set-up process and the op process
both read it, and only the set-up process builds graphs.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``family`` is ``erdos-renyi`` (G(n, p)) or ``rigid-tight`` (the
    (2,3)-tight accepted subgraph of ``gen_rigid(n)``).  ``pinned`` is
    ``(seed, digest)`` of input 0 for the maximal-2k answer, a value frozen
    in this file.
    """

    name: str
    why: str
    command: str
    k: int
    l: int
    family: str
    n: int
    p: float
    pool: int
    heuristic: str | None = None
    pinned: tuple[int, str] | None = None

    def argv(self, input_path: str) -> list[str]:
        """CLI arguments of one op on ``input_path``."""
        args = [self.command, "-k", str(self.k)]
        if self.command != "maximal-2k":
            args += ["-l", str(self.l)]
        if self.heuristic is not None:
            args += ["--heuristic", self.heuristic, "--seed", "1"]
        return args + ["--input", input_path]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Workload":
        pinned = d.get("pinned")
        return cls(**{**d, "pinned": tuple(pinned) if pinned else None})


def input_seed(seed: int, i: int) -> int:
    """Generator seed of input ``i`` of a run with workload seed ``seed``."""
    return seed * 1000 + i


def id_digest(ids) -> str:
    """Order-free digest of a set of edge ids."""
    text = "\n".join(str(e) for e in sorted(ids))
    return hashlib.sha256(text.encode()).hexdigest()


DEFAULT_SEED = 1

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="decide-er",
            why="decision at the Laman pair in the default order; "
            "bound by augmenting-path searches, most edges rejected",
            command="decide",
            k=2,
            l=3,
            family="erdos-renyi",
            n=600,
            p=0.1,
            pool=20,
        ),
        Workload(
            name="extract-er-large",
            why="100k-edge file with Transp: parse, strategy cursor and "
            "per-edge verdicts dominate, searches are rare",
            command="extract",
            k=2,
            l=3,
            family="erdos-renyi",
            n=2000,
            p=0.05,
            pool=8,
            heuristic="Transp",
        ),
        Workload(
            name="components-rigid",
            why="components of a (2,3)-tight graph: block probes, closures "
            "and forward reach, no rejections",
            command="components",
            k=2,
            l=3,
            family="rigid-tight",
            n=60,
            p=0.0,
            pool=16,
        ),
        Workload(
            name="maximal-2k-er",
            why="the only workload of the l = 2k engine: endpoint zeroing "
            "and forward-reach insertability",
            command="maximal-2k",
            k=2,
            l=4,
            family="erdos-renyi",
            n=300,
            p=0.05,
            pool=16,
            # input 0 of seed 1: G(300, 0.05), m = 2150, 596 accepted
            pinned=(
                DEFAULT_SEED,
                "6185ae7962957580ef9dfd423c781181ec95f88774aa737bc98b2f36b9ee845b",
            ),
        ),
    )
}


def _decide_word(rank: int, m: int, tight_size: int) -> str:
    if rank == m and m == tight_size:
        return "tight"
    if rank == tight_size:
        return "spanning"
    if rank == m:
        return "sparse"
    return "none"


def check_output(spec: Workload, expected: dict, rc, out: str) -> str | None:
    """Check one op's exit code and stdout against ``expected``.

    Returns None when the answer is right, else a one-line reason.
    """
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    n, m = expected["n"], expected["m"]
    if spec.command == "decide":
        rank = expected["rank"]
        tight_size = max(spec.k * n - spec.l, 0)
        want = [
            _decide_word(rank, m, tight_size),
            f"accepted={rank} of {m} tight_size={tight_size}",
        ]
        return None if lines == want else f"decide printed {lines[:2]}, want {want}"
    if spec.command == "components":
        want = [" ".join(str(x) for x in range(n)), "components=1"]
        return None if lines == want else "components output is not one all-node line"
    if not lines:
        return "empty output"
    count = expected["rank"] if spec.command == "extract" else expected["count"]
    if lines[-1] != f"accepted={count} of {m}":
        return f"summary {lines[-1]!r}, want accepted={count} of {m}"
    try:
        ids = [int(x) for x in lines[:-1]]
    except ValueError:
        return "non-integer edge id line"
    if len(ids) != count or len(set(ids)) != count:
        return f"{len(ids)} id lines, {len(set(ids))} distinct, want {count}"
    if ids and not (0 <= min(ids) and max(ids) < m):
        return "edge id out of range"
    if spec.command == "maximal-2k":
        digest = id_digest(ids)
        if digest != expected["digest"]:
            return "accepted set differs from the in-process greedy set"
        if digest != expected.get("pinned_digest", digest):
            return "accepted set differs from the digest pinned in workloads.py"
    return None
