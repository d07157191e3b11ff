"""Host-speed reference for the CLI benchmark.

The CPU speed one process gets on a shared host drifts by tens of percent
over minutes, and an op's wall time drifts with it.  :func:`reference_s`
times a fixed pure-Python task shaped like the library's own work (list
adjacency traversal with visit stamps, then edge-line parsing), so the
drift shows in both.  A wall time ``t`` measured next to a reference time
``r`` is reported as ``t * NOMINAL_S / r``: seconds at the host speed where
the reference task takes ``NOMINAL_S``.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.010

_N = 3000
_rng = random.Random(0)
_ADJ = [[_rng.randrange(_N) for _ in range(4)] for _ in range(_N)]
_TEXT = "\n".join(f"{_rng.randrange(_N)} {_rng.randrange(_N)}" for _ in range(6000))


def reference_s() -> float:
    """Wall time of one run of the fixed reference task."""
    t0 = time.perf_counter()
    stamp = [0] * _N
    for epoch, source in enumerate(range(8), start=1):
        queue = [source]
        stamp[source] = epoch
        for x in queue:
            for y in _ADJ[x]:
                if stamp[y] != epoch:
                    stamp[y] = epoch
                    queue.append(y)
    edges = []
    for line in _TEXT.splitlines():
        u, v = line.split()
        edges.append((int(u), int(v)))
    return time.perf_counter() - t0
