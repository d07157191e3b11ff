"""Outside-in benchmark of the klsparse command line.

    python3 perfbench/run.py --workload decide-er --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each op is one in-process ``klsparse.cli.main(argv)`` call on a
generated input file, with stdout captured and checked against an answer
computed in set-up by an independent route.  Load model: closed loop, one
client, one op at a time, no threads.

Set-up runs ``gen_inputs.py`` in a fresh interpreter ``SETUP_REPS`` times and
reports the median as ``setup_s``; inputs are never generated in the process
that runs the ops, so its peak RSS is op memory.  The inputs are a pool of
distinct seeded instances that the timed loop cycles through until
``--seconds`` have passed and the workload's minimum sample count is
reached.  One untimed, checked warm-up op comes first, and ``gc.collect()``
runs between ops outside the timed region.

Times are reported in reference seconds (see ``hostref``): each wall time
is scaled by the host-reference task timed next to it, which cancels most of
the drift in CPU speed that a shared host shows between runs.  The unscaled
wall times are printed above the result line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one pass
over the pool, running every input once untraced and once under
:class:`tracer.Tracer`, and reports per-layer metrics per op; their counts
repeat exactly for a seed.  The span log goes to ``.perfbench_out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every answer was right,
1 when any op failed its check, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostref import NOMINAL_S, reference_s
from workloads import DEFAULT_SEED, WORKLOADS, Workload, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
# the tail is one fixed percentile, so that two commits compare the same
# quantile; MIN_OPS keeps ten samples beyond it in every run
TAIL_PCT = 75
MIN_OPS = 40

E2E_METRICS = (
    ("op_s.p50", "s"),
    ("op_s.tail", "s"),
    ("edges_per_s", "edges/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("ops_ok_ratio", "1"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong answer)."""


def run_setup(spec: Workload, seed: int, inputs: Path) -> dict:
    """Generate the inputs ``SETUP_REPS`` times in fresh interpreters.

    Every repetition starts from an empty directory; the last one also
    writes the expected answers, after its timed part.  Times are scaled by
    each repetition's own host reference.
    """
    reps = []
    for rep in range(SETUP_REPS):
        shutil.rmtree(inputs, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "gen_inputs.py"),
               "--spec", json.dumps(spec.to_dict()), "--seed", str(seed),
               "--dir", str(inputs)]
        if rep == SETUP_REPS - 1:
            cmd.append("--expect")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT, timeout=170)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("input generation timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"input generation failed:\n{proc.stderr}")
        reps.append(json.loads(proc.stdout.splitlines()[-1]))
    expected = json.loads((inputs / "expected.json").read_text())
    pinned = spec.pinned
    if pinned is not None and seed == pinned[0]:
        expected[0]["pinned_digest"] = pinned[1]

    def scaled(key):
        return statistics.median(r[key] * NOMINAL_S / r["ref_s"] for r in reps)

    return {
        "setup_s": scaled("setup_s"),
        "setup_wall_s": statistics.median(r["setup_s"] for r in reps),
        "build_s": scaled("build_s"),
        "serialize_s": scaled("serialize_s"),
        "expected": expected,
    }


class Ops:
    """Runs and checks ops; keeps the attempt and failure tallies."""

    def __init__(self, spec: Workload, inputs: Path, expected: list[dict]):
        from klsparse import cli

        self.cli = cli
        self.spec = spec
        self.items = [(spec.argv(str(inputs / e["file"])), e) for e in expected]
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None
        self.refs: list[float] = []  # host reference before each op, and one after

    def run(self, index: int, before=None) -> float:
        """Run op ``index``; returns its wall time in seconds.

        ``before`` is called just before the timed call (the tracer uses it
        to mark the op).  A crash or wrong answer counts as failed.
        """
        argv, expected = self.items[index]
        gc.collect()
        self.refs.append(reference_s())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if before is not None:
                before()
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # an op that crashes is a failed op
                rc = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        self.attempted += 1
        problem = check_output(self.spec, expected, rc, out.getvalue())
        if problem is not None:
            self.failed += 1
            if self.first_failure is None:
                stderr = err.getvalue().strip()[:200]
                self.first_failure = f"op on {argv[-1]}: {problem} {stderr}"
        return dt

    def scaled(self, walls: list[float]) -> list[float]:
        """Wall times of the last ``len(walls)`` ops in reference seconds.

        An op's host speed is the mean of the references taken just before
        and just after it.
        """
        gc.collect()
        self.refs.append(reference_s())
        refs = self.refs[-len(walls) - 1:]
        return [w * 2 * NOMINAL_S / (r0 + r1)
                for w, r0, r1 in zip(walls, refs, refs[1:])]


def _tail(times: list[float], pct: int) -> float:
    return statistics.quantiles(times, n=100, method="inclusive")[pct - 1]


def measure(ops: Ops, seconds: float, setup: dict) -> dict:
    """Untraced timed ops; returns the end-to-end metrics."""
    ops.run(0)  # warm-up, checked but untimed
    walls, edges = [], 0
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or len(walls) < MIN_OPS:
        i = len(walls) % len(ops.items)
        walls.append(ops.run(i))
        edges += ops.items[i][1]["m"]
    times = ops.scaled(walls)
    tail = _tail(times, TAIL_PCT)
    print(f"op_s.tail is p{TAIL_PCT} of {len(times)} samples "
          f"({sum(t > tail for t in times)} beyond it)")
    print(f"unscaled wall: op_s.p50 {statistics.median(walls)} op_s.tail "
          f"{_tail(walls, TAIL_PCT)} setup_s {setup['setup_wall_s']}; "
          f"host ref_s median {statistics.median(ops.refs)}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail,
        "edges_per_s": edges / sum(times),
        "peak_rss_mb": rss_mb,
        "setup_s": setup["setup_s"],
        "ops_ok_ratio": (ops.attempted - ops.failed) / ops.attempted,
    }


def measure_traced(ops: Ops, setup: dict, span_file: Path) -> dict:
    """One pass, each input untraced and traced in alternating order;
    returns the per-layer metrics."""
    from tracer import Tracer, calibrate

    tracer = Tracer()
    ops.run(0)  # warm-up
    cost = calibrate()
    plain, traced = [], []
    for i in range(len(ops.items)):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                plain.append(ops.run(i))
                continue
            with tracer:
                traced.append(ops.run(i, before=tracer.begin_op))
            tracer.end_op()
    refs = ops.refs[1:]
    extra = {
        "generators.build_s": setup["build_s"],
        "generators.serialize_s": setup["serialize_s"],
        "trace.overhead_ratio": sum(traced) / sum(plain),
    }
    tracer.write(span_file)
    return tracer.metrics(extra, cost, sum(plain),
                          scale=NOMINAL_S / statistics.median(refs))


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    # a checkout without .git has no commit; do not let git search upwards
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit}


def run_workload(spec: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    work = OUT / f"{spec.name}-{os.getpid()}"
    try:
        setup = run_setup(spec, seed, work / "inputs")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        ops = Ops(spec, work / "inputs", setup["expected"])
        if trace:
            from tracer import LAYER_METRICS as units

            values = measure_traced(ops, setup, OUT / f"spans-{spec.name}.bin")
        else:
            units = E2E_METRICS
            values = measure(ops, seconds, setup)
            print(f"ops_failed_ratio {ops.failed / ops.attempted} 1")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if ops.first_failure is not None:
        print(f"FAILED: {ops.failed} of {ops.attempted} ops; first: "
              f"{ops.first_failure}")
    for name, unit in units:
        print(f"{name} {values[name]} {unit}")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "klsparse" / "__init__.py").is_file():
        print(f"run.py: no klsparse sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    print("env " + json.dumps(environment()))
    print(f"workload {spec.name} seed {args.seed} pool {spec.pool} "
          f"trace {args.trace}")
    try:
        result = run_workload(spec, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
