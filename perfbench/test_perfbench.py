"""Smoke and repeatability tests of the CLI benchmark at tiny input sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

TINY = {
    "decide-er": dict(n=60, p=0.15, pool=2),
    "extract-er-large": dict(n=120, p=0.1, pool=2),
    "components-rigid": dict(n=5, pool=2),
    "maximal-2k-er": dict(n=40, p=0.1, pool=2, pinned=None),
}
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(tiny(name), seed=3, seconds=0.05, trace=trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want


@pytest.mark.parametrize("name, busy", [
    ("decide-er", "orientation.search_fail.calls"),
    ("components-rigid", "components.probe.blocks"),
])
def test_counts_repeat_exactly_for_a_seed(name, busy):
    first, second = (run.run_workload(tiny(name), 5, 0.05, trace=True)["metrics"]
                     for _ in range(2))
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    assert first[busy]["value"] > 0
    for metric in counts:
        assert first[metric]["value"] == second[metric]["value"], metric


def test_wrong_expected_answer_is_a_failed_op(monkeypatch, capsys):
    real_setup = run.run_setup

    def corrupted(spec, seed, inputs):
        setup = real_setup(spec, seed, inputs)
        for expected in setup["expected"]:
            expected["rank"] += 1
        return setup

    monkeypatch.setattr(run, "run_setup", corrupted)
    monkeypatch.setitem(run.WORKLOADS, "decide-er", tiny("decide-er"))
    rc = run.main(["--workload", "decide-er", "--seed", "3", "--seconds", "0.05"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["ops_ok_ratio"]["value"] == 0.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "decide-er",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
