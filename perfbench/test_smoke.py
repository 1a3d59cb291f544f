"""Smoke test of the benchmark on small problem sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload of BENCHMARK.json for one second in both modes and checks
the result line against the metric names and units that BENCHMARK.json
declares.  Takes about half a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def run(*args, cwd=ROOT, script=os.path.join(ROOT, "perfbench", "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd, text=True,
                          capture_output=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_result_line_matches_benchmark_json(workload, trace):
    proc = run("--workload", workload, "--seed", "0", "--seconds", "1",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".perfbench", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in BENCH["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("--workload", BENCH["workloads"][0]["name"], "--seed", "0",
                   "--seconds", "1", "--trace", "0", cwd=bare,
                   script=os.path.join(bare, "perfbench", "run.py"))
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
