"""Smoke test of the benchmark: every workload at tiny size, both modes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted, that the
correctness gate passes, that exact counts repeat between two runs of the
same seed, and that the command fails cleanly without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    cmd = BENCH["command"][1:]
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--size", "tiny"]
    return subprocess.run([sys.executable, *cmd, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def result(workload: str, trace: int, seed: int = 3) -> dict:
    done = run(workload, trace, seed)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    out = result(workload, trace=0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_emitted_and_counts_repeat(workload):
    first = result(workload, trace=1)
    assert first["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    second = result(workload, trace=1)
    exact = [name for name, unit in expected.items()
             if unit in ("count", "ratio") and not name.startswith("trace.")]
    assert {k: first["metrics"][k]["value"] for k in exact} == \
        {k: second["metrics"][k]["value"] for k in exact}


def test_pipeline_scores_each_arc_twice():
    out = result("pipeline", trace=1)
    assert out["metrics"]["pipeline.predict.arc_score_per_pair"]["value"] == 2.0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
