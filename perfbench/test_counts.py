"""Self-test of the benchmark: counts repeat, and BENCHMARK.json matches.

    python3 -m pytest -q perfbench/test_counts.py

Run from the root of a checkout.  Each workload's traced run is made
twice with one seed, and every count metric must repeat exactly.  No
count is compared with a fixed value, so a change that cuts evaluations
still passes.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_with_the_same_seed(workload):
    first, second = traced(workload, 7), traced(workload, 7)
    assert first["correct"] and second["correct"]
    counts = [name for name, unit in run.PER_LAYER if unit == "count"]
    for name in counts:
        assert first["metrics"][name]["value"] \
            == second["metrics"][name]["value"], name
