"""The benchmark's own tests: names match BENCHMARK.json, every workload runs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke runs use ``--size smoke`` (seconds of work per workload).
"""

import json
import math
import os
import shutil
import subprocess
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import common, run  # noqa: E402
from perfbench.tracing import SpanRecorder, covered_seconds, layer_self_seconds  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def bench(cwd, workload, trace, size="smoke", seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", seconds, "--trace", str(trace), "--size", size],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_names_and_units_match_benchmark_json():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER_UNITS
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    spec = load_spec()
    table = spec["per_layer" if trace else "end_to_end"]
    done = bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in table)
    for metric in table:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = bench(str(tmp_path), "plan-sim", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_self_time_subtracts_children_across_threads():
    clock = iter(float(t) for t in range(100))
    recorder = SpanRecorder(clock=lambda: next(clock))

    def server(request):
        return recorder.call("handle", "rpc", lambda: request, (), {}, link_parent="fetch")

    def fetch(request):
        # The server answers on its own thread: a linked, not nested, span.
        answers = []
        thread = threading.Thread(target=lambda: answers.append(server(request)))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        return answers[0]

    recorder.call(
        "load", "data",
        lambda: recorder.call("fetch", "rpc", fetch, ("x",), {}, link_as="fetch"),
        (), {},
    )
    spans = {span.name: span for span in recorder.spans}
    assert spans["handle"].parent == spans["fetch"].span_id
    assert spans["fetch"].parent == spans["load"].span_id
    self_s = layer_self_seconds(recorder.spans)
    # load 0..5, fetch 1..4, handle 2..3 (each clock read is one second).
    assert self_s == {"data": 2.0, "rpc": 3.0}
    assert covered_seconds(recorder.spans, ["MainThread"]) == 5.0
