"""The perf-regression harness: schema stability and the determinism gate."""

import dataclasses
import json

import repro.parallel.bench as bench
from repro.core.decision import DecisionEngine
from repro.parallel.bench import MODES, SCHEMA, bench_scale, main, run_bench
from repro.preprocessing.records import RecordTable


def ticking_clock():
    """A deterministic injectable timer: each read advances 1ms."""
    state = {"t": 0.0}

    def timer():
        state["t"] += 0.001
        return state["t"]

    return timer


def test_bench_scale_shape_and_determinism_gate():
    result = bench_scale(60, repeats=1, timer=ticking_clock())
    assert result["num_samples"] == 60
    assert result["identical"] is True
    seconds = result["record_building"]["seconds"]
    speedups = result["record_building"]["speedup_vs_sequential"]
    assert set(seconds) == set(MODES) == set(speedups)
    assert all(value > 0 for value in seconds.values())
    assert speedups["sequential"] == 1.0
    assert result["plan"]["seconds"] > 0
    assert result["plan"]["table_seconds"] > 0


def test_identity_gate_requires_the_table_plan_to_match(monkeypatch):
    class TableSkew(DecisionEngine):
        def plan(self, records, *args, **kwargs):
            plan = super().plan(records, *args, **kwargs)
            if isinstance(records, RecordTable):
                plan = dataclasses.replace(plan, reason=plan.reason + " (table)")
            return plan

    monkeypatch.setattr(bench, "DecisionEngine", TableSkew)
    assert bench_scale(40, repeats=1, timer=ticking_clock())["identical"] is False


def test_run_bench_report_schema():
    report = run_bench(scales=[40, 80], repeats=1, timer=ticking_clock())
    assert report["schema"] == SCHEMA
    assert report["modes"] == list(MODES)
    assert [entry["num_samples"] for entry in report["scales"]] == [40, 80]
    assert report["largest_scale"] == 80
    assert report["identical"] is True
    assert report["largest_scale_best_speedup"] > 0
    for mode in MODES:
        assert report["allocation"][mode]["peak_bytes"] > 0
        assert report["allocation"][mode]["live_blocks"] > 0
    json.dumps(report)  # the report must be JSON-serializable as-is


def test_main_writes_report(tmp_path):
    out = tmp_path / "BENCH_profiling.json"
    assert main(["--scales", "40", "--repeats", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == SCHEMA
    assert report["identical"] is True
