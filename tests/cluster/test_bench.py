"""The epoch-simulation bench harness: schema stability and identity gates."""

import json

from repro.cluster.bench import (
    KERNELS,
    SCHEMA,
    aux_gates,
    bench_million,
    bench_scale,
    main,
    run_bench,
)


def ticking_clock():
    """A deterministic injectable timer: each read advances 1ms."""
    state = {"t": 0.0}

    def timer():
        state["t"] += 0.001
        return state["t"]

    return timer


def test_bench_scale_shape_and_identity_gate():
    result = bench_scale(60, repeats=1, timer=ticking_clock())
    assert result["num_samples"] == 60
    assert result["identical"] is True
    assert result["identical_fault_free"] is True
    assert result["identical_faulted"] is True
    sim = result["epoch_simulation"]
    assert set(sim["seconds"]) == set(KERNELS)
    assert all(value > 0 for value in sim["seconds"].values())
    assert sim["speedup_vs_reference"] > 0
    assert sim["fast_us_per_sample"] > 0


def test_bench_scale_times_the_faulted_traced_epoch():
    result = bench_scale(60, repeats=1, timer=ticking_clock())
    assert result["identical_faulted_traced"] is True
    traced = result["faulted_traced_simulation"]
    assert set(traced["seconds"]) == set(KERNELS)
    assert traced["speedup_vs_reference"] > 0
    assert traced["fast_us_per_sample"] > 0


def test_aux_gates_all_identical():
    gates = aux_gates(num_samples=64, seed=7)
    assert gates == {
        "spans_identical": True,
        "timeline_identical": True,
        "sharded_identical": True,
        "multijob_identical": True,
    }


def test_run_bench_report_schema():
    report = run_bench(scales=[40, 80], repeats=1, timer=ticking_clock())
    assert report["schema"] == SCHEMA
    assert report["kernels"] == list(KERNELS)
    assert [entry["num_samples"] for entry in report["scales"]] == [40, 80]
    assert report["largest_scale"] == 80
    assert report["identical"] is True
    assert report["largest_scale_speedup"] > 0
    assert report["profiler_e2e"]["identical"] is True
    for kernel in KERNELS:
        assert report["allocation"][kernel]["peak_bytes"] > 0
        assert report["allocation"][kernel]["live_blocks"] > 0
    json.dumps(report)  # the report must be JSON-serializable as-is


def test_million_entry_scaled_down():
    entry = bench_million(num_samples=200, seed=7, timer=ticking_clock())
    assert entry["completed"] is True
    assert entry["num_samples"] == 200
    seconds = entry["seconds"]
    assert seconds["total"] >= seconds["simulate_epoch"]
    assert entry["traffic_bytes"] > 0


def test_main_writes_report(tmp_path):
    out = tmp_path / "BENCH_sim.json"
    assert main(["--scales", "40", "--repeats", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == SCHEMA
    assert report["identical"] is True
    assert "million" not in report
