"""Byte-identity gate for the four greedy planners.

Pins SHA-256 digests of canonical JSON produced by ``DecisionEngine``,
``SelectiveCompressor``, ``JointPlanner`` and ``FidelityPlanner`` over a
grid of storage cores and bandwidths.  Any change to the plans, their
``reason`` strings, the ``expected`` estimates or the audit log shows up
as a digest mismatch, so a refactor of the planning loop must keep every
float bit for bit.

Each planner is also fed a ``RecordTable`` -- built from the records, and
from bare columns whose rows are lazy views -- against the same digests.

Record op costs are rounded to multiples of 2**-32 before planning.  With
dyadic costs every baseline ``sum()`` is exact, so the digests do not
depend on the interpreter's float summation (Python 3.12 switched the
builtin ``sum`` to compensated summation) or on last-bit libm differences
in trace generation.  The planners' own running updates, the compression
costs and the model's divisions stay inexact and are pinned as computed.
"""

import hashlib
import json

import pytest

from repro.cluster.spec import standard_cluster
from repro.compression import JointPlanner, SelectiveCompressor
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.fidelity import FidelityConfig, FidelityPlanner
from repro.core.profiler import StageTwoProfiler
from repro.core.serialize import plan_to_json
from repro.preprocessing.records import ProgressiveSampleRecord, RecordTable, SampleRecord
from repro.telemetry.audit import AuditLog
from repro.workloads.models import get_model_profile

STORAGE_CORES = (1, 2, 8, 48)
BANDWIDTHS_MBPS = (200.0, 1000.0)
FIDELITY_BANDWIDTHS_MBPS = (40.0, 600.0)
FIDELITY_GPU_TIMES_S = (0.01, 0.05)
ORDERS = ("efficiency", "savings", "arrival")

CROP = 224 * 224 * 3
LADDER = (25.0, 33.0, 45.0, float("inf"))

#: Digests recorded at the commit before the planners shared one loop.
DIGESTS = {
    ("decision", 1): "a89d76a7ae4012a0bbb9d32bab946980627061798e74c5dd1487b54de09c65cc",
    ("decision", 2): "7dd979ed1e8d2833b992224965021a639a4b50e427fa7d0c571335f3fd870efa",
    ("decision", 8): "4e57ad54758aa5686ec220e122afac2d3bf0ab155a63ca5f51f4571ede1a78a4",
    ("decision", 48): "4ee7c8f2846586e13f548b612ab733b32dde4afaad5df41c8000eb837a8d8359",
    ("selective", 1): "764bf812b49c6f1d1b53c996a995454d9ce6fbf51d9bbea0e514703b539606a6",
    ("selective", 2): "7972c4af97a5723c63347f419d5a43568c734081ea4721341123411f4c632e5a",
    ("selective", 8): "ba7be82584c03ec7daeefbff12e24b83f79042d7b39992d3b23b6858811dd493",
    ("selective", 48): "5426935511019612bfb4bdbbe03a6a8c24eb232c2766ea9d174edb366e183d9e",
    ("joint", 1): "378f1b1b46f7fcb434435cc27ad08b221c26aca6e1119adab4b0d9bd1a273302",
    ("joint", 2): "08eccd367aaa16dcffc283e82e58ea91ac6e0def752625cca64bdd5bfb932d6c",
    ("joint", 8): "c551d20fc4720a45779272fbda5842a8c414eb3af2d55a3c8d64113eda0b987e",
    ("joint", 48): "41e7a3bf7de647f8a1f83c8e022520f7d78c54da8fff5208335f10b16e271a0a",
    ("fidelity", 1): "a2aecd147929908e340eedcdfc931bf7d287f1d05ce460b9767794bb7fcc3cec",
    ("fidelity", 2): "ab073d30995e03ac6a070e1bcbafbebacabff50c7d8af359cab06d0fa6f8ad3f",
    ("fidelity", 8): "33be91bf2ceef35c3db309b7bf9b0a9396e8a1992d8a0fe3cb9c51e674887eab",
    ("fidelity", 48): "0d199ce1824c4ee27ce52d6af9e52b851ef2dd27421b40a1257edc78f4db908c",
}


def _dyadic(cost):
    return round(cost * 2**32) / 2**32


def _quantized(record):
    costs = tuple(_dyadic(c) for c in record.op_costs)
    if isinstance(record, ProgressiveSampleRecord):
        return ProgressiveSampleRecord(
            record.sample_id,
            record.stage_sizes,
            costs,
            scan_sizes=record.scan_sizes,
            scan_psnr_db=record.scan_psnr_db,
        )
    return SampleRecord(record.sample_id, record.stage_sizes, costs)


def _digest(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _estimate(estimate):
    if estimate is None:
        return None
    return [estimate.t_g, estimate.t_cc, estimate.t_cs, estimate.t_net]


def _offload(plan):
    return {
        "json": plan_to_json(plan),
        "splits": list(plan.splits),
        "reason": plan.reason,
        "expected": _estimate(plan.expected),
    }


def _compression(plan):
    return {
        "decisions": [
            [
                sid,
                d.kind.value,
                d.saved_bytes,
                d.storage_cpu_s,
                d.compute_cpu_s,
            ]
            for sid, d in sorted(plan.decisions.items())
        ],
        "reason": plan.reason,
        "expected": _estimate(plan.expected),
    }


@pytest.fixture(scope="module")
def records(openimages_small, pipeline):
    profiled = StageTwoProfiler().profile(openimages_small, pipeline)
    return [_quantized(r) for r in profiled]


@pytest.fixture(scope="module")
def gpu_time_s(records):
    return get_model_profile("alexnet").epoch_gpu_time_s(len(records))


def _fidelity_records():
    # test_fidelity.py-style records: progressive samples interleaved with
    # plain ones, raw sizes on both sides of the crop so the split pass has
    # work to do before the fidelity pass runs.
    out = []
    for i in range(24):
        raw = CROP // 2 + 4096 * i if i % 3 else CROP + 8192 * i
        sizes = (raw, raw * 4, CROP, CROP, CROP * 4, CROP * 4)
        prefix_cost = 0.004 + 0.0005 * (i % 5)
        costs = (prefix_cost * 0.8, prefix_cost * 0.2, 0.0001, 0.0005, 0.0008)
        if i % 4 == 3:
            out.append(_quantized(SampleRecord(i, sizes, costs)))
            continue
        scan_sizes = (raw // 8, raw // 4, raw // 2, raw)
        out.append(
            _quantized(
                ProgressiveSampleRecord(
                    i, sizes, costs, scan_sizes=scan_sizes, scan_psnr_db=LADDER
                )
            )
        )
    return out


def _decision_doc(records, gpu_time_s, cores):
    cells = []
    for bandwidth in BANDWIDTHS_MBPS:
        spec = standard_cluster(storage_cores=cores).with_bandwidth(bandwidth)
        for order in ORDERS:
            for never_worsen in (True, False):
                audit = AuditLog()
                engine = DecisionEngine(
                    DecisionConfig(never_worsen=never_worsen, order=order)
                )
                plan = engine.plan(records, spec, gpu_time_s, audit=audit)
                cells.append(
                    {
                        "bandwidth": bandwidth,
                        "order": order,
                        "never_worsen": never_worsen,
                        "plan": _offload(plan),
                        "audit": audit.to_dicts(),
                    }
                )
    return cells


def _selective_doc(records, pipeline, gpu_time_s, cores):
    cells = []
    for bandwidth in BANDWIDTHS_MBPS:
        spec = standard_cluster(storage_cores=cores).with_bandwidth(bandwidth)
        offload = DecisionEngine().plan(records, spec, gpu_time_s)
        plan = SelectiveCompressor().plan(records, offload, pipeline, spec, gpu_time_s)
        cells.append({"bandwidth": bandwidth, "compression": _compression(plan)})
    return cells


def _joint_doc(records, pipeline, gpu_time_s, cores):
    cells = []
    for bandwidth in BANDWIDTHS_MBPS:
        spec = standard_cluster(storage_cores=cores).with_bandwidth(bandwidth)
        plan = JointPlanner().plan(records, pipeline, spec, gpu_time_s)
        cells.append(
            {
                "bandwidth": bandwidth,
                "offload": _offload(plan.offload),
                "compression": _compression(plan.compression),
            }
        )
    return cells


def _fidelity_doc(cores, as_table=False):
    records = _fidelity_records()
    if as_table:
        records = RecordTable.of(records)
    cells = []
    for bandwidth in FIDELITY_BANDWIDTHS_MBPS:
        spec = standard_cluster(storage_cores=cores).with_bandwidth(bandwidth)
        for gpu_time_s in FIDELITY_GPU_TIMES_S:
            for floor in (30.0, 40.0):
                audit = AuditLog()
                planner = FidelityPlanner(config=FidelityConfig(min_psnr_db=floor))
                plan = planner.plan(records, spec, gpu_time_s, audit=audit)
                cells.append(
                    {
                        "bandwidth": bandwidth,
                        "gpu_time_s": gpu_time_s,
                        "min_psnr_db": floor,
                        "plan": _offload(plan),
                        "scan_counts": None
                        if plan.scan_counts is None
                        else list(plan.scan_counts),
                        "audit": audit.to_dicts(),
                    }
                )
    return cells


@pytest.mark.parametrize("cores", STORAGE_CORES)
def test_decision_engine_identity(records, gpu_time_s, cores):
    doc = _decision_doc(records, gpu_time_s, cores)
    assert _digest(doc) == DIGESTS[("decision", cores)]


@pytest.mark.parametrize("cores", STORAGE_CORES)
def test_selective_compressor_identity(records, pipeline, gpu_time_s, cores):
    doc = _selective_doc(records, pipeline, gpu_time_s, cores)
    assert _digest(doc) == DIGESTS[("selective", cores)]


@pytest.mark.parametrize("cores", STORAGE_CORES)
def test_joint_planner_identity(records, pipeline, gpu_time_s, cores):
    doc = _joint_doc(records, pipeline, gpu_time_s, cores)
    assert _digest(doc) == DIGESTS[("joint", cores)]


@pytest.mark.parametrize("cores", STORAGE_CORES)
def test_fidelity_planner_identity(cores):
    doc = _fidelity_doc(cores)
    assert _digest(doc) == DIGESTS[("fidelity", cores)]


def _columns_only(records):
    """A table built from bare columns: every row is a lazy view."""
    table = RecordTable.of(records)
    return RecordTable(table.sample_ids, table.sizes, table.costs)


@pytest.mark.parametrize("cores", STORAGE_CORES)
@pytest.mark.parametrize("build", [RecordTable.of, _columns_only], ids=["of", "columns"])
@pytest.mark.parametrize("planner", ["decision", "selective", "joint"])
def test_record_table_input_identity(records, pipeline, gpu_time_s, planner, build, cores):
    table = build(records)
    if planner == "decision":
        doc = _decision_doc(table, gpu_time_s, cores)
    elif planner == "selective":
        doc = _selective_doc(table, pipeline, gpu_time_s, cores)
    else:
        doc = _joint_doc(table, pipeline, gpu_time_s, cores)
    assert _digest(doc) == DIGESTS[(planner, cores)]


@pytest.mark.parametrize("cores", STORAGE_CORES)
def test_fidelity_planner_record_table_identity(cores):
    doc = _fidelity_doc(cores, as_table=True)
    assert _digest(doc) == DIGESTS[("fidelity", cores)]
