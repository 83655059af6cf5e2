"""The selective-compression planner (paper section 6 extension).

Runs *after* the offload decision engine: for samples whose offloaded
payload crosses the wire uncompressed (uint8 pixels or float tensors), the
storage node can spend extra CPU to deflate the payload and the compute
node extra CPU to inflate it.  The planner greedily compresses the samples
with the highest bytes-saved-per-storage-CPU-second while the network
remains the predominant metric and the epoch estimate does not worsen --
the offload engine's own admission loop (:mod:`repro.core.admission`).
"""

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.cluster.epoch_model import EpochEstimate, EpochMetrics, EpochModel
from repro.cluster.spec import ClusterSpec
from repro.cluster.trainer import WorkAdjustment
from repro.compression.codecs import CompressionModel
from repro.core.admission import Action, admit, check_record_order
from repro.core.plan import OffloadPlan
from repro.preprocessing.payload import PayloadKind
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import SampleRecord


@dataclasses.dataclass(frozen=True)
class CompressionDecision:
    """Compress one sample's wire payload."""

    sample_id: int
    kind: PayloadKind
    saved_bytes: int
    storage_cpu_s: float
    compute_cpu_s: float

    @property
    def efficiency(self) -> float:
        if self.storage_cpu_s <= 0:
            return float("inf")
        return self.saved_bytes / self.storage_cpu_s

    @property
    def action(self) -> Action:
        """Admission-loop deltas: extra CPU on both nodes, fewer wire bytes."""
        return self.sample_id, self.compute_cpu_s, self.storage_cpu_s, -self.saved_bytes


@dataclasses.dataclass
class CompressionPlan:
    """Which samples get compressed, plus provenance."""

    decisions: Dict[int, CompressionDecision]
    reason: str
    expected: Optional[EpochEstimate] = None

    @property
    def num_compressed(self) -> int:
        return len(self.decisions)

    @property
    def total_saved_bytes(self) -> int:
        return sum(d.saved_bytes for d in self.decisions.values())

    def adjustments(self) -> Dict[int, WorkAdjustment]:
        """Per-sample deltas to feed TrainerSim.run_epoch."""
        return {
            sid: WorkAdjustment(
                wire_bytes_delta=-d.saved_bytes,
                extra_storage_cpu_s=d.storage_cpu_s,
                extra_compute_cpu_s=d.compute_cpu_s,
            )
            for sid, d in self.decisions.items()
        }


def stage_kinds(pipeline: Pipeline) -> List[PayloadKind]:
    """Payload kind at each stage 0..n (0 = stored encoded form)."""
    return [PayloadKind.ENCODED] + [op.output_kind for op in pipeline.ops]


class SelectiveCompressor:
    """Greedy compression planning on top of an offload plan."""

    def __init__(self, model: Optional[CompressionModel] = None) -> None:
        self.model = model if model is not None else CompressionModel()

    def plan(
        self,
        records: Sequence[SampleRecord],
        offload_plan: OffloadPlan,
        pipeline: Pipeline,
        spec: ClusterSpec,
        gpu_time_s: float,
        overhead_bytes: Optional[int] = None,
    ) -> CompressionPlan:
        check_record_order(records)
        if len(records) != len(offload_plan):
            raise ValueError(
                f"records cover {len(records)} samples, plan has {len(offload_plan)}"
            )
        if overhead_bytes is None:
            overhead_bytes = spec.response_overhead_bytes
        if not spec.can_offload:
            return CompressionPlan(
                decisions={}, reason="no storage cores: nowhere to run compression"
            )

        kinds = stage_kinds(pipeline)
        epoch_model = EpochModel(spec)

        # Post-offload baseline metrics.
        metrics = EpochMetrics(
            gpu_time_s=gpu_time_s,
            compute_cpu_s=sum(
                r.suffix_cost(offload_plan.split_for(r.sample_id)) for r in records
            ),
            storage_cpu_s=sum(
                r.prefix_cost(offload_plan.split_for(r.sample_id)) for r in records
            ),
            traffic_bytes=float(
                offload_plan.expected_traffic_bytes(records, overhead_bytes)
            ),
        )

        candidates: List[CompressionDecision] = []
        for record in records:
            split = offload_plan.split_for(record.sample_id)
            if split == 0:
                continue  # raw payloads are already entropy coded
            kind = kinds[split]
            wire = record.size_at(split)
            saved = self.model.savings_bytes(kind, wire)
            if saved <= 0:
                continue
            candidates.append(
                CompressionDecision(
                    sample_id=record.sample_id,
                    kind=kind,
                    saved_bytes=saved,
                    storage_cpu_s=self.model.compress_seconds(kind, wire),
                    compute_cpu_s=self.model.decompress_seconds(kind, wire),
                )
            )
        candidates.sort(key=lambda d: d.efficiency, reverse=True)

        _, final, admitted, stop_index = admit(
            epoch_model, metrics, (d.action for d in candidates), True
        )
        decisions = {candidates[i].sample_id: candidates[i] for i in admitted}
        if stop_index is None:
            reason = "exhausted compressible candidates"
        else:
            reason = f"network no longer predominant after {len(decisions)} samples"
        return CompressionPlan(
            decisions=decisions,
            reason=f"compressed {len(decisions)}/{len(records)} samples; {reason}",
            expected=final,
        )
