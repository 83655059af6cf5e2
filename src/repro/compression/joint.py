"""Joint offload + compression planning.

:class:`~repro.compression.selective.SelectiveCompressor` runs *after* the
offload engine, so under a tight storage-CPU budget the offload pass can
spend the whole budget before compression gets a look -- even when
compressing an already-offloaded sample saves more bytes per CPU-second
than offloading the next marginal sample.  The joint planner fixes that:
both action types compete in one efficiency-ordered greedy queue.

Actions:

- *offload(i)*: move sample i's prefix to the storage node (unlocks a
  follow-up compression action for i);
- *compress(i)*: deflate sample i's offloaded payload on the storage node.

Both are ranked by bytes saved per storage-CPU-second and admitted in one
queue by the planners' shared loop (:func:`repro.core.admission.admit`).
"""

import dataclasses
import heapq
import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.epoch_model import EpochMetrics, EpochModel
from repro.cluster.spec import ClusterSpec
from repro.compression.codecs import CompressionModel
from repro.compression.selective import CompressionDecision, CompressionPlan, stage_kinds
from repro.core.admission import (
    Action,
    Times,
    Work,
    admit,
    check_record_order,
    offload_actions,
)
from repro.core.plan import OffloadPlan
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import RecordTable, SampleRecord


@dataclasses.dataclass
class JointPlan:
    """The joint outcome: an offload plan plus a compression plan."""

    offload: OffloadPlan
    compression: CompressionPlan

    @property
    def num_offloaded(self) -> int:
        return self.offload.num_offloaded

    @property
    def num_compressed(self) -> int:
        return self.compression.num_compressed


class JointPlanner:
    """One greedy queue over offload and compression actions."""

    def __init__(self, model: Optional[CompressionModel] = None) -> None:
        self.model = model if model is not None else CompressionModel()

    def plan(
        self,
        records: Sequence[SampleRecord],
        pipeline: Pipeline,
        spec: ClusterSpec,
        gpu_time_s: float,
        overhead_bytes: Optional[int] = None,
    ) -> JointPlan:
        table = RecordTable.of(records)
        check_record_order(table)
        num_samples = len(table)
        if overhead_bytes is None:
            overhead_bytes = spec.response_overhead_bytes
        if not spec.can_offload:
            return JointPlan(
                offload=OffloadPlan.no_offload(
                    num_samples, reason="no storage cores"
                ),
                compression=CompressionPlan(decisions={}, reason="no storage cores"),
            )

        kinds = stage_kinds(pipeline)
        epoch_model = EpochModel(spec)
        metrics = EpochMetrics(
            gpu_time_s=gpu_time_s,
            compute_cpu_s=sum(table.total_cost.tolist()),
            storage_cpu_s=0.0,
            traffic_bytes=float(
                sum(table.sizes[:, 0].tolist()) + overhead_bytes * num_samples
            ),
        )
        min_stage = table.min_stage.tolist()
        offloads = list(offload_actions(table, np.arange(num_samples)))

        def compress_action(sample_id: int) -> Optional[CompressionDecision]:
            split = min_stage[sample_id]
            kind = kinds[split]
            wire = int(table.sizes[sample_id, split])
            saved = self.model.savings_bytes(kind, wire)
            if saved <= 0:
                return None
            return CompressionDecision(
                sample_id=sample_id,
                kind=kind,
                saved_bytes=saved,
                storage_cpu_s=self.model.compress_seconds(kind, wire),
                compute_cpu_s=self.model.decompress_seconds(kind, wire),
            )

        # Heap entries: (-efficiency, unique seq, sample id or decision).
        beneficial = np.flatnonzero(table.efficiency > 0)
        heap: List[Tuple[float, int, Union[int, CompressionDecision]]] = list(
            zip(
                (-table.efficiency[beneficial]).tolist(),
                range(len(beneficial)),
                beneficial.tolist(),
            )
        )
        heapq.heapify(heap)
        seq = itertools.count(len(heap))
        popped: List[Union[int, CompressionDecision]] = []

        def actions() -> Iterator[Action]:
            while heap:
                item = heapq.heappop(heap)[2]
                popped.append(item)
                yield item.action if isinstance(item, CompressionDecision) else offloads[item]

        splits = [0] * num_samples
        decisions: Dict[int, CompressionDecision] = {}

        def visit(
            index: int, work: Work, times: Times, rejected: Optional[Times]
        ) -> None:
            if rejected is not None:
                return
            item = popped[index]
            if isinstance(item, CompressionDecision):
                decisions[item.sample_id] = item
                return
            splits[item] = min_stage[item]
            # Offloading unlocks compressing this sample's payload.
            follow_up = compress_action(item)
            if follow_up is not None:
                heapq.heappush(heap, (-follow_up.efficiency, next(seq), follow_up))

        _, final, admitted, stop_index = admit(epoch_model, metrics, actions(), True, visit)
        if stop_index is None:
            reason = "exhausted candidate actions"
        else:
            reason = f"network no longer predominant (bottleneck: {final.bottleneck.value})"
        accepted_compressions = len(decisions)
        accepted_offloads = len(admitted) - accepted_compressions
        return JointPlan(
            offload=OffloadPlan(
                splits=splits,
                reason=(
                    f"joint: offloaded {accepted_offloads}/{num_samples}, "
                    f"compressed {accepted_compressions}; {reason}"
                ),
                expected=final,
            ),
            compression=CompressionPlan(
                decisions=decisions,
                reason=f"joint planning; {reason}",
                expected=final,
            ),
        )
