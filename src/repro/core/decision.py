"""SOPHON's decision engine (paper section 3.2).

Starting from the no-offload baseline (T_Net predominant, T_CS = 0), the
engine repeatedly selects the remaining sample with the highest offloading
efficiency -- bytes saved per CPU-second of offloaded work -- moving that
sample's pipeline prefix to the storage node.  Selection stops when either

1. T_Net ceases to be the predominant metric, or
2. no samples with positive efficiency remain.

An optional ``never_worsen`` guard additionally skips a sample whose
addition would *raise* the analytic epoch estimate (a prefix so expensive
that T_CS overshoots the network time it saves); this keeps the plan
monotone under severe storage-CPU scarcity and is ablated in the extension
benchmarks.

The loop itself is :func:`repro.core.admission.admit`, shared by all planners.
"""

import dataclasses
import logging
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.epoch_model import EpochEstimate, EpochMetrics, EpochModel
from repro.cluster.spec import ClusterSpec
from repro.core.admission import Times, Work, admit, check_record_order, offload_actions
from repro.core.plan import OffloadPlan
from repro.preprocessing.records import RecordTable, SampleRecord
from repro.telemetry.audit import (
    NOT_BENEFICIAL,
    OFFLOADED,
    PLANNING_STOPPED,
    SKIPPED_WOULD_WORSEN,
    AuditLog,
    BudgetState,
    CandidateSplit,
    DecisionRecord,
)
from repro.telemetry.registry import get_default_registry
from repro.telemetry.spans import Tracer, trace_id

logger = logging.getLogger(__name__)


def _candidate_splits(record: SampleRecord) -> Tuple[CandidateSplit, ...]:
    """Every split the engine could have chosen, as the profiler costed it."""
    return tuple(
        CandidateSplit(
            split=split,
            size_bytes=record.size_at(split),
            prefix_cpu_s=record.prefix_cost(split),
            savings_bytes=record.savings(split),
        )
        for split in range(record.num_ops + 1)
    )


def _budget_state(
    accepted: int, metrics: EpochMetrics, estimate: EpochEstimate
) -> BudgetState:
    return BudgetState(
        accepted_samples=accepted,
        epoch_estimate_s=estimate.epoch_time_s,
        bottleneck=estimate.bottleneck.value,
        network_bound=estimate.network_bound,
        storage_cpu_s=metrics.storage_cpu_s,
        traffic_bytes=metrics.traffic_bytes,
    )


@dataclasses.dataclass(frozen=True)
class DecisionConfig:
    """Engine knobs.

    never_worsen: skip samples whose offload would raise the epoch estimate
        (by more than the admission loop's fixed 1e-9 s tolerance).
    order: candidate ranking -- "efficiency" (the paper's bytes saved per
        CPU-second), "savings" (absolute bytes saved; ignores CPU cost), or
        "arrival" (sample-id order; no ranking at all).  The alternatives
        exist for the Finding-#4 ablation: under storage-CPU scarcity,
        efficiency ordering wins.
    """

    never_worsen: bool = True
    order: str = "efficiency"

    _ORDERS = ("efficiency", "savings", "arrival")

    def __post_init__(self) -> None:
        if self.order not in self._ORDERS:
            raise ValueError(
                f"order must be one of {self._ORDERS}, got {self.order!r}"
            )


class DecisionEngine:
    """Greedy efficiency-ordered sample selection against the epoch model."""

    def __init__(self, config: DecisionConfig = DecisionConfig()) -> None:
        self.config = config

    def plan(
        self,
        records: Sequence[SampleRecord],
        spec: ClusterSpec,
        gpu_time_s: float,
        overhead_bytes: Optional[int] = None,
        audit: Optional[AuditLog] = None,
        tracer: Optional[Tracer] = None,
    ) -> OffloadPlan:
        """Build the offload plan for one epoch's worth of records.

        gpu_time_s: the epoch's T_G (from the stage-one GPU probe).
        overhead_bytes: per-response protocol framing; defaults to the
            cluster spec's value.
        audit: when given, receives one :class:`DecisionRecord` per sample
            explaining its outcome (the ``sophon-repro audit`` data source).
        tracer: when given, each sample's decision is emitted as an instant
            event on its epoch-0 trace (the plan applies to every epoch).
        """
        table = RecordTable.of(records)
        check_record_order(table)
        num_samples = len(table)
        if overhead_bytes is None:
            overhead_bytes = spec.response_overhead_bytes

        outcomes = get_default_registry().counter(
            "decision_outcomes_total",
            "per-sample offload decisions by outcome",
            labels=["outcome"],
        )

        def count(tallies: Dict[str, int]) -> None:
            for outcome, samples in tallies.items():
                if samples:
                    outcomes.inc(amount=samples, outcome=outcome)

        explain = audit is not None or tracer is not None

        def note(
            sample_id: int,
            chosen: int,
            outcome: str,
            reason: str,
            budget: Optional[BudgetState] = None,
            rank: Optional[int] = None,
        ) -> None:
            if audit is not None:
                record = table[sample_id]
                audit.add(
                    DecisionRecord(
                        sample_id=sample_id,
                        candidates=_candidate_splits(record),
                        chosen_split=chosen,
                        best_split=record.min_stage,
                        efficiency=record.offload_efficiency,
                        efficiency_rank=rank,
                        outcome=outcome,
                        reason=reason,
                        budget=budget,
                    )
                )
            if tracer is not None:
                tracer.instant(
                    trace_id(sample_id, 0),
                    "decision",
                    outcome=outcome,
                    split=chosen,
                    reason=reason,
                )

        if not spec.can_offload:
            reason = "storage node has no CPU cores for offloading"
            count({PLANNING_STOPPED: num_samples})
            if explain:
                for sample_id in range(num_samples):
                    note(sample_id, 0, PLANNING_STOPPED, reason)
            return OffloadPlan.no_offload(num_samples, reason=reason)

        model = EpochModel(spec)

        # Baseline: everything fetched raw, all preprocessing local.  The
        # builtin sum over Python floats keeps the interpreter's summation.
        metrics = EpochMetrics(
            gpu_time_s=gpu_time_s,
            compute_cpu_s=sum(table.total_cost.tolist()),
            storage_cpu_s=0.0,
            traffic_bytes=float(
                sum(table.sizes[:, 0].tolist()) + overhead_bytes * num_samples
            ),
        )

        positive = table.efficiency > 0
        beneficial = np.flatnonzero(positive)
        # A stable argsort on the negated key keeps sorted(reverse=True)'s
        # order: ties stay in sample-id order.
        if self.config.order == "efficiency":
            candidates = beneficial[np.argsort(-table.efficiency[beneficial], kind="stable")]
        elif self.config.order == "savings":
            candidates = beneficial[
                np.argsort(-table.best_savings[beneficial], kind="stable")
            ]
        else:  # arrival order
            candidates = beneficial
        candidate_ids = candidates.tolist()
        count({NOT_BENEFICIAL: num_samples - len(candidate_ids)})

        if explain:
            for sample_id in np.flatnonzero(~positive).tolist():
                note(
                    sample_id,
                    0,
                    NOT_BENEFICIAL,
                    "no split with positive offloading efficiency",
                )

        if not candidate_ids:
            return OffloadPlan(
                splits=[0] * num_samples,
                reason="no samples with positive offloading efficiency",
                expected=model.estimate(metrics),
            )

        offloaded = f"best remaining candidate (order={self.config.order}) while network-bound"
        accepted = 0

        def visit(
            index: int, work: Work, times: Times, rejected: Optional[Times]
        ) -> None:
            nonlocal accepted
            sample_id = candidate_ids[index]
            estimate = EpochEstimate(*times)
            budget = _budget_state(accepted, EpochMetrics(*work), estimate)
            if rejected is not None:
                reason = (
                    "offload would raise the epoch estimate "
                    f"{estimate.epoch_time_s:.6f}s -> "
                    f"{EpochEstimate(*rejected).epoch_time_s:.6f}s"
                )
                note(sample_id, 0, SKIPPED_WOULD_WORSEN, reason, budget, index + 1)
                return
            accepted += 1
            split = int(table.min_stage[sample_id])
            note(sample_id, split, OFFLOADED, offloaded, budget, index + 1)

        metrics, final, admitted, stop_index = admit(
            model,
            metrics,
            offload_actions(table, candidates),
            self.config.never_worsen,
            visit if explain else None,
        )
        chosen = candidates[admitted]
        splits = np.zeros(num_samples, dtype=np.int64)
        splits[chosen] = table.min_stage[chosen]
        if stop_index is None:
            stopped_at = len(candidate_ids)
            reason = "exhausted candidates with positive efficiency"
        else:
            stopped_at = stop_index
            reason = (
                "network no longer predominant (bottleneck: "
                f"{final.bottleneck.value}) after {len(admitted)} samples"
            )
        count(
            {
                OFFLOADED: len(admitted),
                SKIPPED_WOULD_WORSEN: stopped_at - len(admitted),
                PLANNING_STOPPED: len(candidate_ids) - stopped_at,
            }
        )
        if explain:
            budget = _budget_state(len(admitted), metrics, final)
            for rank, sample_id in enumerate(
                candidate_ids[stopped_at:], start=stopped_at + 1
            ):
                note(sample_id, 0, PLANNING_STOPPED, reason, budget, rank)

        skipped = stopped_at - len(admitted)
        note_text = f"offloaded {len(admitted)}/{num_samples} samples"
        if skipped:
            note_text += f", skipped {skipped} (would worsen epoch estimate)"
        logger.info(
            "decision: %s; %s (expected epoch %.2fs, bottleneck %s)",
            note_text,
            reason,
            final.epoch_time_s,
            final.bottleneck.value,
        )
        return OffloadPlan(
            splits=splits.tolist(), reason=f"{note_text}; {reason}", expected=final
        )
