"""The greedy admission loop shared by SOPHON's planners (paper section 3.2).

Each planner offers ordered actions, ``(sample_id, compute_cpu_s,
storage_cpu_s, traffic_bytes)`` with signed deltas to the epoch metrics;
adding a negated delta is bit-identical to subtracting it (IEEE 754).
"""

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.epoch_model import EpochEstimate, EpochMetrics, EpochModel
from repro.preprocessing.records import SampleRecord

#: Tolerance when the never-worsen guard compares epoch estimates.
EPSILON_S = 1e-9

Action = Tuple[int, float, float, float]
Visit = Callable[[int, EpochMetrics, EpochEstimate, Optional[EpochEstimate]], None]
Admission = Tuple[EpochMetrics, EpochEstimate, List[int], Optional[int]]


def check_record_order(records: Sequence[SampleRecord]) -> None:
    """Planners index plans by sample id, so records must be 0..n-1 in order."""
    if any(r.sample_id != i for i, r in enumerate(records)):
        raise ValueError(
            "records must be ordered by sample id covering 0..n-1 "
            "(as produced by the stage-two profiler)"
        )


def offload_action(record: SampleRecord) -> Action:
    """Run a sample's best prefix on the storage node instead of locally."""
    split = record.min_stage
    moved = record.prefix_cost(split)
    return record.sample_id, -moved, moved, -record.savings(split)


def admit(
    model: EpochModel,
    metrics: EpochMetrics,
    actions: Iterable[Action],
    never_worsen: bool,
    visit: Optional[Visit] = None,
) -> Admission:
    """Admit ``actions`` in order while the network is predominant.

    ``visit(index, metrics, estimate, rejected)`` sees each considered action
    with the state before it; ``rejected`` is the estimate that made the
    never-worsen guard skip it.  A generator source may take follow-ups.
    Returns the final metrics and estimate (the stop estimate if the loop
    ended early), the admitted indices, and the first index left
    unconsidered (None when the actions ran out).
    """
    admitted: List[int] = []
    estimate = model.estimate(metrics)
    for index, (_, compute_cpu_s, storage_cpu_s, traffic_bytes) in enumerate(actions):
        if not estimate.network_bound:
            return metrics, estimate, admitted, index
        trial = EpochMetrics(
            gpu_time_s=metrics.gpu_time_s,
            compute_cpu_s=metrics.compute_cpu_s + compute_cpu_s,
            storage_cpu_s=metrics.storage_cpu_s + storage_cpu_s,
            traffic_bytes=metrics.traffic_bytes + traffic_bytes,
        )
        after = model.estimate(trial) if never_worsen else None
        worse = after is not None and after.epoch_time_s > estimate.epoch_time_s + EPSILON_S
        if visit is not None:
            visit(index, metrics, estimate, after if worse else None)
        if worse:
            continue
        metrics = trial
        estimate = after if after is not None else model.estimate(trial)
        admitted.append(index)
    return metrics, estimate, admitted, None
