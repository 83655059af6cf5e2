"""The greedy admission loop shared by SOPHON's planners (paper section 3.2).

Each planner offers ordered actions, ``(sample_id, compute_cpu_s,
storage_cpu_s, traffic_bytes)`` with signed deltas to the epoch metrics;
adding a negated delta is bit-identical to subtracting it (IEEE 754).

The loop runs over four plain floats and :meth:`EpochModel.times`;
:class:`EpochMetrics` and :class:`EpochEstimate` objects are built only for
the result.
"""

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.epoch_model import EpochEstimate, EpochMetrics, EpochModel
from repro.preprocessing.records import RecordTable, SampleRecord

#: Tolerance when the never-worsen guard compares epoch estimates.
EPSILON_S = 1e-9

Action = Tuple[int, float, float, float]
#: ``(gpu_time_s, compute_cpu_s, storage_cpu_s, traffic_bytes)``.
Work = Tuple[float, float, float, float]
#: ``(t_g, t_cc, t_cs, t_net)``, as :meth:`EpochModel.times` returns them.
Times = Tuple[float, float, float, float]
Visit = Callable[[int, Work, Times, Optional[Times]], None]
Admission = Tuple[EpochMetrics, EpochEstimate, List[int], Optional[int]]


def check_record_order(records: Sequence[SampleRecord]) -> None:
    """Planners index plans by sample id, so records must be 0..n-1 in order."""
    if isinstance(records, RecordTable):
        ordered = bool((records.sample_ids == np.arange(len(records))).all())
    else:
        ordered = all(r.sample_id == i for i, r in enumerate(records))
    if not ordered:
        raise ValueError(
            "records must be ordered by sample id covering 0..n-1 "
            "(as produced by the stage-two profiler)"
        )


def offload_actions(table: RecordTable, ids: np.ndarray) -> Iterator[Action]:
    """Run each listed sample's best prefix on the storage node, in order."""
    moved = table.best_cost[ids]
    return zip(
        ids.tolist(),
        (-moved).tolist(),
        moved.tolist(),
        (-table.best_savings[ids]).tolist(),
    )


def admit(
    model: EpochModel,
    metrics: EpochMetrics,
    actions: Iterable[Action],
    never_worsen: bool,
    visit: Optional[Visit] = None,
) -> Admission:
    """Admit ``actions`` in order while the network is predominant.

    ``visit(index, work, times, rejected)`` sees each considered action
    with the work and model times before it; ``rejected`` is the times
    that made the never-worsen guard skip it.  A generator source may take
    follow-ups.  Each trial raises :class:`EpochMetrics`' error if a total
    goes negative.  Returns the final metrics and estimate (the stop
    estimate if the loop ended early), the admitted indices, and the first
    index left unconsidered (None when the actions ran out).
    """
    times = model.times
    gpu = metrics.gpu_time_s
    compute = metrics.compute_cpu_s
    storage = metrics.storage_cpu_s
    traffic = metrics.traffic_bytes
    now = times(gpu, compute, storage, traffic)
    # T_Net is predominant exactly when it equals the epoch estimate.
    epoch = max(now)
    admitted: List[int] = []
    stop_index: Optional[int] = None
    for index, (_, compute_cpu_s, storage_cpu_s, traffic_bytes) in enumerate(actions):
        if not now[3] >= epoch:
            stop_index = index
            break
        trial_compute = compute + compute_cpu_s
        trial_storage = storage + storage_cpu_s
        trial_traffic = traffic + traffic_bytes
        if trial_compute < 0 or trial_storage < 0 or trial_traffic < 0:
            EpochMetrics(gpu, trial_compute, trial_storage, trial_traffic)  # raises
        after = times(gpu, trial_compute, trial_storage, trial_traffic)
        after_epoch = max(after)
        worse = never_worsen and after_epoch > epoch + EPSILON_S
        if visit is not None:
            visit(index, (gpu, compute, storage, traffic), now, after if worse else None)
        if worse:
            continue
        compute, storage, traffic = trial_compute, trial_storage, trial_traffic
        now, epoch = after, after_epoch
        admitted.append(index)
    final = EpochMetrics(gpu, compute, storage, traffic)
    return final, EpochEstimate(*now), admitted, stop_index
