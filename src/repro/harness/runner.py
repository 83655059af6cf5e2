"""Run one policy on one workload and measure an epoch."""

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.epoch_model import EpochEstimate, EpochModel
from repro.cluster.spec import ClusterSpec
from repro.cluster.trainer import EpochStats, TrainerSim
from repro.core.plan import OffloadPlan
from repro.core.policy import Policy, PolicyContext
from repro.core.sophon import Sophon
from repro.baselines.fastflow import FastFlow
from repro.baselines.simple import AllOff, NoOff, ResizeOff
from repro.data.dataset import Dataset
from repro.parallel import RecordCache
from repro.preprocessing.pipeline import Pipeline, standard_pipeline
from repro.workloads.models import ModelProfile, get_model_profile


@dataclasses.dataclass
class ExperimentResult:
    """One (policy, workload, cluster) measurement."""

    policy_name: str
    dataset_name: str
    spec: ClusterSpec
    plan: OffloadPlan
    stats: EpochStats
    estimate: EpochEstimate

    @property
    def epoch_time_s(self) -> float:
        return self.stats.epoch_time_s

    @property
    def traffic_bytes(self) -> int:
        return self.stats.traffic_bytes

    @property
    def gpu_utilization(self) -> float:
        return self.stats.gpu_utilization


#: Factories for the paper's five evaluated policies, in figure order.
DEFAULT_POLICY_SET: Dict[str, Callable[[], Policy]] = {
    "no-off": NoOff,
    "all-off": AllOff,
    "fastflow": FastFlow,
    "resize-off": ResizeOff,
    "sophon": Sophon,
}


def run_experiment(
    dataset: Dataset,
    policy: Policy,
    cluster: ClusterSpec,
    model: Optional[ModelProfile] = None,
    pipeline: Optional[Pipeline] = None,
    batch_size: Optional[int] = None,
    seed: int = 0,
    measure_epoch: int = 1,
    record_cache: Optional[RecordCache] = None,
) -> ExperimentResult:
    """Plan with ``policy`` (profiling on epoch 0), measure ``measure_epoch``.

    Profiling always happens on the first, non-offloaded epoch; the plan is
    then applied to a later epoch, as in the paper's on-the-fly scheme.
    ``record_cache`` shares profiled records across experiments (see
    :mod:`repro.parallel`); it changes no output.
    """
    if model is None:
        model = get_model_profile("alexnet", "rtx6000")
    if pipeline is None:
        pipeline = standard_pipeline()

    context = PolicyContext(
        dataset=dataset,
        pipeline=pipeline,
        spec=cluster,
        model=model,
        batch_size=batch_size,
        seed=seed,
        record_cache=record_cache,
    )
    plan = policy.plan(context).clamped_for(cluster)

    trainer = TrainerSim(
        dataset=dataset,
        pipeline=pipeline,
        model=model,
        spec=cluster,
        batch_size=context.effective_batch_size,
        seed=seed,
    )
    stats = trainer.run_epoch(list(plan.splits), epoch=measure_epoch)
    estimate = EpochModel(cluster).estimate(stats.analytic)
    return ExperimentResult(
        policy_name=policy.name,
        dataset_name=dataset.name,
        spec=cluster,
        plan=plan,
        stats=stats,
        estimate=estimate,
    )


def compare_policies(
    dataset: Dataset,
    cluster: ClusterSpec,
    policies: Optional[Sequence[Policy]] = None,
    model: Optional[ModelProfile] = None,
    pipeline: Optional[Pipeline] = None,
    batch_size: Optional[int] = None,
    seed: int = 0,
    record_cache: Optional[RecordCache] = None,
) -> List[ExperimentResult]:
    """Run the paper's five policies (or a custom set) on one workload.

    Policies profile the same (dataset, pipeline, seed) tuple, so a shared
    ``record_cache`` is created by default: the stage-two profiling pass
    runs once instead of once per policy.
    """
    if policies is None:
        policies = [factory() for factory in DEFAULT_POLICY_SET.values()]
    if record_cache is None:
        record_cache = RecordCache()
    return [
        run_experiment(
            dataset,
            policy,
            cluster,
            model=model,
            pipeline=pipeline,
            batch_size=batch_size,
            seed=seed,
            record_cache=record_cache,
        )
        for policy in policies
    ]
