"""The policy interface shared by SOPHON and all baselines."""

import abc
import dataclasses
from typing import Optional, Sequence

from repro.cluster.spec import ClusterSpec
from repro.data.dataset import Dataset
from repro.parallel import RecordCache, build_records, record_key
from repro.preprocessing.pipeline import Pipeline
from repro.preprocessing.records import SampleRecord
from repro.workloads.models import ModelProfile


@dataclasses.dataclass
class PolicyContext:
    """Everything a policy may consult when planning offloads.

    Per-sample records are built lazily (they correspond to the paper's
    stage-two profiling pass) and cached, since several policies and the
    harness share them.

    record_cache: optional cross-context :class:`RecordCache`; sweeps
        that re-plan over the same dataset/pipeline/seed share profiled
        records through it instead of re-profiling.
    """

    dataset: Dataset
    pipeline: Pipeline
    spec: ClusterSpec
    model: ModelProfile
    batch_size: Optional[int] = None
    seed: int = 0
    record_cache: Optional[RecordCache] = dataclasses.field(default=None, repr=False)
    _records: Optional[Sequence[SampleRecord]] = dataclasses.field(default=None, repr=False)

    @property
    def effective_batch_size(self) -> int:
        return self.batch_size if self.batch_size is not None else self.model.batch_size

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    def records(self, epoch: int = 0) -> Sequence[SampleRecord]:
        """Per-sample stage sizes and op costs (cached for epoch 0)."""
        if epoch != 0:
            return self._build_records(epoch)
        if self._records is None:
            self._records = self._build_records(0)
        return self._records

    def _build_records(self, epoch: int) -> Sequence[SampleRecord]:
        def build() -> Sequence[SampleRecord]:
            return build_records(
                self.pipeline, self.dataset, seed=self.seed, epoch=epoch
            )

        if self.record_cache is None:
            return build()
        key = record_key(self.dataset, self.pipeline, self.seed, epoch)
        return self.record_cache.get_or_build(key, build)

    @property
    def epoch_gpu_time_s(self) -> float:
        return self.model.epoch_gpu_time_s(len(self.dataset))


class Policy(abc.ABC):
    """Decides which ops of which samples run on the storage node."""

    #: Short identifier used in reports (e.g. "sophon", "no-off").
    name: str = "policy"

    @abc.abstractmethod
    def plan(self, context: PolicyContext) -> "OffloadPlan":
        """Produce the per-sample offload plan for this workload."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


# Imported late to avoid a cycle: plan.py only needs types at runtime.
from repro.core.plan import OffloadPlan  # noqa: E402  (re-export for typing)
