"""Job specs and the deterministic planner the service workers run.

A :class:`JobSpec` is the validated, canonical form of a ``/v1/plan``
request body.  Everything the plan depends on is in the spec, so the
planner is a pure function of it: the same spec always yields the same
splits, which is what makes journal replay and the crash-recovery
byte-identity gate possible.  The spec's :meth:`~JobSpec.params_digest`
is the idempotency key -- a client re-sending a request after a crash is
answered from the journal, not re-planned.

Profiled records are the expensive part (the paper's stage-two pass), so
the planner keeps a small LRU of them keyed by the profile-relevant
subset of the spec; a fleet of trainers sharing a dataset shape hits the
cache and only pays the decision-engine sweep.
"""

import collections
import dataclasses
import hashlib
import json
import threading
from typing import Mapping, Optional, Sequence, Tuple

from repro.cluster.spec import standard_cluster
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.policy import PolicyContext
from repro.data.catalog import make_imagenet, make_openimages
from repro.preprocessing.pipeline import standard_pipeline
from repro.preprocessing.records import RecordTable, SampleRecord
from repro.telemetry.flight import FlightRecorder
from repro.workloads.models import get_model_profile

_DATASETS = ("openimages", "imagenet")


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One job's plan request, validated and canonicalized."""

    job: str
    dataset: str
    num_samples: int
    seed: int
    model: str
    gpu: str
    storage_cores: int

    def __post_init__(self) -> None:
        if not self.job:
            raise ValueError("job name must be non-empty")
        if self.dataset not in _DATASETS:
            raise ValueError(
                f"dataset must be one of {_DATASETS}, got {self.dataset!r}"
            )
        if self.num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {self.num_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.storage_cores < 1:
            raise ValueError(
                f"storage_cores must be >= 1, got {self.storage_cores}"
            )

    @classmethod
    def from_request(cls, body: Mapping[str, object]) -> "JobSpec":
        """Build a spec from a request body; raises ValueError on bad input."""
        known = {
            "job", "dataset", "num_samples", "seed", "model", "gpu",
            "storage_cores",
        }
        unknown = set(body) - known
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        try:
            return cls(
                job=str(body["job"]),
                dataset=str(body.get("dataset", "openimages")),
                num_samples=int(body.get("num_samples", 256)),  # type: ignore[arg-type]
                seed=int(body.get("seed", 0)),  # type: ignore[arg-type]
                model=str(body.get("model", "alexnet")),
                gpu=str(body.get("gpu", "rtx6000")),
                storage_cores=int(body.get("storage_cores", 8)),  # type: ignore[arg-type]
            )
        except KeyError as exc:
            raise ValueError(
                f"request is missing required field {exc.args[0]!r}"
            ) from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed request: {exc}") from exc

    def params_digest(self) -> str:
        """Stable idempotency key over every plan-relevant parameter."""
        canonical = json.dumps(
            dataclasses.asdict(self), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def profile_key(self) -> Tuple[str, int, int]:
        """The subset of the spec the profiled records depend on."""
        return (self.dataset, self.num_samples, self.seed)


@dataclasses.dataclass(frozen=True)
class PlanResult:
    """What planning one spec produced."""

    splits: Tuple[int, ...]
    reason: str
    expected_epoch_s: Optional[float]
    num_offloaded: int


class ServicePlanner:
    """Runs the decision engine for job specs, with a records LRU.

    cache_size: profiled-record LRU entries (0 disables caching).
    """

    def __init__(
        self,
        cache_size: int = 8,
        engine: Optional[DecisionEngine] = None,
    ) -> None:
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self.cache_size = cache_size
        self.engine = engine if engine is not None else DecisionEngine(DecisionConfig())
        #: Flight recorder receiving ``service.plan`` spans for traced
        #: requests; the owning service attaches its own (a planner shared
        #: across restarts is re-pointed at the live service's recorder).
        self.recorder: Optional[FlightRecorder] = None
        self._records: "collections.OrderedDict[Tuple[str, int, int], Sequence[SampleRecord]]" = (
            collections.OrderedDict()
        )
        self._lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0

    def _records_for(self, spec: JobSpec) -> Sequence[SampleRecord]:
        key = spec.profile_key()
        with self._lock:
            if key in self._records:
                self._records.move_to_end(key)
                self.cache_hits += 1
                return self._records[key]
        if spec.dataset == "openimages":
            dataset = make_openimages(num_samples=spec.num_samples, seed=spec.seed)
        else:
            dataset = make_imagenet(num_samples=spec.num_samples, seed=spec.seed)
        context = PolicyContext(
            dataset=dataset,
            pipeline=standard_pipeline(),
            spec=standard_cluster(storage_cores=spec.storage_cores),
            model=get_model_profile(spec.model, spec.gpu),
            seed=spec.seed,
        )
        # Cached as a table: a cache hit plans with no list -> table pass.
        records = RecordTable.of(context.records())
        with self._lock:
            self.cache_misses += 1
            if self.cache_size > 0:
                self._records[key] = records
                while len(self._records) > self.cache_size:
                    self._records.popitem(last=False)
        return records

    def plan(self, spec: JobSpec, trace: Optional[str] = None) -> PlanResult:
        """Plan ``spec`` deterministically (raises ValueError on bad model)."""
        recorder = self.recorder
        if trace is None or recorder is None:
            return self._plan(spec)
        recorder.begin(trace, "service.plan", job=spec.job)
        try:
            result = self._plan(spec)
        except ValueError:
            recorder.end(trace, "service.plan", outcome="bad_request")
            raise
        recorder.end(
            trace, "service.plan",
            reason=result.reason, num_offloaded=result.num_offloaded,
        )
        return result

    def _plan(self, spec: JobSpec) -> PlanResult:
        try:
            model = get_model_profile(spec.model, spec.gpu)
        except KeyError as exc:
            raise ValueError(f"unknown model or gpu: {exc}") from exc
        records = self._records_for(spec)
        cluster = standard_cluster(storage_cores=spec.storage_cores)
        plan = self.engine.plan(
            records,
            cluster,
            gpu_time_s=model.epoch_gpu_time_s(spec.num_samples),
        )
        return PlanResult(
            splits=tuple(plan.splits),
            reason=plan.reason,
            expected_epoch_s=(
                plan.expected.epoch_time_s if plan.expected is not None else None
            ),
            num_offloaded=plan.num_offloaded,
        )
