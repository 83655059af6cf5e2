"""The SOPHON policy: two-stage profiling + efficiency-greedy planning."""

import logging
import time
from typing import Callable, Optional

from repro.baselines.capabilities import Capabilities
from repro.core.decision import DecisionConfig, DecisionEngine
from repro.core.degraded import DegradedModeFetcher
from repro.core.plan import OffloadPlan
from repro.core.policy import Policy, PolicyContext
from repro.core.profiler import StageOneProfiler, ThroughputProbe
from repro.preprocessing.pipeline import Pipeline
from repro.rpc.breaker import CircuitBreaker
from repro.rpc.fetcher import SupportsFetch
from repro.telemetry.audit import AuditLog
from repro.telemetry.spans import Tracer

logger = logging.getLogger(__name__)


class Sophon(Policy):
    """Selectively Offloading Preprocessing with Hybrid Operations
    Near-storage.

    Planning flow (paper Figure 2):

    1. Stage-one profiling classifies the workload; non-I/O-bound workloads
       train unmodified (CPU-bound cases are for CPU-offloading systems,
       GPU-bound cases need nothing).
    2. Stage-two profiling yields per-sample records.
    3. The decision engine offloads the highest-efficiency samples until
       the network stops being the predominant metric.
    """

    name = "sophon"

    # Table 1 row: selective on every axis, offloading near-storage.
    capabilities = Capabilities(
        operation_selective=True,
        data_partial=True,
        data_selective=True,
        to_near_storage=True,
    )

    def __init__(
        self,
        decision: DecisionConfig = DecisionConfig(),
        profiler: Optional[StageOneProfiler] = None,
        skip_stage_one: bool = False,
    ) -> None:
        self.engine = DecisionEngine(decision)
        self.profiler = profiler if profiler is not None else StageOneProfiler()
        self.skip_stage_one = skip_stage_one
        #: The last stage-one probe, for introspection/reporting.
        self.last_probe: Optional[ThroughputProbe] = None

    def plan(
        self,
        context: PolicyContext,
        audit: Optional[AuditLog] = None,
        tracer: Optional[Tracer] = None,
    ) -> OffloadPlan:
        """Plan offloading for *context*.

        audit/tracer are forwarded to the decision engine so a planning
        pass can be audited per sample (``sophon-repro audit``); stage-one
        early exits leave them empty -- no per-sample decisions were made.
        """
        if not context.spec.can_offload:
            return OffloadPlan.no_offload(
                context.num_samples,
                reason="storage node has no CPU cores for offloading",
            )

        if not self.skip_stage_one:
            probe = self.profiler.probe(
                context.dataset,
                context.pipeline,
                context.spec,
                context.model,
                batch_size=context.effective_batch_size,
                seed=context.seed,
            )
            self.last_probe = probe
            logger.info(
                "stage-one probe: gpu=%.2f io=%.2f cpu=%.2f batches/s -> %s-bound",
                probe.gpu_batches_per_s,
                probe.io_batches_per_s,
                probe.cpu_batches_per_s,
                probe.bottleneck.value,
            )
            if not probe.io_bound:
                return OffloadPlan.no_offload(
                    context.num_samples,
                    reason=(
                        "stage-one profiling: workload is "
                        f"{probe.bottleneck.value}-bound, not I/O-bound"
                    ),
                )

        records = context.records()
        return self.engine.plan(
            records,
            context.spec,
            gpu_time_s=context.epoch_gpu_time_s,
            audit=audit,
            tracer=tracer,
        )

    def degraded_fetcher(
        self,
        primary: SupportsFetch,
        pipeline: Pipeline,
        fallback: Optional[SupportsFetch] = None,
        breaker: Optional[CircuitBreaker] = None,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        tracer: Optional[Tracer] = None,
    ) -> DegradedModeFetcher:
        """Wrap *primary* so epochs survive storage outages.

        The returned fetcher demotes samples to split 0 (raw fetch + local
        prefix execution) whenever the offload path fails or the breaker is
        open, and records outages for adaptive re-planning -- see
        :mod:`repro.core.degraded`.
        """
        return DegradedModeFetcher(
            primary=primary,
            pipeline=pipeline,
            fallback=fallback,
            breaker=breaker,
            seed=seed,
            clock=clock,
            tracer=tracer,
        )
