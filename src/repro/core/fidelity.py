"""The fidelity axis: choosing how many bytes of a sample to ship.

Following *Progressive Compressed Records* (Kuchnik et al., PAPERS.md),
samples encoded with :class:`repro.codec.progressive.ProgressiveJpegCodec`
can be fetched as any scan prefix, trading PSNR for wire bytes.  The
:class:`FidelityPlanner` widens SOPHON's decision from ``split`` to
``(split, scan_count)``:

1. Run the ordinary :class:`DecisionEngine` pass (where to split).
2. If the epoch is *still* network-bound after every worthwhile split has
   been offloaded, the split axis is out of levers -- spend fidelity:
   greedily truncate the raw fetches of progressive samples the engine
   left at split 0, ranked by bytes saved per dB of PSNR given up, until
   the network stops being predominant or the quality floor is reached.

Truncation only ever *removes* wire bytes and moves no CPU work, so no
``never_worsen`` guard is needed on this pass.  With the axis disabled
(``enabled=False``, no progressive records, or the split pass already
un-bound the network) the planner returns the engine's plan object
untouched -- plans, audit logs, and serialized output are byte-identical
to fidelity-free planning, gated by ``tests/core/test_fidelity.py``.
"""

import dataclasses
import logging
from typing import List, Optional, Sequence

from repro.cluster.epoch_model import EpochMetrics, EpochModel
from repro.cluster.spec import ClusterSpec
from repro.core.admission import admit
from repro.core.decision import DecisionEngine
from repro.core.plan import OffloadPlan
from repro.preprocessing.records import ProgressiveSampleRecord, SampleRecord
from repro.telemetry.audit import FIDELITY_DEGRADED, AuditLog
from repro.telemetry.registry import get_default_registry
from repro.telemetry.spans import Tracer, trace_id

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class FidelityConfig:
    """Knobs for the fidelity-degradation pass.

    enabled: master switch; False makes :class:`FidelityPlanner` a
        transparent wrapper around :class:`DecisionEngine`.
    min_psnr_db: quality floor -- never ship a prefix whose PSNR against
        the full decode is below this.
    min_scans: never ship fewer than this many scans (scan 0 alone is the
        DC image; some workloads want at least one AC band).
    psnr_cap_db: stand-in for the full prefix's infinite PSNR when
        computing dB given up; also caps finite PSNRs so one near-perfect
        prefix doesn't dominate the ranking.
    """

    enabled: bool = True
    min_psnr_db: float = 30.0
    min_scans: int = 1
    psnr_cap_db: float = 60.0

    def __post_init__(self) -> None:
        if self.min_scans < 1:
            raise ValueError(f"min_scans must be >= 1, got {self.min_scans}")
        if self.psnr_cap_db <= 0:
            raise ValueError(f"psnr_cap_db must be > 0, got {self.psnr_cap_db}")


@dataclasses.dataclass(frozen=True)
class _Rung:
    """One admissible degradation: ship ``scan_count`` scans of a sample."""

    record: ProgressiveSampleRecord
    scan_count: int
    saved_bytes: int
    psnr_db: float
    #: Bytes saved per dB of (capped) PSNR given up -- the ranking key,
    #: mirroring the paper's bytes-per-CPU-second offloading efficiency.
    efficiency: float


class FidelityPlanner:
    """Two-axis planner: the engine's split pass, then a fidelity pass."""

    def __init__(
        self,
        engine: Optional[DecisionEngine] = None,
        config: Optional[FidelityConfig] = None,
    ) -> None:
        self.engine = engine if engine is not None else DecisionEngine()
        self.config = config if config is not None else FidelityConfig()

    # -- rung construction -------------------------------------------------

    def _best_rung(self, record: ProgressiveSampleRecord) -> Optional[_Rung]:
        """The deepest admissible truncation for one sample, or None.

        One sample contributes one rung (its best jump) rather than a
        ladder of intermediate steps: truncation moves no CPU, so there is
        no budget reason to degrade a sample halfway when a deeper prefix
        still clears the quality floor.
        """
        cap = self.config.psnr_cap_db
        best: Optional[_Rung] = None
        for count in range(self.config.min_scans, record.num_scans):
            psnr = record.psnr_at(count)
            if psnr < self.config.min_psnr_db:
                continue
            saved = record.fidelity_savings(count)
            if saved <= 0:
                continue
            lost_db = cap - min(psnr, cap)
            efficiency = saved / lost_db if lost_db > 0 else float("inf")
            rung = _Rung(
                record=record,
                scan_count=count,
                saved_bytes=saved,
                psnr_db=psnr,
                efficiency=efficiency,
            )
            # Deeper prefixes save more bytes; keep the deepest admissible
            # one (first hit wins -- counts ascend, savings descend).
            if best is None or rung.saved_bytes > best.saved_bytes:
                best = rung
        return best

    # -- planning ----------------------------------------------------------

    def plan(
        self,
        records: Sequence[SampleRecord],
        spec: ClusterSpec,
        gpu_time_s: float,
        overhead_bytes: Optional[int] = None,
        audit: Optional[AuditLog] = None,
        tracer: Optional[Tracer] = None,
    ) -> OffloadPlan:
        """Plan splits, then spend fidelity if the network is still bound.

        Same signature as :meth:`DecisionEngine.plan`; when the fidelity
        pass has nothing to do, the engine's plan is returned *unchanged*
        (the same object), so disabling the axis is byte-identical to
        never having had it.
        """
        base = self.engine.plan(
            records,
            spec,
            gpu_time_s,
            overhead_bytes=overhead_bytes,
            audit=audit,
            tracer=tracer,
        )
        if not self.config.enabled or not spec.can_offload:
            return base
        if overhead_bytes is None:
            overhead_bytes = spec.response_overhead_bytes

        # Reconstruct the post-split epoch metrics from the plan.
        metrics = EpochMetrics(
            gpu_time_s=gpu_time_s,
            compute_cpu_s=sum(
                r.total_cost - r.prefix_cost(s) for r, s in zip(records, base.splits)
            ),
            storage_cpu_s=sum(
                r.prefix_cost(s) for r, s in zip(records, base.splits)
            ),
            traffic_bytes=float(
                sum(r.size_at(s) for r, s in zip(records, base.splits))
                + overhead_bytes * len(records)
            ),
        )
        rungs: List[_Rung] = []
        for record, split in zip(records, base.splits):
            if split != 0 or not isinstance(record, ProgressiveSampleRecord):
                continue
            rung = self._best_rung(record)
            if rung is not None:
                rungs.append(rung)
        rungs.sort(key=lambda r: (-r.efficiency, r.record.sample_id))

        # Truncation moves no CPU and only removes bytes, so no guard.
        actions = ((r.record.sample_id, 0.0, 0.0, -r.saved_bytes) for r in rungs)
        _, final, admitted, stop_index = admit(EpochModel(spec), metrics, actions, False)
        accepted = len(admitted)
        if accepted == 0:
            return base
        scan_counts: List[Optional[int]] = [None] * len(records)
        degraded = get_default_registry().counter(
            "fidelity_degraded_total",
            "samples planned at reduced fidelity (truncated scan prefix)",
        )
        for rung in rungs[:accepted]:
            sample_id = rung.record.sample_id
            scan_counts[sample_id] = rung.scan_count
            degraded.inc()
            if audit is not None and sample_id in audit:
                previous = audit.get(sample_id)
                audit.amend(
                    sample_id,
                    outcome=FIDELITY_DEGRADED,
                    reason=(
                        f"was {previous.outcome}; network still bound after the "
                        f"split pass, shipping {rung.scan_count}/"
                        f"{rung.record.num_scans} scans "
                        f"(saves {rung.saved_bytes}B at {rung.psnr_db:.1f}dB)"
                    ),
                    chosen_scans=rung.scan_count,
                    fidelity_psnr_db=rung.psnr_db,
                )
            if tracer is not None:
                tracer.instant(
                    trace_id(sample_id, 0),
                    "fidelity",
                    outcome=FIDELITY_DEGRADED,
                    scan_count=rung.scan_count,
                    psnr_db=rung.psnr_db,
                )
        if stop_index is None:
            reason = "exhausted degradable samples"
        else:
            reason = (
                "network no longer predominant (bottleneck: "
                f"{final.bottleneck.value}) after {accepted} degradations"
            )
        saved_total = sum(r.saved_bytes for r in rungs[:accepted])
        logger.info(
            "fidelity: degraded %d/%d samples, saved %dB; %s",
            accepted,
            len(records),
            saved_total,
            reason,
        )
        return OffloadPlan(
            splits=base.splits,
            reason=(
                f"{base.reason}; fidelity: degraded {accepted} samples "
                f"(saved {saved_total}B); {reason}"
            ),
            expected=final,
            scan_counts=scan_counts,
        )
