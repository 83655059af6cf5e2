"""The analytic epoch-time model over the paper's four metrics.

Section 3.2 of the paper reasons about an epoch through four quantities:

- T_G: GPU time for one epoch;
- T_CC: compute-node CPU time (total local preprocessing / compute cores);
- T_CS: storage-node CPU time (total offloaded preprocessing / storage
  cores);
- T_Net: wire time (total traffic / bandwidth).

With a pipelined input path these stages overlap, so the epoch lower bound
is the maximum of the four; the decision engine optimizes against this model
while the event simulator provides the measured times (which include
queueing and pipeline fill).
"""

import dataclasses
import enum
from typing import Tuple

from repro.cluster.spec import ClusterSpec


class Bottleneck(enum.Enum):
    """Which of the four metrics dominates an epoch."""

    GPU = "gpu"
    COMPUTE_CPU = "compute_cpu"
    STORAGE_CPU = "storage_cpu"
    NETWORK = "network"


@dataclasses.dataclass(frozen=True)
class EpochMetrics:
    """Aggregate per-epoch work, before dividing by hardware capacity.

    gpu_time_s: serial GPU seconds (sum of batch times).
    compute_cpu_s: total single-core seconds of local preprocessing.
    storage_cpu_s: total single-core seconds of offloaded preprocessing
        (already scaled for the storage node's CPU speed factor).
    traffic_bytes: total bytes crossing the storage->compute link.
    """

    gpu_time_s: float
    compute_cpu_s: float
    storage_cpu_s: float
    traffic_bytes: float

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            if getattr(self, field.name) < 0:
                raise ValueError(f"{field.name} must be >= 0")


@dataclasses.dataclass(frozen=True)
class EpochEstimate:
    """The four T metrics of section 3.2 plus the derived epoch estimate."""

    t_g: float
    t_cc: float
    t_cs: float
    t_net: float

    @property
    def epoch_time_s(self) -> float:
        return max(self.t_g, self.t_cc, self.t_cs, self.t_net)

    @property
    def bottleneck(self) -> Bottleneck:
        pairs = [
            (self.t_g, Bottleneck.GPU),
            (self.t_cc, Bottleneck.COMPUTE_CPU),
            (self.t_cs, Bottleneck.STORAGE_CPU),
            (self.t_net, Bottleneck.NETWORK),
        ]
        return max(pairs, key=lambda p: p[0])[1]

    @property
    def network_bound(self) -> bool:
        """True when T_Net is the (weakly) predominant metric."""
        return self.t_net >= max(self.t_g, self.t_cc, self.t_cs)

    @property
    def gpu_utilization(self) -> float:
        """T_G / epoch time -- the fraction of the epoch the GPU computes."""
        epoch = self.epoch_time_s
        if epoch <= 0:
            return 0.0
        return self.t_g / epoch


class EpochModel:
    """Turns aggregate work into the four T metrics for a given cluster."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self._bandwidth_bytes_per_s = spec.bandwidth_bytes_per_s

    def times(
        self,
        gpu_time_s: float,
        compute_cpu_s: float,
        storage_cpu_s: float,
        traffic_bytes: float,
    ) -> Tuple[float, float, float, float]:
        """``(t_g, t_cc, t_cs, t_net)`` for aggregate work given as floats.

        The scalar form the admission loop calls once per candidate;
        :meth:`estimate` wraps it, so the formula lives here only.
        """
        spec = self.spec
        t_cc = compute_cpu_s * spec.compute_cpu_factor / spec.compute_cores
        if storage_cpu_s > 0 and spec.storage_cores == 0:
            raise ValueError("storage work scheduled on a cluster with 0 storage cores")
        t_cs = (
            0.0
            if storage_cpu_s == 0
            else storage_cpu_s * spec.storage_cpu_factor / spec.storage_cores
        )
        t_net = traffic_bytes / self._bandwidth_bytes_per_s
        return gpu_time_s, t_cc, t_cs, t_net

    def estimate(self, metrics: EpochMetrics) -> EpochEstimate:
        return EpochEstimate(
            *self.times(
                metrics.gpu_time_s,
                metrics.compute_cpu_s,
                metrics.storage_cpu_s,
                metrics.traffic_bytes,
            )
        )

    def epoch_time_s(self, metrics: EpochMetrics) -> float:
        return self.estimate(metrics).epoch_time_s
