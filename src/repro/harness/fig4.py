"""Figure 4: policy behaviour as storage-node CPU cores vary (section 4.2)."""

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.cluster.spec import ClusterSpec, standard_cluster
from repro.data.dataset import Dataset
from repro.harness.runner import ExperimentResult, compare_policies
from repro.parallel import RecordCache
from repro.utils.tables import render_table
from repro.utils.units import format_bytes, format_seconds


@dataclasses.dataclass
class CoreSweep:
    """Results of the storage-core sweep: results[cores][policy]."""

    dataset_name: str
    cores: List[int]
    results: Dict[int, Dict[str, ExperimentResult]]

    def epoch_times(self, policy: str) -> List[float]:
        return [self.results[c][policy].epoch_time_s for c in self.cores]

    def traffic(self, policy: str) -> List[int]:
        return [self.results[c][policy].traffic_bytes for c in self.cores]

    def sophon_marginal_gains(self) -> List[float]:
        """Epoch-time reduction per added core (the diminishing-returns
        series quoted in section 4.2)."""
        times = self.epoch_times("sophon")
        return [times[i] - times[i + 1] for i in range(len(times) - 1)]

    def render(self) -> str:
        policies = list(next(iter(self.results.values())).keys())
        rows = []
        for cores in self.cores:
            for policy in policies:
                result = self.results[cores][policy]
                rows.append(
                    (
                        cores,
                        policy,
                        format_seconds(result.epoch_time_s),
                        format_bytes(result.traffic_bytes),
                        result.plan.num_offloaded,
                    )
                )
        title = f"[{self.dataset_name}] storage-core sweep"
        table = render_table(
            ("Cores", "Policy", "Epoch", "Traffic", "Offloaded"), rows
        )
        return f"{title}\n{table}"


def limited_cpu_sweep(
    dataset: Dataset,
    cores: Sequence[int] = (0, 1, 2, 3, 4, 5),
    base_cluster: Optional[ClusterSpec] = None,
    seed: int = 0,
) -> CoreSweep:
    """Sweep storage-node core counts, re-planning every policy per point.

    Records depend only on (dataset, pipeline, seed, epoch) -- not on the
    cluster spec -- so one shared :class:`RecordCache` serves the whole
    sweep: stage-two profiling runs once instead of once per (core count,
    policy) pair.
    """
    if base_cluster is None:
        base_cluster = standard_cluster()
    cache = RecordCache()
    results: Dict[int, Dict[str, ExperimentResult]] = {}
    for core_count in cores:
        spec = base_cluster.with_storage_cores(core_count)
        runs = compare_policies(dataset, spec, seed=seed, record_cache=cache)
        results[core_count] = {r.policy_name: r for r in runs}
    return CoreSweep(dataset_name=dataset.name, cores=list(cores), results=results)
