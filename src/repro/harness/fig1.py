"""Figure 1: the preprocessing-pipeline analysis (paper section 2).

- 1a: per-sample size through the pipeline stages;
- 1b: fraction of samples smallest in raw form vs an intermediate stage;
- 1c: offloading-efficiency distribution (see repro.core.efficiency);
- 1d: GPU utilization across models under a constrained link.
"""

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.spec import ClusterSpec
from repro.cluster.trainer import TrainerSim
from repro.core.profiler import StageTwoProfiler
from repro.data.dataset import Dataset
from repro.preprocessing.pipeline import Pipeline, standard_pipeline
from repro.preprocessing.records import SampleRecord
from repro.utils.tables import render_table
from repro.workloads.models import get_model_profile


@dataclasses.dataclass(frozen=True)
class SizeTrace:
    """Figure 1a data for one sample."""

    sample_id: int
    stage_names: Tuple[str, ...]  # "raw" + op names
    stage_sizes: Tuple[int, ...]

    @property
    def min_stage(self) -> int:
        return min(range(len(self.stage_sizes)), key=lambda k: (self.stage_sizes[k], k))

    def render(self) -> str:
        rows = [
            (name, size, "<- min" if k == self.min_stage else "")
            for k, (name, size) in enumerate(zip(self.stage_names, self.stage_sizes))
        ]
        return render_table(("Stage", "Bytes", ""), rows)


def size_trace(
    dataset: Dataset,
    sample_id: int,
    pipeline: Optional[Pipeline] = None,
    seed: int = 0,
) -> SizeTrace:
    """Stage-by-stage sizes for one sample (Figure 1a)."""
    if pipeline is None:
        pipeline = standard_pipeline()
    meta = dataset.raw_meta(sample_id)
    sizes = pipeline.stage_sizes(meta, seed=seed, epoch=0, sample_id=sample_id)
    return SizeTrace(
        sample_id=sample_id,
        stage_names=("raw",) + tuple(pipeline.op_names),
        stage_sizes=tuple(sizes),
    )


def representative_samples(dataset: Dataset, pipeline: Optional[Pipeline] = None, seed: int = 0) -> Tuple[int, int]:
    """(sample A, sample B): one that shrinks mid-pipeline, one smallest raw.

    Mirrors the paper's Figure 1a exhibit.  Raises if the dataset lacks one
    of the two populations.
    """
    if pipeline is None:
        pipeline = standard_pipeline()
    shrinks = smallest_raw = None
    for sample_id in dataset.sample_ids():
        trace = size_trace(dataset, sample_id, pipeline, seed=seed)
        if trace.min_stage > 0 and shrinks is None:
            shrinks = sample_id
        if trace.min_stage == 0 and smallest_raw is None:
            smallest_raw = sample_id
        if shrinks is not None and smallest_raw is not None:
            return shrinks, smallest_raw
    raise ValueError(
        "dataset lacks one of the two Figure-1a populations "
        f"(shrinking: {shrinks}, smallest-raw: {smallest_raw})"
    )


def minstage_fractions(
    dataset: Dataset,
    pipeline: Optional[Pipeline] = None,
    seed: int = 0,
    records: Optional[Sequence[SampleRecord]] = None,
) -> Dict[str, float]:
    """Figure 1b: where samples reach their minimum size.

    Returns fractions keyed by "raw" and by op name of the minimum stage.
    """
    if pipeline is None:
        pipeline = standard_pipeline()
    if records is None:
        records = StageTwoProfiler().profile(dataset, pipeline, seed=seed)
    names = ["raw"] + pipeline.op_names
    counts = {name: 0 for name in names}
    for record in records:
        counts[names[record.min_stage]] += 1
    total = max(1, len(records))
    return {name: counts[name] / total for name in names}


def benefit_fraction(fractions: Dict[str, float]) -> float:
    """Fraction of samples that shrink at some intermediate stage."""
    return 1.0 - fractions.get("raw", 0.0)


def gpu_utilization_by_model(
    dataset: Dataset,
    spec: ClusterSpec,
    models: Sequence[str] = ("resnet50", "resnet18", "alexnet"),
    gpu: str = "v100",
    pipeline: Optional[Pipeline] = None,
    seed: int = 0,
) -> List[Tuple[str, float]]:
    """Figure 1d: measured GPU utilization, no offloading, per model."""
    if pipeline is None:
        pipeline = standard_pipeline()
    results = []
    for model_name in models:
        profile = get_model_profile(model_name, gpu)
        trainer = TrainerSim(
            dataset=dataset, pipeline=pipeline, model=profile, spec=spec, seed=seed
        )
        stats = trainer.run_epoch(splits=None, epoch=0)
        results.append((model_name, stats.gpu_utilization))
    return results
