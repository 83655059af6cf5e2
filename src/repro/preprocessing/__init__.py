"""The five-op preprocessing pipeline from the paper's case study.

The pipeline mirrors the official PyTorch ImageNet training script:
Decode -> RandomResizedCrop -> RandomHorizontalFlip -> ToTensor -> Normalize.
Each op is a real transformation over numpy data *and* carries a metadata
simulation (:meth:`Op.simulate`) so the exact same size/cost algebra can be
evaluated without touching pixels -- that is what the trace datasets and the
decision engine run on.

Stage numbering convention used across the project: stage 0 is the raw
encoded sample; stage ``k`` (1-based) is the output of the k-th op.  A
"split point" of ``k`` means ops ``1..k`` run on the storage node and ops
``k+1..n`` on the compute node; split 0 is no offloading.
"""

from repro.preprocessing.payload import Payload, PayloadKind, StageMeta
from repro.preprocessing.ops import (
    Decode,
    Normalize,
    Op,
    RandomHorizontalFlip,
    RandomResizedCrop,
    ToTensor,
)
from repro.preprocessing.pipeline import Pipeline, standard_pipeline
from repro.preprocessing.cost_model import CostModel, DEFAULT_COST_MODEL, calibrate
from repro.preprocessing.records import RecordTable, SampleRecord, best_split, build_record

__all__ = [
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Decode",
    "Normalize",
    "Op",
    "Payload",
    "PayloadKind",
    "Pipeline",
    "RandomHorizontalFlip",
    "RandomResizedCrop",
    "RecordTable",
    "SampleRecord",
    "StageMeta",
    "ToTensor",
    "best_split",
    "build_record",
    "calibrate",
    "standard_pipeline",
]
