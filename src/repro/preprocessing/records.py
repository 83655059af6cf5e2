"""Per-sample profile records: the currency of SOPHON's decision engine.

A :class:`SampleRecord` captures what the stage-two profiler learns about
one sample: its serialized size at every pipeline stage and the CPU cost of
every op.  From it we derive the sample's best split point, the traffic
saved by offloading to that split, and the paper's *offloading efficiency*
(bytes saved per CPU-second of offloaded work).

:class:`RecordTable` holds many records as numpy columns with those derived
values computed once, vectorized; the planners read its columns and hand
out :class:`SampleRecord` row views only where a record object is needed.
"""

import dataclasses
import math
from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple, Union, overload

import numpy as np

from repro.preprocessing.cost_model import CostModel
from repro.preprocessing.payload import StageMeta
from repro.preprocessing.pipeline import Pipeline


@dataclasses.dataclass(frozen=True)
class SampleRecord:
    """Stage sizes and op costs for one sample.

    stage_sizes: length n_ops + 1; entry 0 is the raw encoded size, entry k
        the serialized size after op k.
    op_costs: length n_ops; single-core seconds for op k (1-based -> index
        k-1).
    """

    sample_id: int
    stage_sizes: Tuple[int, ...]
    op_costs: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.stage_sizes) != len(self.op_costs) + 1:
            raise ValueError(
                "stage_sizes must have one more entry than op_costs "
                f"({len(self.stage_sizes)} vs {len(self.op_costs)})"
            )
        if any(s < 0 for s in self.stage_sizes):
            raise ValueError(f"negative stage size in {self.stage_sizes}")
        if any(c < 0 for c in self.op_costs):
            raise ValueError(f"negative op cost in {self.op_costs}")
        if not all(math.isfinite(c) for c in self.op_costs):
            raise ValueError(f"non-finite op cost in {self.op_costs}")
        # Cache cumulative costs so prefix_cost/suffix_cost/total_cost are
        # O(1) lookups -- the decision engine calls them for every candidate
        # split of every sample.  Each entry is built with the same
        # left-to-right fold ``sum(slice)`` performs (including sum's int-0
        # start), so the cached values are bit-identical to the re-summed
        # ones; in particular suffix entries are NOT derived as
        # total - prefix, which would round differently.
        prefix: List[float] = []
        for split in range(len(self.op_costs) + 1):
            acc: float = 0
            for cost in self.op_costs[:split]:
                acc = acc + cost
            prefix.append(acc)
        suffix: List[float] = []
        for split in range(len(self.op_costs) + 1):
            acc = 0
            for cost in self.op_costs[split:]:
                acc = acc + cost
            suffix.append(acc)
        object.__setattr__(self, "_prefix_costs", tuple(prefix))
        object.__setattr__(self, "_suffix_costs", tuple(suffix))

    # -- sizes -------------------------------------------------------------

    @property
    def raw_size(self) -> int:
        return self.stage_sizes[0]

    @property
    def num_ops(self) -> int:
        return len(self.op_costs)

    @property
    def min_stage(self) -> int:
        """The stage (split point) at which this sample is smallest.

        Ties break toward the earliest stage: equal size for less offloaded
        CPU work is strictly better.
        """
        sizes = self.stage_sizes
        return min(range(len(sizes)), key=lambda k: (sizes[k], k))

    @property
    def min_size(self) -> int:
        return self.stage_sizes[self.min_stage]

    def size_at(self, split: int) -> int:
        """Wire size when ops 1..split run remotely (0 = raw)."""
        return self.stage_sizes[split]

    # -- costs -------------------------------------------------------------

    def prefix_cost(self, split: int) -> float:
        """Single-core CPU seconds for ops 1..split."""
        if not 0 <= split <= self.num_ops:
            raise ValueError(f"bad split {split} for {self.num_ops}-op record")
        return self._prefix_costs[split]  # type: ignore[attr-defined]

    def suffix_cost(self, split: int) -> float:
        """Single-core CPU seconds for ops split+1..n."""
        if not 0 <= split <= self.num_ops:
            raise ValueError(f"bad split {split} for {self.num_ops}-op record")
        return self._suffix_costs[split]  # type: ignore[attr-defined]

    @property
    def total_cost(self) -> float:
        return self._prefix_costs[-1]  # type: ignore[attr-defined]

    # -- offloading value ---------------------------------------------------

    def savings(self, split: int) -> int:
        """Bytes kept off the wire by offloading to ``split``."""
        return self.raw_size - self.size_at(split)

    @property
    def best_savings(self) -> int:
        return self.savings(self.min_stage)

    @property
    def offload_efficiency(self) -> float:
        """Paper section 3.2: size reduction / preprocessing time.

        Zero when the sample is smallest in raw form (no offload is
        worthwhile), matching the 24%-at-ratio-0 population of Figure 1c.
        """
        split = self.min_stage
        if split == 0:
            return 0.0
        cost = self.prefix_cost(split)
        if cost <= 0.0:
            # A free size reduction; rank it above everything costed.
            return float("inf")
        return self.savings(split) / cost


@dataclasses.dataclass(frozen=True)
class ProgressiveSampleRecord(SampleRecord):
    """A :class:`SampleRecord` whose raw encoding is a progressive stream.

    Adds the fidelity axis: the raw object can be fetched as any scan
    prefix, so the planner may choose *how many bytes* of the sample to
    ship instead of (or before) choosing where to split the pipeline.

    scan_sizes: cumulative wire size of each scan prefix; entry k-1 is the
        byte size when only the first k scans ship.  The final entry is the
        complete stream, so ``scan_sizes[-1] == stage_sizes[0]``.
    scan_psnr_db: PSNR of each prefix decode against the full decode; the
        final entry is ``inf`` (the full prefix is exact) and values are
        non-decreasing (fidelity only improves as scans accumulate).
    """

    scan_sizes: Tuple[int, ...] = ()
    scan_psnr_db: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.scan_sizes:
            raise ValueError("progressive record needs at least one scan")
        if len(self.scan_psnr_db) != len(self.scan_sizes):
            raise ValueError(
                f"{len(self.scan_psnr_db)} PSNR entries for "
                f"{len(self.scan_sizes)} scans"
            )
        if any(b <= a for a, b in zip(self.scan_sizes, self.scan_sizes[1:])):
            raise ValueError(f"scan sizes must strictly increase: {self.scan_sizes}")
        if self.scan_sizes[-1] != self.stage_sizes[0]:
            raise ValueError(
                f"full scan prefix is {self.scan_sizes[-1]} bytes but the raw "
                f"stage size is {self.stage_sizes[0]}"
            )
        if any(b < a for a, b in zip(self.scan_psnr_db, self.scan_psnr_db[1:])):
            raise ValueError(
                f"scan PSNR must be non-decreasing: {self.scan_psnr_db}"
            )
        if self.scan_psnr_db[-1] != float("inf"):
            raise ValueError("full-prefix PSNR must be inf (exact reconstruction)")

    @property
    def num_scans(self) -> int:
        return len(self.scan_sizes)

    def size_at_fidelity(self, scan_count: int) -> int:
        """Wire size when only the first ``scan_count`` scans ship."""
        if not 1 <= scan_count <= self.num_scans:
            raise ValueError(
                f"scan_count {scan_count} outside [1, {self.num_scans}]"
            )
        return self.scan_sizes[scan_count - 1]

    def psnr_at(self, scan_count: int) -> float:
        """Fidelity (dB vs. the full decode) of a ``scan_count`` prefix."""
        if not 1 <= scan_count <= self.num_scans:
            raise ValueError(
                f"scan_count {scan_count} outside [1, {self.num_scans}]"
            )
        return self.scan_psnr_db[scan_count - 1]

    def fidelity_savings(self, scan_count: int) -> int:
        """Bytes kept off the wire by shipping only ``scan_count`` scans."""
        return self.raw_size - self.size_at_fidelity(scan_count)


class RecordTable(Sequence[SampleRecord]):
    """Columnar :class:`SampleRecord`\\ s: one row per sample.

    sample_ids: int64 ``[n]``.
    sizes: int64 ``[n, k+1]``; row i is record i's ``stage_sizes``.
    costs: float64 ``[n, k]``; row i is record i's ``op_costs``.

    Derived columns, computed once and each bit-equal to the per-row
    :class:`SampleRecord` value:

    - ``prefix[n, k+1]``: cumulative op cost.  ``np.add.accumulate`` is a
      sequential left fold from 0.0, exactly the record's own fold.
    - ``min_stage``: ``argmin`` over sizes; the first minimum is the
      earliest-stage tie the record picks.
    - ``best_cost`` (prefix cost at ``min_stage``), ``best_savings``,
      ``efficiency`` (0.0 at split 0, inf for a free prefix) and
      ``total_cost``.

    Indexing yields :class:`SampleRecord` row views, built on first access
    and cached; a table made from records hands back those very objects.
    A table compares equal to the list of its rows.
    """

    def __init__(
        self,
        sample_ids: Sequence[int],
        sizes: np.ndarray,
        costs: np.ndarray,
        rows: Optional[List[SampleRecord]] = None,
    ) -> None:
        self.sample_ids = np.asarray(sample_ids, dtype=np.int64)
        self.sizes = np.asarray(sizes, dtype=np.int64)
        self.costs = np.asarray(costs, dtype=np.float64)
        n = self.sample_ids.shape[0]
        if (
            self.sizes.ndim != 2
            or self.costs.ndim != 2
            or self.sizes.shape[0] != n
            or self.costs.shape[0] != n
        ):
            raise ValueError(
                f"{n} sample ids for sizes {self.sizes.shape} and costs {self.costs.shape}"
            )
        if self.sizes.shape[1] != self.costs.shape[1] + 1:
            raise ValueError(
                "stage_sizes must have one more entry than op_costs "
                f"({self.sizes.shape[1]} vs {self.costs.shape[1]})"
            )
        # ``rows``, when given, are the records the columns were read from.
        self._rows: List[Optional[SampleRecord]] = [None] * n if rows is None else list(rows)
        # Set once every row exists; only ever goes False -> True, so a
        # racing reader at worst builds an equal row twice.
        self._complete = rows is not None
        bad = (
            (self.sizes < 0).any(axis=1)
            | (self.costs < 0).any(axis=1)
            | ~np.isfinite(self.costs).all(axis=1)
        )
        if bad.any():
            self._row(int(bad.argmax()))  # raises SampleRecord's own error
        self.prefix = np.add.accumulate(
            np.concatenate([np.zeros((n, 1)), self.costs], axis=1), axis=1
        )
        self.min_stage = self.sizes.argmin(axis=1)
        index = np.arange(n)
        self.best_cost = self.prefix[index, self.min_stage]
        self.best_savings = self.sizes[:, 0] - self.sizes[index, self.min_stage]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            efficiency = np.where(
                self.best_cost > 0.0, self.best_savings / self.best_cost, np.inf
            )
        efficiency[self.min_stage == 0] = 0.0
        self.efficiency = efficiency
        self.total_cost = self.prefix[:, -1]

    @classmethod
    def of(cls, records: Sequence[SampleRecord]) -> "RecordTable":
        """``records`` itself if it is a table, else a table over the list."""
        if isinstance(records, RecordTable):
            return records
        rows = list(records)
        width = rows[0].num_ops if rows else 0
        if any(len(r.op_costs) != width for r in rows):
            raise ValueError("a record table needs every record to have the same op count")
        n = len(rows)
        sizes = chain.from_iterable(r.stage_sizes for r in rows)
        costs = chain.from_iterable(r.op_costs for r in rows)
        return cls(
            np.fromiter((r.sample_id for r in rows), dtype=np.int64, count=n),
            np.fromiter(sizes, dtype=np.int64, count=n * (width + 1)).reshape(n, width + 1),
            np.fromiter(costs, dtype=np.float64, count=n * width).reshape(n, width),
            rows=rows,
        )

    def _row(self, index: int) -> SampleRecord:
        row = self._rows[index]
        if row is None:
            row = SampleRecord(
                sample_id=int(self.sample_ids[index]),
                stage_sizes=tuple(self.sizes[index].tolist()),
                op_costs=tuple(self.costs[index].tolist()),
            )
            self._rows[index] = row
        return row

    def __len__(self) -> int:
        return len(self._rows)

    @overload
    def __getitem__(self, index: int) -> SampleRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[SampleRecord]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[SampleRecord, List[SampleRecord]]:
        if isinstance(index, slice):
            return [self._row(i) for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("record table index out of range")
        return self._row(index)

    def __iter__(self) -> Iterator[SampleRecord]:
        if not self._complete:
            ids = self.sample_ids.tolist()
            sizes = self.sizes.tolist()
            costs = self.costs.tolist()
            for i, row in enumerate(self._rows):
                if row is None:
                    self._rows[i] = SampleRecord(ids[i], tuple(sizes[i]), tuple(costs[i]))
            self._complete = True
        return iter(self._rows)  # type: ignore[arg-type]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RecordTable) and self._plain() and other._plain():
            return (
                np.array_equal(self.sample_ids, other.sample_ids)
                and np.array_equal(self.sizes, other.sizes)
                and np.array_equal(self.costs, other.costs)
            )
        if isinstance(other, (RecordTable, list)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def _plain(self) -> bool:
        """Every row is (or will be built as) a plain :class:`SampleRecord`."""
        return all(row is None or type(row) is SampleRecord for row in self._rows)

    def __repr__(self) -> str:
        return f"RecordTable({len(self)} samples, {self.costs.shape[1]} ops)"


def build_record(
    pipeline: Pipeline,
    raw_meta: StageMeta,
    sample_id: int,
    *,
    seed: int,
    epoch: int = 0,
    cost_model: Optional[CostModel] = None,
) -> SampleRecord:
    """Profile one sample through ``pipeline`` (metadata simulation)."""
    run = pipeline.simulate(
        raw_meta, seed=seed, epoch=epoch, sample_id=sample_id, cost_model=cost_model
    )
    sizes = (raw_meta.nbytes,) + tuple(s.out_meta.nbytes for s in run.stages)
    costs = tuple(s.cost_s for s in run.stages)
    return SampleRecord(sample_id=sample_id, stage_sizes=sizes, op_costs=costs)


def best_split(records: Sequence[SampleRecord]) -> List[int]:
    """The per-sample best split point for a collection of records."""
    return [r.min_stage for r in records]
