"""RecordTable: columns bit-equal to the per-row SampleRecord values."""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.preprocessing.records import ProgressiveSampleRecord, RecordTable, SampleRecord


def bits(value):
    return float(value).hex()


def table_of_rows(rows):
    """A table built from raw columns, so every row is a lazy view."""
    n = len(rows)
    width = len(rows[0][1]) if rows else 0
    return RecordTable(
        list(range(n)),
        np.array([sizes for sizes, _ in rows], dtype=np.int64).reshape(n, width + 1),
        np.array([costs for _, costs in rows], dtype=np.float64).reshape(n, width),
    )


def record_error(sample_id, sizes, costs):
    with pytest.raises(ValueError) as excinfo:
        SampleRecord(sample_id, tuple(sizes), tuple(costs))
    return str(excinfo.value)


# Few distinct sizes so stage ties are common; zero and -0.0 costs so free
# prefixes (inf efficiency) and signed zeros show up.
COSTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, 0.25]),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def tables(draw):
    width = draw(st.integers(min_value=0, max_value=5))
    row = st.tuples(
        st.lists(st.integers(0, 6), min_size=width + 1, max_size=width + 1),
        st.lists(COSTS, min_size=width, max_size=width),
    )
    return draw(st.lists(row, min_size=0, max_size=12))


class TestDerivedColumns:
    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_every_column_matches_the_row_record_bit_for_bit(self, rows):
        table = table_of_rows(rows)
        for i, (sizes, costs) in enumerate(rows):
            record = SampleRecord(i, tuple(sizes), tuple(costs))
            assert table[i] == record
            assert int(table.min_stage[i]) == record.min_stage
            assert int(table.best_savings[i]) == record.best_savings
            assert bits(table.efficiency[i]) == bits(record.offload_efficiency)
            assert bits(table.total_cost[i]) == bits(record.total_cost)
            assert bits(table.best_cost[i]) == bits(record.prefix_cost(record.min_stage))
            for split in range(len(sizes)):
                assert bits(table.prefix[i, split]) == bits(record.prefix_cost(split))

    def test_size_tie_takes_the_earliest_stage(self):
        table = table_of_rows([((400, 900, 150, 150), (0.1, 0.2, 0.3))])
        assert int(table.min_stage[0]) == 2

    def test_tie_with_raw_is_not_beneficial(self):
        table = table_of_rows([((150, 900, 150), (0.1, 0.2))])
        assert int(table.min_stage[0]) == 0
        assert table.efficiency[0] == 0.0

    def test_zero_cost_best_prefix_is_infinitely_efficient(self):
        table = table_of_rows([((1000, 500, 100), (0.0, 0.0))])
        assert table.efficiency[0] == float("inf")
        assert table[0].offload_efficiency == float("inf")

    def test_raw_smallest_row_has_zero_efficiency(self):
        table = table_of_rows([((100, 500, 200), (0.01, 0.02))])
        assert int(table.best_savings[0]) == 0
        assert table.efficiency[0] == 0.0

    def test_empty_table(self):
        table = RecordTable.of([])
        assert len(table) == 0
        assert table == []
        assert list(table) == []


class TestValidation:
    @pytest.mark.parametrize(
        "bad_row",
        [
            ((10, -1, 5), (0.1, 0.1)),
            ((10, 20, 5), (0.1, -0.1)),
            ((10, 20, 5), (0.1, float("nan"))),
            ((10, 20, 5), (float("inf"), 0.1)),
            ((10, 20, 5), (0.1, float("-inf"))),
        ],
    )
    def test_errors_match_sample_record(self, bad_row):
        good = ((10, 20, 5), (0.1, 0.2))
        with pytest.raises(ValueError) as excinfo:
            table_of_rows([good, bad_row, bad_row])
        assert str(excinfo.value) == record_error(1, *bad_row)

    def test_column_width_mismatch_matches_sample_record(self):
        with pytest.raises(ValueError) as excinfo:
            RecordTable([0], np.array([[10, 20]]), np.array([[0.1, 0.2]]))
        assert str(excinfo.value) == record_error(0, (10, 20), (0.1, 0.2))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sample ids"):
            RecordTable([0, 1], np.array([[10, 20]]), np.array([[0.1]]))

    def test_of_rejects_mixed_op_counts(self):
        records = [SampleRecord(0, (10, 5), (0.1,)), SampleRecord(1, (10, 5, 4), (0.1, 0.1))]
        with pytest.raises(ValueError, match="same op count"):
            RecordTable.of(records)


class TestRowViews:
    def records(self):
        return [
            SampleRecord(0, (1000, 500, 100), (0.01, 0.02)),
            SampleRecord(1, (10, 20, 30), (0.0, 1.0)),
            ProgressiveSampleRecord(
                2, (100, 50, 50), (0.0, 0.5), scan_sizes=(40, 100), scan_psnr_db=(30.0, float("inf"))
            ),
        ]

    def test_of_keeps_the_given_row_objects(self):
        records = self.records()
        table = RecordTable.of(records)
        assert all(table[i] is records[i] for i in range(len(records)))
        assert RecordTable.of(table) is table

    def test_table_equals_its_rows_both_ways(self):
        records = self.records()[:2]
        table = RecordTable.of(records)
        view = RecordTable(table.sample_ids, table.sizes, table.costs)
        assert view == records and records == view
        assert view == table
        assert view != records[:1]
        assert view != [records[1], records[0]]

    def test_row_subclasses_take_part_in_equality(self):
        table = RecordTable.of(self.records())
        plain = RecordTable(table.sample_ids, table.sizes, table.costs)
        assert plain != table  # row 2 is progressive on one side only

    def test_views_are_built_once(self):
        table = table_of_rows([((10, 5), (0.1,)), ((10, 20), (0.1,))])
        first = table[1]
        assert table[1] is first
        assert table[-1] is first
        assert list(table)[1] is first
        assert table[0:2] == [table[0], first]

    def test_index_out_of_range(self):
        table = table_of_rows([((10, 5), (0.1,))])
        with pytest.raises(IndexError):
            table[1]
        with pytest.raises(IndexError):
            table[-2]

    def test_views_are_plain_python_values(self):
        table = table_of_rows([((10, 5), (0.1,))])
        row = table[0]
        assert type(row.sample_id) is int
        assert all(type(size) is int for size in row.stage_sizes)
        assert all(type(cost) is float for cost in row.op_costs)

    def test_pickle_round_trip(self):
        table = RecordTable.of(self.records())
        assert pickle.loads(pickle.dumps(table)) == table

    def test_concurrent_readers_never_see_a_missing_row(self):
        rows = [((10 + i, 5, 7), (0.1, 0.2)) for i in range(400)]
        expected = [SampleRecord(i, sizes, costs) for i, (sizes, costs) in enumerate(rows)]
        table = table_of_rows(rows)
        failures = []

        def read(start):
            for i in range(start, len(rows), 3):
                if table[i] != expected[i]:
                    failures.append(i)
            if list(table) != expected:
                failures.append("iter")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(k % 3,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
