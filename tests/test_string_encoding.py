"""Dictionary-encoded STRING columns.

Storage encodes STRING input once into int32 codes over a sorted
per-column dictionary; the engine compares, joins, groups, sorts and takes
MIN/MAX over the codes and decodes only at result conversion. These tests
pin the storage contract (validation, decoded accessors, dictionary
merging on append), statistics identical to per-value counting, and
engine ↔ oracle agreement on every string operation, including literals
absent from a dictionary, columns with different dictionaries, and
outer-join NULLs.
"""

import numpy as np
import pytest

from repro import OptimizerOptions, Session, types
from repro.catalog.schema import ColumnSchema, TableSchema
from repro.catalog.statistics import MCV_NDV_LIMIT, _mcv_from_counts
from repro.catalog.tpch import build_tpch_database
from repro.errors import ExecutionError, StorageError
from repro.executor.reference import evaluate_batch
from repro.storage.database import Database
from repro.storage.worktable import WorkTable
from repro.types import (
    NULL_CODE,
    DataType,
    StringColumn,
    concat_columns,
    encode_strings,
    unify_strings,
)
from repro.views.maintenance import MaintenancePlanner
from repro.views.materialized import ViewManager
from repro.workloads.generator import scaleup_batch

INT, FLOAT, STRING = DataType.INT, DataType.FLOAT, DataType.STRING


def _canon(rows, ordered=False):
    """Comparison form: NaN and None both mean NULL, floats rounded."""
    out = [
        tuple(
            "NULL"
            if v is None or (isinstance(v, float) and v != v)
            else (round(v, 6) if isinstance(v, float) else v)
            for v in row
        )
        for row in rows
    ]
    return out if ordered else sorted(out, key=repr)


def _agree(session, sql, ordered=False):
    """Run ``sql`` on the engine and the oracle; return the engine rows."""
    batch = session.bind(sql)
    outcome = session.execute(batch)
    oracle = evaluate_batch(session.database, batch)
    for result in outcome.execution.results:
        assert _canon(result.rows, ordered) == _canon(
            oracle[result.name], ordered
        ), sql
    return outcome.execution.results[0].rows


def _strings(*values):
    return np.array(values, dtype=object)


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------


class TestEncoding:
    def test_sorted_dictionary_and_codes(self):
        column = encode_strings(["kilo", "alpha", "kilo", "mike"])
        assert column.dictionary.tolist() == ["alpha", "kilo", "mike"]
        assert column.codes.tolist() == [1, 0, 1, 2]
        assert column.codes.dtype == np.int32
        assert column.decode().tolist() == ["kilo", "alpha", "kilo", "mike"]

    @pytest.mark.parametrize("bad", [3, None, b"bytes", 1.5])
    def test_non_str_values_raise_storage_error(self, bad):
        with pytest.raises(StorageError):
            encode_strings(["a", bad, "b"])

    def test_engine_codes_get_a_range_check(self):
        dictionary = _strings("a", "b")
        with pytest.raises(StorageError):
            encode_strings(StringColumn([0, 2], dictionary))
        with pytest.raises(StorageError):
            encode_strings(StringColumn([0, NULL_CODE], dictionary))
        nullable = StringColumn([0, NULL_CODE], dictionary)
        assert encode_strings(nullable, allow_null=True) is nullable

    def test_ufuncs_over_codes_are_refused(self):
        column = encode_strings(["a", "b"])
        with pytest.raises(ExecutionError):
            column == "a"  # noqa: B015 - the comparison itself must raise

    def test_slicing_keeps_the_dictionary(self):
        column = encode_strings(["c", "a", "b"])
        for view in (column[1:], column[[2, 0]], column[column.codes > 0]):
            assert isinstance(view, StringColumn)
            assert view.dictionary is column.dictionary

    def test_unify_merges_different_dictionaries(self):
        left = StringColumn([0, 1, NULL_CODE], _strings("b", "d"))
        right = StringColumn([1, 0], _strings("a", "c"))
        merged, (lc, rc) = unify_strings([left, right])
        assert merged.tolist() == ["a", "b", "c", "d"]
        assert lc.tolist() == [1, 3, NULL_CODE]
        assert rc.tolist() == [2, 0]
        joined = concat_columns([left, right])
        assert joined.decode().tolist() == ["b", "d", None, "c", "a"]

    def test_shared_dictionary_is_not_copied(self):
        column = encode_strings(["a", "b"])
        merged, codes = unify_strings([column, column[::-1]])
        assert merged is column.dictionary
        assert codes[1].tolist() == [1, 0]


def _tagged_db(tags, values=None):
    db = Database()
    db.create_table(
        TableSchema(
            "items",
            [
                ColumnSchema("i_id", INT),
                ColumnSchema("i_tag", STRING),
                ColumnSchema("i_v", FLOAT),
            ],
        ),
        {
            "i_id": np.arange(len(tags), dtype=np.int64),
            "i_tag": _strings(*tags),
            "i_v": np.asarray(
                values if values is not None else np.arange(len(tags)) + 0.5,
                dtype=np.float64,
            ),
        },
    )
    db.create_table(
        TableSchema(
            "tags",
            [ColumnSchema("t_tag", STRING), ColumnSchema("t_grp", STRING)],
        ),
        {
            "t_tag": _strings("alpha", "golf", "kilo", "mike", "zulu"),
            "t_grp": _strings("first", "middle", "middle", "middle", "last"),
        },
    )
    db.analyze()
    return db


class TestTableStorage:
    def test_decoded_accessors(self):
        db = _tagged_db(["kilo", "mike", "kilo"])
        table = db.table("items")
        assert isinstance(table.raw_column("i_tag"), StringColumn)
        assert table.column("i_tag").tolist() == ["kilo", "mike", "kilo"]
        matches = table.column("i_tag") == "kilo"
        assert matches.tolist() == [True, False, True]
        assert table.row(1) == (1, "mike", 1.5)
        assert table.rows()[2] == (2, "kilo", 2.5)
        assert table.columns()["i_tag"].tolist() == ["kilo", "mike", "kilo"]

    def test_table_rejects_non_str(self):
        db = _tagged_db(["kilo"])
        with pytest.raises(StorageError):
            db.insert("items", [(5, 7, 1.0)])
        with pytest.raises(StorageError):
            db.insert("items", [(5, None, 1.0)])
        assert db.table("items").row_count == 1

    def test_appends_before_between_and_after_keep_order(self):
        db = _tagged_db(["kilo", "mike", "kilo"])
        db.insert(
            "items", [(3, "alpha", 1.0), (4, "lima", 1.0), (5, "zulu", 1.0)]
        )
        column = db.table("items").raw_column("i_tag")
        assert column.dictionary.tolist() == [
            "alpha", "kilo", "lima", "mike", "zulu",
        ]
        assert column.decode().tolist() == [
            "kilo", "mike", "kilo", "alpha", "lima", "zulu",
        ]

    def test_worktable_keeps_null_codes_and_decodes(self):
        table = WorkTable("w", ["s"], [STRING])
        table.load({"s": StringColumn([1, NULL_CODE], _strings("a", "b"))})
        assert table.column("s").tolist() == ["b", None]
        assert isinstance(table.raw_column("s"), StringColumn)

    def test_worktable_validates_user_rows(self):
        table = WorkTable("w", ["s"], [STRING])
        table.load({"s": _strings("x", "a")})
        assert table.raw_column("s").dictionary.tolist() == ["a", "x"]
        with pytest.raises(StorageError):
            table.load({"s": np.array(["x", 3], dtype=object)})


class TestStatistics:
    def test_string_stats_equal_per_value_counting(self, small_db):
        """ndv and the MCV dict (contents *and* order) match a per-value
        count over the decoded values, so plan fingerprints cannot move."""
        for schema in small_db.catalog.tables():
            table = small_db.table(schema.name)
            stats = small_db.statistics(schema.name)
            for col in schema.columns:
                if col.data_type is not STRING:
                    continue
                counts = {}
                for value in table.column(col.name).tolist():
                    counts[value] = counts.get(value, 0) + 1
                collected = stats.column(col.name)
                assert collected.ndv == len(counts)
                want = (
                    _mcv_from_counts(counts, table.row_count)
                    if len(counts) <= MCV_NDV_LIMIT
                    else {}
                )
                assert list(collected.mcv.items()) == list(want.items())


# ---------------------------------------------------------------------------
# Engine ↔ oracle
# ---------------------------------------------------------------------------


@pytest.fixture()
def session(small_db):
    return Session(small_db, OptimizerOptions())


#: 'BUILDING' is present; 'C' sorts between values; 'A' below and 'ZZZ'
#: above every market segment.
LITERALS = ["BUILDING", "C", "A", "ZZZ"]
OPERATORS = ["=", "<>", "<", "<=", ">", ">="]


class TestStringsAgainstOracle:
    @pytest.mark.parametrize("literal", LITERALS)
    @pytest.mark.parametrize("op", OPERATORS)
    def test_literal_comparisons(self, session, op, literal):
        _agree(
            session,
            "select c_mktsegment, count(*) as n from customer "
            f"where c_mktsegment {op} '{literal}' group by c_mktsegment",
        )

    @pytest.mark.parametrize("op", ["<", ">=", "="])
    def test_literal_on_the_left(self, session, op):
        _agree(
            session,
            "select c_mktsegment, count(*) as n from customer "
            f"where 'FURNITURE' {op} c_mktsegment group by c_mktsegment",
        )

    def test_group_by_string_keys(self, session):
        _agree(
            session,
            "select o_orderstatus, o_orderpriority, count(*) as n, "
            "sum(o_totalprice) as s from orders "
            "group by o_orderstatus, o_orderpriority",
        )
        _agree(
            session,
            "select r_name, n_name, count(*) as n "
            "from region, nation, customer where r_regionkey = n_regionkey and n_nationkey = c_nationkey "
            "group by r_name, n_name",
        )

    def test_column_vs_column_across_tables(self, session):
        _agree(
            session,
            "select n_name, r_name from nation, region where n_name < r_name",
        )
        _agree(
            session,
            "select count(*) as n from nation, region where n_name >= r_name",
        )

    @pytest.mark.parametrize("direction", ["asc", "desc"])
    def test_order_by_strings_with_outer_join_nulls(self, session, direction):
        rows = _agree(
            session,
            "select n_name, c_mktsegment from nation left join customer "
            "on n_nationkey = c_nationkey and c_acctbal > 9900 "
            f"order by c_mktsegment {direction}, n_name {direction}",
            ordered=True,
        )
        assert any(row[1] is None for row in rows)

    def test_min_max_over_strings(self, session):
        assert _agree(session, "select min(r_name) as m from region") == [
            ("AFRICA",)
        ]
        _agree(
            session,
            "select n_regionkey, max(n_name) as m from nation "
            "group by n_regionkey",
        )

    def test_min_max_with_outer_join_nulls(self, session):
        rows = _agree(
            session,
            "select n_name, min(c_mktsegment) as lo, max(c_mktsegment) as hi "
            "from nation left join customer "
            "on n_nationkey = c_nationkey and c_acctbal > 9900 "
            "group by n_name",
        )
        assert any(row[1] is None and row[2] is None for row in rows)

    def test_string_projection_of_a_literal(self, session):
        _agree(session, "select r_name, 'x' as tag from region")


class TestDifferentDictionaries:
    def test_equi_join_on_strings(self):
        db = _tagged_db(["kilo", "mike", "golf", "kilo", "papa"])
        session = Session(db)
        _agree(
            session,
            "select t_grp, count(*) as n, sum(i_v) as s from items, tags "
            "where i_tag = t_tag group by t_grp",
        )
        _agree(
            session,
            "select i_tag, t_tag from items, tags where i_tag > t_tag",
        )

    def test_appends_then_view_maintenance(self):
        db = _tagged_db(["kilo", "mike", "kilo"])
        manager = ViewManager(db)
        view_sql = {
            "by_tag": "select i_tag, count(*) as n, sum(i_v) as s "
            "from items group by i_tag",
            "by_grp": "select t_grp, count(*) as n, sum(i_v) as s "
            "from items, tags where i_tag = t_tag group by t_grp",
        }
        for name, sql in view_sql.items():
            manager.create_view(name, sql)
        manager.refresh_all()
        planner = MaintenancePlanner(db, manager)
        session = Session(db)

        def check_views():
            for name, sql in view_sql.items():
                view = manager.view(name)
                table = view.contents
                names = table.column_names
                stored = list(zip(*[table.column(n).tolist() for n in names]))
                oracle = evaluate_batch(db, session.bind(sql))["Q1"]
                assert _canon(stored) == _canon(oracle), name

        delta = [(10, "alpha", 1.0), (11, "golf", 2.0), (12, "zulu", 4.0),
                 (13, "kilo", 8.0)]
        planner.apply_insert("items", delta)
        check_views()
        _agree(
            session,
            "select i_tag, count(*) as n from items where i_tag > 'golf' "
            "group by i_tag",
        )
        planner.apply_delete("items", delta)
        check_views()


# ---------------------------------------------------------------------------
# Hardware-independent guard
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig8_db():
    return build_tpch_database(scale_factor=0.01)


@pytest.mark.parametrize("workers", [1, 2])
def test_warm_batch_does_no_per_value_string_work(
    fig8_db, workers, monkeypatch
):
    """A warm Fig-8 n=10 batch never walks values through ``coerce_value``
    and never sorts an object array: STRING work stays on the codes."""
    sql = scaleup_batch(10)
    with Session(fig8_db, workers=workers) as session:
        session.execute(sql)
        walked = []
        object_uniques = []
        real_coerce = types.coerce_value
        real_unique = np.unique

        def counting_coerce(value, data_type):
            walked.append(value)
            return real_coerce(value, data_type)

        def spying_unique(values, *args, **kwargs):
            if np.asarray(values).dtype == object:
                object_uniques.append(len(values))
            return real_unique(values, *args, **kwargs)

        monkeypatch.setattr(types, "coerce_value", counting_coerce)
        monkeypatch.setattr(np, "unique", spying_unique)
        outcome = session.execute(sql)
    assert outcome.plan_cache_hit
    assert walked == []
    assert object_uniques == []
