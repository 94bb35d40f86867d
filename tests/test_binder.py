"""Unit tests for the binder (SQL ASTs → bound query blocks)."""

import pytest

from repro.errors import BindError, UnsupportedFeatureError
from repro.expr.expressions import (
    AggExpr,
    AggFunc,
    Arithmetic,
    ColumnRef,
    Comparison,
    Literal,
)
from repro.logical.blocks import ScalarSubquery
from repro.sql.binder import bind_batch, bind_sql
from repro.types import DataType, date_to_int


@pytest.fixture()
def catalog(tiny_db):
    return tiny_db.catalog


class TestNameResolution:
    def test_qualified_columns(self, catalog):
        query = bind_sql(
            catalog,
            "select c.c_custkey from customer c where c.c_nationkey = 3",
        )
        out = query.block.output[0]
        assert out.name == "c_custkey"
        assert isinstance(out.expr, ColumnRef)
        assert out.expr.data_type is DataType.INT

    def test_unqualified_unique(self, catalog):
        query = bind_sql(
            catalog, "select c_name from customer, orders where c_custkey = o_custkey"
        )
        assert query.block.output[0].expr.column == "c_name"

    def test_unknown_column(self, catalog):
        with pytest.raises(BindError):
            bind_sql(catalog, "select nope from customer")

    def test_unknown_table(self, catalog):
        with pytest.raises(BindError):
            bind_sql(catalog, "select 1 from ghost_table")

    def test_duplicate_alias(self, catalog):
        with pytest.raises(BindError):
            bind_sql(catalog, "select 1 from customer c, orders c")

    def test_instances_unique_per_reference(self, catalog):
        batch = bind_batch(
            catalog,
            "select c_custkey from customer; select c_name from customer",
        )
        t1 = batch.queries[0].block.tables[0]
        t2 = batch.queries[1].block.tables[0]
        assert t1.table == t2.table == "customer"
        assert t1.instance != t2.instance

    def test_star_expansion(self, catalog):
        query = bind_sql(catalog, "select * from region")
        assert query.block.output_names() == [
            "r_regionkey", "r_name", "r_comment",
        ]

    def test_qualified_star(self, catalog):
        query = bind_sql(
            catalog,
            "select n.* from nation n, region r where n_regionkey = r_regionkey",
        )
        assert query.block.output_names() == [
            "n_nationkey", "n_name", "n_regionkey", "n_comment",
        ]


class TestPredicates:
    def test_date_coercion(self, catalog):
        query = bind_sql(
            catalog,
            "select o_orderkey from orders where o_orderdate < '1996-07-01'",
        )
        conjunct = query.block.conjuncts[0]
        assert isinstance(conjunct, Comparison)
        assert conjunct.right == Literal(date_to_int("1996-07-01"), DataType.DATE)
        assert conjunct.right.data_type is DataType.DATE

    def test_type_mismatch_rejected(self, catalog):
        with pytest.raises(BindError):
            bind_sql(catalog, "select 1 from customer where c_name > 5")

    @pytest.mark.parametrize(
        "predicate",
        [
            "l_partkey or p_partkey",
            "l_partkey = p_partkey and p_size",
            "not l_quantity",
        ],
    )
    def test_non_boolean_logic_operands_rejected(self, catalog, predicate):
        """AND/OR/NOT over non-boolean operands used to bind and run as a
        cartesian product; they are now a bind error."""
        with pytest.raises(BindError, match="boolean operands"):
            bind_sql(
                catalog,
                f"select count(*) as c from lineitem, part where {predicate}",
            )

    def test_malformed_date_literal_is_a_bind_error(self, catalog):
        """A bad ISO string fails coercion, falls through to the
        comparability check, and surfaces as BindError — not as a raw
        ValueError from date parsing."""
        with pytest.raises(BindError, match="cannot compare"):
            bind_sql(
                catalog,
                "select o_orderkey from orders "
                "where o_orderdate < 'not-a-date'",
            )

    def test_unexpected_coercion_failure_propagates(
        self, catalog, monkeypatch
    ):
        """Only the expected conversion errors are swallowed during date
        coercion; a genuine defect (here an injected KeyError) must
        propagate instead of being masked as a type error."""
        from repro.sql import binder as binder_module

        def broken(value):
            raise KeyError("injected defect in date conversion")

        monkeypatch.setattr(binder_module, "date_to_int", broken)
        with pytest.raises(KeyError, match="injected defect"):
            bind_sql(
                catalog,
                "select o_orderkey from orders "
                "where o_orderdate < '1996-07-01'",
            )

    def test_between_expansion(self, catalog):
        query = bind_sql(
            catalog,
            "select c_custkey from customer where c_nationkey between 3 and 7",
        )
        assert len(query.block.conjuncts) == 2

    def test_in_expansion(self, catalog):
        query = bind_sql(
            catalog,
            "select c_custkey from customer where c_mktsegment in "
            "('BUILDING', 'MACHINERY')",
        )
        assert len(query.block.conjuncts) == 1  # a single OR conjunct

    def test_aggregate_in_where_rejected(self, catalog):
        with pytest.raises(BindError):
            bind_sql(catalog, "select 1 from customer where sum(c_acctbal) > 5")


class TestAggregation:
    def test_aggregates_collected(self, catalog):
        query = bind_sql(
            catalog,
            "select c_nationkey, sum(c_acctbal) as total, count(*) as n "
            "from customer group by c_nationkey",
        )
        block = query.block
        assert block.group_keys[0].column == "c_nationkey"
        assert AggExpr(AggFunc.SUM, block.output[1].expr.arg) in block.aggregates
        assert AggExpr(AggFunc.COUNT, None) in block.aggregates

    def test_count_column_normalized_to_count_star(self, catalog):
        query = bind_sql(
            catalog, "select count(c_custkey) as n from customer"
        )
        assert query.block.output[0].expr == AggExpr(AggFunc.COUNT, None)

    def test_avg_rewritten(self, catalog):
        query = bind_sql(catalog, "select avg(c_acctbal) as a from customer")
        out = query.block.output[0].expr
        assert isinstance(out, Arithmetic)
        aggs = set(query.block.aggregates)
        assert AggExpr(AggFunc.COUNT, None) in aggs
        assert any(a.func is AggFunc.SUM for a in aggs)

    def test_ungrouped_column_rejected(self, catalog):
        with pytest.raises(BindError):
            bind_sql(
                catalog,
                "select c_name, sum(c_acctbal) from customer group by c_nationkey",
            )

    def test_scalar_aggregate_block(self, catalog):
        query = bind_sql(catalog, "select sum(c_acctbal) as t from customer")
        assert query.block.group_keys == ()
        assert query.block.has_groupby

    def test_having_over_aggregate(self, catalog):
        query = bind_sql(
            catalog,
            "select c_nationkey, sum(c_acctbal) as t from customer "
            "group by c_nationkey having sum(c_acctbal) > 100",
        )
        assert len(query.block.having) == 1

    def test_nested_aggregate_rejected(self, catalog):
        with pytest.raises(BindError):
            bind_sql(catalog, "select sum(sum(c_acctbal)) from customer")

    def test_distinct_rejected(self, catalog):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql(catalog, "select count(distinct c_custkey) from customer")


class TestSubqueries:
    def test_scalar_subquery_in_having(self, catalog):
        query = bind_sql(
            catalog,
            "select c_nationkey, sum(c_acctbal) as t from customer "
            "group by c_nationkey "
            "having sum(c_acctbal) > (select sum(o_totalprice) / 25 from orders)",
        )
        assert len(query.subqueries) == 1
        sid, block = next(iter(query.subqueries.items()))
        assert block.has_groupby and not block.group_keys
        having = query.block.having[0]
        assert any(isinstance(n, ScalarSubquery) for n in having.walk())

    def test_non_scalar_subquery_rejected(self, catalog):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql(
                catalog,
                "select c_custkey from customer where c_nationkey > "
                "(select n_nationkey from nation group by n_nationkey)",
            )

    def test_non_aggregated_subquery_rejected(self, catalog):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql(
                catalog,
                "select c_custkey from customer where c_nationkey > "
                "(select n_nationkey from nation)",
            )


class TestWithClause:
    def test_spj_cte_inlined(self, catalog):
        query = bind_sql(
            catalog,
            "with co as (select c_nationkey, o_orderkey from customer, orders "
            "where c_custkey = o_custkey) "
            "select co.c_nationkey, sum(l_extendedprice) as le "
            "from co, lineitem where co.o_orderkey = l_orderkey "
            "group by co.c_nationkey",
        )
        tables = sorted(t.table for t in query.block.tables)
        assert tables == ["customer", "lineitem", "orders"]
        # The CTE's join predicate travelled into the block.
        assert any(
            getattr(c, "is_column_equality", False) for c in query.block.conjuncts
        )

    def test_cte_referenced_twice_duplicates_instances(self, catalog):
        query = bind_sql(
            catalog,
            "with co as (select c_custkey as k from customer) "
            "select a.k from co a, co b where a.k = b.k",
        )
        tables = [t.table for t in query.block.tables]
        assert tables == ["customer", "customer"]
        assert query.block.tables[0].instance != query.block.tables[1].instance

    def test_grouped_cte_rejected(self, catalog):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql(
                catalog,
                "with v as (select c_nationkey, sum(c_acctbal) as t "
                "from customer group by c_nationkey) select v.t from v",
            )


class TestOrderBy:
    def test_order_by_alias(self, catalog):
        query = bind_sql(
            catalog,
            "select c_nationkey, sum(c_acctbal) as total from customer "
            "group by c_nationkey order by total desc",
        )
        expr, descending = query.order_by[0]
        assert descending
        assert expr == query.block.output[1].expr

    def test_order_by_output_column(self, catalog):
        query = bind_sql(
            catalog, "select c_custkey from customer order by c_custkey"
        )
        assert query.order_by[0][0] == query.block.output[0].expr

    def test_order_by_non_output_rejected(self, catalog):
        with pytest.raises(UnsupportedFeatureError):
            bind_sql(catalog, "select c_custkey from customer order by c_name")
