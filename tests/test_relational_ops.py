"""Round-2 relational breadth: semi/anti join, rollup, pivot.

Each query also has a DuckDB value oracle (pipelines/queries.py QUERIES);
these tests pin the *relational invariants* that hold regardless of data,
at the smoke scale, so regressions surface without the driver."""

from __future__ import annotations

import pandas as pd
import pytest

from tests.conftest import SF_SMOKE


@pytest.mark.usefixtures("ray_session")
class TestSemiAntiJoin:
    def test_semi_and_anti_partition_customers(self):
        """semi ∪ anti = all customers; semi ∩ anti = ∅ (the defining
        property of a semi/anti join pair over one predicate)."""
        import pyarrow.parquet as pq

        from ai_pdf_extraction_ray.pipelines.queries import (
            q_customers_anti_join,
            q_customers_semi_join,
        )

        semi = q_customers_semi_join(SF_SMOKE).to_pandas()
        anti = q_customers_anti_join(SF_SMOKE).to_pandas()
        all_keys = set(
            pq.read_table(
                f"{SF_SMOKE}/customer.parquet", columns=["c_custkey"]
            ).column("c_custkey").to_pylist()
        )
        s, a = set(semi["c_custkey"]), set(anti["c_custkey"])
        assert s | a == all_keys
        assert not (s & a)
        assert (semi["n_urgent"] >= 1).all()

    def test_semi_counts_match_source(self):
        import duckdb

        from ai_pdf_extraction_ray.pipelines.queries import q_customers_semi_join

        semi = q_customers_semi_join(SF_SMOKE).to_pandas().set_index("c_custkey")
        truth = duckdb.sql(
            f"""SELECT o_custkey, count(*) n FROM
                read_parquet('{SF_SMOKE}/orders.parquet')
                WHERE o_orderpriority = '1-URGENT' GROUP BY 1"""
        ).df().set_index("o_custkey")
        assert semi["n_urgent"].to_dict() == truth["n"].to_dict()


@pytest.mark.usefixtures("ray_session")
class TestRollup:
    def test_levels_are_consistent(self):
        """Grand total == sum of status subtotals == sum of leaves, for both
        measures; every (status, priority) leaf appears exactly once."""
        from ai_pdf_extraction_ray.pipelines.queries import q_orders_rollup

        df = q_orders_rollup(SF_SMOKE).to_pandas()
        leaves = df[(df.o_orderstatus != "ALL") & (df.o_orderpriority != "ALL")]
        subs = df[(df.o_orderstatus != "ALL") & (df.o_orderpriority == "ALL")]
        total = df[(df.o_orderstatus == "ALL") & (df.o_orderpriority == "ALL")]
        assert len(total) == 1
        assert total["n_orders"].iloc[0] == leaves["n_orders"].sum() == subs["n_orders"].sum()
        assert abs(total["revenue"].iloc[0] - leaves["revenue"].sum()) < 0.05
        assert not leaves.duplicated(["o_orderstatus", "o_orderpriority"]).any()
        # each subtotal covers its leaves
        for st, g in leaves.groupby("o_orderstatus"):
            row = subs[subs.o_orderstatus == st]
            assert row["n_orders"].iloc[0] == g["n_orders"].sum()


@pytest.mark.usefixtures("ray_session")
class TestPivot:
    def test_row_counts_and_totals(self):
        import duckdb

        from ai_pdf_extraction_ray.pipelines.queries import q_events_pivot

        df = q_events_pivot(SF_SMOKE).to_pandas()
        truth = duckdb.sql(
            f"""SELECT user_id, event_type, count(*) n FROM
                read_parquet('{SF_SMOKE}/events.parquet') GROUP BY 1, 2"""
        ).df()
        n_events = truth["n"].sum()
        assert df["n_total"].sum() == n_events
        wide_sum = df[[c for c in df.columns if c.startswith("n_") and c != "n_total"]].sum(axis=1)
        assert (wide_sum == df["n_total"]).all()
        # spot-check one (user, type) cell against the long-form truth
        cell = truth.iloc[0]
        got = df.loc[df.user_id == cell.user_id, f"n_{cell.event_type}"].iloc[0]
        assert got == cell.n


@pytest.mark.usefixtures("ray_session")
class TestIncrementalDedup:
    def test_planted_cross_snapshot_duplicate_filtered(self, tmp_path):
        """A new (odd) doc whose text equals a prior (even) doc's text must
        NOT be reported as novel; unique new docs must be."""
        from ai_pdf_extraction_ray.pipelines.queries import q_incremental_new_docs

        texts = {0: "alpha beta", 1: "alpha beta",   # 1 duplicates prior 0
                 2: "gamma delta", 3: "epsilon zeta",  # 3 is novel
                 4: "eta theta", 5: "gamma delta"}     # 5 duplicates prior 2
        pd.DataFrame({"doc_id": list(texts), "text": list(texts.values())}
                     ).to_parquet(tmp_path / "documents.parquet")
        out = sorted(q_incremental_new_docs(str(tmp_path)).to_pandas()["doc_id"])
        assert out == [3]


@pytest.mark.usefixtures("ray_session")
class TestMonthlyDelta:
    def test_delta_telescopes(self):
        from ai_pdf_extraction_ray.pipelines.queries import q_monthly_revenue_delta

        df = q_monthly_revenue_delta(SF_SMOKE).to_pandas()
        assert df["month"].is_monotonic_increasing
        assert df["delta"].iloc[0] is None or pd.isna(df["delta"].iloc[0])
        # delta telescopes back to the revenue series
        rev = df["revenue"].to_numpy()
        dl = df["delta"].to_numpy(dtype=float)[1:]
        assert (abs((rev[:-1] + dl) - rev[1:]) < 0.02).all()


@pytest.mark.usefixtures("ray_session")
class TestAnalytics:
    def test_dau_bounds(self):
        import pyarrow.parquet as pq

        from ai_pdf_extraction_ray.pipelines.queries import q_daily_active_users

        df = q_daily_active_users(SF_SMOKE).to_pandas()
        ev = pq.read_table(f"{SF_SMOKE}/events.parquet",
                           columns=["user_id"]).to_pandas()
        n_users = ev["user_id"].nunique()
        assert (df["n_users"] <= n_users).all()
        assert (df["n_users"] >= 1).all()

    def test_cohort_week_zero_covers_every_user(self):
        """Every user is active in their own cohort's week 0 by definition,
        so week-0 rows summed over cohorts == total distinct users."""
        import pyarrow.parquet as pq

        from ai_pdf_extraction_ray.pipelines.queries import q_cohort_retention

        df = q_cohort_retention(SF_SMOKE).to_pandas()
        ev = pq.read_table(f"{SF_SMOKE}/events.parquet",
                           columns=["user_id"]).to_pandas()
        assert df[df.week_offset == 0]["n_users"].sum() == ev["user_id"].nunique()
        assert (df["week_offset"] >= 0).all()


@pytest.mark.usefixtures("ray_session")
class TestCube:
    def test_cube_contains_all_grouping_sets(self):
        from ai_pdf_extraction_ray.pipelines.queries import q_orders_cube, q_orders_rollup

        cube = q_orders_cube(SF_SMOKE).to_pandas()
        roll = q_orders_rollup(SF_SMOKE).to_pandas()
        # cube ⊇ rollup rows, plus the priority-only subtotals
        key = ["o_orderstatus", "o_orderpriority"]
        cube_keys = set(map(tuple, cube[key].to_numpy()))
        assert set(map(tuple, roll[key].to_numpy())) <= cube_keys
        prio_only = cube[(cube.o_orderstatus == "ALL") & (cube.o_orderpriority != "ALL")]
        assert len(prio_only) >= 2
        total = cube[(cube.o_orderstatus == "ALL") & (cube.o_orderpriority == "ALL")]
        assert prio_only["n_orders"].sum() == total["n_orders"].iloc[0]


@pytest.mark.usefixtures("ray_session")
class TestUnigramLogprob:
    def test_rare_token_doc_scores_lower(self, tmp_path):
        """A doc full of corpus-rare tokens scores below one full of
        corpus-common tokens — the signal's defining property."""
        from ai_pdf_extraction_ray.pipelines.queries import q_unigram_logprob

        texts = (["common words appear here"] * 8
                 + ["common words appear here zzz_rare_one zzz_rare_two"])
        pd.DataFrame({"doc_id": range(len(texts)), "text": texts}).to_parquet(
            tmp_path / "documents.parquet")
        df = q_unigram_logprob(str(tmp_path)).to_pandas().set_index("doc_id")
        assert df.loc[8, "mean_logprob"] < df.loc[0, "mean_logprob"]
        assert (df["n_tokens"] > 0).all()


@pytest.mark.usefixtures("ray_session")
class TestCorrelation:
    def test_matches_numpy_corrcoef(self):
        import pyarrow.parquet as pq
        import numpy as np

        from ai_pdf_extraction_ray.pipelines.queries import q_lineitem_corr

        got = q_lineitem_corr(SF_SMOKE).to_pandas().set_index("l_returnflag")
        t = pq.read_table(f"{SF_SMOKE}/lineitem.parquet",
                          columns=["l_returnflag", "l_quantity",
                                   "l_extendedprice"]).to_pandas()
        for flag, g in t.groupby("l_returnflag"):
            want = np.corrcoef(g["l_quantity"], g["l_extendedprice"])[0, 1]
            assert got.loc[flag, "corr"] == pytest.approx(want, abs=1e-4)
            assert got.loc[flag, "n"] == len(g)
        assert (got["corr"].abs() <= 1.0).all()


@pytest.mark.usefixtures("ray_session")
class TestDimensionRollups:
    """region/supplier/part dimension queries vs direct DuckDB."""

    def test_region_revenue_conserves_orders(self):
        import duckdb

        from ai_pdf_extraction_ray.pipelines.queries import q_region_revenue

        df = q_region_revenue(SF_SMOKE).to_pandas()
        assert len(df) == 5
        total = duckdb.sql(
            f"""SELECT count(*) FROM read_parquet('{SF_SMOKE}/orders.parquet') o
                JOIN read_parquet('{SF_SMOKE}/customer.parquet') c
                  ON o.o_custkey = c.c_custkey"""
        ).fetchone()[0]
        assert df.n_orders.sum() == total

    def test_supplier_and_part_rollups(self):
        from ai_pdf_extraction_ray.pipelines.queries import (
            q_part_brand_stats,
            q_supplier_balance_by_region,
        )

        import pyarrow.parquet as pq

        n_sup = pq.read_metadata(f"{SF_SMOKE}/supplier.parquet").num_rows
        n_part = pq.read_metadata(f"{SF_SMOKE}/part.parquet").num_rows
        sup = q_supplier_balance_by_region(SF_SMOKE).to_pandas()
        assert sup.n_suppliers.sum() == n_sup    # every supplier attributed
        part = q_part_brand_stats(SF_SMOKE).to_pandas()
        assert part.n_parts.sum() == n_part      # every part attributed
        assert (part.min_size <= part.max_size).all()


@pytest.mark.usefixtures("ray_session")
class TestPropsJson:
    def test_missing_k_is_null_like_duckdb(self, tmp_path):
        """A props row without an integer ``k`` counts in ``n`` and adds
        nothing to ``sum_k`` (DuckDB json_extract gives NULL), instead of
        failing the task."""
        import duckdb
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ai_pdf_extraction_ray.pipelines.queries import QUERIES, q_props_json

        props = ['{"k": 3}', '{"x": 1}', '{"y": 2, "k":-4}', '{"kk": 5}',
                 '{"k": 10, "z": [1]}', '{}']
        pq.write_table(pa.table({
            "event_type": ["a", "a", "a", "b", "b", "b"], "props": props}),
            tmp_path / "events.parquet")
        got = q_props_json(str(tmp_path)).to_pandas().sort_values("event_type")
        assert got.sum_k.tolist() == [-1, 10]
        assert got.n.tolist() == [3, 3]

        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS SELECT * FROM "
                    f"read_parquet('{tmp_path}/events.parquet')")
        want = con.sql(QUERIES["props_json"]["sql"]).df()
        want = want.sort_values("event_type")
        assert want.sum_k.tolist() == got.sum_k.tolist()
        assert want.n.tolist() == got.n.tolist()


class TestFirstRowsPerKey:
    """The Arrow first-n-per-key kernel behind first_event_per_user and
    stratified_sample: (ts, event_id) order within each key, nulls one key."""

    def test_tie_order_and_null_key(self):
        import pyarrow as pa

        from ai_pdf_extraction_ray.pipelines.queries import _first_rows_per_key

        t = pa.table({
            "event_id": [5, 2, 9, 1, 7, 3],
            "ts": pa.array([1, 1, 0, 2, 3, 3], pa.timestamp("us")),
            "user_id": pa.array([10, 10, 11, None, None, 11], pa.int64()),
        })
        got = _first_rows_per_key(t, "user_id", 1)
        assert got.column("event_id").to_pylist() == [2, 9, 1]
        two = _first_rows_per_key(t, "user_id", 2)
        assert two.column("event_id").to_pylist() == [2, 5, 9, 3, 1, 7]
        assert _first_rows_per_key(t.slice(0, 0), "user_id", 1).num_rows == 0
