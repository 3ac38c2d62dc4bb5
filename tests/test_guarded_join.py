"""guarded_join, partial_groupby and segment_window: the package's single
join entry point, its single decomposable-aggregate site and its single
per-key ordered-work site (the sort both others run on above 8 MiB)."""

from __future__ import annotations

import ast
import functools
import inspect
import re
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from ai_pdf_extraction_ray.pipelines.goldens import GOLDEN_SQL
from ai_pdf_extraction_ray.pipelines.queries import QUERIES, q_pagerank
from ai_pdf_extraction_ray.stages.dedup import collect_table
from tests.conftest import REPO_ROOT, SF_SMOKE

PKG = REPO_ROOT / "ai_pdf_extraction_ray"

def _calls(fn, callee: str, skip: tuple[str, ...] = ()) -> bool:  # noqa: ANN001
    """``fn``'s body, or a module-level helper it names other than those
    in ``skip``, calls ``callee``."""
    names = fn.__code__.co_names
    return callee in names or any(
        n not in skip and inspect.isfunction(fn.__globals__.get(n))
        and callee in fn.__globals__[n].__code__.co_names
        for n in names)


# queries whose body (or a helper it names) calls guarded_join, found by
# name, so a new direct caller joins the degenerate-input sweep
# automatically, plus near_dup_clusters, listed by hand: it reaches the
# join through a stage function
DIRECT_CALLERS = sorted(
    {name for name, q in QUERIES.items() if _calls(q["fn"], "guarded_join")}
    | {"near_dup_clusters"})

# queries that aggregate through partial_groupby (found the same way), plus
# heavy_hitters and vocab_bigrams (they reach the helper through a stage
# function) and media_audio_video, listed by hand so all three stay in the
# zero-row sweep
PARTIAL_GROUPBY_CALLERS = sorted(
    {name for name, q in QUERIES.items() if _calls(q["fn"], "partial_groupby")}
    | {"heavy_hitters", "media_audio_video", "vocab_bigrams"})

# queries that run per-key ordered work through segment_window (found the
# same way, not counting the sort path of guarded_join and partial_groupby
# above 8 MiB), plus the callers that reach it through another module (the
# four LSH queries through the bucket stages in stages/dedup)
SEGMENT_WINDOW_CALLERS = sorted(
    {name for name, q in QUERIES.items()
     if _calls(q["fn"], "segment_window", ("guarded_join", "partial_groupby"))}
    | {"heavy_hitters", "approx_distinct_users", "approx_quantiles",
       "merge_chunked", "pages_per_host", "minhash_near_dups",
       "simhash_near_dups", "embedding_near_dups_lsh", "near_dup_clusters"})


def _rows(out) -> int:  # noqa: ANN001 — Dataset
    return len(out.take_all())


def _columns(out) -> tuple[list[str], int]:  # noqa: ANN001 — Dataset
    """The result's column names, in order, and its row count."""
    t = collect_table(out)
    return t.column_names, t.num_rows


def _operators(ds) -> list[str]:  # noqa: ANN001 — Dataset
    """The names of the operators ``ds.stats()`` reports, in order."""
    return re.findall(r"^Operator \d+ (.+?):", ds.stats(), re.M)


def _execute(ds) -> tuple[pa.Table, bool]:  # noqa: ANN001 — Dataset
    """Run ``ds``: its rows, and whether the sort path (a ``Sort``
    operator) ran to produce them. Ray's hash-shuffle join (a ``Join``
    operator, ``HashShuffleAggregator`` actors) never runs."""
    import ray

    ds = ds.materialize()
    rows = pa.concat_tables(ray.get(ds.to_arrow_refs()),
                            promote_options="default")
    ops = _operators(ds)
    assert not [op for op in ops if "Join" in op]
    assert "HashShuffleAggregator" not in ds.stats()
    return rows, "Sort" in ops


JOIN_TYPES = [("inner", "inner"), ("left_outer", "left outer")]


def _finish_fn(column: str, drop: int):  # noqa: ANN202
    """A block-local ``finish``: drop the rows whose ``column`` is ``drop``
    or null, then prefix every column name with ``x_``. Nested, so Ray
    ships it by value (workers cannot import this test module)."""
    def finish(t: pa.Table) -> pa.Table:
        return t.filter(pc.not_equal(t.column(column), drop)).rename_columns(
            [f"x_{c}" for c in t.column_names])

    return finish


@pytest.fixture
def force_shuffle(monkeypatch) -> None:
    """No side is small enough to broadcast and no partials small enough
    to merge on the driver: every join and aggregate takes the sort path."""
    from ai_pdf_extraction_ray.stages import dedup

    monkeypatch.setattr(dedup, "_BROADCAST_MAX_BYTES", -1)


EMPTY_SIDE = pa.table({"k": pa.array([], pa.int64()),
                       "w": pa.array([], pa.string())})


class TestEmptySides:
    """An empty side joins like any other side: ``pa.Table.join``'s rows,
    columns and types, at the default bound and on the sort path."""

    @pytest.mark.parametrize("join_type,arrow_type", JOIN_TYPES)
    @pytest.mark.parametrize("empty_side", ["left", "right"])
    @pytest.mark.parametrize("limit", [None, -1], ids=["default", "sort"])
    def test_empty_side_matches_pyarrow(self, ray_session, monkeypatch, limit,
                                        empty_side, join_type, arrow_type):
        import ray.data as rd

        from ai_pdf_extraction_ray.stages import dedup

        if limit is not None:
            monkeypatch.setattr(dedup, "_BROADCAST_MAX_BYTES", limit)
        full = pa.table({"k": pa.array([1, 2, None], pa.int64()),
                         "v": ["a", "b", "c"]})
        left, right = ((EMPTY_SIDE, full) if empty_side == "left"
                       else (full, EMPTY_SIDE))
        got = dedup.collect_table(dedup.guarded_join(
            rd.from_arrow(left), rd.from_arrow(right), on=("k",),
            join_type=join_type))
        want = left.join(right, "k", join_type=arrow_type)
        assert got.schema == want.schema
        assert _sorted_frame(got).equals(_sorted_frame(want))
        # a left_outer join keeps every left row; nothing else gives a row
        keeps_left = (join_type, empty_side) == ("left_outer", "right")
        assert got.num_rows == (full.num_rows if keeps_left else 0)

    @pytest.mark.parametrize("join_type", ["inner", "left_outer"])
    @pytest.mark.parametrize("empty_side", ["left", "right"])
    def test_empty_side_without_columns_raises(self, ray_session, empty_side,
                                               join_type):
        """A map over zero rows keeps no columns, so there is nothing to
        type the result by: build such a side with ``typed_map``."""
        import ray.data as rd

        from ai_pdf_extraction_ray.stages.dedup import guarded_join

        untyped = rd.from_arrow(EMPTY_SIDE).map_batches(
            lambda t: t, batch_format="pyarrow")
        assert untyped.schema() is None
        full = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                       "v": ["a", "b"]}))
        left, right = ((untyped, full) if empty_side == "left"
                       else (full, untyped))
        with pytest.raises(ValueError, match="typed_map"):
            guarded_join(left, right, on=("k",), join_type=join_type)


class TestLineage:
    @staticmethod
    def _check(tmp_path, join_type: str, arrow_type: str) -> None:
        """A groupby output (schema-less empty blocks when there are fewer
        keys than shuffle partitions) joined to a parquet-read side gives
        the pyarrow reference join."""
        import ray.data as rd
        from ray.data.aggregate import Count

        from ai_pdf_extraction_ray.stages.dedup import guarded_join

        events = pa.table({"k": pa.array([i % 3 for i in range(60)], pa.int64())})
        names = pa.table({"name_k": pa.array([0, 1, 2, 5], pa.int64()),
                          "name": ["zero", "one", "two", "five"]})
        pq.write_table(events, tmp_path / "events.parquet")
        pq.write_table(names, tmp_path / "names.parquet")

        counts = (rd.read_parquet(str(tmp_path / "events.parquet"))
                  .groupby("k").aggregate(Count(alias_name="n")))
        read_side = rd.read_parquet(str(tmp_path / "names.parquet"))
        got = guarded_join(read_side, counts, join_type=join_type,
                           on=("name_k",), right_on=("k",)).to_pandas()

        ref_counts = events.group_by("k").aggregate(
            [([], "count_all")]).rename_columns(["k", "n"])
        want = names.join(ref_counts, "name_k", "k",
                          join_type=arrow_type).to_pandas()
        cols = ["name_k", "name", "n"]
        got = got[cols].sort_values("name_k").reset_index(drop=True)
        want = want[cols].sort_values("name_k").reset_index(drop=True)
        assert got.astype(str).equals(want.astype(str))

    @pytest.mark.parametrize("join_type,arrow_type", JOIN_TYPES)
    def test_groupby_side_against_read_side(self, ray_session, tmp_path,
                                            join_type, arrow_type):
        self._check(tmp_path, join_type, arrow_type)

    @pytest.mark.parametrize("join_type,arrow_type", JOIN_TYPES)
    def test_groupby_side_against_read_side_shuffled(
            self, ray_session, force_shuffle, tmp_path, join_type, arrow_type):
        """The same join on the sort path: the groupby side's schema-less
        empty blocks go through the tag map and the sort; small sides
        would otherwise never reach it."""
        self._check(tmp_path, join_type, arrow_type)


def _sorted_frame(t: pa.Table) -> pd.DataFrame:
    """Order-insensitive comparison form: every value as text, rows sorted."""
    df = t.to_pandas().astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _text_rows(t: pa.Table) -> tuple[list[str], list[str]]:
    """Column names and the rows as text, sorted: an order-insensitive
    comparison form that keeps duplicate column names."""
    return t.column_names, sorted(
        repr(row) for row in zip(*(c.to_pylist() for c in t.columns)))


def _blocks(t: pa.Table, *cuts: int) -> list[pa.Table]:
    """``t`` as several blocks, a zero-row block first."""
    bounds = [0, *cuts, len(t)]
    return [t.slice(0, 0)] + [t.slice(a, b - a)
                              for a, b in zip(bounds, bounds[1:])]


# keys with duplicates and nulls on both sides; a second key column; the
# right side names its keys differently
LEFT = pa.table({
    "k": pa.array([1, 1, 2, None, 3, 4, 4, 7], pa.int64()),
    "g": ["a", "a", "b", "a", "c", "d", "e", "a"],
    "lv": pa.array(range(8), pa.int64()),
})
RIGHT = pa.table({
    "rk": pa.array([1, 1, 2, 2, None, 4, 5, 3, 3, 1, 9, 4, None, 2, 6,
                    1, 2, 3, 4, 5], pa.int64()),
    "rg": ["a", "a", "b", "x", "a", "d", "a", "c", "c", "b", "a", "e",
           "a", "b", "a", "a", "b", "c", "d", "e"],
    "rv": [f"r{i}" for i in range(20)],
})


class TestPathParity:
    """Broadcast and sort joins agree with ``pa.Table.join``."""

    @staticmethod
    def _join(left: pa.Table, right: pa.Table, *, sort: bool,
              **kw) -> pd.DataFrame:
        import ray.data as rd

        from ai_pdf_extraction_ray.stages.dedup import guarded_join

        rows, sorted_ = _execute(guarded_join(
            rd.from_arrow(_blocks(left, 3)),
            rd.from_arrow(_blocks(right, 5, 11)), **kw))
        assert sorted_ == sort
        return _sorted_frame(rows)

    @pytest.mark.parametrize("join_type,arrow_type,small_side", [
        ("inner", "inner", "left"), ("inner", "inner", "right"),
        ("left_outer", "left outer", "right")])
    @pytest.mark.parametrize("on,right_on", [
        (("k",), ("rk",)), (("k", "g"), ("rk", "rg"))], ids=["one", "two"])
    def test_paths_match_reference(self, ray_session, monkeypatch, join_type,
                                   arrow_type, small_side, on, right_on):
        from ai_pdf_extraction_ray.stages import dedup

        left, right = (LEFT, RIGHT) if small_side == "left" else (
            RIGHT.rename_columns(["k", "g", "lv"]),
            LEFT.rename_columns(["rk", "rg", "rv"]))
        joined = left.join(right, list(on), list(right_on),
                           join_type=arrow_type)
        default = dedup._BROADCAST_MAX_BYTES
        for finish in (lambda t: t, _finish_fn("k", 2)):
            kw = dict(on=on, right_on=right_on, join_type=join_type,
                      finish=finish)
            want = _sorted_frame(finish(joined))
            monkeypatch.setattr(dedup, "_BROADCAST_MAX_BYTES", default)
            broadcast = self._join(left, right, sort=False, **kw)
            monkeypatch.setattr(dedup, "_BROADCAST_MAX_BYTES", -1)
            shuffled = self._join(left, right, sort=True, **kw)
            assert broadcast.equals(want)  # also compares the column order
            assert shuffled.equals(want)

    def test_left_outer_small_left_shuffles(self, ray_session):
        """Only the right side of a left_outer may broadcast: a small left
        side against a right side above the threshold takes the sort
        path, and keeps every unmatched left row exactly once."""
        import numpy as np
        import ray.data as rd

        from ai_pdf_extraction_ray.stages import dedup
        from ai_pdf_extraction_ray.stages.dedup import guarded_join

        n = dedup._BROADCAST_MAX_BYTES // 16 + 4096  # two int64 columns
        big = pa.table({"rk": pa.array(np.arange(n) % 1000, pa.int64()),
                        "rv": pa.array(np.arange(n), pa.int64())})
        small = pa.table({"k": pa.array([1, 2, 5000, None], pa.int64()),
                          "lv": ["a", "b", "c", "d"]})
        rows, sorted_ = _execute(guarded_join(
            rd.from_arrow(small), rd.from_arrow(big),
            on=("k",), right_on=("rk",), join_type="left_outer"))
        assert sorted_
        want = small.join(big, "k", "rk", join_type="left outer")
        assert _sorted_frame(rows).equals(_sorted_frame(want))

    @staticmethod
    def _rows_both_paths(monkeypatch, left: pa.Table, right: pa.Table,
                         **kw) -> list[tuple[list[str], list[str]]]:
        """(column names, sorted rows as text) of the broadcast and the
        sort join; duplicate column names survive, unlike a DataFrame."""
        import ray.data as rd

        from ai_pdf_extraction_ray.stages import dedup

        out = []
        for limit, sort in ((dedup._BROADCAST_MAX_BYTES, False), (-1, True)):
            monkeypatch.setattr(dedup, "_BROADCAST_MAX_BYTES", limit)
            rows, sorted_ = _execute(dedup.guarded_join(
                rd.from_arrow(_blocks(left, 7, 40)),
                rd.from_arrow(_blocks(right, 3, 30, 60)), **kw))
            assert sorted_ == sort
            out.append(_text_rows(rows))
        return out

    @pytest.mark.parametrize("join_type,arrow_type", JOIN_TYPES)
    def test_skewed_key(self, ray_session, monkeypatch, join_type, arrow_type):
        """One key holds half of each side: it lands in one block after the
        sort, and both paths give ``pa.Table.join``'s rows."""
        n_left, n_right = 120, 80
        left = pa.table({
            "k": pa.array(np.where(np.arange(n_left) % 2, 0, np.arange(n_left)),
                          pa.int64()),
            "lv": pa.array(np.arange(n_left), pa.int64())})
        right = pa.table({
            "k": pa.array(np.where(np.arange(n_right) % 2, 0,
                                   np.arange(n_right) * 3), pa.int64()),
            "rv": [f"r{i}" for i in range(n_right)]})
        want = _text_rows(left.join(right, "k", join_type=arrow_type))
        paths = self._rows_both_paths(monkeypatch, left, right, on=("k",),
                                      join_type=join_type)
        assert paths == [want, want]
        assert len(want[1]) > (n_left // 2) * (n_right // 2)  # the hot key

    @pytest.mark.parametrize("join_type,arrow_type", JOIN_TYPES)
    def test_shared_column_name(self, ray_session, monkeypatch, join_type,
                                arrow_type):
        """``right_on`` differs from ``on`` and the name ``rk`` is on both
        sides: the right side's key, and a non-key column of the left side.
        Both paths keep the left ``rk`` and coalesce the right one into
        ``k``, as ``pa.Table.join`` does, so the shared-name check below
        does not fire."""
        left = pa.table({"k": pa.array([1, 2, 2, 3, None, 5] * 10, pa.int64()),
                         "rk": [f"l{i}" for i in range(60)]})
        right = pa.table({"rk": pa.array([2, 3, 3, 4, None, 1] * 12, pa.int64()),
                          "v": pa.array(range(72), pa.int64())})
        want = _text_rows(left.join(right, "k", "rk", join_type=arrow_type))
        assert want[0] == ["k", "rk", "v"]
        assert self._rows_both_paths(
            monkeypatch, left, right, on=("k",), right_on=("rk",),
            join_type=join_type) == [want, want]

    @pytest.mark.parametrize("join_type", ["inner", "left_outer"])
    @pytest.mark.parametrize("sort", [False, True], ids=["broadcast", "sort"])
    def test_shared_non_key_column_rejected(self, ray_session, monkeypatch,
                                            join_type, sort):
        """A right non-key column named like a left column would appear
        twice in the output (Ray then rejects the block late, with a
        ``KeyError``): either path raises a ``ValueError`` naming it
        before any join runs."""
        import ray.data as rd

        from ai_pdf_extraction_ray.stages import dedup

        if sort:
            monkeypatch.setattr(dedup, "_BROADCAST_MAX_BYTES", -1)
        left = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                         "v": ["a", "b", "c"]})
        right = pa.table({"rk": pa.array([2, 3, 4], pa.int64()),
                          "v": pa.array([20, 30, 40], pa.int64())})
        with pytest.raises(ValueError, match=r"\['v'\]"):
            dedup.guarded_join(rd.from_arrow(_blocks(left, 1)),
                               rd.from_arrow(_blocks(right, 2)), on=("k",),
                               right_on=("rk",), join_type=join_type)

    @pytest.mark.parametrize("join_type,arrow_type", JOIN_TYPES)
    def test_renamed_side_with_zero_row_block(self, ray_session, monkeypatch,
                                              join_type, arrow_type):
        """A side renamed after a zero-row block: Ray skips the rename on
        that block, which keeps ``text`` while the others have ``text_a``,
        and ``ds.schema()`` reports ``text``. Both paths still join the
        renamed rows (one ``text_a`` and one ``text`` column out)."""
        import ray.data as rd

        pairs = pa.table({"doc_a": pa.array(range(30), pa.int64()),
                          "doc_b": pa.array([i * 7 % 40 for i in range(30)],
                                            pa.int64()),
                          "text": [f"a{i}" for i in range(30)]})
        docs = pa.table({"doc_id": pa.array(range(0, 40, 2), pa.int64()),
                         "text": [f"d{i}" for i in range(0, 40, 2)]})
        renamed = pairs.rename_columns(["doc_a", "doc_b", "text_a"])
        want = _text_rows(renamed.join(docs, "doc_b", "doc_id",
                                       join_type=arrow_type))
        assert want[0] == ["doc_a", "doc_b", "text_a", "text"]
        for limit, sort in ((1 << 20, False), (-1, True)):
            from ai_pdf_extraction_ray.stages import dedup

            monkeypatch.setattr(dedup, "_BROADCAST_MAX_BYTES", limit)
            side = rd.from_arrow([pairs.slice(0, 0), pairs.slice(0, 12),
                                  pairs.slice(12)]).rename_columns(
                {"text": "text_a"})
            rows, sorted_ = _execute(dedup.guarded_join(
                side, rd.from_arrow(_blocks(docs, 9)), on=("doc_b",),
                right_on=("doc_id",), join_type=join_type))
            assert sorted_ == sort
            assert _text_rows(rows) == want

    def test_broadcast_blocks_share_one_schema(self, ray_session):
        """A broadcast join whose probe side has zero-row blocks, then a
        rename: every output block has the renamed joined schema (an
        empty probe block would skip the probe and keep its own)."""
        import ray
        import ray.data as rd

        from ai_pdf_extraction_ray.stages.dedup import guarded_join

        docs = pa.table({"doc_id": pa.array(range(40), pa.int64()),
                         "text": [f"t{i}" for i in range(40)]})
        pairs = pa.table({"doc_a": pa.array([1, 3, 5, 39], pa.int64()),
                          "doc_b": pa.array([2, 4, 6, 38], pa.int64())})
        probe = rd.from_arrow([docs.slice(0, 0), docs.slice(0, 20),
                               docs.slice(0, 0), docs.slice(20)])
        out = guarded_join(probe, rd.from_arrow(pairs), on=("doc_id",),
                           right_on=("doc_a",)).rename_columns(
            {"doc_id": "doc_a", "text": "text_a"}).materialize()
        schemas = {ray.get(ref).schema for ref in out.to_arrow_refs()}
        assert len(schemas) == 1
        assert out.count() == 4


class TestPlanShape:
    """Small sides broadcast and small partials merge on the driver, with
    no sort; a forced threshold puts the sorts back (a regression that
    stops broadcasting fails here, not only in the benchmark)."""

    def test_revenue_by_nation_broadcasts(self, ray_session):
        from ai_pdf_extraction_ray.pipelines.queries import q_revenue_by_nation

        assert not _execute(q_revenue_by_nation(SF_SMOKE))[1]

    def test_revenue_by_nation_forced_shuffle(self, ray_session, force_shuffle):
        """One sort per aggregate (per customer, then per nation) and one
        for the join between them; no Join or Aggregate operator."""
        from ai_pdf_extraction_ray.pipelines.queries import q_revenue_by_nation

        ds = q_revenue_by_nation(SF_SMOKE)
        assert _execute(ds)[1]
        ops = _operators(ds)
        assert ops.count("Sort") == 3
        assert not [op for op in ops if "Join" in op or "Aggregate" in op]


def _first_rows_sf(tmp_path_factory, name: str, n: int) -> str:
    """Every smoke-scale table cut to its first ``n`` rows, same schema."""
    out = tmp_path_factory.mktemp(name)
    for src in sorted(Path(SF_SMOKE).glob("*.parquet")):
        pq.write_table(pq.read_table(src).slice(0, n), out / src.name)
    return str(out)


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory) -> str:
    return _first_rows_sf(tmp_path_factory, "sf_empty", 0)


@pytest.fixture(scope="module")
def one_row_sf(tmp_path_factory) -> str:
    return _first_rows_sf(tmp_path_factory, "sf_one_row", 1)


def _oracle(sf_dir: str, name: str) -> pd.DataFrame | None:
    """The query's DuckDB oracle result on ``sf_dir``; None for a
    rows-only query, which has no SQL twin, and for a golden-oracle query,
    whose SQL is its pinned sf0.01 values."""
    import duckdb

    sql = QUERIES[name]["sql"]
    if sql is None or name in GOLDEN_SQL:
        return None
    con = duckdb.connect()
    for table in Path(sf_dir).glob("*.parquet"):
        con.execute(f"CREATE VIEW {table.stem} AS SELECT * FROM "
                    f"read_parquet('{table}')")
    return con.execute(sql).df()


@functools.cache
def _smoke_columns(name: str) -> list[str]:
    return _columns(QUERIES[name]["fn"](SF_SMOKE))[0]


# the per-query lists of the zero-row sweep besides the primitives' callers
COLLECTED = ["bottomk_sample", "edit_dist_dups", "knn_bruteforce", "knn_ivf",
             "knn_multiquery", "ngram_jaccard_dups", "run_report",
             "unigram_logprob"]
SCHEMA_DISCOVERY = ["discovered_schema", "export_csv_check",
                    "export_json_check", "schema_listing"]
MAPPED = sorted(set(QUERIES).difference(
    DIRECT_CALLERS, PARTIAL_GROUPBY_CALLERS, SEGMENT_WINDOW_CALLERS,
    COLLECTED, SCHEMA_DISCOVERY))
# the queries without a SQL oracle on empty tables that report on their
# input, so one row comes out of none: the discovered schema's fallback
# field and the export checks' counts
REPORTS_ON_EMPTY = {
    "discovered_schema": {"field": ["text"], "type": ["string"]},
    "export_csv_check": {"n_rows": [0]},
    "export_json_check": {"total_documents": [0]}}


class TestDegenerateInputs:
    """One zero-row check, ``_check_empty``, over every ``QUERIES`` entry.
    Each entry keeps the test name it has always run under, the way its
    empty result is typed: a join, an aggregate or a ``segment_window``
    (the primitives' callers, found by name), a driver-side collect, a
    schema discovery, or, for every other query, a last ``typed_map``.
    One-row tables run every query once more, against DuckDB where the
    oracle is SQL."""

    def test_direct_callers_found(self):
        assert len(DIRECT_CALLERS) >= 10

    def test_partial_groupby_callers_found(self):
        assert len(PARTIAL_GROUPBY_CALLERS) >= 35

    def test_segment_window_callers_found(self):
        assert len(SEGMENT_WINDOW_CALLERS) >= 20

    def test_pagerank_empty_corpus(self, ray_session, empty_sf):
        assert _rows(q_pagerank(empty_sf)) == 0

    @staticmethod
    def _check_empty(empty_sf: str, name: str) -> None:
        """No rows in, no exception out: the rows the SQL oracle gives on
        the same empty tables — 0, except where SQL aggregates without a
        GROUP BY (profile_orders' 5 column rows, the ROLLUP/CUBE grand
        total) — or, without one, 0 rows but for ``REPORTS_ON_EMPTY``'s
        one row, with the columns, in order, the smoke tables give."""
        out = collect_table(QUERIES[name]["fn"](empty_sf))
        oracle = _oracle(empty_sf, name)
        if oracle is not None:
            assert out.num_rows == len(oracle)
        elif name in REPORTS_ON_EMPTY:
            report = REPORTS_ON_EMPTY[name]
            assert out.select(list(report)).to_pydict() == report
        else:
            assert out.num_rows == 0
        assert out.column_names == _smoke_columns(name)

    @pytest.mark.parametrize("name", DIRECT_CALLERS)
    def test_join_query_on_empty_tables(self, ray_session, empty_sf, name):
        self._check_empty(empty_sf, name)

    @pytest.mark.parametrize("name", PARTIAL_GROUPBY_CALLERS)
    def test_aggregate_query_on_empty_tables(self, ray_session, empty_sf,
                                             name):
        self._check_empty(empty_sf, name)

    @pytest.mark.parametrize("name", SEGMENT_WINDOW_CALLERS)
    def test_segment_window_query_on_empty_tables(self, ray_session, empty_sf,
                                                  name):
        self._check_empty(empty_sf, name)

    @pytest.mark.parametrize("name", COLLECTED)
    def test_collected_query_on_empty_tables(self, ray_session, empty_sf,
                                             name):
        self._check_empty(empty_sf, name)

    @pytest.mark.parametrize("name", SCHEMA_DISCOVERY)
    def test_schema_discovery_on_empty_tables(self, ray_session, empty_sf,
                                              name):
        self._check_empty(empty_sf, name)

    @pytest.mark.parametrize("name", MAPPED)
    def test_mapped_query_on_empty_tables(self, ray_session, empty_sf, name):
        self._check_empty(empty_sf, name)

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_query_on_one_row_tables(self, ray_session, one_row_sf, name):
        """The first row of every table: the smoke tables' columns, in
        order, and the DuckDB oracle's rows and values (the comparison of
        tools/check_oracles.py) where the oracle is SQL."""
        from tools.check_oracles import compare

        out = collect_table(QUERIES[name]["fn"](one_row_sf))
        assert out.column_names == _smoke_columns(name)
        oracle = _oracle(one_row_sf, name)
        if oracle is not None:
            assert compare(name, out.to_pandas(), oracle) == []

    def test_cli_prints_columns_on_empty_tables(self, ray_session, empty_sf,
                                                monkeypatch, capsys):
        """The CLI reads a result through ``collect_table``: a typed
        zero-row result prints its columns, which ``Dataset.to_pandas()``
        drops."""
        import ray

        from ai_pdf_extraction_ray.__main__ import main

        # the CLI ends its Ray session; keep the test session's
        monkeypatch.setattr(ray, "shutdown", lambda: None)
        assert main(["query", "pricing_summary", "--sf-dir", empty_sf]) == 0
        out = capsys.readouterr().out
        assert f"Columns: [{', '.join(_smoke_columns('pricing_summary'))}]" in out
        assert "... 0 rows" in out


class TestNoPandas:
    """One result type: every query returns a Dataset, a value finished on
    the driver is a ``pa.Table`` (returned as ``rd.from_arrow``), and no
    module in the package imports pandas."""

    def test_no_pandas_import(self):
        stray = [
            f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
            for path in sorted(PKG.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "pandas" for a in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "pandas"]
        assert stray == []

    def test_every_query_annotated_dataset(self):
        tree = ast.parse((PKG / "pipelines" / "queries.py").read_text())
        stray = [node.name for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name.startswith("q_")
                 and (node.returns is None
                      or ast.unparse(node.returns) != "Dataset")]
        assert stray == []


class TestSortPathParity:
    """Every query that joins or aggregates gives the same rows, columns
    and types when every join and aggregate takes the sort path."""

    @pytest.mark.parametrize(
        "name", sorted(set(DIRECT_CALLERS) | set(PARTIAL_GROUPBY_CALLERS)))
    def test_query_matches_default_path(self, ray_session, monkeypatch, name):
        from ai_pdf_extraction_ray.stages import dedup

        fn = QUERIES[name]["fn"]
        want = dedup.collect_table(fn(SF_SMOKE))
        monkeypatch.setattr(dedup, "_BROADCAST_MAX_BYTES", -1)
        got = dedup.collect_table(fn(SF_SMOKE))
        assert got.schema == want.schema
        assert _text_rows(got) == _text_rows(want)


class TestSingleJoinSite:
    """Joins go through one function; nothing may call Dataset.join or
    reach for its private helpers."""

    @staticmethod
    def _sources(*roots: Path):  # noqa: ANN205
        for root in roots:
            for path in sorted(root.rglob("*.py")):
                yield path, path.read_text()

    def test_join_type_only_inside_guarded_join(self):
        stray = []
        for path, text in self._sources(PKG):
            tree = ast.parse(text)
            inside = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "guarded_join":
                    inside.update(id(n) for n in ast.walk(node))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call) or id(node) in inside:
                    continue
                kws = {k.arg for k in node.keywords}
                callee = getattr(node.func, "id", getattr(node.func, "attr", ""))
                if "join_type" in kws and callee != "guarded_join":
                    stray.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
                if callee == "join" and "num_partitions" in kws:
                    stray.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
        assert stray == []

    def test_no_dataset_join(self):
        """No ``X.join(..., on=...)`` or ``num_partitions=`` call anywhere
        in the package, guarded_join included: its sort path joins with
        ``pa.Table.join`` per block, and Ray's hash-shuffle join is gone."""
        stray = [
            f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
            for path, text in self._sources(PKG)
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "join"
            and {"on", "num_partitions"} & {k.arg for k in node.keywords}]
        assert stray == []

    def test_no_ray_put(self):
        """No ``ray.put`` call anywhere in the package: a map's kernel
        state rides in its closure or kernel instance, which Ray Data
        ships once per operator, and a per-row lookup table that scales
        with the data is a join side, which guarded_join broadcasts."""
        found = [
            f"{path.relative_to(REPO_ROOT)}:{n.lineno}"
            for path, text in self._sources(PKG)
            for n in ast.walk(ast.parse(text))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "put" and isinstance(n.func.value, ast.Name)
            and n.func.value.id in ("ray", "_ray")]
        assert found == []

    def test_guard_helpers_private_to_dedup(self):
        from ai_pdf_extraction_ray.stages import dedup

        # the private helpers guarded_join calls, by their bare names (so
        # a public re-export under the old name is caught too)
        helpers = {
            name.lstrip("_") for name in dedup.guarded_join.__code__.co_names
            if name.startswith("_") and callable(getattr(dedup, name, None))}
        assert len(helpers) == 1
        users = [
            str(path.relative_to(REPO_ROOT))
            for path, text in self._sources(PKG, REPO_ROOT / "tests")
            if path != PKG / "stages" / "dedup.py"
            and any(h in text for h in helpers)]
        assert users == []


# 3 keys with nulls, a second key, values with nulls (count and count_all
# differ), strings for min/max; sums are multiples of 0.5, exact in any
# summation order
AGG_INPUT = pa.table({
    "k": pa.array([1, 2, None, 1, 3, None, 2, 1, 3, 2] * 4, pa.int64()),
    "g": ["a", "b", "a", "b", "a", "a", "b", "a", "b", "a"] * 4,
    "v": pa.array([0.5, None, 2.0, 1.5, None, 3.0, 4.5, None, 1.0, 2.5] * 4),
    "s": ["q", "b", None, "z", "m", "c", None, "a", "y", "d"] * 4,
    "i": pa.array(range(40), pa.int32()),
})
AGGS = dict(sv=("v", "sum"), nv=("v", "count"), n=(None, "count_all"),
            smin=("s", "min"), smax=("s", "max"),
            imin=("i", "min"), imax=("i", "max"))


def _reference(table: pa.Table, keys: list[str]) -> pa.Table:
    """One ``pa.Table.group_by`` over the whole input."""
    specs = [([], "count_all") if fn == "count_all" else (col, fn)
             for col, fn in AGGS.values()]
    return table.group_by(keys).aggregate(specs).rename_columns(
        keys + list(AGGS))


class TestPartialGroupby:
    """Per-block partials merged on the driver (at most 8 MiB) or per
    block after a sort (forced) equal one Arrow group_by over the
    concatenated input: same columns, types and rows, in key order."""

    @staticmethod
    def _check_matches(keys: list[str]) -> None:
        import ray.data as rd

        from ai_pdf_extraction_ray.stages.dedup import (
            collect_table, partial_groupby)

        ds = rd.from_arrow(_blocks(AGG_INPUT, *range(4, 40, 4)))
        assert ds.num_blocks() >= 8
        got = collect_table(partial_groupby(ds, keys, **AGGS))
        want = _reference(AGG_INPUT, keys).sort_by(
            [(k, "ascending") for k in keys])
        assert got.schema == want.schema
        assert got.to_pylist() == want.to_pylist()  # also the row order
        for name in ("nv", "n"):
            assert got.schema.field(name).type == pa.int64()
        # the data exercises what it claims to
        assert None in got.column("k").to_pylist()
        assert got.column("nv").to_pylist() != got.column("n").to_pylist()
        # a finish runs on the merged rows: the same filter and rename
        finish = _finish_fn("k", 3)
        got = collect_table(partial_groupby(ds, keys, finish=finish, **AGGS))
        assert got.schema == finish(want).schema
        assert got.to_pylist() == finish(want).to_pylist()
        assert 0 < got.num_rows < want.num_rows

    @staticmethod
    def _check_zero_rows() -> None:
        import ray.data as rd

        from ai_pdf_extraction_ray.stages.dedup import (
            collect_table, partial_groupby)

        empty = AGG_INPUT.slice(0, 0)
        want = _reference(empty, ["k", "g"])
        for finish in (lambda t: t, _finish_fn("k", 3)):
            got = collect_table(partial_groupby(
                rd.from_arrow(empty), ["k", "g"], finish=finish, **AGGS))
            assert got.num_rows == 0
            assert got.schema == finish(want).schema

    @pytest.mark.parametrize("keys", [["k"], ["k", "g"]], ids=["one", "two"])
    def test_matches_single_group_by(self, ray_session, keys):
        self._check_matches(keys)

    @pytest.mark.parametrize("keys", [["k"], ["k", "g"]], ids=["one", "two"])
    def test_matches_single_group_by_shuffled(self, ray_session, force_shuffle,
                                              keys):
        self._check_matches(keys)

    @pytest.mark.parametrize("shuffled", [False, True],
                             ids=["driver", "shuffled"])
    def test_no_aggs_gives_distinct_keys(self, ray_session, monkeypatch,
                                         shuffled):
        import ray.data as rd

        from ai_pdf_extraction_ray.stages import dedup

        if shuffled:
            monkeypatch.setattr(dedup, "_BROADCAST_MAX_BYTES", -1)
        ds = rd.from_arrow(_blocks(AGG_INPUT, *range(4, 40, 4)))
        got = dedup.collect_table(dedup.partial_groupby(ds, ["k", "g"]))
        want = AGG_INPUT.group_by(["k", "g"]).aggregate([]).sort_by(
            [("k", "ascending"), ("g", "ascending")])
        assert got.schema == want.schema
        assert got.to_pylist() == want.to_pylist()

    def test_zero_rows_keep_typed_schema(self, ray_session):
        self._check_zero_rows()

    def test_zero_rows_keep_typed_schema_shuffled(self, ray_session,
                                                  force_shuffle):
        self._check_zero_rows()

    @staticmethod
    def _shuffle_ops() -> list[str]:
        """The Sort, Join and Aggregate operators pricing_summary runs."""
        from ai_pdf_extraction_ray.pipelines.queries import q_pricing_summary

        ops = _operators(q_pricing_summary(SF_SMOKE).materialize())
        return [op for op in ops
                if op == "Sort" or "Join" in op or "Aggregate" in op]

    def test_pricing_summary_merges_on_driver(self, ray_session):
        """KB-sized partials merge in one pa.Table.group_by: no Ray
        Aggregate or Sort operator runs."""
        assert self._shuffle_ops() == []

    def test_pricing_summary_one_aggregate(self, ray_session, force_shuffle):
        """Above the threshold the partials fuse into the map after the
        read, and one Sort brings each key's partials into one block."""
        assert self._shuffle_ops() == ["Sort"]


# Ray groupbys (or segment_windows) fed by a hand-written Arrow partial
# that stay outside partial_groupby, each with the reason its merge is not
# a Sum/Min/Max
NON_DECOMPOSABLE = {
    ("stages/sketches.py", "heavy_hitters"):
        "Misra-Gries sketches merge by mg_merge compaction in segment_window",
}


_PRIMITIVES = {"partial_groupby", "guarded_join"}
_RESULT_KEEPING = {"materialize", "sort", "limit"}
_STEPS = {"map_batches", "select_columns", "drop_columns", "rename_columns",
          "filter"}


def _steps_after_primitives(tree: ast.AST) -> list[int]:
    """Lines, per top-level definition, where a primitive's result (a call
    of one, ``_RESULT_KEEPING`` calls on one, or a name assigned one) is
    compared with None or is the receiver of a ``_STEPS`` call."""
    lines = []
    for outer in tree.body:
        bound: set[str] = set()

        def is_result(n: ast.AST) -> bool:
            if isinstance(n, ast.Name):
                return n.id in bound
            if not isinstance(n, ast.Call):
                return False
            f = n.func
            return (getattr(f, "id", getattr(f, "attr", None)) in _PRIMITIVES
                    or (isinstance(f, ast.Attribute)
                        and f.attr in _RESULT_KEEPING and is_result(f.value)))

        assigns = [n for n in ast.walk(outer) if isinstance(n, ast.Assign)
                   and len(n.targets) == 1 and isinstance(n.targets[0], ast.Name)]
        while new := {n.targets[0].id for n in assigns
                      if n.targets[0].id not in bound and is_result(n.value)}:
            bound |= new
        for n in ast.walk(outer):
            if isinstance(n, ast.Compare):
                sides = [n.left, *n.comparators]
                if (any(isinstance(o, ast.Constant) and o.value is None
                        for o in sides) and any(map(is_result, sides))):
                    lines.append(n.lineno)
            elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and n.func.attr in _STEPS and is_result(n.func.value)):
                lines.append(n.lineno)
    return sorted(set(lines))


class TestSingleAggregateSite:
    """Decomposable aggregates go through stages/dedup.partial_groupby;
    no call site hand-writes the partial / merge pair again."""

    @staticmethod
    def _map_batches_fn(node: ast.AST) -> str | None:
        """Name of the function ``node`` maps, when it is
        ``X.map_batches(fn, ...)`` or ``typed_map(X, fn)``."""
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_batches" and node.args
                and isinstance(node.args[0], ast.Name)):
            return node.args[0].id
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "typed_map" and len(node.args) > 1
                and isinstance(node.args[1], ast.Name)):
            return node.args[1].id
        return None

    @classmethod
    def _hand_written_sites(cls, tree: ast.AST) -> list[tuple[str, int]]:
        """(enclosing function, line) of every Ray ``.groupby`` or
        ``segment_window`` call whose input — directly or through a
        variable — maps a function defined in the same enclosing function
        that calls pyarrow ``.group_by``."""
        sites = []
        for outer in ast.walk(tree):
            if (not isinstance(outer, ast.FunctionDef)
                    or outer.name == "partial_groupby"):
                continue
            local = {
                fn.name for fn in ast.walk(outer)
                if isinstance(fn, ast.FunctionDef) and fn is not outer
                and any(isinstance(n, ast.Attribute) and n.attr == "group_by"
                        for n in ast.walk(fn))}
            mapped = {
                n.targets[0].id: cls._map_batches_fn(n.value)
                for n in ast.walk(outer)
                if isinstance(n, ast.Assign) and len(n.targets) == 1
                and isinstance(n.targets[0], ast.Name)}
            for n in ast.walk(outer):
                if not isinstance(n, ast.Call):
                    continue
                if (isinstance(n.func, ast.Attribute)
                        and n.func.attr == "groupby"):
                    src = n.func.value
                elif (isinstance(n.func, ast.Name) and n.args
                        and n.func.id == "segment_window"):
                    src = n.args[0]
                else:
                    continue
                fn = cls._map_batches_fn(src) or (
                    mapped.get(src.id) if isinstance(src, ast.Name) else None)
                if fn in local:
                    sites.append((outer.name, n.lineno))
        return sorted(set(sites))

    def test_no_hand_written_partial_groupby(self):
        found = {}
        for path in sorted(PKG.rglob("*.py")):
            rel = str(path.relative_to(PKG))
            for fn, line in self._hand_written_sites(ast.parse(path.read_text())):
                found[(rel, fn)] = line
        assert sorted(found) == sorted(NON_DECOMPOSABLE)

    def test_no_groupby_call(self):
        """No ``.groupby(`` call of any kind in the package, so no Ray
        ``groupby().aggregate`` either (partial_groupby merges with
        ``pa.Table.group_by`` on both paths): a Ray groupby's shuffle is
        segment_window's sort, and a grouping over a driver-side table is
        a ``pa.Table.group_by`` or a loop over ``key_runs``."""
        found = [f"{path.relative_to(PKG)}:{n.lineno}"
                 for path in sorted(PKG.rglob("*.py"))
                 for n in ast.walk(ast.parse(path.read_text()))
                 if isinstance(n, ast.Call)
                 and getattr(n.func, "attr", None) == "groupby"]
        assert found == []

    def test_ray_aggregates_only_keyless(self):
        """Every name imported from ``ray.data.aggregate`` is used only as
        an argument of a keyless ``Dataset.aggregate(...)`` call."""
        stray = []
        for path in sorted(PKG.rglob("*.py")):
            tree = ast.parse(path.read_text())
            names = {a.asname or a.name for n in ast.walk(tree)
                     if isinstance(n, ast.ImportFrom)
                     and n.module == "ray.data.aggregate" for a in n.names}
            ok = {id(arg) for n in ast.walk(tree)
                  if isinstance(n, ast.Call)
                  and getattr(n.func, "attr", None) == "aggregate"
                  for arg in n.args}
            stray += [f"{path.relative_to(PKG)}:{n.lineno}"
                      for n in ast.walk(tree)
                      if isinstance(n, ast.Call)
                      and getattr(n.func, "id", None) in names
                      and id(n) not in ok]
        assert stray == []

    def test_no_step_after_a_primitive(self):
        """No result of ``partial_groupby`` or ``guarded_join``, chained or
        through the name it is assigned to, is compared with None or
        mapped, projected, renamed or filtered: that step is the
        primitive's ``finish``, which keeps its columns on zero rows (Ray
        never calls a map there). ``.materialize()``, ``.sort()`` and
        ``.limit()`` keep a result one; passing it to a function is
        allowed (a result read twice goes through ``typed_map``)."""
        found = [f"{path.relative_to(PKG)}:{line}"
                 for path in sorted(PKG.rglob("*.py"))
                 for line in _steps_after_primitives(ast.parse(path.read_text()))]
        assert found == []

    def test_no_renamed_partial_merges(self):
        """No ``Sum("<col>_sum")`` / ``Sum("<col>_count")`` merge of
        pyarrow's partial column names is left anywhere."""
        merge = re.compile(r'Sum\("[a-z_]+_(sum|count)"')
        hits = [f"{path.relative_to(REPO_ROOT)}:{i}"
                for path in sorted(PKG.rglob("*.py"))
                for i, line in enumerate(path.read_text().splitlines(), 1)
                if merge.search(line)]
        assert hits == []


def _ranked_fn():  # noqa: ANN202
    """A segment_window fn: each row with its key run's position, the
    run's size and the ``i`` of the run's first row. Nested, so Ray ships
    it by value (workers cannot import this test module)."""
    from ai_pdf_extraction_ray.stages.dedup import run_ids, run_ranks

    def ranked(t: pa.Table, starts: np.ndarray) -> pa.Table:
        n = t.num_rows
        run = run_ids(starts, n)
        size = np.diff(np.append(starts, n))[run]
        return (t.append_column("rank", pa.array(run_ranks(starts, n), pa.int64()))
                .append_column("size", pa.array(size, pa.int64()))
                .append_column("first_i", t.column("i").take(starts[run])))

    return ranked


# ties in v (each value repeats) broken by i; nulls in v sort last
SEG_ORDER = [("v", "descending"), "i"]


class TestSegmentWindow:
    """One Arrow call per sorted block equals a pandas groupby over the
    sorted whole input."""

    @pytest.mark.parametrize("keys", [["k"], ["k", "g"]], ids=["one", "two"])
    def test_matches_pandas_groupby(self, ray_session, keys):
        import ray.data as rd

        from ai_pdf_extraction_ray.stages.dedup import (
            collect_table, segment_window)

        blocks = _blocks(AGG_INPUT, *range(4, 40, 4))
        assert len(blocks) >= 8
        # key 1 appears in every non-empty block
        assert all(1 in b.column("k").to_pylist() for b in blocks[1:])
        got = collect_table(segment_window(rd.from_arrow(blocks), keys,
                                           _ranked_fn(), order=SEG_ORDER))

        df = AGG_INPUT.to_pandas().sort_values(
            ["v", "i"], ascending=[False, True], na_position="last",
            kind="mergesort")
        grp = df.groupby(keys, dropna=False, sort=False)["i"]
        want = df.assign(rank=grp.cumcount(), size=grp.transform("size"),
                         first_i=grp.transform("first"))
        assert got.column_names == list(want.columns)
        assert _sorted_frame(got).equals(_sorted_frame(
            pa.Table.from_pandas(want, preserve_index=False)))
        # the data exercises what it claims to
        assert None in got.column("k").to_pylist()
        assert got.num_rows == AGG_INPUT.num_rows

    def test_zero_rows_keep_typed_schema(self, ray_session):
        import ray.data as rd

        from ai_pdf_extraction_ray.stages.dedup import (
            collect_table, segment_window)

        empty = AGG_INPUT.slice(0, 0)
        got = collect_table(segment_window(rd.from_arrow(empty), ["k", "g"],
                                           _ranked_fn(), order=SEG_ORDER))
        assert got.num_rows == 0
        assert got.schema == _ranked_fn()(empty, np.zeros(0, np.int64)).schema

    def test_typed_map_keeps_columns_on_zero_rows(self, ray_session, tmp_path):
        """A map over an empty read has no schema in Ray 2.49; typed_map
        gives segment_window the columns it types its empty result by."""
        import ray.data as rd

        from ai_pdf_extraction_ray.stages.dedup import (
            collect_table, segment_window, typed_map)

        pq.write_table(AGG_INPUT.slice(0, 0), tmp_path / "t.parquet")
        read = rd.read_parquet(str(tmp_path / "t.parquet"))
        assert read.map_batches(lambda t: t, batch_format="pyarrow").schema() is None
        got = collect_table(segment_window(typed_map(read, lambda t: t),
                                           "k", _ranked_fn(), order=SEG_ORDER))
        assert got.column_names == AGG_INPUT.column_names + [
            "rank", "size", "first_i"]


    def test_typed_map_asks_schema_only_on_zero_rows(self, ray_session,
                                                      tmp_path, monkeypatch):
        """typed_map is one map, no union: rows come straight from it, and
        ``ds.schema()`` is asked only when it gives none, to type ``fn``
        of the empty table."""
        import ray.data as rd
        from ray.data import Dataset

        from ai_pdf_extraction_ray.stages.dedup import collect_table, typed_map

        asked = []
        schema = Dataset.schema
        monkeypatch.setattr(Dataset, "schema", lambda ds, *a, **k: (
            asked.append(ds), schema(ds, *a, **k))[1])
        pq.write_table(AGG_INPUT, tmp_path / "t.parquet")
        read = rd.read_parquet(str(tmp_path / "t.parquet"))
        out = typed_map(read, lambda t: t.select(["k", "g"]))
        assert asked == []
        assert [op for op in _operators(out) if "Union" in op] == []
        assert collect_table(out).num_rows == AGG_INPUT.num_rows
        out = typed_map(read, lambda t: t.filter(
            pc.equal(t.column("i"), -1)).select(["k", "g"]))
        assert asked == [read]
        got = collect_table(out)
        assert got.num_rows == 0
        assert got.schema == AGG_INPUT.select(["k", "g"]).schema


class TestSingleSegmentSite:
    """Per-key ordered work goes through stages/dedup.segment_window: no
    map_groups call and no pandas batch format in the package."""

    @staticmethod
    def _calls(attr: str):  # noqa: ANN205
        """(file, outermost enclosing function, line) of every call whose
        callee ends in ``attr`` or that passes ``batch_format=attr``."""
        for path in sorted(PKG.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for outer in tree.body:
                for n in ast.walk(outer):
                    if not isinstance(n, ast.Call):
                        continue
                    callee = getattr(n.func, "attr", None)
                    fmt = [k.value.value for k in n.keywords
                           if k.arg == "batch_format"
                           and isinstance(k.value, ast.Constant)]
                    if callee == attr or fmt == [attr]:
                        yield (str(path.relative_to(PKG)),
                               getattr(outer, "name", ""), n.lineno)

    def test_map_groups_only_in_named_sites(self):
        found = [f"{rel}:{fn}" for rel, fn, _ in self._calls("map_groups")]
        assert found == []

    def test_no_pandas_batch_format(self):
        assert [f"{rel}:{line}" for rel, _, line in self._calls("pandas")] == []
