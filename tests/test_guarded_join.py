"""guarded_join, partial_groupby and segment_window: the package's single
Dataset.join entry point, its single decomposable-aggregate site and its
single per-key ordered-work site."""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ai_pdf_extraction_ray.pipelines.goldens import GOLDEN_SQL
from ai_pdf_extraction_ray.pipelines.queries import QUERIES, q_pagerank
from tests.conftest import REPO_ROOT, SF_SMOKE

PKG = REPO_ROOT / "ai_pdf_extraction_ray"

def _calls(fn, callee: str) -> bool:  # noqa: ANN001 — query function
    """``fn``'s body, or a module-level helper it names, calls ``callee``."""
    names = fn.__code__.co_names
    return callee in names or any(
        inspect.isfunction(fn.__globals__.get(n))
        and callee in fn.__globals__[n].__code__.co_names
        for n in names)


# queries whose body (or a helper it names) calls guarded_join, found by
# name, so a new direct caller joins the degenerate-input sweep
# automatically
DIRECT_CALLERS = sorted(
    name for name, q in QUERIES.items() if _calls(q["fn"], "guarded_join"))

# queries that aggregate through partial_groupby (found the same way), plus
# heavy_hitters (it reaches the helper through a stage function) and
# media_audio_video, listed by hand so both stay in the zero-row sweep
PARTIAL_GROUPBY_CALLERS = sorted(
    {name for name, q in QUERIES.items() if _calls(q["fn"], "partial_groupby")}
    | {"heavy_hitters", "media_audio_video"})

# queries that run per-key ordered work through segment_window (found the
# same way), plus the callers that reach it through another module
SEGMENT_WINDOW_CALLERS = sorted(
    {name for name, q in QUERIES.items() if _calls(q["fn"], "segment_window")}
    | {"heavy_hitters", "approx_distinct_users", "approx_quantiles",
       "merge_chunked", "pages_per_host"})


def _rows(out) -> int:  # noqa: ANN001 — Dataset or DataFrame
    return len(out) if isinstance(out, pd.DataFrame) else len(out.take_all())


def _columns(out) -> tuple[list[str], int]:  # noqa: ANN001 — Dataset or DataFrame
    """The result's column names, in order, and its row count."""
    from ai_pdf_extraction_ray.stages.dedup import collect_table

    if isinstance(out, pd.DataFrame):
        return list(out.columns), len(out)
    t = collect_table(out)
    return t.column_names, t.num_rows


def _execute(ds) -> tuple[pa.Table, bool]:  # noqa: ANN001 — Dataset
    """Run ``ds``: its rows, and whether Ray's hash-shuffle join operator
    ran to produce them."""
    import ray

    ds = ds.materialize()
    rows = pa.concat_tables(ray.get(ds.to_arrow_refs()),
                            promote_options="default")
    return rows, "Join" in ds.stats()


JOIN_TYPES = [("inner", "inner"), ("left_outer", "left outer")]


@pytest.fixture
def force_shuffle(monkeypatch) -> None:
    """No side is small enough to broadcast: every join hash-shuffles."""
    from ai_pdf_extraction_ray.stages import dedup

    monkeypatch.setattr(dedup, "_BROADCAST_MAX_BYTES", -1)


class TestEmptySides:
    @pytest.mark.parametrize("join_type", ["inner", "left_outer"])
    @pytest.mark.parametrize("empty_side", ["left", "right"])
    def test_empty_side_returns_none(self, ray_session, join_type, empty_side):
        import ray.data as rd

        from ai_pdf_extraction_ray.stages.dedup import guarded_join

        full = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                       "v": ["a", "b"]}))
        empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64()),
                                        "w": pa.array([], pa.string())}))
        left, right = (empty, full) if empty_side == "left" else (full, empty)
        assert guarded_join(left, right, on=("k",), join_type=join_type) is None


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
        """The same join on the hash-shuffle path, where the schema-less
        seed hazard lives; small sides would otherwise never reach it."""
        self._check(tmp_path, join_type, arrow_type)


def _sorted_frame(t: pa.Table) -> pd.DataFrame:
    """Order-insensitive comparison form: every value as text, rows sorted."""
    df = t.to_pandas().astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


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
    """Broadcast and hash-shuffle joins agree with ``pa.Table.join``."""

    @staticmethod
    def _join(left: pa.Table, right: pa.Table, *, hashed: bool,
              **kw) -> pd.DataFrame:
        import ray.data as rd

        from ai_pdf_extraction_ray.stages.dedup import guarded_join

        rows, hash_joined = _execute(guarded_join(
            rd.from_arrow(_blocks(left, 3)),
            rd.from_arrow(_blocks(right, 5, 11)), **kw))
        assert hash_joined == hashed
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
        kw = dict(on=on, right_on=right_on, join_type=join_type)
        want = _sorted_frame(left.join(right, list(on), list(right_on),
                                       join_type=arrow_type))
        broadcast = self._join(left, right, hashed=False, **kw)
        monkeypatch.setattr(dedup, "_BROADCAST_MAX_BYTES", -1)
        shuffled = self._join(left, right, hashed=True, **kw)
        assert broadcast.equals(want)  # also compares the column order
        assert shuffled.equals(want)

    def test_left_outer_small_left_shuffles(self, ray_session):
        """Only the right side of a left_outer may broadcast: a small left
        side against a right side above the threshold is hash-shuffled,
        and keeps every unmatched left row exactly once."""
        import numpy as np
        import ray.data as rd

        from ai_pdf_extraction_ray.stages import dedup
        from ai_pdf_extraction_ray.stages.dedup import guarded_join

        n = dedup._BROADCAST_MAX_BYTES // 16 + 4096  # two int64 columns
        big = pa.table({"rk": pa.array(np.arange(n) % 1000, pa.int64()),
                        "rv": pa.array(np.arange(n), pa.int64())})
        small = pa.table({"k": pa.array([1, 2, 5000, None], pa.int64()),
                          "lv": ["a", "b", "c", "d"]})
        rows, hash_joined = _execute(guarded_join(
            rd.from_arrow(small), rd.from_arrow(big),
            on=("k",), right_on=("rk",), join_type="left_outer"))
        assert hash_joined
        want = small.join(big, "k", "rk", join_type="left outer")
        assert _sorted_frame(rows).equals(_sorted_frame(want))

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
    """Small sides broadcast with no hash-join operator; a forced threshold
    puts the hash-shuffle join back (a regression that stops broadcasting
    fails here, not only in the benchmark)."""

    def test_revenue_by_nation_broadcasts(self, ray_session):
        from ai_pdf_extraction_ray.pipelines.queries import q_revenue_by_nation

        assert not _execute(q_revenue_by_nation(SF_SMOKE))[1]

    def test_revenue_by_nation_forced_shuffle(self, ray_session, force_shuffle):
        from ai_pdf_extraction_ray.pipelines.queries import q_revenue_by_nation

        assert _execute(q_revenue_by_nation(SF_SMOKE))[1]


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory) -> str:
    """Every smoke-scale table, same schema, zero rows."""
    out = tmp_path_factory.mktemp("sf_empty")
    for src in sorted(Path(SF_SMOKE).glob("*.parquet")):
        pq.write_table(pq.read_schema(src).empty_table(), out / src.name)
    return str(out)


def _oracle_rows(sf_dir: str, name: str) -> int:
    """Rows the query's DuckDB oracle returns on ``sf_dir`` (0 for a
    rows-only query, which has no SQL twin, and for a golden-oracle query,
    whose SQL is its pinned sf0.01 values)."""
    import duckdb

    sql = QUERIES[name]["sql"]
    if sql is None or name in GOLDEN_SQL:
        return 0
    con = duckdb.connect()
    for table in Path(sf_dir).glob("*.parquet"):
        con.execute(f"CREATE VIEW {table.stem} AS SELECT * FROM "
                    f"read_parquet('{table}')")
    return len(con.execute(sql).fetchall())


class TestDegenerateInputs:
    def test_direct_callers_found(self):
        assert len(DIRECT_CALLERS) >= 10

    def test_partial_groupby_callers_found(self):
        assert len(PARTIAL_GROUPBY_CALLERS) >= 35

    def test_segment_window_callers_found(self):
        assert len(SEGMENT_WINDOW_CALLERS) >= 20

    def test_pagerank_empty_corpus(self, ray_session, empty_sf):
        assert _rows(q_pagerank(empty_sf)) == 0

    @pytest.mark.parametrize("name", DIRECT_CALLERS)
    def test_join_query_on_empty_tables(self, ray_session, empty_sf, name):
        assert _rows(QUERIES[name]["fn"](empty_sf)) == 0

    @pytest.mark.parametrize("name", PARTIAL_GROUPBY_CALLERS)
    def test_aggregate_query_on_empty_tables(self, ray_session, empty_sf,
                                             name):
        """No rows in, no exception out: the rows the oracle gives on the
        same empty tables — 0, except where SQL aggregates without a
        GROUP BY (profile_orders' 5 column rows, the ROLLUP/CUBE grand
        total)."""
        assert _rows(QUERIES[name]["fn"](empty_sf)) == _oracle_rows(
            empty_sf, name)

    @pytest.mark.parametrize("name", SEGMENT_WINDOW_CALLERS)
    def test_segment_window_query_on_empty_tables(self, ray_session, empty_sf,
                                                  name):
        """The oracle's rows on the empty tables, and the columns, in
        order, the same query gives on the smoke tables."""
        fn = QUERIES[name]["fn"]
        cols, rows = _columns(fn(empty_sf))
        assert rows == _oracle_rows(empty_sf, name)
        assert cols == _columns(fn(SF_SMOKE))[0]


class TestSingleJoinSite:
    """The Ray 2.49 join guards live in one function; nothing may call
    Dataset.join around it or reach for its private helpers."""

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

    def test_guard_helpers_private_to_dedup(self):
        from ai_pdf_extraction_ray.stages import dedup

        # the private helpers guarded_join calls, by their bare names (so
        # a public re-export under the old name is caught too)
        helpers = {
            name.lstrip("_") for name in dedup.guarded_join.__code__.co_names
            if name.startswith("_") and callable(getattr(dedup, name, None))}
        assert len(helpers) == 2
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
    """Per-block partials merged on the driver (at most 8 MiB) or by one
    Ray groupby (forced) equal one Arrow group_by over the concatenated
    input: same columns, types and rows, in key order."""

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

    @staticmethod
    def _check_zero_rows() -> None:
        import ray.data as rd

        from ai_pdf_extraction_ray.stages.dedup import (
            collect_table, partial_groupby)

        empty = AGG_INPUT.slice(0, 0)
        got = collect_table(partial_groupby(rd.from_arrow(empty),
                                            ["k", "g"], **AGGS))
        assert got.num_rows == 0
        assert got.schema == _reference(empty, ["k", "g"]).schema

    @pytest.mark.parametrize("keys", [["k"], ["k", "g"]], ids=["one", "two"])
    def test_matches_single_group_by(self, ray_session, keys):
        self._check_matches(keys)

    @pytest.mark.parametrize("keys", [["k"], ["k", "g"]], ids=["one", "two"])
    def test_matches_single_group_by_shuffled(self, ray_session, force_shuffle,
                                              keys):
        self._check_matches(keys)

    def test_zero_rows_keep_typed_schema(self, ray_session):
        self._check_zero_rows()

    def test_zero_rows_keep_typed_schema_shuffled(self, ray_session,
                                                  force_shuffle):
        self._check_zero_rows()

    @staticmethod
    def _aggregate_ops() -> list[str]:
        from ai_pdf_extraction_ray.pipelines.queries import q_pricing_summary

        stats = q_pricing_summary(SF_SMOKE).materialize().stats()
        ops = re.findall(r"^Operator \d+ (.+?):", stats, re.M)
        return [op for op in ops if "Aggregate" in op]

    def test_pricing_summary_merges_on_driver(self, ray_session):
        """KB-sized partials merge in one pa.Table.group_by: no Ray
        Aggregate operator runs."""
        assert self._aggregate_ops() == []

    def test_pricing_summary_one_aggregate(self, ray_session, force_shuffle):
        """Above the threshold the partials fuse into the map after the
        read, and one Aggregate merges them."""
        assert self._aggregate_ops() == ["Aggregate"]


# Ray groupbys (or segment_windows) fed by a hand-written Arrow partial
# that stay outside partial_groupby, each with the reason its merge is not
# a Sum/Min/Max
NON_DECOMPOSABLE = {
    ("stages/sketches.py", "heavy_hitters"):
        "Misra-Gries sketches merge by mg_merge compaction in segment_window",
}


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

    def test_ray_aggregate_only_in_partial_groupby(self):
        """Every Ray ``X.groupby(...).aggregate(...)`` call in the package
        sits inside partial_groupby, so every aggregate gets its driver
        merge."""
        found = set()
        for path in sorted(PKG.rglob("*.py")):
            for outer in ast.parse(path.read_text()).body:
                for n in ast.walk(outer):
                    if (isinstance(n, ast.Call)
                            and isinstance(n.func, ast.Attribute)
                            and n.func.attr == "aggregate"
                            and isinstance(n.func.value, ast.Call)
                            and getattr(n.func.value.func, "attr", None)
                            == "groupby"):
                        found.add((str(path.relative_to(PKG)),
                                   getattr(outer, "name", "")))
        assert found == {("stages/dedup.py", "partial_groupby")}

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


# groupby().map_groups sites outside segment_window, each with its reason
MAP_GROUPS_SITES = {
    ("stages/dedup.py", "minhash_candidate_pairs"):
        "LSH band buckets, Arrow in and out; singleton buckets are pruned "
        "first by _hot_bucket_rows",
    ("stages/dedup.py", "simhash_near_dups"):
        "SimHash sub-band buckets, Arrow in and out, pruned by "
        "_hot_bucket_rows",
    ("stages/dedup.py", "embedding_near_dups_lsh"):
        "hyperplane LSH buckets, Arrow in and out, pruned by "
        "_hot_bucket_rows",
}


class TestSingleSegmentSite:
    """Per-key ordered work goes through stages/dedup.segment_window: no
    other map_groups call and no pandas batch format in the package."""

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
        found = {(rel, fn) for rel, fn, _ in self._calls("map_groups")
                 if fn != "segment_window"}
        assert sorted(found) == sorted(MAP_GROUPS_SITES)

    def test_no_pandas_batch_format(self):
        assert [f"{rel}:{line}" for rel, _, line in self._calls("pandas")] == []
