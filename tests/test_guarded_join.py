"""guarded_join: the package's single Dataset.join entry point."""

from __future__ import annotations

import ast
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ai_pdf_extraction_ray.pipelines.queries import QUERIES, q_pagerank
from tests.conftest import REPO_ROOT, SF_SMOKE

PKG = REPO_ROOT / "ai_pdf_extraction_ray"

# queries whose own body calls guarded_join (found by name, so a new
# direct caller joins the degenerate-input sweep automatically)
DIRECT_CALLERS = sorted(
    name for name, q in QUERIES.items()
    if "guarded_join" in q["fn"].__code__.co_names)


def _rows(out) -> int:  # noqa: ANN001 — Dataset or DataFrame
    return len(out) if isinstance(out, pd.DataFrame) else len(out.take_all())


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
    @pytest.mark.parametrize("join_type,arrow_type", [
        ("inner", "inner"), ("left_outer", "left outer")])
    def test_groupby_side_against_read_side(self, ray_session, tmp_path,
                                            join_type, arrow_type):
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


@pytest.fixture(scope="module")
def empty_sf(tmp_path_factory) -> str:
    """Every smoke-scale table, same schema, zero rows."""
    out = tmp_path_factory.mktemp("sf_empty")
    for src in sorted(Path(SF_SMOKE).glob("*.parquet")):
        pq.write_table(pq.read_schema(src).empty_table(), out / src.name)
    return str(out)


class TestDegenerateInputs:
    def test_direct_callers_found(self):
        assert len(DIRECT_CALLERS) >= 10

    def test_pagerank_empty_corpus(self, ray_session, empty_sf):
        assert _rows(q_pagerank(empty_sf)) == 0

    @pytest.mark.parametrize("name", DIRECT_CALLERS)
    def test_join_query_on_empty_tables(self, ray_session, empty_sf, name):
        assert _rows(QUERIES[name]["fn"](empty_sf)) == 0


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
