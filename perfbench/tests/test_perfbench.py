"""Tests of the benchmark itself: seeded inputs, span arithmetic, the
output checks, and every workload end to end at a tiny size.

The end-to-end tests start the benchmark in a subprocess, which starts and
stops its own Ray session (~1 minute per workload)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import inputs
from perfbench.oracle import differences, rounding_unit
from perfbench.trace import Span, Tracer, self_times
from perfbench.workloads import WORKLOADS, extraction_failures, operator_stats

ROOT = Path(__file__).resolve().parents[2]
TINY = 0.05


def _input_digest(name: str, work: Path, seed: int) -> str:
    wl = WORKLOADS[name](str(work), seed, TINY)
    wl.make_inputs()
    files = [str(p) for p in Path(wl.in_dir).rglob("*.parquet")]
    assert files
    return inputs.file_digest(files)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name: str, tmp_path: Path) -> None:
    first = _input_digest(name, tmp_path / "a", 7)
    assert _input_digest(name, tmp_path / "b", 7) == first
    assert _input_digest(name, tmp_path / "c", 8) != first


SF001_ROWS = {"customer": 1500, "orders": 15000, "lineitem": 60000, "events": 10000,
              "documents": 500, "nation": 25}


def test_catalog_tables_are_a_permutation_of_sf001() -> None:
    tables = inputs.catalog_tables(5)
    assert {n: t.num_rows for n, t in tables.items()} == SF001_ROWS
    for name, table in tables.items():
        source = pq.read_table(os.path.join(inputs.CATALOG_DIR, f"{name}.parquet"))
        keys = [(c, "ascending") for c in source.column_names]
        assert table.sort_by(keys).equals(source.sort_by(keys)), name
    assert not tables["lineitem"].equals(inputs.catalog_tables(6)["lineitem"])


def test_catalog_tables_are_copies_of_the_test_data() -> None:
    from tests.conftest import SF_CORRECT

    if not os.path.isdir(SF_CORRECT):
        pytest.skip("sf0.01 test data not present")
    for name in inputs.CATALOG_TABLES:
        ours = Path(inputs.CATALOG_DIR, f"{name}.parquet").read_bytes()
        assert ours == Path(SF_CORRECT, f"{name}.parquet").read_bytes(), name


def test_rounded_oracle_columns_allow_one_unit() -> None:
    assert rounding_unit(np.array([12.34, 0.5, np.nan])) == pytest.approx(0.01)
    assert rounding_unit(np.array([3.0, 4.0])) == 0.0        # integers: exact
    assert rounding_unit(np.array([1 / 3, 0.25])) == 0.0     # not rounded: exact
    want = pd.DataFrame({"k": ["a", "b"], "cents": [123456789.01, 5.27],
                         "raw": [1 / 3, 2 / 3]})
    one_unit = want.assign(cents=[123456789.02, 5.26])
    assert differences(one_unit, want) == []
    two_units = want.assign(cents=[123456789.03, 5.27])
    assert differences(two_units, want) == ["values differ in cents"]
    assert differences(want.assign(raw=[1 / 3 + 1e-6, 2 / 3]), want) == [
        "values differ in raw"]


def test_self_time_subtracts_covered_child_intervals() -> None:
    spans = [
        Span(0, None, "root", 0.0, 10.0, "r"),
        Span(1, 0, "a", 1.0, 4.0, "r"),
        Span(2, 0, "b", 3.0, 6.0, "r"),      # overlaps a: union 1..6
        Span(3, 2, "leaf", 4.0, 5.0, "r"),
        Span(4, 0, "a", 8.0, 9.0, "r"),      # second "a" adds to the first
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert got["a"] == pytest.approx(3.0 + 1.0)
    assert got["b"] == pytest.approx(3.0 - 1.0)
    assert got["leaf"] == pytest.approx(1.0)


def test_tracer_records_parents_and_nothing_when_disabled() -> None:
    tracer = Tracer("run-1", enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert (outer.parent_id, inner.parent_id) == (None, outer.span_id)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert {s.run_id for s in tracer.spans} == {"run-1"}

    off = Tracer("run-2", enabled=False)
    with off.span("outer"):
        pass
    assert off.spans == []


def _rows(rows: list[tuple]) -> pa.Table:
    ids, texts, errors, confs, warns = zip(*rows)
    return pa.table({"doc_id": pa.array(ids, pa.int64()), "text": list(texts),
                     "error": pa.array(errors, pa.string()),
                     "confidence": pa.array(confs, pa.float64()),
                     "warnings": pa.array(warns, pa.list_(pa.string()))})


def test_extraction_failures_counts_every_kind_of_bad_row() -> None:
    truth = {0: "alpha", 1: "beta", 2: "gamma"}
    planted = {10, 11, 12}
    good = _rows([(0, "alpha", None, 0.9, []), (1, "beta", None, 0.9, []),
                  (2, "gamma", None, 0.9, []),
                  (10, None, "empty payload", 0.0, []),
                  (11, "", None, 0.0, ["no content blocks detected"]),
                  (12, "", None, 0.0, ["no text operators found"])])
    assert extraction_failures(good, truth, planted) == 0

    bad = _rows([(0, "alpha ", None, 0.9, []),                 # not byte-identical
                 (1, "beta", None, 0.9, []), (1, "beta", None, 0.9, []),  # repeated
                 (10, "junk", None, 0.4, []),                  # planted, extracted
                 (11, "", None, 0.0, []),                      # planted, no reason
                 (99, "x", None, 0.9, [])])                    # unknown row
    # row 0, the repeat of 1, planted 10 and 11, unknown 99; missing 2 and 12
    assert extraction_failures(bad, truth, planted) == 7


STATS = """Operator 1 ReadParquet->SplitBlocks(12): 1 tasks executed, 12 blocks produced in 0.53s
* Remote wall time: 367.23us min, 9.42ms max, 1.43ms mean, 17.2ms total
* Output num rows per block: 250 min, 250 max, 250 mean, 3000 total
* Output size bytes per block: 74418 min, 82424 max, 79034 mean, 948417 total

Operator 2 MapBatches(<lambda>)->MapBatches(DocumentExtractor): 6 tasks executed, 6 blocks produced in 2.3s
* Remote wall time: 537.19ms min, 773.98ms max, 595.91ms mean, 3.58s total
* Output num rows per block: 500 min, 500 max, 500 mean, 3000 total
* Output size bytes per block: 570185 min, 582363 max, 575945 mean, 3455674 total

Operator 3 Write: 6 tasks executed, 6 blocks produced in 1.68s
* Remote wall time: 10.71ms min, 13.67ms max, 12.23ms mean, 73.36ms total
"""


def test_operator_stats_reads_each_role() -> None:
    got = operator_stats(STATS)
    assert got["read"] == pytest.approx(
        {"wall_s": 0.53, "remote_wall_s": 0.0172, "rows": 3000, "bytes": 948417})
    assert got["extract"] == pytest.approx(
        {"wall_s": 2.3, "remote_wall_s": 3.58, "rows": 3000, "bytes": 3455674})
    assert got["write"]["wall_s"] == pytest.approx(1.68)
    assert got["write"]["remote_wall_s"] == pytest.approx(0.07336)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=400)


def _declared(key: str) -> set[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return {m["name"] for m in json.load(f)[key]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_end_to_end(name: str) -> None:
    done = _bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0",
                  "--scale", str(TINY))
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_layers() -> None:
    done = _bench("--workload", "extract_web", "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--scale", str(TINY))
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == _declared("per_layer")
    assert metrics["cluster.num_cpus"] == 4
    assert metrics["trace.spans"] > 0
    assert metrics["stages.extract.DocumentExtractor.self_s"] > 0
    assert metrics["ray_data.extract.rows"] > 0


def test_without_the_library_it_fails_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "extract_web", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
    assert not os.path.exists(tmp_path / ".perfbench_work")
