"""Flagship pipeline: pages -> extraction records -> partitioned parquet.

Ray-Data restatement of the reference's batch-extraction lifecycle
(SURVEY.md §3.1; reference routers/batches.py:64-254):

    read_parquet(documents shards)
      -> map_batches(synthesize_pages_batch)      # corpus lane (tests)
      -> map_batches(DocumentExtractor(schema))   # task stage
      -> write_parquet(out/shard=…) + _MANIFEST.json    # failure-is-data

Every stage after the read is a task-based map, so Ray fuses them into one
operator (``MapBatches(<lambda>)->MapBatches(DocumentExtractor)->Write``):
a block is synthesized, extracted and written by the same task, and no
stage reserves CPUs the others need.

At 100 TB the unit of work is the input **file shard**: each shard is an
independent streaming Dataset job whose output directory + manifest make the
whole run idempotently resumable (skip-if-valid). Within a shard the
streaming executor pipelines read -> (synth -> extract -> write) with
backpressure; no stage materializes the dataset.

Skew note (north rule): the corpus deliberately gives one host ~1/3 of rows.
Extraction itself is embarrassingly parallel — blocks are split by Ray Data
regardless of host — so no shuffle is needed on the hot path, nor for the
host-keyed consumers: a per-host aggregate merges per-block partials
(``partial_groupby``), and the host-partitioned sink
(``write_host_partitioned``) writes each block's rows to their url-prefix
hash bucket's directory.
"""

from __future__ import annotations

import os
import time
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Count, Mean, Sum

from ..functions.fasthash import hash64_strs
from ..schema import SchemaDefinition
from ..sources.corpus import synthesize_pages_batch
from ..stages.extract import DocumentExtractor
from ..state.manifest import lineage_id, manifest_is_valid, write_manifest_atomic

DEFAULT_BATCH_SIZE = 256
# Not read by the pipeline (extraction runs as tasks); perfbench/run.py
# imports it for its reported pool_size.
DEFAULT_CONCURRENCY = 4
# blocks the documents read may run ahead of synthesis and extraction
READ_AHEAD_BLOCKS = 3


def pages_dataset(
    sf_dir: str,
    *,
    include_doc_id: bool = True,
    replicate: int = 1,
    override_num_blocks: int | None = None,
    inflate: int = 1,
) -> Dataset:
    """documents.parquet -> canonical pages table (url, warc_ts, html, text, lang).

    Column pruning at the read: only the three columns the synthesizer needs
    leave storage. ``replicate`` reads the input N times (bench-only knob to
    scale work volume; urls repeat across replicas). ``override_num_blocks``
    splits the read's output into that many blocks, but it does not add
    read tasks: one parquet file is one read task
    (``ReadParquet->SplitBlocks(n)``). The synthesis and extraction maps run
    behind that one task, so how far the read may run ahead of them sets
    how fast they start (see ``_pages_from_files``).
    """
    return _pages_from_files(
        [f"{sf_dir}/documents.parquet"] * max(1, replicate),
        include_doc_id=include_doc_id,
        override_num_blocks=override_num_blocks,
        inflate=inflate,
    )


def _pages_from_files(
    paths: list[str],
    *,
    include_doc_id: bool = True,
    override_num_blocks: int | None = None,
    inflate: int = 1,
) -> Dataset:
    """The documents files -> synthesized pages, the read feeding extraction.

    The read runs at most ``READ_AHEAD_BLOCKS`` blocks ahead of the maps
    behind it: the three pruned columns of those rows (the html payloads are
    synthesized behind the read). A read of raw pages carries whole
    payloads, so ``extract_job``'s raw-pages lane keeps Ray's 2 blocks.
    """
    # Ray's streaming generator holds 2 objects per block (the block and its
    # metadata) and the executor drains it once per 100-ms poll, so a
    # one-file read feeds its maps READ_AHEAD_BLOCKS blocks per poll. Ray's
    # default of 2 is less than one extraction task's input in perfbench
    # ``extract_web`` (3 blocks of 125 pages), so each task waited 1.5
    # polls: 2.2 s of read wall for 0.04 s of read work. 3 start one task
    # per poll, with CPUs to spare. Without a bound (-1) every task started
    # at once, took every CPU, and the pass wall followed the machine's load
    # from run to run (BASELINE.md).
    ds = rd.read_parquet(
        paths,
        columns=["doc_id", "text", "lang"],
        override_num_blocks=override_num_blocks,
        ray_remote_args={"_generator_backpressure_num_objects": 2 * READ_AHEAD_BLOCKS},
    )
    return ds.map_batches(
        lambda b: synthesize_pages_batch(b, include_doc_id=include_doc_id,
                                         inflate=inflate),
        batch_format="pyarrow",
        batch_size=DEFAULT_BATCH_SIZE,
    )


def run_extraction(
    pages: Dataset,
    schema: SchemaDefinition | None = None,
    *,
    batch_size: int | None = None,
) -> Dataset:
    """Attach the extraction stage to a pages Dataset, as Ray tasks.

    The stage is a ``DocumentExtractor`` *instance*: Ray runs a callable
    instance as plain tasks, so the stage fuses with the map before it and
    the write after it into one operator, payloads never cross the object
    store between them, every CPU extracts, and worker processes stay warm
    across Datasets. The instance's only set-up is a compiled schema
    (~0.1 ms), far below what an actor pool's start-up costs.

    ``batch_size=None`` runs one batch per block: re-batching blocks into
    small slices cost ~40% throughput (BASELINE.md).
    """
    return pages.map_batches(
        DocumentExtractor(schema.to_dict() if schema else None),
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def write_host_partitioned(
    extractions: Dataset, out_dir: str, num_buckets: int = 16
) -> None:
    """Skew-aware partitioned sink: tag each row with its url-prefix hash
    bucket, then ``write_parquet(partition_cols=["host_bucket"])`` — one
    directory per bucket, so per-host consumers read only their partition
    and a failed bucket can be rewritten alone. The giant host shares its
    bucket directory but never spills outside it. No shuffle: each block
    writes its own file per bucket it holds."""
    def add_bucket(batch: pa.Table) -> pa.Table:
        hosts = batch.column("host").to_pylist()
        buckets = (hash64_strs(hosts) % np.uint64(num_buckets)).astype(
            np.int64) if hosts else np.empty(0, dtype=np.int64)
        return batch.append_column("host_bucket",
                                   pa.array(buckets, pa.int64()))

    extractions.map_batches(add_bucket, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["host_bucket"])


_NO_DOCUMENTS = {"total_documents": 0, "successful_documents": 0,
                 "failed_documents": 0, "average_confidence": 0.0}


def run_metrics(extractions: Dataset) -> dict[str, Any]:
    """Run-level counters (reference batch counters A5–A7,
    routers/batches.py:222-241, 511): small aggregate result — safe to
    materialize."""
    def flags(batch: pa.Table) -> pa.Table:
        ok = pc.is_null(batch.column("error"))
        return pa.table({
            "ok": pc.cast(ok, pa.int64()),
            "failed": pc.cast(pc.invert(ok), pa.int64()),
            "confidence": batch.column("confidence"),
        })

    agg = (
        extractions.map_batches(flags, batch_format="pyarrow")
        .aggregate(
            Count(alias_name="total_documents"),
            Sum("ok", alias_name="successful_documents"),
            Sum("failed", alias_name="failed_documents"),
            Mean("confidence", alias_name="average_confidence"),
        )
    )
    if agg is None or agg.get("total_documents") in (None, 0):
        # Dataset.aggregate returns None on empty input (documented
        # hazard); subscripting it raised TypeError (review finding)
        return dict(_NO_DOCUMENTS)
    agg["average_confidence"] = round(float(agg["average_confidence"]), 3)
    return agg


def shard_metrics(shard_dir: str) -> dict[str, Any]:
    """``run_metrics`` counters of one written shard, read from its parquet
    files in the calling process: a Ray aggregate per shard cost 0.3-3.5 s
    of scheduling to count two columns."""
    has_parts = any(f.endswith(".parquet") for f in os.listdir(shard_dir))
    t = pq.read_table(shard_dir, columns=["error", "confidence"]) if has_parts else None
    if t is None or t.num_rows == 0:
        return dict(_NO_DOCUMENTS)
    ok = t.column("error").null_count
    return {
        "total_documents": t.num_rows,
        "successful_documents": ok,
        "failed_documents": t.num_rows - ok,
        "average_confidence": round(float(pc.mean(t.column("confidence")).as_py()), 3),
    }


def extract_job(
    input_files: list[str],
    out_dir: str,
    schema: SchemaDefinition | None = None,
    *,
    synthesize: bool = True,
    resume: bool = True,
    repair: bool = False,
) -> list[dict[str, Any]]:
    """Resumable multi-shard extraction run.

    One shard per input file; a shard with a valid manifest (matching
    lineage) is skipped. ``synthesize=True`` reads documents files through
    ``pages_dataset``'s read and synthesis map (``READ_AHEAD_BLOCKS`` ahead);
    ``synthesize=False`` reads raw pages files, whose blocks carry whole
    payloads, so that read keeps Ray's default 2-block buffer.
    ``repair=True`` appends the rule-driven completion stage (T3) after
    extraction (reference on-demand smart repair,
    routers/documents.py:80-201, as a pipeline flag — SURVEY §2.10).
    Returns the manifest list (one per shard).
    """
    manifests: list[dict[str, Any]] = []
    for idx, path in enumerate(input_files):
        # index prefix: input files may share basenames across directories
        shard_name = f"{idx:05d}-{os.path.splitext(os.path.basename(path))[0]}"
        shard_dir = os.path.join(out_dir, f"shard={shard_name}")
        try:
            st = os.stat(path)
            input_key = f"{path}:{st.st_size}:{int(st.st_mtime)}"
        except OSError:
            input_key = path
        lineage = lineage_id(
            input_key,
            (schema.name + (":repair" if repair else "")) if schema else "",
            schema.version if schema else "",
        )
        if resume and manifest_is_valid(shard_dir, lineage):
            m = dict(lineage=lineage, shard=shard_name, skipped=True)
            manifests.append(m)
            continue

        # idempotent overwrite: stale part files from a dead/invalid run must
        # not survive next to the rewrite (manifest absent => dir is garbage)
        import shutil

        shutil.rmtree(shard_dir, ignore_errors=True)

        t0 = time.perf_counter()
        if synthesize:
            ds = _pages_from_files([path])
        else:
            ds = rd.read_parquet(path)  # whole payloads: keep Ray's pacing
        ext = run_extraction(ds, schema, batch_size=DEFAULT_BATCH_SIZE)
        if repair and schema is not None:
            from ..stages.repair import repair_extractions

            ext = repair_extractions(ext, schema)
        ext.write_parquet(shard_dir)
        # zero-row shard: write_parquet creates nothing; an empty shard is
        # still a completed shard (failure-is-data, resumable)
        os.makedirs(shard_dir, exist_ok=True)
        metrics = shard_metrics(shard_dir)
        manifest = {
            "lineage": lineage,
            "shard": shard_name,
            "input": path,
            "rows": int(metrics["total_documents"]),
            "successful_documents": int(metrics["successful_documents"]),
            "failed_documents": int(metrics["failed_documents"]),
            "average_confidence": metrics["average_confidence"],
            "wall_s": round(time.perf_counter() - t0, 3),
            "skipped": False,
        }
        write_manifest_atomic(shard_dir, manifest)
        manifests.append(manifest)
    return manifests
