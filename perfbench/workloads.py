"""The workloads: seeded inputs, the timed job and its checks.

Each workload drives the library only through public functions:

- ``extract_web``: short pages (~300 chars, ~10% one-page PDF) through
  ``pages_dataset`` -> ``run_extraction(INVOICE_SCHEMA)`` -> ``write_parquet``;
  planted bad pages run through the same stage, untimed.
- ``catalog_shuffle``: a fixed mix of catalog queries, run one after
  another, over a seeded row permutation of the sf0.01 tables.

The resume probe (traced runs) is an ``extract_job`` call over a shard
that a completed job already wrote, which must skip it.

Failures are counted per operation (an extracted row, a shard to skip, a
query) in ``Workload.check``.
"""

from __future__ import annotations

import os
import re
import statistics
import time
import traceback
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import inputs
from .cluster import JobTimeout, time_limit, wait_idle
from .oracle import Oracle, differences, to_frame
from .trace import Tracer

# no single job of a healthy run comes near this; a hung one is cut here
OP_LIMIT_S = 60.0
# one all-skip extract_job call takes ~0.1 ms: resume_s is the mean of the
# calls made back to back in this window
RESUME_WINDOW_S = 1.0


@dataclass
class Check:
    """Attempted and failed operations, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, note: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)


def extraction_failures(out: pa.Table, truth: dict[int, str], planted: set[int]) -> int:
    """Failed rows of one extraction output: a text that is not
    byte-identical to its ground truth, a missing, repeated or unknown row,
    or a planted bad row that did not come back as a failure row (no text,
    zero confidence, and an error or a warning saying why)."""
    seen: set[int] = set()
    failed = 0
    rows = zip(out.column("doc_id").to_pylist(), out.column("text").to_pylist(),
               out.column("error").to_pylist(), out.column("confidence").to_pylist(),
               out.column("warnings").to_pylist())
    for doc_id, text, error, confidence, warnings in rows:
        if doc_id in seen:
            failed += 1
            continue
        seen.add(doc_id)
        if doc_id in planted:
            ok = not text and confidence == 0.0 and (error is not None or bool(warnings))
        else:
            ok = error is None and doc_id in truth and text == truth[doc_id]
        failed += not ok
    return failed + len(truth) + len(planted) - len(seen & (truth.keys() | planted))


_OP_LINE = re.compile(r"^Operator \d+ (.+?): \d+ tasks executed, \d+ blocks produced in "
                      r"([\d.]+)(us|ms|s)$")
_TOTAL = re.compile(r"([\d.]+)(us|ms|s)? total")
_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0, None: 1.0}
OP_ROLES = ("read", "extract", "write")


def _role(op_name: str) -> str | None:
    if "DocumentExtractor" in op_name:
        return "extract"
    if "ReadParquet" in op_name:
        return "read"
    if op_name.startswith("Write"):
        return "write"
    return None


def operator_stats(stats_text: str) -> dict[str, dict[str, float]]:
    """Per role (read, extract, write): wall, remote wall, rows and bytes
    summed over the operators of that role in a ``Dataset.stats()`` text."""
    out = {r: {"wall_s": 0.0, "remote_wall_s": 0.0, "rows": 0.0, "bytes": 0.0}
           for r in OP_ROLES}
    role = None
    for line in stats_text.splitlines():
        m = _OP_LINE.match(line.strip())
        if m:
            role = _role(m.group(1))
            if role:
                out[role]["wall_s"] += float(m.group(2)) * _UNIT_S[m.group(3)]
            continue
        if not line.startswith("*") or role is None:
            if not line.strip():
                role = None
            continue
        total = _TOTAL.search(line)
        if total is None:
            continue
        value = float(total.group(1)) * _UNIT_S[total.group(2)]
        if line.startswith("* Remote wall time"):
            out[role]["remote_wall_s"] += value
        elif line.startswith("* Output num rows per block"):
            out[role]["rows"] += value
        elif line.startswith("* Output size bytes per block"):
            out[role]["bytes"] += value
    return out


def _schema():
    from ai_pdf_extraction_ray.pipelines.queries import INVOICE_SCHEMA

    return INVOICE_SCHEMA


def _html_bytes(table: pa.Table) -> int:
    return int(pc.sum(pc.binary_length(table.column("html"))).as_py() or 0)


class Workload:
    """Inputs under ``work_dir/input``; outputs under ``work_dir/out``."""

    name = ""
    EXTRACTS = False  # the timed pass is an extraction pipeline
    MIN_PASSES = 3  # timed passes per untraced run, whatever --seconds

    def __init__(self, work_dir: str, seed: int, scale: float = 1.0) -> None:
        self.work = work_dir
        self.seed = seed
        self.scale = scale
        self.deadline = float("inf")  # time.monotonic() past which jobs are cut
        self.in_dir = os.path.join(work_dir, "input")
        self.warm_dir = self.in_dir
        self.check = Check()
        self.outputs: list = []
        self.units_per_pass = 0      # docs (extract) or input rows (catalog)
        self.payload_bytes = 0
        self.resume_inputs: list[str] = []
        self.resume_dir = ""
        self.timed_out = False
        # (documents, well-formed pages) for the in-process kernel section,
        # and PDFs long enough for the chunked lane
        self.sample: tuple[pa.Table, pa.Table] = (pa.table({}), pa.table({}))
        self.long_pdfs: list[bytes] = []

    def _n(self, full: int, least: int) -> int:
        return max(least, round(full * self.scale))

    def _out(self, tag: str) -> str:
        return os.path.join(self.work, "out", tag)

    def limit(self):  # noqa: ANN201 — context manager
        return time_limit(min(OP_LIMIT_S, max(1.0, self.deadline - time.monotonic())))

    def _guarded(self, fn) -> str | None:  # noqa: ANN001
        """Run ``fn`` under the time limit; returns why it failed, or None.
        A hang or an error is a counted result, so the run goes on."""
        try:
            with self.limit():
                fn()
            return None
        except JobTimeout as e:
            self.timed_out = True
            return str(e)
        except Exception:  # noqa: BLE001 — reported as failed operations
            return traceback.format_exc(limit=3)

    def _counted(self, what: str, units: int, fn) -> bool:  # noqa: ANN001
        """``_guarded``, failing ``units`` operations on a failure."""
        error = self._guarded(fn)
        if error:
            self.check.add(units, units, f"{what}: {error}")
        return error is None

    # -- the job ---------------------------------------------------------
    def make_inputs(self) -> None:
        raise NotImplementedError

    def warm(self, tag: str) -> None:
        """Untimed pass that loads the library into fresh Ray workers: a
        small extraction over ``warm_dir/documents.parquet``."""
        from ai_pdf_extraction_ray.pipelines.extract_pipeline import (
            pages_dataset,
            run_extraction,
        )

        out = self._out(f"warm-{tag}")
        self._counted(f"warm {tag}", 1, lambda: run_extraction(
            pages_dataset(self.warm_dir), _schema()).write_parquet(out))

    def _job(self, out: str) -> list[dict]:
        from ai_pdf_extraction_ray.pipelines.extract_pipeline import extract_job

        return extract_job(self.resume_inputs, out, _schema())

    def timed_pass(self, tag: str, tracer: Tracer) -> float:
        """Wall of one timed pass, after waiting for idle CPUs (untimed)."""
        raise NotImplementedError

    def wall(self, walls: list[float]) -> float:
        """The run's ``wall_s`` from its pass walls."""
        return statistics.median(walls)

    def prepare_resume(self) -> None:
        """A completed ``extract_job`` over ``resume_inputs``, untimed."""
        out = self._out("job")
        wait_idle()
        if self._counted("job", len(self.resume_inputs), lambda: self._job(out)):
            self.resume_dir = out

    def resume(self, window_s: float = RESUME_WINDOW_S) -> tuple[float, int, int]:
        """Mean wall of all-skip ``extract_job`` calls made back to back for
        ``window_s``, the skipped shards of the worst call and the shard
        count. Each shard is one operation; a call that re-ran one fails it."""
        shards = len(self.resume_inputs)
        calls, skipped, spent = 0, shards, 0.0
        end = time.perf_counter() + window_s
        while self.resume_dir and (calls == 0 or time.perf_counter() < end):
            result: list[dict] = []
            start = time.perf_counter()
            error = self._guarded(lambda: result.extend(self._job(self.resume_dir)))
            if error:
                self.check.add(shards, shards, f"resume: {error}")
                return 0.0, 0, shards
            spent += time.perf_counter() - start
            calls += 1
            skipped = min(skipped, sum(bool(m.get("skipped")) for m in result))
        if not calls:
            self.check.add(shards, shards, "resume: no completed job to resume")
            return 0.0, 0, shards
        self.check.add(shards, shards - skipped, f"resume: {shards - skipped} shards re-ran")
        return spent / calls, skipped, shards

    def verify(self) -> None:
        """Correctness of every timed pass, outside the timed region."""
        raise NotImplementedError

    # -- traced-run extras -------------------------------------------------
    def layer_extras(self, tracer: Tracer) -> dict[str, float]:
        return {}


class ExtractWeb(Workload):
    name = "extract_web"
    EXTRACTS = True
    N_DOCS, N_PLANTED, N_WARM, N_SAMPLE = 6000, 30, 100, 300
    # 16 blocks per extraction actor: with 4 per actor, an actor that
    # started late left the others idle and pass walls spread twice as wide
    BLOCKS = 48
    N_LONG_PDFS = 4

    def __init__(self, *args, **kwargs) -> None:  # noqa: ANN002, ANN003
        super().__init__(*args, **kwargs)
        self.truth: dict[int, str] = {}
        self.planted: set[int] = set()
        self.last_stats = ""  # Dataset.stats() of the last traced pass

    def _check_rows(self, out: str, truth: dict[int, str], planted: set[int]) -> None:
        table = pq.read_table(out, columns=["doc_id", "text", "error", "confidence",
                                            "warnings"])
        failed = extraction_failures(table, truth, planted)
        self.check.add(len(truth) + len(planted), failed, f"{out}: {failed} bad rows")

    def layer_extras(self, tracer: Tracer) -> dict[str, float]:
        """Write throughput of a materialized extraction."""
        wait_idle()
        ext = self.extraction_ds().materialize()
        mb = ext.size_bytes() / 1e6
        start = time.perf_counter()
        with tracer.span("pipelines.extract_pipeline.write"):
            ext.write_parquet(self._out("write"))
        return {"pipelines.extract_pipeline.write.mb_per_s":
                mb / (time.perf_counter() - start)}

    def make_inputs(self) -> None:
        from ai_pdf_extraction_ray.sources.corpus import synthesize_pages_batch

        n = self._n(self.N_DOCS, 20)
        docs = inputs.documents_table(self.seed, n, "web")
        planted = inputs.planted_pages(self.seed, self._n(self.N_PLANTED, 3), n)
        self.planted_path = os.path.join(self.in_dir, "planted", "pages.parquet")
        self.warm_dir = os.path.join(self.in_dir, "warm")
        inputs.write_table(docs, os.path.join(self.in_dir, "documents.parquet"))
        inputs.write_table(planted, self.planted_path)
        inputs.write_table(docs.slice(0, self._n(self.N_WARM, 10)),
                           os.path.join(self.warm_dir, "documents.parquet"))
        self.resume_inputs = [os.path.join(self.warm_dir, "documents.parquet")]

        pages = synthesize_pages_batch(docs)
        self.payload_bytes = _html_bytes(pages)
        self.truth = dict(zip(docs.column("doc_id").to_pylist(),
                              docs.column("text").to_pylist()))
        self.planted = set(planted.column("doc_id").to_pylist())
        self.units_per_pass = n
        k = self._n(self.N_SAMPLE, 10)
        self.sample = (docs.slice(0, k), pages.slice(0, k))
        # the chunked PDF lane: pages above CHUNK_THRESHOLD_PAGES, in-process only
        self.long_pdfs = inputs.multipage_pdfs(self.seed, self.N_LONG_PDFS, (11, 13), 600)

    def extraction_ds(self):  # noqa: ANN201
        from ai_pdf_extraction_ray.pipelines.extract_pipeline import (
            pages_dataset,
            run_extraction,
        )

        return run_extraction(pages_dataset(self.in_dir, override_num_blocks=self.BLOCKS),
                              _schema())

    def timed_pass(self, tag: str, tracer: Tracer) -> float:
        out = self._out(f"pass-{tag}")
        ds = []

        def job() -> None:
            ds.append(self.extraction_ds())
            ds[0].write_parquet(out)

        wait_idle()
        start = time.perf_counter()
        with tracer.span("pipelines.extract_pipeline"):
            ok = self._counted(f"pass {tag}", self.units_per_pass, job)
        wall = time.perf_counter() - start
        if ok:
            self.outputs.append(out)
            # keep the stats text, not the Dataset: a live Dataset can keep
            # its actor pool's CPUs reserved into the next pass
            if tracer.enabled:
                self.last_stats = ds[0].stats()
        return wall

    def verify(self) -> None:
        """Every pass, then the planted pages through the same stage (a
        union with the pages dataset made pass walls swing from 3 s to
        25 s, so they run as their own untimed job)."""
        import ray.data as rd

        from ai_pdf_extraction_ray.pipelines.extract_pipeline import run_extraction

        for out in self.outputs:
            self._check_rows(out, self.truth, set())
        out = self._out("planted")
        wait_idle()
        if self._counted("planted", len(self.planted), lambda: run_extraction(
                rd.read_parquet(self.planted_path), _schema()).write_parquet(out)):
            self._check_rows(out, {}, self.planted)


# The timed mix: one pass takes ~6-10 s at 4 logical CPUs, so a run fits
# six passes.
MIX = ("exact_dedup", "url_canonical_dedup", "pricing_summary", "revenue_by_nation",
       "events_daily")
# Run once, and checked, in traced runs only: 1.5-19 s each at sf0.01, and
# the DuckDB oracle of minhash_near_dups another ~9 s. Left out to keep a
# traced run (~110 s with these) well inside the 180-s limit of a run:
# near_dup_clusters (minhash_near_dups plus connected components, ~15 s,
# its oracle ~32 s) and triangle_count (~11-14 s).
TRACED_ONLY = ("customers_semi_join", "curation_funnel", "minhash_near_dups",
               "ngram_jaccard_dups", "pagerank")


def _rows(result) -> int:  # noqa: ANN001 — DataFrame, or why the query failed
    return 0 if isinstance(result, str) else len(result)


class CatalogShuffle(Workload):
    name = "catalog_shuffle"
    N_SAMPLE = 150
    MIN_PASSES = 6

    def __init__(self, *args, **kwargs) -> None:  # noqa: ANN002, ANN003
        super().__init__(*args, **kwargs)
        self.query_walls: dict[str, list[float]] = {}

    def make_inputs(self) -> None:
        from ai_pdf_extraction_ray.sources.corpus import synthesize_pages_batch

        tables = inputs.catalog_tables(self.seed, self.scale)
        for name, table in tables.items():
            self.payload_bytes += inputs.write_table(
                table, os.path.join(self.in_dir, f"{name}.parquet"))
            self.units_per_pass += table.num_rows
        self.tables = list(tables)
        self.resume_inputs = [os.path.join(self.in_dir, "documents.parquet")]
        docs = tables["documents"].sort_by("doc_id").slice(0, self._n(self.N_SAMPLE, 10))
        self.sample = (docs, synthesize_pages_batch(docs))

    def _queries(self, names: tuple[str, ...], tracer: Tracer) -> dict[str, object]:
        """Each query's result frame, or why it failed; walls recorded."""
        from ai_pdf_extraction_ray.pipelines.queries import QUERIES

        results: dict[str, object] = {}
        for q in names:
            wait_idle()
            start = time.perf_counter()
            with tracer.span(f"pipelines.queries.{q}"):
                error = self._guarded(lambda q=q: results.__setitem__(
                    q, to_frame(QUERIES[q]["fn"](self.in_dir))))
            self.query_walls.setdefault(q, []).append(time.perf_counter() - start)
            if error:
                results[q] = error
        self.outputs.append(results)
        return results

    def timed_pass(self, tag: str, tracer: Tracer) -> float:
        """Summed query walls: the idle waits between queries are not part
        of the pass."""
        self._queries(MIX, tracer)
        return sum(self.query_walls[q][-1] for q in MIX)

    def wall(self, walls: list[float]) -> float:
        """Sum of per-query minima over the passes. Noise only adds to a
        query's wall here: the first two or three passes of a session read
        up to ~1.7x the later ones while its worker pool warms, and a query
        can wait ~2 s for worker processes in one pass and not the next.
        Per-query medians of five passes spread 0.33 over five seeds with
        the host idle; the fastest pass of each query is the steady figure."""
        return sum(min(self.query_walls[q]) for q in MIX)

    def verify(self) -> None:
        from ai_pdf_extraction_ray.pipelines.queries import QUERIES

        oracle = Oracle(self.in_dir, self.tables)
        try:
            expected = {q: oracle.run(QUERIES[q]["sql"])
                        for q in {q for results in self.outputs for q in results}}
        finally:
            oracle.close()
        for results in self.outputs:
            for q, got in results.items():
                problems = [got] if isinstance(got, str) else differences(got, expected[q])
                self.check.add(1, bool(problems), f"{q}: {'; '.join(problems)}")

    def layer_extras(self, tracer: Tracer) -> dict[str, float]:
        """Verified pairs over candidate pairs of the two near-dup paths."""
        import ray.data as rd

        from ai_pdf_extraction_ray.stages.dedup import (
            minhash_candidate_pairs,
            rare_blocked_pair_stats,
        )

        def docs():  # noqa: ANN202
            return rd.read_parquet(os.path.join(self.in_dir, "documents.parquet"),
                                   columns=["doc_id", "text"])

        verified = {q: _rows(r) for q, r in self._queries(TRACED_ONLY, tracer).items()}
        wait_idle()
        with tracer.span("stages.dedup.minhash_candidate_pairs"):
            minhash = minhash_candidate_pairs(docs()).count()
        wait_idle()
        with tracer.span("stages.dedup.rare_blocked_pair_stats"):
            _, ngram = rare_blocked_pair_stats(docs())
        return {
            "stages.dedup.minhash.candidates": float(minhash),
            "stages.dedup.minhash.verify_yield":
                verified["minhash_near_dups"] / minhash if minhash else 0.0,
            "stages.dedup.ngram.candidates": float(ngram),
            "stages.dedup.ngram.verify_yield":
                verified["ngram_jaccard_dups"] / ngram if ngram else 0.0,
        }


WORKLOADS = {w.name: w for w in (ExtractWeb, CatalogShuffle)}
