"""Seeded input generators for the workloads.

Every table is a pure function of ``(seed, sizes)``: the same seed gives
byte-identical parquet files, another seed gives other rows. The program
under test only ever sees the files written here.

- ``documents``: word-salad pages in the shape of the repo's corpus table
  (doc_id, text, lang, source, n_chars) -- 10 to 99 words from a 30-word
  vocabulary, ~5% near-duplicates (another row's text plus " dup").
- extract_web: one ``documents.parquet`` of short pages plus a pages-shaped
  parquet of planted bad rows (empty, garbage, truncated PDF).
- multi-page PDFs above the extractor's chunk threshold, for the chunked
  lane of the kernel section.
- catalog_shuffle: the sf0.01 tables of the repository's test data
  (``data/sf0.01``, byte-identical copies), each written in a seeded row
  permutation.
"""

from __future__ import annotations

import hashlib
import os
from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "a agg batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream "
    "table the value vector window"
).split()
LANGS = ["en", "zh", "es", "de", "fr"]
LANG_P = [0.42, 0.145, 0.145, 0.145, 0.145]
N_SOURCES = 20
DUP_FRAC = 0.05

CATALOG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "sf0.01")
# the tables the catalog mix reads
CATALOG_TABLES = ("customer", "orders", "lineitem", "events", "documents", "nation")

# ground truth of a planted row: no text, zero confidence, a reason recorded
PLANTED_KINDS = ("empty", "garbage", "truncated_pdf")


def _rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, purpose): adding a table never
    shifts the rows of another."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def word_texts(rng: np.random.Generator, n: int, lo: int = 10, hi: int = 100) -> list[str]:
    counts = rng.integers(lo, hi, n)
    words = rng.integers(0, len(VOCAB), int(counts.sum()))
    out, pos = [], 0
    for c in counts:
        out.append(" ".join(VOCAB[w] for w in words[pos:pos + c]))
        pos += c
    return out


def documents_table(seed: int, n: int, stream: str = "documents") -> pa.Table:
    """Corpus-shaped documents with doc_id 0..n-1 (in doc_id order)."""
    rng = _rng(seed, stream)
    texts = word_texts(rng, n)
    dup_rows = np.flatnonzero(rng.random(n) < DUP_FRAC)
    originals = np.setdiff1d(np.arange(n), dup_rows)
    if len(originals):
        for row, src in zip(dup_rows, rng.choice(originals, len(dup_rows))):
            texts[row] = texts[src] + " dup"
    langs = rng.choice(LANGS, n, p=LANG_P)
    ids = np.arange(n, dtype=np.int64)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs.tolist(), pa.string()),
        "source": pa.array([f"src{i % N_SOURCES}" for i in ids], pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def planted_pages(seed: int, n: int, first_doc_id: int) -> pa.Table:
    """Pages-shaped bad rows, cycling through PLANTED_KINDS. ``text`` is
    null: no extracted text is expected back."""
    from ai_pdf_extraction_ray.sources.corpus import build_pdf

    rng = _rng(seed, "planted")
    payloads, urls = [], []
    for i in range(n):
        kind = PLANTED_KINDS[i % len(PLANTED_KINDS)]
        if kind == "empty":
            payload = b""
        elif kind == "garbage":
            # bytes without '<' or '&': nothing parses as markup
            junk = rng.integers(0x80, 0x100, int(rng.integers(8, 64)), dtype=np.uint8)
            payload = b"\x00" + junk.tobytes()
        else:
            full = build_pdf(first_doc_id + i, " ".join(word_texts(rng, 1)))
            payload = full[: int(rng.integers(16, 64))]
        payloads.append(payload)
        urls.append(f"https://planted.example.com/{kind}/{first_doc_id + i}")
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array([datetime(2024, 1, 1)] * n, pa.timestamp("us")),
        "html": pa.array(payloads, pa.binary()),
        "text": pa.array([None] * n, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "doc_id": pa.array(np.arange(first_doc_id, first_doc_id + n), pa.int64()),
    })


def multipage_pdfs(seed: int, n: int, pages: tuple[int, int], page_chars: int) -> list[bytes]:
    """PDFs of ``pages`` pages, one paragraph of ~``page_chars`` per page."""
    from ai_pdf_extraction_ray.sources.corpus import build_multipage_pdf

    rng = _rng(seed, "multipage_pdfs")
    words = max(1, page_chars // 6)
    return [build_multipage_pdf(d, word_texts(rng, int(rng.integers(pages[0], pages[1] + 1)),
                                              words, words + 1))
            for d in range(n)]


def shuffled(table: pa.Table, seed: int, stream: str) -> pa.Table:
    """Seeded row permutation of ``table``."""
    return table.take(_rng(seed, f"perm:{stream}").permutation(table.num_rows))


def catalog_tables(seed: int, scale: float = 1.0) -> dict[str, pa.Table]:
    """The sf0.01 tables in ``CATALOG_DIR``, each in a seeded row
    permutation: block layout changes, query results do not. A ``scale``
    below 1 keeps the first rows of each table (tests only)."""
    tables = {}
    for name in CATALOG_TABLES:
        table = pq.read_table(os.path.join(CATALOG_DIR, f"{name}.parquet"))
        if scale < 1.0:
            table = table.slice(0, max(30, round(table.num_rows * scale)))
        tables[name] = shuffled(table, seed, name)
    return tables


def write_table(table: pa.Table, path: str, row_group_size: int | None = None) -> int:
    """Write one parquet file; returns the table's in-memory payload bytes."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(table, path, row_group_size=row_group_size)
    return table.nbytes


def file_digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()
