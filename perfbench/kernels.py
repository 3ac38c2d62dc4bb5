"""Single-core, in-process throughput of the extraction kernels (no Ray).

Each kernel runs over the workload's own sample until ``min_s`` seconds
have passed; the rate is units done divided by the time taken. Kernels
with no input in the sample (no PDF above the chunk threshold, say)
report 0.
"""

from __future__ import annotations

import json
import time

import pyarrow as pa

from .trace import Tracer

SYNTH = "sources.corpus.synthesize_pages_batch"
HTML = "stages.html_extract.extract_html"
FIELDS = "stages.html_extract.extract_fields"
VALIDATE = "functions.validation.validate_extracted_data"
PDF = "stages.pdf_extract.extract_pdf"
PDF_CHUNKED = "stages.pdf_extract.extract_pdf.chunked"
EXTRACTOR = "stages.extract.DocumentExtractor"


def _rate(fn, items: list, units: float, min_s: float, tracer: Tracer,
          name: str) -> float:
    """``units`` of work per pass over ``items``; passes until ``min_s``."""
    if not items or not units:
        return 0.0
    passes, start = 0, time.perf_counter()
    with tracer.span(name):
        while True:
            for item in items:
                fn(item)
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed >= min_s:
                return units * passes / elapsed


def kernel_rates(docs: pa.Table, pages: pa.Table, long_pdfs: list[bytes], tracer: Tracer,
                 min_s: float = 0.15) -> dict[str, float]:
    """``docs`` (doc_id, text, lang), the well-formed ``pages`` made from
    them, and PDFs for the chunked lane; returns ``<kernel>.docs_per_s`` /
    ``.pages_per_s`` / ``.mb_per_s``."""
    from ai_pdf_extraction_ray.functions.validation import validate_extracted_data
    from ai_pdf_extraction_ray.pipelines.queries import INVOICE_SCHEMA
    from ai_pdf_extraction_ray.sources.corpus import synthesize_pages_batch
    from ai_pdf_extraction_ray.stages.extract import (
        CHUNK_SIZE_PAGES,
        CHUNK_THRESHOLD_PAGES,
        DocumentExtractor,
    )
    from ai_pdf_extraction_ray.stages.html_extract import (
        compile_field_patterns,
        extract_fields,
        extract_html,
    )
    from ai_pdf_extraction_ray.stages.pdf_extract import extract_pdf, page_count

    payloads = pages.column("html").to_pylist()
    html = [p for p in payloads if p[:4] != b"%PDF"]
    pdfs = [(p, page_count(p)) for p in payloads + long_pdfs if p[:4] == b"%PDF"]
    whole = [(p, n) for p, n in pdfs if n <= CHUNK_THRESHOLD_PAGES]
    chunked = [(p, n) for p, n in pdfs if n > CHUNK_THRESHOLD_PAGES]

    def chunk_path(item: tuple[bytes, int]) -> None:
        payload, n = item
        for first in range(1, n + 1, CHUNK_SIZE_PAGES):
            extract_pdf(payload, first_page=first,
                        last_page=min(n, first + CHUNK_SIZE_PAGES - 1))

    patterns = compile_field_patterns(INVOICE_SCHEMA)
    flats = [extract_html(p)["flat_text"] for p in html]
    raw = [extract_fields(f, patterns)[0] for f in flats]
    extractor = DocumentExtractor(json.dumps(INVOICE_SCHEMA.to_dict(), sort_keys=True))

    out = {
        f"{SYNTH}.docs_per_s": _rate(
            synthesize_pages_batch, [docs], docs.num_rows, min_s, tracer, SYNTH),
        f"{HTML}.docs_per_s": _rate(extract_html, html, len(html), min_s, tracer, HTML),
        f"{FIELDS}.docs_per_s": _rate(
            lambda f: extract_fields(f, patterns), flats, len(flats), min_s, tracer, FIELDS),
        f"{VALIDATE}.docs_per_s": _rate(
            lambda r: validate_extracted_data(r, INVOICE_SCHEMA), raw, len(raw),
            min_s, tracer, VALIDATE),
        f"{PDF}.pages_per_s": _rate(
            lambda item: extract_pdf(item[0]), whole, sum(n for _, n in whole),
            min_s, tracer, PDF),
        f"{PDF_CHUNKED}.pages_per_s": _rate(
            chunk_path, chunked, sum(n for _, n in chunked), min_s, tracer, PDF_CHUNKED),
        f"{EXTRACTOR}.docs_per_s": _rate(
            extractor, [pages], pages.num_rows, min_s, tracer, EXTRACTOR),
    }
    html_mb = sum(len(p) for p in html) / 1e6
    out[f"{HTML}.mb_per_s"] = (out[f"{HTML}.docs_per_s"] * html_mb / len(html)
                               if html else 0.0)
    return out
