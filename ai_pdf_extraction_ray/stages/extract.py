"""The extraction stage: payload sniff -> HTML/PDF kernel -> validated record.

This is the Ray-Data restatement of the reference's per-document pipeline
(reference: app/backend/routers/batches.py:95-190 `process_single_document`
plus services/ai/extraction.py:437-513 `extract_data`): a **callable class**
whose *instance* runs as a task stage,
``ds.map_batches(DocumentExtractor(schema_dict), batch_format="pyarrow")``.
Schema compilation happens once, in ``__init__`` where the stage is built
(~0.1 ms), and the compiled instance ships with the tasks; per-batch work
is ``__call__``. Being tasks, the stage fuses with the maps and the write
around it.

Failure-is-data semantics throughout (reference routers/batches.py:152-162:
failed documents become rows with confidence=0.0 and a warning, the batch
continues): extractor errors produce rows with an ``error`` column, never
task exceptions — retrying a deterministic parse error is wasted work.
"""

from __future__ import annotations

import hashlib
import json
from urllib.parse import urlparse

import pyarrow as pa

from ..functions.validation import validate_extracted_data
from ..schema import (
    SPAN_TYPE,
    FieldType,
    SchemaDefinition,
    arrow_type_for,
    round_confidence,
)
from ..functions.scalars import normalize_number, parse_currency, parse_date
from .html_extract import compile_field_patterns, extract_fields, extract_html_batch
from .pdf_extract import extract_pdf, page_count

CHUNK_THRESHOLD_PAGES = 10  # reference: single call <= 10 pages (extraction.py:493-513)
CHUNK_SIZE_PAGES = 5        # reference: chunks of 5 (extraction.py:524)


def sniff_kind(payload: bytes | None) -> str:
    """Payload dispatch: %PDF magic -> pdf lane, else html lane
    (reference pdf_service.py:74-87 magic-byte check)."""
    if not payload:
        return "error"
    if payload[:4] == b"%PDF":
        return "pdf"
    return "html"


def _normalize_field_value(ftype: FieldType, value):  # noqa: ANN001
    """Typed column value for an extracted field (dual representation:
    the raw string stays in fields_json, the parsed value in the column —
    reference validation.py:499-509 keeps both for currency)."""
    if value is None:
        return None
    if ftype == FieldType.CURRENCY:
        return parse_currency(value)
    if ftype == FieldType.DATE:
        return parse_date(value) or str(value)
    if ftype == FieldType.NUMBER:
        v = normalize_number(value)
        return float(v) if v is not None else None
    if ftype == FieldType.BOOLEAN:
        return value if isinstance(value, bool) else None
    if ftype == FieldType.PERCENTAGE:
        from ..functions.scalars import normalize_percentage

        return normalize_percentage(value)
    if ftype == FieldType.ARRAY:
        return json.dumps(value, sort_keys=True) if value is not None else None
    return str(value)


MAX_PAYLOAD_BYTES = 8 * 1024 * 1024
"""Oversize lane threshold: payloads beyond this are truncated before the
parse (HTML) or rejected (PDF — a truncated PDF is not parseable), with a
warning recorded. Guarantees one 200 MB row cannot stall a block
(SURVEY.md §7.4 hard part #4)."""


class DocumentExtractor:
    """Task stage: Arrow batch of pages -> Arrow batch of extractions.

    Parameters
    ----------
    schema_dict:
        Optional ``SchemaDefinition.to_dict()`` payload (or its JSON
        string). Broadcast by value inside the instance the tasks run (the
        classic broadcast-small-side pattern; the reference likewise passes
        the schema by value into its background task,
        routers/batches.py:414-420).
        When present, label field extraction + validation run and typed
        ``field_<name>`` columns are emitted.
    max_payload_bytes:
        Oversize-lane threshold (see MAX_PAYLOAD_BYTES).
    """

    def __init__(
        self,
        schema_dict: dict | str | None = None,
        max_payload_bytes: int = MAX_PAYLOAD_BYTES,
    ) -> None:
        if isinstance(schema_dict, str):
            schema_dict = json.loads(schema_dict)
        self.schema: SchemaDefinition | None = (
            SchemaDefinition.from_dict(schema_dict) if schema_dict else None
        )
        self.patterns = compile_field_patterns(self.schema) if self.schema else {}
        self.array_fields = (
            {f.name for f in self.schema.fields if f.type == FieldType.ARRAY}
            if self.schema else set()
        )
        self.max_payload_bytes = max_payload_bytes

    def _extract_pdf_maybe_chunked(self, payload: bytes) -> dict:
        """Reference chunking semantics (extraction.py:493-544): documents
        over CHUNK_THRESHOLD_PAGES pages are processed in CHUNK_SIZE_PAGES
        chunks inside this one map task (a chunk = a page range), and the
        chunk records are reduced with the A4 merge rules. The chunk split
        stays INSIDE the task — a row never blocks other rows because the
        streaming executor schedules whole batches, and the merge preserves
        chunk order (first-non-null scalar semantics)."""
        n_pages = page_count(payload)
        if n_pages <= CHUNK_THRESHOLD_PAGES:
            return extract_pdf(payload)
        chunk_texts: list[str] = []
        chunk_flats: list[str] = []
        warnings: list[str] = []
        error = None
        for start in range(1, n_pages + 1, CHUNK_SIZE_PAGES):
            rec = extract_pdf(
                payload, first_page=start,
                last_page=min(n_pages, start + CHUNK_SIZE_PAGES - 1),
            )
            if rec["error"] is not None:
                error = rec["error"]
                break
            for w in rec["warnings"]:
                if w not in warnings:
                    warnings.append(w)
            if rec["text"]:
                chunk_texts.append(rec["text"])
                chunk_flats.append(rec["flat_text"])
        if error is not None:
            return {
                "text": None, "spans": [], "confidence": 0.0, "n_blocks": 0,
                "warnings": warnings, "error": error, "flat_text": "",
            }
        text = "\n\n".join(chunk_texts)
        spans = []
        pos = 0
        for i, part in enumerate(text.split("\n\n")) if text else []:
            spans.append({"field": f"block_{i}", "start": pos, "end": pos + len(part)})
            pos += len(part) + 2
        from ..schema import round_confidence as _rc

        return {
            "text": text, "spans": spans,
            "confidence": _rc(0.9 if text else 0.0),
            "n_blocks": (text.count("\n\n") + 1) if text else 0,
            "warnings": warnings, "error": None,
            # chunk count deliberately NOT surfaced here: __call__ never
            # emits it and the user-facing n_chunks column is merge.py's
            # (review finding: a dead rec key misled readers)
            "flat_text": "\n".join(chunk_flats),
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        payloads = batch.column("html").to_pylist()

        out: dict[str, list] = {
            "url": urls,
            "host": [],
            "payload_sha256": [],
            "kind": [],
            "text": [],
            "confidence": [],
            "n_blocks": [],
            "spans": [],
            "warnings": [],
            "error": [],
        }
        if self.schema:
            out["fields_json"] = []
            out["field_confidences_json"] = []
            for f in self.schema.fields:
                out[f"field_{f.name}"] = []

        # the HTML lane runs as one batch scan over the batch's pages
        kinds = [sniff_kind(p) for p in payloads]
        html_rows = [i for i, k in enumerate(kinds) if k == "html"]
        html_recs = dict(zip(html_rows, extract_html_batch(
            [payloads[i][: self.max_payload_bytes] for i in html_rows])))

        for row, (url, payload, kind) in enumerate(zip(urls, payloads, kinds)):
            host = urlparse(url).netloc if url else ""
            out["host"].append(host)
            out["payload_sha256"].append(
                hashlib.sha256(payload).hexdigest() if payload else ""
            )
            oversize = payload is not None and len(payload) > self.max_payload_bytes
            if kind == "error":
                rec = {
                    "text": None, "spans": [], "confidence": 0.0, "n_blocks": 0,
                    "warnings": [], "error": "empty payload", "flat_text": "",
                }
            elif kind == "pdf":
                if oversize:
                    # a truncated PDF has no usable trailer/objects — route
                    # to the error lane rather than stall a block parsing it
                    rec = {
                        "text": None, "spans": [], "confidence": 0.0,
                        "n_blocks": 0, "warnings": [],
                        "error": f"oversize pdf payload ({len(payload)} bytes)",
                        "flat_text": "",
                    }
                else:
                    rec = self._extract_pdf_maybe_chunked(payload)
            else:
                rec = html_recs[row]
                if oversize:
                    rec["warnings"] = list(rec["warnings"]) + [
                        f"oversize payload truncated to {self.max_payload_bytes} bytes"
                    ]
            if rec["error"] is not None:
                kind = "error"
            out["kind"].append(kind)
            out["text"].append(rec["text"])
            out["confidence"].append(round_confidence(rec["confidence"]))
            out["n_blocks"].append(rec["n_blocks"])
            out["spans"].append(rec["spans"])
            warnings = list(rec["warnings"])

            if self.schema:
                html_src = (
                    payload.decode("utf-8", errors="replace")
                    if (self.array_fields and kind == "html") else None
                )
                raw_fields, confs = extract_fields(
                    rec.get("flat_text") or "", self.patterns,
                    html=html_src, array_fields=self.array_fields,
                )
                vres = validate_extracted_data(raw_fields, self.schema)
                warnings.extend(w for w in vres.warnings if w not in warnings)
                out["fields_json"].append(json.dumps(vres.validated_data, sort_keys=True))
                out["field_confidences_json"].append(json.dumps(confs, sort_keys=True))
                for f in self.schema.fields:
                    out[f"field_{f.name}"].append(
                        _normalize_field_value(f.type, vres.validated_data.get(f.name))
                    )

            out["warnings"].append(warnings)
            out["error"].append(rec["error"])

        arrays: dict[str, pa.Array] = {
            "url": pa.array(out["url"], pa.string()),
            "host": pa.array(out["host"], pa.string()),
            "payload_sha256": pa.array(out["payload_sha256"], pa.string()),
            "kind": pa.array(out["kind"], pa.string()),
            "text": pa.array(out["text"], pa.string()),
            "confidence": pa.array(out["confidence"], pa.float64()),
            "n_blocks": pa.array(out["n_blocks"], pa.int64()),
            "spans": pa.array(out["spans"], pa.list_(SPAN_TYPE)),
            "warnings": pa.array(out["warnings"], pa.list_(pa.string())),
            "error": pa.array(out["error"], pa.string()),
        }
        if self.schema:
            arrays["fields_json"] = pa.array(out["fields_json"], pa.string())
            arrays["field_confidences_json"] = pa.array(
                out["field_confidences_json"], pa.string()
            )
            for f in self.schema.fields:
                arrays[f"field_{f.name}"] = pa.array(
                    out[f"field_{f.name}"], arrow_type_for(f.type)
                )
        # carry doc_id through when present (joins/oracles at test scale)
        if "doc_id" in batch.column_names:
            arrays["doc_id"] = batch.column("doc_id")
        if "lang" in batch.column_names:
            arrays["lang"] = batch.column("lang")
        return pa.table(arrays)
