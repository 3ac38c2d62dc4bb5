"""Chunk-merge: map-reduce combine for documents split into chunks.

Reimplements the reference's chunked-extraction reduce
(reference: app/backend/services/ai/extraction.py:337-434
``_merge_extraction_results``), used when a document exceeds the
single-call budget (>10 pages => chunks of 5, extraction.py:493-544):

- ARRAY fields: **append across chunks in chunk order**
  (extraction.py:375-394)
- scalar fields: **first non-null / non-empty wins** — chunk order matters
  (extraction.py:389-394)
- per-field confidence: mean of the chunks' valid [0,1] scores
  (extraction.py:351-372, 396-401)
- overall confidence: mean of chunk confidences, rounded 3dp
- warnings: DISCARDED pre-merge; validation re-runs on the merged record
  (extraction.py:412-418 — avoids false per-chunk warnings)
- nulls stripped from arrays recursively post-merge (extraction.py:410)

Dataset shape: a split document appears as rows sharing ``url`` with a
``chunk_index``; ``merge_chunked`` is the url-keyed
``stages/dedup.segment_window`` reduce, which orders each url's rows by
chunk_index before applying the same pure function (SURVEY §7.4 hard part
#6: preserve chunk order inside groups).
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np
import pyarrow as pa

from ray.data import Dataset

from ..schema import FieldType, SchemaDefinition, round_confidence
from ..stages.dedup import segment_window
from .scalars import clean_null_from_arrays
from .validation import validate_extracted_data


def merge_extraction_chunks(
    chunks: list[dict[str, Any]],
    chunk_confidences: list[float],
    chunk_field_confidences: list[dict[str, float]],
    schema: SchemaDefinition,
) -> tuple[dict[str, Any], float, dict[str, float], list[str]]:
    """Pure reduce: (merged_data, confidence, field_confidences, warnings)."""
    merged: dict[str, Any] = {}
    array_fields = {f.name for f in schema.fields if f.type == FieldType.ARRAY}

    for chunk in chunks:  # chunk order is semantic
        for key, value in chunk.items():
            if key in array_fields:
                # mirror the reference exactly (extraction.py:375-394): the
                # first chunk seeds merged wholesale — even a malformed
                # non-list value — and a prior scalar is wrapped into a list
                # when a later chunk appends ([prior] + value)
                if key not in merged:
                    if value is not None:
                        merged[key] = value
                elif isinstance(value, list):
                    prior = merged[key]
                    merged[key] = (prior if isinstance(prior, list) else [prior]) + value
            else:
                current = merged.get(key)
                if current is None or current == "":
                    if value is not None and value != "":
                        merged[key] = value

    merged = clean_null_from_arrays(merged)

    field_conf: dict[str, float] = {}
    names = set()
    for fc in chunk_field_confidences:
        names.update(fc or {})
    for name in names:
        vals = [
            fc[name] for fc in chunk_field_confidences
            if fc and fc.get(name) is not None and 0.0 <= fc[name] <= 1.0
        ]
        if vals:
            field_conf[name] = round(sum(vals) / len(vals), 3)

    # NaN-aware, not just None-aware: a NaN confidence passes
    # `is not None` and would poison the mean to NaN -> clamp 0.0
    valid = [c for c in chunk_confidences
             if c is not None and not (isinstance(c, float) and math.isnan(c))]
    confidence = round_confidence(sum(valid) / len(valid)) if valid else 0.0

    # warnings recomputed post-merge only
    vres = validate_extracted_data(merged, schema)
    return vres.validated_data, confidence, field_conf, vres.warnings


# merge_chunked output: one row per url
_MERGED = pa.schema([
    ("url", pa.string()), ("text", pa.string()), ("n_chunks", pa.int64()),
    ("fields_json", pa.string()), ("field_confidences_json", pa.string()),
    ("confidence", pa.float64()), ("warnings", pa.list_(pa.string())),
])


def merge_chunked(extractions: Dataset, schema: SchemaDefinition) -> Dataset:
    """url-keyed reduce over chunk rows, in chunk_index order.

    Expects columns: url, chunk_index, fields_json, confidence,
    field_confidences_json, text. Emits one row per url with merged fields
    and chunk texts concatenated in order ("\\n\\n" — same join as block
    assembly).
    """
    def merge(t: pa.Table, starts: np.ndarray) -> pa.Table:
        # rows, not columns: on zero rows a map upstream leaves no schema
        rows = t.to_pylist()
        out: dict[str, list] = {c: [] for c in _MERGED.names}
        for lo, hi in zip(starts, np.append(starts[1:], len(rows))):
            g = rows[lo:hi]
            data, conf, fconf, warnings = merge_extraction_chunks(
                [json.loads(r["fields_json"]) for r in g],
                [r["confidence"] for r in g],
                [json.loads(r["field_confidences_json"]) for r in g], schema)
            out["url"].append(g[0]["url"])
            out["text"].append("\n\n".join(r["text"] for r in g if r["text"]))
            out["n_chunks"].append(len(g))
            out["fields_json"].append(json.dumps(data, sort_keys=True))
            out["field_confidences_json"].append(json.dumps(fconf, sort_keys=True))
            out["confidence"].append(conf)
            out["warnings"].append(list(warnings))
        return pa.table(out, schema=_MERGED)

    return segment_window(extractions, "url", merge, order=("chunk_index",))
