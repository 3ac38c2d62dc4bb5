"""Schema discovery: infer a SchemaDefinition from a document sample.

Deterministic replacement for the reference's LLM discovery kernel
(reference: app/backend/services/ai/discovery.py:256-361 samples
representative pages and asks a model for fields + rules; the conversion /
filtering layer discovery.py:200-248 survives verbatim in spirit):

1. sample k documents (``ds.limit`` on a deterministic shard — the
   dataset-level analogue of the representative-page sampler,
   pdf_service.py:203-283);
2. collect ``Label: value`` lines from the flat text of each sample page
   (the same label surface the field extractor reads);
3. keep labels that appear in at least half of the samples;
4. infer each field's type from its observed values (currency symbol /
   parseable date / boolean words / numeric / fallback STRING — mirroring
   discovery's unknown->STRING coercion, discovery.py:205-212);
5. propose validation rules by testing additive relations among currency
   fields on the sampled values (``c == a + b`` holding within the
   reference's 1% tolerance on every sample where all three are present);
   rules referencing non-schema fields are dropped by the
   SchemaDefinition constructor (discovery.py:223-238 semantics).
"""

from __future__ import annotations

import itertools
import re

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from ..functions.scalars import normalize_boolean, parse_currency, parse_date
from ..schema import FieldDefinition, FieldType, SchemaDefinition, coerce_field_name
from .dedup import collect_table
from .extract import sniff_kind
from .html_extract import extract_html
from .pdf_extract import extract_pdf

# Title-Case words only: document metadata labels ("Invoice Number") match;
# prose fragments from boilerplate ("user0 says") do not (review finding:
# comment lines were harvested as schema fields)
_LABEL_LINE = re.compile(
    r"^([A-Z][A-Za-z0-9]*(?:[ _-][A-Z][A-Za-z0-9]*){0,4})\s*:\s*(.+?)\s*$",
    re.MULTILINE,
)

_CURRENCY_HINT = re.compile(r"^[\s]*[-(]?[$€£¥]")


def infer_type(values: list[str]) -> FieldType:
    """Majority-vote type inference over observed sample values."""
    votes = {ft: 0 for ft in (FieldType.CURRENCY, FieldType.DATE,
                              FieldType.BOOLEAN, FieldType.NUMBER)}
    for v in values:
        if _CURRENCY_HINT.match(v) and parse_currency(v) is not None:
            votes[FieldType.CURRENCY] += 1
        elif parse_date(v) is not None:
            votes[FieldType.DATE] += 1
        elif normalize_boolean(v) is not None:
            votes[FieldType.BOOLEAN] += 1
        else:
            try:
                float(v.replace(",", ""))
                votes[FieldType.NUMBER] += 1
            except ValueError:
                pass
    best, n = max(votes.items(), key=lambda kv: (kv[1], -list(votes).index(kv[0])))
    if n * 2 > len(values):  # strict majority, else STRING catch-all
        return best
    return FieldType.STRING


def harvest_labels(flat_text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for m in _LABEL_LINE.finditer(flat_text or ""):
        try:
            name = coerce_field_name(m.group(1).strip().replace(" ", "_"))
        except ValueError:
            continue
        if name not in out:
            out[name] = m.group(2).strip()
    return out


def propose_rules(fields: list[str], samples: list[dict[str, float]]) -> list[str]:
    """Additive relations ``c == a + b`` that hold within 1% on every
    complete sample (>= 2 supporting samples, and at least one sample where
    |c| is at least 0.1 — near-zero samples satisfy any relation within the
    absolute tolerance floor and would yield mutually inconsistent rules)."""
    rules: list[str] = []
    for c, a, b in itertools.permutations(fields, 3):
        if a >= b:  # a+b symmetric: canonical order, no duplicates
            continue
        support = 0
        meaningful = False
        ok = True
        for s in samples:
            va, vb, vc = s.get(a), s.get(b), s.get(c)
            if va is None or vb is None or vc is None:
                continue
            support += 1
            if abs(vc) >= 0.1:
                meaningful = True
            tol = max(abs(vc) * 0.01, 0.02)
            if abs((va + vb) - vc) > tol:
                ok = False
                break
        if ok and support >= 2 and meaningful:
            rules.append(f"{c} == {a} + {b}")
    return rules


def coerce_field_type(type_str: str) -> FieldType:
    """Raw proposed type string -> FieldType; unknown strings coerce to
    STRING exactly like the reference (discovery.py:204-212:
    ``FieldType(discovered_field.type.lower())`` with ValueError ->
    ``FieldType.STRING``)."""
    try:
        return FieldType(str(type_str).lower())
    except ValueError:
        return FieldType.STRING


# structural doc-type signals, checked in order; first match wins (the
# deterministic replacement for the reference's chain-of-thought "classify
# the document type" step, discovery.py:299-306)
_DOC_TYPE_SIGNALS: list[tuple[str, frozenset[str]]] = [
    ("Invoice", frozenset({"invoice_number"})),
    ("Receipt", frozenset({"receipt_number"})),
    ("Purchase Order", frozenset({"po_number", "order_number"})),
    ("Statement", frozenset({"statement_date", "account_number"})),
    ("Report", frozenset({"report_id", "report_date"})),
]


def classify_document_type(field_names: set[str], n_currency: int) -> tuple[str, str]:
    """(document_type, reasoning) from structural signals: identifying label
    fields first, then a currency-density fallback. Deterministic."""
    for doc_type, signals in _DOC_TYPE_SIGNALS:
        hit = signals & field_names
        if hit:
            return doc_type, (
                f"Classified as {doc_type}: identifying field(s) "
                f"{sorted(hit)} present among {len(field_names)} harvested fields."
            )
    if n_currency >= 2:
        return "Financial Document", (
            f"Classified as Financial Document: {n_currency} currency fields "
            f"among {len(field_names)} harvested fields, no identifying label."
        )
    return "Document", (
        f"Classified as generic Document: no identifying label fields among "
        f"{len(field_names)} harvested."
    )


def convert_discovery_to_schema(
    document_type: str,
    reasoning: str,
    proposed_fields: list[dict],
    proposed_rules: list[str],
) -> SchemaDefinition:
    """Proposal -> SchemaDefinition, mirroring the reference's
    ``_convert_discovery_to_schema`` (discovery.py:200-248): unknown type
    strings coerce to STRING, schema name is ``"{document_type} Schema"``,
    description carries the reasoning, and rules referencing fields outside
    the schema are silently dropped."""
    fields = [
        FieldDefinition(
            name=f["name"],
            type=coerce_field_type(f.get("type", "string")),
            description=f.get("description", ""),
            required=bool(f.get("required", False)),
        )
        for f in proposed_fields
    ]
    # rule-reference filter is applied by the SchemaDefinition constructor
    # (schema.filter_rules — same two-layer silent drop as the reference)
    return SchemaDefinition(
        name=f"{document_type} Schema",
        description=reasoning,
        version="1.0",
        fields=fields,
        validation_rules=proposed_rules,
    )


def discover_schema(pages: Dataset, *, sample_size: int = 6) -> SchemaDefinition:
    """Sample pages -> inferred SchemaDefinition (driver-side; cheap).

    Emits the reference's full discovery surface: document type + reasoning
    (schema name/description), typed fields with unknown->STRING coercion,
    and validation-rule proposals filtered to schema-resident references.

    Sampling is DETERMINISTIC: when the pages carry a doc_id the sample is
    ``doc_id < sample_size`` (a ``Dataset.limit`` depends on block arrival
    order and can differ across runs — observed flake against the committed
    golden); otherwise the first ``sample_size`` pages are. No pages (a
    zero-row table) give the one-``text``-field fallback schema."""
    def head(b: pa.Table) -> pa.Table:
        if "doc_id" in b.column_names:
            return b.filter(pc.less(b.column("doc_id"), sample_size))
        return b.slice(0, sample_size)

    sample = collect_table(pages.map_batches(head, batch_format="pyarrow"))
    payloads = (sample.column("html").to_pylist()
                if "html" in sample.column_names else [])
    if "doc_id" not in sample.column_names:
        payloads = payloads[:sample_size]
    harvested: list[dict[str, str]] = []
    for payload in payloads:
        kind = sniff_kind(payload)
        rec = extract_pdf(payload) if kind == "pdf" else extract_html(payload)
        harvested.append(harvest_labels(rec.get("flat_text") or ""))

    counts: dict[str, list[str]] = {}
    for h in harvested:
        for k, v in h.items():
            counts.setdefault(k, []).append(v)
    n = max(1, len(harvested))
    field_names = [k for k, vs in counts.items() if len(vs) / n >= 0.5]

    proposed = [
        {"name": k, "type": infer_type(counts[k]).value,
         "description": f"harvested from {len(counts[k])}/{n} sampled pages",
         "required": len(counts[k]) == n}
        for k in field_names
    ]
    if not proposed:
        proposed = [{"name": "text", "type": "string"}]

    currency_fields = [f["name"] for f in proposed if f["type"] == "currency"]
    samples_numeric = [
        {k: parse_currency(h.get(k)) for k in currency_fields} for h in harvested
    ]
    rules = propose_rules(currency_fields, samples_numeric)
    doc_type, reasoning = classify_document_type(set(field_names), len(currency_fields))
    return convert_discovery_to_schema(doc_type, reasoning, proposed, rules)
