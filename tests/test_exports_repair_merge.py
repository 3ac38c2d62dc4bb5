"""Exports (S8/S9), repair (T3), discovery (T2), chunk-merge (A4) tests."""

from __future__ import annotations

import json

import pytest

from ai_pdf_extraction_ray.functions.merge import merge_extraction_chunks
from ai_pdf_extraction_ray.pipelines.exports import (
    csv_header,
    csv_row,
    format_cell_for_csv,
)
from ai_pdf_extraction_ray.schema import FieldDefinition, FieldType, SchemaDefinition
from ai_pdf_extraction_ray.stages.discovery import (
    harvest_labels,
    infer_type,
    propose_rules,
)
from ai_pdf_extraction_ray.stages.repair import repair_record, solve_rule
from tests.conftest import SF_SMOKE


@pytest.fixture
def schema() -> SchemaDefinition:
    return SchemaDefinition(
        name="invoice",
        fields=[
            FieldDefinition("invoice_number", FieldType.STRING, required=True),
            FieldDefinition("subtotal", FieldType.CURRENCY),
            FieldDefinition("tax_amount", FieldType.CURRENCY),
            FieldDefinition("total_amount", FieldType.CURRENCY, required=True),
            FieldDefinition("line_items", FieldType.ARRAY),
        ],
        validation_rules=["total_amount == subtotal + tax_amount"],
    )


class TestCsvExport:
    """Format proven against reference fixture
    app/test-pdfs/SEC 8-K/extraction_results.csv and
    EditableResultsTable.tsx:202-265."""

    def test_array_cell_format(self):
        # objects: JSON with commas -> '; ', items joined ' | '
        value = [{"a": "x,y", "b": 1}, {"a": "z"}]
        assert format_cell_for_csv(value) == '{"a":"x; y"; "b":1} | {"a":"z"}'

    def test_scalar_cells(self):
        assert format_cell_for_csv(None) == ""
        assert format_cell_for_csv(True) == "true"
        assert format_cell_for_csv(1.0) == "1"
        assert format_cell_for_csv("plain") == "plain"

    def test_header_order(self, schema):
        assert csv_header(schema) == (
            "source_file,confidence,warnings,is_reviewed,"
            "invoice_number,subtotal,tax_amount,total_amount,line_items,"
            "invoice_number_confidence,subtotal_confidence,tax_amount_confidence,"
            "total_amount_confidence,line_items_confidence"
        )

    def test_row_quoting_and_confidence_percent(self, schema):
        row = csv_row(
            "doc.pdf", 0.729, [], {"invoice_number": 'say "hi"', "total_amount": "$5.00"},
            {"invoice_number": 1.0, "total_amount": 0.85}, schema, is_reviewed=True,
        )
        cells = row.split('","')
        assert cells[0] == '"doc.pdf'
        assert '""hi""' in row            # quote doubling
        assert '"0.729"' in row
        assert '"true"' in row
        assert row.endswith('"100","","","85",""')  # int-percent confidences


class TestRepair:
    def test_solve_forward(self):
        assert solve_rule("total == a + b", {"a": 10.0, "b": 2.5, "total": None}) == ("total", 12.5)

    def test_solve_rearranged(self):
        name, v = solve_rule("total == a + b", {"a": None, "b": 2.0, "total": 10.0})
        assert (name, v) == ("a", 8.0)
        name, v = solve_rule("net == gross - tax", {"gross": 100.0, "tax": None, "net": 80.0})
        assert name == "tax" and v == pytest.approx(20.0)

    def test_unsolvable(self):
        assert solve_rule("t == a + b", {"a": None, "b": None, "t": 1.0}) is None
        assert solve_rule("t == a * b", {"a": 2.0, "b": None, "t": 1.0}) is None

    def test_repair_record_fixpoint(self, schema):
        data = {"invoice_number": "I-1", "subtotal": "$100.00", "tax_amount": "$10.00"}
        repaired, audit = repair_record(data, schema)
        assert repaired["total_amount"] == 110.0
        assert audit == {"total_amount": {"original": None, "repaired": 110.0}}

    def test_repair_solves_missing_operand(self, schema):
        data = {"subtotal": "$100.00", "total_amount": "$110.00"}
        repaired, audit = repair_record(data, schema)
        assert repaired["tax_amount"] == 10.0
        assert "tax_amount" in audit

    def test_no_repair_when_complete(self, schema):
        data = {"subtotal": "$100.00", "tax_amount": "$10.00", "total_amount": "$110.00"}
        _, audit = repair_record(data, schema)
        assert audit == {}


class TestDiscovery:
    def test_harvest_and_types(self):
        flat = "Invoice Number: INV-007\nInvoice Date: 2024-02-01\nTotal Amount: $12.50\nIs Paid: yes"
        labels = harvest_labels(flat)
        assert labels["invoice_number"] == "INV-007"
        assert infer_type(["$12.50", "$9.00"]) is FieldType.CURRENCY
        assert infer_type(["2024-02-01", "2024-03-05"]) is FieldType.DATE
        assert infer_type(["yes", "no"]) is FieldType.BOOLEAN
        assert infer_type(["INV-1", "INV-2"]) is FieldType.STRING

    def test_rule_proposal(self):
        samples = [
            {"subtotal": 100.0, "tax_amount": 10.0, "total_amount": 110.0},
            {"subtotal": 50.0, "tax_amount": 5.0, "total_amount": 55.0},
        ]
        rules = propose_rules(["subtotal", "tax_amount", "total_amount"], samples)
        assert "total_amount == subtotal + tax_amount" in rules
        assert not any(r.startswith("subtotal ==") for r in rules)

    def test_rule_proposal_rejects_near_zero_degeneracy(self):
        # all values within the 0.02 absolute floor: every relation "holds";
        # the magnitude guard must reject them all
        samples = [
            {"a": 0.01, "b": 0.01, "c": 0.01},
            {"a": 0.02, "b": 0.02, "c": 0.02},
        ]
        assert propose_rules(["a", "b", "c"], samples) == []

    def test_discover_on_corpus(self, ray_session):
        from ai_pdf_extraction_ray.pipelines.extract_pipeline import pages_dataset
        from ai_pdf_extraction_ray.stages.discovery import discover_schema

        schema = discover_schema(pages_dataset("/root/testdata/sf0.001"), sample_size=6)
        names = set(schema.field_names)
        assert {"invoice_number", "invoice_date", "subtotal", "tax_amount",
                "total_amount", "is_paid"} <= names
        # boilerplate prose ("user0 says: ...") must NOT become schema fields
        assert not any(n.startswith("user") for n in names)
        assert schema.field("subtotal").type is FieldType.CURRENCY
        assert schema.field("invoice_date").type is FieldType.DATE
        assert "total_amount == subtotal + tax_amount" in schema.validation_rules


class TestChunkMerge:
    def test_merge_semantics(self, schema):
        chunks = [
            {"invoice_number": None, "line_items": [{"d": 1}], "subtotal": "$10.00"},
            {"invoice_number": "INV-9", "line_items": [{"d": 2}, None], "subtotal": "$99.00"},
            {"line_items": [{"d": 3}]},
        ]
        data, conf, fconf, warnings = merge_extraction_chunks(
            chunks,
            [0.9, 0.8, 1.0],
            [{"invoice_number": 0.9}, {"invoice_number": 0.7}, {}],
            schema,
        )
        # arrays append in chunk order, nulls stripped
        assert data["line_items"] == [{"d": 1}, {"d": 2}, {"d": 3}]
        # scalar: first NON-NULL wins -> "$10.00" not "$99.00"
        assert data["subtotal"] == "$10.00"
        assert data["invoice_number"] == "INV-9"
        assert conf == round((0.9 + 0.8 + 1.0) / 3, 3)
        assert fconf["invoice_number"] == round((0.9 + 0.7) / 2, 3)
        # required total_amount missing entirely -> trust-missing, no warning
        assert not any("total_amount" in w for w in warnings)

    def test_merge_chunked_dataset(self, ray_session, schema):
        import pandas as pd
        import ray.data as rd

        from ai_pdf_extraction_ray.functions.merge import merge_chunked

        rows = []
        for url, idx, num in [("u1", 1, "INV-2"), ("u1", 0, None), ("u2", 0, "INV-3")]:
            rows.append({
                "url": url, "chunk_index": idx,
                "fields_json": json.dumps({"invoice_number": num}),
                "field_confidences_json": json.dumps({"invoice_number": 0.5}),
                "confidence": 0.5, "text": f"chunk{idx} of {url}",
            })
        out = merge_chunked(rd.from_pandas(pd.DataFrame(rows)), schema).to_pandas()
        out = out.set_index("url")
        # chunk_index order respected: u1 chunk0 has None, chunk1 INV-2
        assert json.loads(out.loc["u1", "fields_json"])["invoice_number"] == "INV-2"
        assert out.loc["u1", "text"] == "chunk0 of u1\n\nchunk1 of u1"
        assert out.loc["u1", "n_chunks"] == 2
        assert json.loads(out.loc["u2", "fields_json"])["invoice_number"] == "INV-3"


class TestExportEndToEnd:
    def test_csv_and_json_export(self, ray_session, schema, tmp_path):
        from ai_pdf_extraction_ray.pipelines.exports import export_csv, export_json
        from ai_pdf_extraction_ray.pipelines.extract_pipeline import (
            pages_dataset,
            run_extraction,
        )
        from ai_pdf_extraction_ray.pipelines.queries import INVOICE_SCHEMA

        ext = run_extraction(pages_dataset(SF_SMOKE), INVOICE_SCHEMA)
        ext = ext.limit(20)
        csv_path = str(tmp_path / "out.csv")
        n = export_csv(ext, INVOICE_SCHEMA, csv_path)
        lines = open(csv_path).read().splitlines()
        assert n == 20 and len(lines) == 21
        assert lines[0].startswith("source_file,confidence,warnings,is_reviewed,invoice_number")
        assert lines[1].startswith('"https://')

        env = export_json(ext, INVOICE_SCHEMA, str(tmp_path / "out.json"),
                          batch_id="b1", exported_at="2024-01-01T00:00:00Z")
        assert env["total_documents"] == 20
        assert 0 < env["average_confidence"] <= 1
        assert env["results"][0]["detected_schema"] == "invoice"


class TestSchemaRegistry:
    def test_save_list_load_roundtrip(self, tmp_path):
        from ai_pdf_extraction_ray.schema import FieldDefinition, FieldType, SchemaDefinition
        from ai_pdf_extraction_ray.state.schema_registry import (
            list_schemas,
            load_schema,
            save_schema,
        )

        a = SchemaDefinition(name="alpha", version="1.0",
                             fields=[FieldDefinition("x", FieldType.STRING)])
        b = SchemaDefinition(name="beta", version="2.0",
                             fields=[FieldDefinition("y", FieldType.NUMBER),
                                     FieldDefinition("z", FieldType.DATE)])
        reg = str(tmp_path / "reg")
        save_schema(reg, a, created_at="2024-01-01T00:00:00")
        save_schema(reg, b, created_at="2024-03-01T00:00:00")
        df = list_schemas(reg).to_pandas()
        # newest first (reference ORDER BY created_at DESC)
        assert df.name.tolist() == ["beta", "alpha"]
        assert df.n_fields.tolist() == [2, 1]
        back = load_schema(reg, "beta", "2.0")
        assert back.field_names == ["y", "z"]

    def test_resave_overwrites_not_duplicates(self, tmp_path):
        from ai_pdf_extraction_ray.schema import FieldDefinition, SchemaDefinition
        from ai_pdf_extraction_ray.state.schema_registry import list_schemas, save_schema

        reg = str(tmp_path / "reg")
        s = SchemaDefinition(name="dup", fields=[FieldDefinition("f")])
        save_schema(reg, s, created_at="2024-01-01T00:00:00")
        save_schema(reg, s, created_at="2024-06-01T00:00:00")
        df = list_schemas(reg).to_pandas()
        assert len(df) == 1
        assert df.created_at.iloc[0] == "2024-06-01T00:00:00"

    def test_empty_registry(self, tmp_path):
        from ai_pdf_extraction_ray.state.schema_registry import list_schemas

        df = list_schemas(str(tmp_path / "missing")).to_pandas()
        assert len(df) == 0
        assert list(df.columns) == ["name", "version", "n_fields", "created_at"]
