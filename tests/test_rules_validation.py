"""Rule-DSL and record-validation tests.

Ports the reference's semantics tables: rule evaluation incl. parentheses,
division, allowlisted functions, missing-operand skip
(tests/test_ai_service.py:232-426) and schema-driven validation
(tests/test_ai_service.py:90-229), plus schema-construction guards
(tests/test_models.py:28-153).
"""

from __future__ import annotations

import pytest

from ai_pdf_extraction_ray.functions.rules import evaluate_rule, safe_eval, UnsafeExpression
from ai_pdf_extraction_ray.functions.validation import validate_extracted_data
from ai_pdf_extraction_ray.schema import (
    FieldDefinition,
    FieldType,
    SchemaDefinition,
    coerce_field_name,
    filter_rules,
    round_confidence,
)


@pytest.fixture
def invoice_schema() -> SchemaDefinition:
    return SchemaDefinition(
        name="Invoice Schema",
        fields=[
            FieldDefinition("invoice_number", FieldType.STRING, required=True),
            FieldDefinition("invoice_date", FieldType.DATE, required=True),
            FieldDefinition("subtotal", FieldType.CURRENCY),
            FieldDefinition("tax_amount", FieldType.CURRENCY),
            FieldDefinition("total_amount", FieldType.CURRENCY, required=True),
            FieldDefinition("is_paid", FieldType.BOOLEAN),
            FieldDefinition("line_items", FieldType.ARRAY),
        ],
        validation_rules=["total_amount == subtotal + tax_amount"],
    )


class TestRuleEvaluation:
    def test_simple_pass(self):
        ok, _, failed = evaluate_rule("total == subtotal + tax", {"total": 110, "subtotal": 100, "tax": 10})
        assert ok and failed is None

    def test_simple_fail(self):
        ok, msg, failed = evaluate_rule("total == subtotal + tax", {"total": 200, "subtotal": 100, "tax": 10})
        assert not ok
        assert "Math validation failed" in msg
        assert failed == "total == subtotal + tax"

    def test_tolerance_one_percent(self):
        # within 1% tolerance passes
        ok, _, _ = evaluate_rule("a == b", {"a": 100.0, "b": 100.9})
        assert ok
        ok, _, _ = evaluate_rule("a == b", {"a": 100.0, "b": 102.0})
        assert not ok

    def test_absolute_tolerance_floor(self):
        ok, _, _ = evaluate_rule("a == b", {"a": 0.01, "b": 0.03})
        assert ok  # diff 0.02 <= floor 0.02

    def test_both_zero_passes(self):
        ok, _, _ = evaluate_rule("a == b", {"a": 0, "b": 0})
        assert ok

    def test_missing_operand_skips(self):
        ok, msg, _ = evaluate_rule("total == subtotal + tax", {"total": 110})
        assert ok and "Field not found" in msg

    def test_parentheses_and_division(self):
        ok, _, _ = evaluate_rule(
            "margin == (revenue - cost) / revenue",
            {"margin": 0.25, "revenue": 100.0, "cost": 75.0},
        )
        assert ok

    @pytest.mark.parametrize(
        ("rule", "names"),
        [
            ("x == round(3.14159, 2)", {"x": 3.14}),
            ("x == abs(-5)", {"x": 5}),
            ("x == min(3, 7)", {"x": 3}),
            ("x == max(3, 7)", {"x": 7}),
            ("x == sqrt(16)", {"x": 4}),
            ("x == pow(2, 3)", {"x": 8}),
        ],
    )
    def test_function_allowlist(self, rule, names):
        ok, _, _ = evaluate_rule(rule, names)
        assert ok

    def test_custom_terminology(self):
        ok, _, _ = evaluate_rule("brutto == netto + vat", {"brutto": 119.0, "netto": 100.0, "vat": 19.0})
        assert ok

    def test_payroll_chain(self):
        ok, _, _ = evaluate_rule(
            "net_pay == gross_salary - tax_deduction - insurance",
            {"net_pay": 3000.0, "gross_salary": 4000.0, "tax_deduction": 700.0, "insurance": 300.0},
        )
        assert ok

    def test_no_equals_is_skipped(self):
        ok, msg, _ = evaluate_rule("total > subtotal", {"total": 1, "subtotal": 2})
        assert ok and "Invalid rule format" in msg

    def test_unsafe_constructs_rejected(self):
        with pytest.raises(UnsafeExpression):
            safe_eval("__import__('os')", {})
        with pytest.raises(UnsafeExpression):
            safe_eval("open('/etc/passwd')", {})
        with pytest.raises(UnsafeExpression):
            safe_eval("'a' + 'b'", {})


class TestValidateExtractedData:
    def test_valid_data_passes(self, invoice_schema):
        data = {
            "invoice_number": "INV-001",
            "invoice_date": "2024-01-15",
            "subtotal": "$100.00",
            "tax_amount": "$10.00",
            "total_amount": "$110.00",
            "is_paid": True,
        }
        result = validate_extracted_data(data, invoice_schema)
        assert result.warnings == []
        assert result.validated_data["invoice_number"] == "INV-001"
        assert result.validated_data["total_amount"] == "$110.00"  # original kept

    def test_missing_key_no_warning(self, invoice_schema):
        result = validate_extracted_data(
            {"invoice_date": "2024-01-15", "total_amount": "$110.00"}, invoice_schema
        )
        assert not any("invoice_number" in w for w in result.warnings)

    def test_required_empty_warns(self, invoice_schema):
        result = validate_extracted_data(
            {"invoice_number": "", "invoice_date": "2024-01-15", "total_amount": "$110.00"},
            invoice_schema,
        )
        assert any("Required field 'invoice_number' has empty value" in w for w in result.warnings)
        assert result.validated_data["invoice_number"] is None

    def test_invalid_date_kept_raw_no_warning(self, invoice_schema):
        result = validate_extracted_data(
            {"invoice_number": "INV-001", "invoice_date": "not a date", "total_amount": "$110.00"},
            invoice_schema,
        )
        assert not any("invalid date" in w.lower() for w in result.warnings)
        assert result.validated_data["invoice_date"] == "not a date"

    def test_date_normalization(self, invoice_schema):
        result = validate_extracted_data(
            {"invoice_number": "INV-001", "invoice_date": "January 15, 2024", "total_amount": "$110.00"},
            invoice_schema,
        )
        assert result.validated_data["invoice_date"] == "2024-01-15"

    def test_math_mismatch_warns(self, invoice_schema):
        result = validate_extracted_data(
            {
                "invoice_number": "INV-001",
                "invoice_date": "2024-01-15",
                "subtotal": "$100.00",
                "tax_amount": "$10.00",
                "total_amount": "$200.00",
            },
            invoice_schema,
        )
        assert any("math validation failed" in w.lower() for w in result.warnings)

    def test_math_match_no_warning(self, invoice_schema):
        result = validate_extracted_data(
            {
                "invoice_number": "INV-001",
                "invoice_date": "2024-01-15",
                "subtotal": "$100.00",
                "tax_amount": "$10.00",
                "total_amount": "$110.00",
            },
            invoice_schema,
        )
        assert not any("math validation failed" in w.lower() for w in result.warnings)

    def test_boolean_string_conversion(self, invoice_schema):
        base = {"invoice_number": "INV-001", "invoice_date": "2024-01-15", "total_amount": "$110.00"}
        assert validate_extracted_data({**base, "is_paid": "yes"}, invoice_schema).validated_data["is_paid"] is True
        assert validate_extracted_data({**base, "is_paid": "no"}, invoice_schema).validated_data["is_paid"] is False

    def test_case_insensitive_keys(self, invoice_schema):
        result = validate_extracted_data(
            {"Invoice_Number": "INV-001", "INVOICE_DATE": "2024-01-15", "Total_Amount": "$110.00"},
            invoice_schema,
        )
        assert result.validated_data["invoice_number"] == "INV-001"
        assert result.validated_data["invoice_date"] == "2024-01-15"

    def test_array_null_stripping(self, invoice_schema):
        result = validate_extracted_data(
            {
                "invoice_number": "INV-001",
                "invoice_date": "2024-01-15",
                "total_amount": "$110.00",
                "line_items": [{"d": 1}, None, {"d": 2}],
            },
            invoice_schema,
        )
        assert result.validated_data["line_items"] == [{"d": 1}, {"d": 2}]

    def test_non_list_array_wrapped_with_warning(self, invoice_schema):
        result = validate_extracted_data(
            {
                "invoice_number": "INV-001",
                "invoice_date": "2024-01-15",
                "total_amount": "$110.00",
                "line_items": "oops",
            },
            invoice_schema,
        )
        assert any("expected array" in w for w in result.warnings)
        assert result.validated_data["line_items"] == ["oops"]


class TestSchemaGuards:
    def test_field_name_coercion(self):
        assert coerce_field_name("Invoice-Number") == "invoice_number"
        assert FieldDefinition("Total-Amount").name == "total_amount"

    @pytest.mark.parametrize("bad", ["", "  ", "bad name", "a.b", "a$b"])
    def test_field_name_rejection(self, bad):
        with pytest.raises(ValueError):
            coerce_field_name(bad)

    def test_all_field_types_constructible(self):
        for ft in FieldType:
            assert FieldDefinition(f"f_{ft.value}", ft).type is ft

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            SchemaDefinition(name="empty", fields=[])

    def test_duplicate_fields_rejected(self):
        with pytest.raises(ValueError):
            SchemaDefinition(name="dup", fields=[FieldDefinition("a"), FieldDefinition("A")])

    def test_rule_shape_filtering(self):
        kept = filter_rules(
            ["total == subtotal + tax", "DROP TABLE x", "a > b", "total == subtotal * (1 + rate)"],
            {"total", "subtotal", "tax", "rate"},
        )
        assert kept == ["total == subtotal + tax", "total == subtotal * (1 + rate)"]

    def test_rule_reference_filtering(self):
        kept = filter_rules(["total == ghost + tax"], {"total", "tax"})
        assert kept == []

    def test_confidence_rounding(self):
        assert round_confidence(0.87654) == 0.877
        assert round_confidence(1.5) == 1.0
        assert round_confidence(-0.2) == 0.0
        assert round_confidence("x") == 0.0


class TestLogprobConfidence:
    """Reference extraction.py:89-125 edge semantics, preserved exactly."""

    def test_default_when_no_payload(self):
        from ai_pdf_extraction_ray.functions.confidence import confidence_from_logprobs

        assert confidence_from_logprobs(None) == 0.75
        assert confidence_from_logprobs([]) == 0.75

    def test_default_when_no_usable_values(self):
        from ai_pdf_extraction_ray.functions.confidence import confidence_from_logprobs

        class Tok:
            logprob = None

        assert confidence_from_logprobs([Tok(), Tok()]) == 0.75
        assert confidence_from_logprobs([None, None]) == 0.75

    def test_geometric_mean(self):
        import math

        from ai_pdf_extraction_ray.functions.confidence import confidence_from_logprobs

        lps = [math.log(0.9), math.log(0.8), math.log(0.7)]
        expected = math.exp(sum(lps) / 3)
        assert abs(confidence_from_logprobs(lps) - expected) < 1e-12

    def test_clamp_minus_ten_before_exp(self):
        import math

        from ai_pdf_extraction_ray.functions.confidence import confidence_from_logprobs

        # mean -50 clamps to -10 BEFORE exp — the floor is exp(-10), not 0
        assert confidence_from_logprobs([-50.0]) == math.exp(-10)

    def test_object_and_float_entries_mix(self):
        import math

        from ai_pdf_extraction_ray.functions.confidence import confidence_from_logprobs

        class Tok:
            def __init__(self, lp):
                self.logprob = lp

        got = confidence_from_logprobs([Tok(math.log(0.5)), math.log(0.5), Tok(None)])
        assert abs(got - 0.5) < 1e-12

    def test_upper_clamp(self):
        from ai_pdf_extraction_ray.functions.confidence import confidence_from_logprobs

        assert confidence_from_logprobs([0.5]) == 1.0  # positive logprob clamps to 1

    def test_dict_entries(self):
        import math

        from ai_pdf_extraction_ray.functions.confidence import confidence_from_logprobs

        got = confidence_from_logprobs([{"logprob": math.log(0.25)},
                                        {"logprob": None}])
        assert abs(got - 0.25) < 1e-12


class TestLegacyRuleParser:
    """Reference validation.py:244-285 back-compat surface, quirks preserved."""

    def test_parse_shape(self):
        from ai_pdf_extraction_ray.functions.rules import parse_validation_rule_legacy

        got = parse_validation_rule_legacy("total == subtotal + tax")
        assert got == ("total", [("+", "subtotal"), ("+", "tax")])

    def test_sign_discarding_quirk(self):
        # the reference parser records '-'/'*'/'/' components as '+' — its
        # own tests pin this; preserved verbatim
        from ai_pdf_extraction_ray.functions.rules import parse_validation_rule_legacy

        got = parse_validation_rule_legacy("net == gross - fees * 2")
        assert got == ("net", [("+", "gross"), ("+", "fees"), ("+", "2")])

    def test_rejects_malformed(self):
        from ai_pdf_extraction_ray.functions.rules import parse_validation_rule_legacy

        assert parse_validation_rule_legacy("no equality here") is None
        assert parse_validation_rule_legacy("a == b == c") is None

    def test_legacy_evaluate_delegates(self):
        from ai_pdf_extraction_ray.functions.rules import evaluate_validation_rule_legacy

        ok, msg, exp, act = evaluate_validation_rule_legacy(
            "total == subtotal + tax",
            {"total": 110.0, "subtotal": 100.0, "tax": 10.0},
        )
        assert ok and exp is None and act is None
        bad, msg, _, _ = evaluate_validation_rule_legacy(
            "total == subtotal + tax",
            {"total": 200.0, "subtotal": 100.0, "tax": 10.0},
        )
        assert not bad and "Math validation failed" in msg


class TestFilterRulesParity:
    """filter_rules must agree with the evaluator about identifiers
    (review findings: case-sensitivity, allowed-func LHS, unicode \\w)."""

    def test_mixed_case_references_are_kept(self):
        from ai_pdf_extraction_ray.schema import filter_rules

        kept = filter_rules(["total == Subtotal + Tax"],
                            {"total", "subtotal", "tax"})
        assert kept == ["total == Subtotal + Tax"]

    def test_allowed_function_lhs_is_dropped(self):
        from ai_pdf_extraction_ray.schema import filter_rules

        # 'sum' is exempt from the identifier harvest, so the old filter
        # kept this rule even though it can never evaluate
        assert filter_rules(["sum == subtotal + tax"],
                            {"subtotal", "tax"}) == []

    def test_non_ascii_identifier_is_dropped(self):
        from ai_pdf_extraction_ray.schema import filter_rules

        # unicode \w admitted 'café' past the shape check while the ASCII
        # harvest could not see it -> permanently inert rule
        assert filter_rules(["total == café + 1"], {"total"}) == []

    def test_registry_listing_tolerates_foreign_json(self, tmp_path):
        import json as _json

        from ai_pdf_extraction_ray.state.schema_registry import (
            list_schemas,
            save_schema,
        )
        from ai_pdf_extraction_ray.schema import SchemaDefinition

        sch = SchemaDefinition(
            name="inv", fields=[{"name": "total", "type": "currency"}])
        save_schema(str(tmp_path), sch, created_at="2024-01-01T00:00:00")
        (tmp_path / "notes.json").write_text(_json.dumps({"foo": 1}))
        (tmp_path / "trunc.json").write_text('{"name": "x"')
        df = list_schemas(str(tmp_path)).to_pandas()
        assert list(df["name"]) == ["inv"]
