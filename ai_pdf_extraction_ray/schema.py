"""Declarative extraction schemas — the "program" a pipeline executes.

Re-implements the reference's schema data model and its construction-time
guards (reference: app/backend/models.py:14-156):

- ``FieldType``          — models.py:14-26
- field-name coercion    — models.py:63-71  (lowercase, ``-`` -> ``_``,
                           alnum/underscore/hyphen only)
- unique field names     — models.py:121-130
- non-empty field list   — models.py:121-124
- validation-rule syntax filter — models.py:132-156
  (keep only ``identifier == arithmetic-expression`` shaped rules,
  drop the rest silently)
- rule field-reference filter   — services/ai/discovery.py:223-238
  (drop rules referencing names outside the schema)
- confidence rounding to 3dp    — models.py:201-205

Schemas are plain dataclasses (no runtime deps); they ship to the
extraction tasks by value inside the ``DocumentExtractor`` instance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from enum import Enum

import pyarrow as pa


class FieldType(str, Enum):
    """Typed field kinds (reference models.py:14-26)."""

    STRING = "string"  # explicit catch-all
    ARRAY = "array"  # list of objects — table rows
    CURRENCY = "currency"
    DATE = "date"
    NUMBER = "number"
    BOOLEAN = "boolean"
    EMAIL = "email"
    PHONE = "phone"
    ADDRESS = "address"
    PERCENTAGE = "percentage"


_NAME_ALLOWED = re.compile(r"^[a-z0-9_]+$")
# reference models.py:132-156 — rule must look like `name == <arith expr>`.
# ASCII classes only: \w is Unicode in Python, which admitted identifiers
# (e.g. 'café') the ASCII _IDENT harvest could not see — the rule then
# passed the reference check but skip-passed forever at evaluation
# (review finding)
_RULE_SHAPE = re.compile(
    r"^[a-z_][a-z0-9_]*\s*==\s*[A-Za-z0-9_\s+\-*/().,]+$")
_IDENT = re.compile(r"\b[a-zA-Z_][a-zA-Z0-9_]*\b")

_PY_KEYWORDS = {
    "and", "or", "not", "if", "else", "true", "false", "none",
    "in", "is", "for", "while", "return", "lambda",
}
_ALLOWED_FUNCS = {"sum", "round", "abs", "min", "max", "sqrt", "log", "log10", "pow", "len"}


def coerce_field_name(name: str) -> str:
    """Lowercase, map ``-`` to ``_``; reject anything non-alphanumeric.

    Reference models.py:63-71 (pydantic validator on FieldDefinition.name).
    """
    if not isinstance(name, str) or not name.strip():
        raise ValueError("field name must be a non-empty string")
    coerced = name.strip().lower().replace("-", "_")
    if not _NAME_ALLOWED.match(coerced):
        raise ValueError(f"invalid field name: {name!r}")
    return coerced


def extract_rule_identifiers(rule: str) -> set[str]:
    """Identifier harvest minus python keywords and the allowed-fn set.

    Reference services/ai/validation.py:288-342.
    """
    out: set[str] = set()
    for ident in _IDENT.findall(rule):
        low = ident.lower()
        if low in _PY_KEYWORDS or low in _ALLOWED_FUNCS:
            continue
        out.add(ident)
    return out


@dataclass(frozen=True)
class FieldDefinition:
    """One typed field (reference models.py:29-71)."""

    name: str
    type: FieldType = FieldType.STRING
    description: str = ""
    required: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", coerce_field_name(self.name))
        if not isinstance(self.type, FieldType):
            object.__setattr__(self, "type", FieldType(str(self.type).lower()))


@dataclass
class SchemaDefinition:
    """A named list of typed fields + math validation rules.

    Construction applies the reference's guards: non-empty unique field
    names (models.py:121-130), rule-shape filtering (models.py:132-156)
    and rule field-reference filtering (discovery.py:223-238).
    """

    name: str
    fields: list[FieldDefinition]
    description: str = ""
    version: str = "1.0"
    validation_rules: list[str] = dc_field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.fields:
            raise ValueError("schema must define at least one field")
        self.fields = [
            f if isinstance(f, FieldDefinition) else FieldDefinition(**f)
            for f in self.fields
        ]
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names in schema {self.name!r}")
        self.validation_rules = filter_rules(self.validation_rules, set(names))

    @property
    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def field(self, name: str) -> FieldDefinition | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "version": self.version,
            "fields": [
                {
                    "name": f.name,
                    "type": f.type.value,
                    "description": f.description,
                    "required": f.required,
                }
                for f in self.fields
            ],
            "validation_rules": list(self.validation_rules),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SchemaDefinition":
        return cls(
            name=d["name"],
            description=d.get("description", ""),
            version=d.get("version", "1.0"),
            fields=[FieldDefinition(
                name=f["name"],
                # lowercase like FieldDefinition.__post_init__, so both
                # construction paths accept the same type strings
                type=FieldType(str(f.get("type", "string")).lower()),
                description=f.get("description", ""),
                required=bool(f.get("required", False)),
            ) for f in d["fields"]],
            validation_rules=list(d.get("validation_rules", [])),
        )


def filter_rules(rules: list[str], schema_field_names: set[str]) -> list[str]:
    """Keep syntactically valid rules whose identifiers all exist in the schema.

    Two layers, both silent drops, mirroring models.py:132-156 and
    discovery.py:223-238.
    """
    kept: list[str] = []
    for rule in rules or []:
        if not isinstance(rule, str):
            continue
        rule = rule.strip()
        if not rule or not _RULE_SHAPE.match(rule):
            continue
        # the LHS must BE a schema field: an allowed-function name there
        # ('sum == subtotal + tax') is exempt from the identifier harvest,
        # so the rule would survive yet skip-pass on every document
        # (review finding)
        lhs = rule.split("==", 1)[0].strip().lower()
        if lhs not in schema_field_names:
            continue
        # case-insensitive reference check, matching the evaluator's
        # lowercased harvest (field names are coerced to lowercase; rules
        # written with the user's original capitalization were silently
        # dropped — review finding). The empty-refs special case was dead
        # logic (the empty set is a subset of everything).
        refs = {r.lower() for r in extract_rule_identifiers(rule)}
        if not refs.issubset(schema_field_names):
            continue
        kept.append(rule)
    return kept


def round_confidence(value: float) -> float:
    """Clamp to [0, 1] and round to 3dp (reference models.py:201-205)."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        return 0.0
    return round(min(1.0, max(0.0, v)), 3)


# ---------------------------------------------------------------------------
# Arrow schemas for the engine's canonical tables
# ---------------------------------------------------------------------------

# Input table (BASELINE.json input_hint): Common-Crawl-style pages.
PAGES_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
])

# The extraction output's field spans (SURVEY.md §1.1 ExtractionResult).
SPAN_TYPE = pa.struct([("field", pa.string()), ("start", pa.int64()), ("end", pa.int64())])


def arrow_type_for(ft: FieldType) -> pa.DataType:
    """FieldType -> Arrow storage type for normalized extracted values."""
    return {
        FieldType.STRING: pa.string(),
        FieldType.CURRENCY: pa.float64(),
        FieldType.DATE: pa.string(),        # normalized YYYY-MM-DD
        FieldType.NUMBER: pa.float64(),
        FieldType.BOOLEAN: pa.bool_(),
        FieldType.EMAIL: pa.string(),
        FieldType.PHONE: pa.string(),
        FieldType.ADDRESS: pa.string(),
        FieldType.PERCENTAGE: pa.float64(),
        FieldType.ARRAY: pa.string(),       # JSON-encoded list<struct> payload
    }[ft]
