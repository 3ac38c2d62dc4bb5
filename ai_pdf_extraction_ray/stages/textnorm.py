"""Text normalization / cleaning stages for training-data pipelines.

Vectorized-or-cheap per-batch transforms over a text column:

- ``normalize_whitespace``: collapse runs of whitespace to single spaces,
  strip edges (the canonical pre-tokenization cleanup);
- ``strip_control_chars``: remove C0/C1 control characters (keep \\t\\n);
- ``redact_pii``: mask email-like and long-digit-run (phone/account-like)
  substrings with placeholder tokens — the masking pass a public-corpus
  pipeline runs before release. Patterns are deliberately simple enough to
  restate in DuckDB's RE2 for the oracle (no lookbehind, no python-only
  syntax).

All pure functions of the input text; the stage wrappers run as stateless
``map_batches`` (compiled patterns are module-level constants — per-process
compile, no per-batch cost).
"""

from __future__ import annotations

import re

import pyarrow as pa


_WS_RUN = re.compile(r"\s+")
_CONTROL = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]")
# RE2-compatible (works identically in DuckDB regexp_replace):
_EMAIL = re.compile(r"[A-Za-z0-9_.]+@[A-Za-z0-9.-]+")
_LONG_DIGITS = re.compile(r"[0-9][0-9 ()+-]{6,}[0-9]")

EMAIL_TOKEN = "[EMAIL]"
NUMBER_TOKEN = "[NUMBER]"


def normalize_whitespace(text: str) -> str:
    return _WS_RUN.sub(" ", text or "").strip()


def strip_control_chars(text: str) -> str:
    return _CONTROL.sub("", text or "")


def redact_pii(text: str) -> str:
    out = _EMAIL.sub(EMAIL_TOKEN, text or "")
    return _LONG_DIGITS.sub(NUMBER_TOKEN, out)


def clean_text(text: str) -> str:
    """Full cleaning pass: control strip -> redact -> whitespace collapse."""
    return normalize_whitespace(redact_pii(strip_control_chars(text)))


class TextCleaner:
    """map_batches stage: text column -> cleaned text + change flag."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        cleaned = [clean_text(t) for t in texts]
        out = {name: batch.column(name) for name in batch.column_names
               if name != "text"}
        out["text"] = pa.array(cleaned, pa.string())
        out["was_cleaned"] = pa.array(
            [c != (t or "") for c, t in zip(cleaned, texts)], pa.bool_()
        )
        return pa.table(out)
