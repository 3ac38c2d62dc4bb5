"""HTML main-content extraction: streaming DOM parse + density heuristics.

The deterministic replacement for the reference's LLM extraction kernel
(reference: app/backend/services/ai/extraction.py:207-334 is the stage this
slots into; the kernel itself is new, built from the public
Boilerpipe/Readability literature — see PAPERS.md):

1. a single streaming pass (the ``_FastScanner`` regex tokenizer, 2.2x the
   stdlib parser; ``html.parser.HTMLParser`` remains the equivalence
   baseline and fallback) segments the page into text **blocks** at
   block-level tag boundaries, tracking per block:
   char count, word count, chars inside ``<a>`` (link chars), and whether
   the block sits under a semantic content container (``article``/``main``)
   or a semantic boilerplate container (``nav``/``header``/``footer``/
   ``aside``);
2. a classification cascade (Boilerpipe "NumWordsRules" shape + Readability
   semantic hints) labels each block content/boilerplate:

     - under a boilerplate container (and not under a content container)
                                            -> boilerplate
     - link_density > 1/3                   -> boilerplate
     - under article/main                   -> content
     - >= 20 words                          -> content
     - >= 10 words and an adjacent block has >= 20 words -> content
     - else                                 -> boilerplate

3. output text = content block texts joined by "\\n\\n"; spans give each
   block's [start, end) char range in the output; confidence is the
   char-weighted mean block score ``(1 - link_density) * min(1, words/20)``,
   rounded to 3dp (rounding per reference models.py:201-205).

Determinism: pure function of the input bytes — no dict-order dependence
(blocks keep document order), no randomness, fixed tie-breaking. This is the
byte-identity contract the golden fixtures pin. Canonicalization boundary:
block text is ``str.strip()``-ed (unicode whitespace), so content whose
bytes begin/end with unicode whitespace round-trips modulo that strip — a
block consisting only of whitespace is dropped entirely.

Schema-driven **field** extraction runs over the *full* flat text (content +
boilerplate): each schema field compiles to a label pattern
(``snake_case`` -> ``Title Case``), matched case-insensitively as
``<label> : <value-to-end-of-line>``. Missing label => field absent
(the validation layer's trust-missing-key semantics then apply).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from html.parser import HTMLParser

from ..schema import SchemaDefinition, round_confidence

BLOCK_TAGS = frozenset({
    "address", "article", "aside", "blockquote", "body", "br", "dd", "div",
    "dl", "dt", "fieldset", "figcaption", "figure", "footer", "form",
    "h1", "h2", "h3", "h4", "h5", "h6", "header", "hr", "li", "main",
    "nav", "ol", "p", "pre", "section", "table", "tbody", "td", "tfoot",
    "th", "thead", "tr", "ul",
})
IGNORE_TAGS = frozenset({
    "script", "style", "noscript", "template", "svg", "head", "title",
    "iframe", "object", "option", "select",
})
VOID_TAGS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
    "meta", "param", "source", "track", "wbr",
})
CONTENT_ANCESTORS = frozenset({"article", "main"})
BOILER_ANCESTORS = frozenset({"nav", "header", "footer", "aside"})

MAX_LINK_DENSITY = 1.0 / 3.0
MANY_WORDS = 20
SOME_WORDS = 10


@dataclass
class Block:
    text: str
    link_chars: int
    words: int
    in_content: bool
    in_boiler: bool

    @property
    def link_density(self) -> float:
        return self.link_chars / max(1, len(self.text))

    @property
    def score(self) -> float:
        return (1.0 - self.link_density) * min(1.0, self.words / MANY_WORDS)


class _BlockParser(HTMLParser):
    """One streaming pass: html -> ordered list of Blocks."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.blocks: list[Block] = []
        self._stack: list[str] = []
        self._ignore = 0
        self._content = 0
        self._boiler = 0
        self._anchor = 0
        self._segments: list[tuple[str, bool]] = []  # (data, in_anchor)
        self._seg_content = False
        self._seg_boiler = False

    # -- block assembly ----------------------------------------------------
    def _flush(self) -> None:
        if not self._segments:
            return
        raw = "".join(s for s, _ in self._segments)
        stripped = raw.strip()
        segs, self._segments = self._segments, []
        if not stripped:
            return
        link_chars = sum(len(s) for s, in_a in segs if in_a)
        link_chars = min(link_chars, len(stripped))
        self.blocks.append(Block(
            text=stripped,
            link_chars=link_chars,
            words=len(stripped.split()),
            in_content=self._seg_content,
            in_boiler=self._seg_boiler,
        ))

    # -- tag tracking ------------------------------------------------------
    def _enter(self, tag: str) -> None:
        if tag in IGNORE_TAGS:
            self._ignore += 1
        if tag in CONTENT_ANCESTORS:
            self._content += 1
        if tag in BOILER_ANCESTORS:
            self._boiler += 1
        if tag == "a":
            self._anchor += 1

    def _leave(self, tag: str) -> None:
        if tag in IGNORE_TAGS:
            self._ignore = max(0, self._ignore - 1)
        if tag in CONTENT_ANCESTORS:
            self._content = max(0, self._content - 1)
        if tag in BOILER_ANCESTORS:
            self._boiler = max(0, self._boiler - 1)
        if tag == "a":
            self._anchor = max(0, self._anchor - 1)

    def handle_starttag(self, tag: str, attrs) -> None:  # noqa: ANN001
        if tag in BLOCK_TAGS:
            self._flush()
        if tag in VOID_TAGS:
            return
        self._stack.append(tag)
        self._enter(tag)

    def handle_startendtag(self, tag: str, attrs) -> None:  # noqa: ANN001
        if tag in BLOCK_TAGS:
            self._flush()

    def handle_endtag(self, tag: str) -> None:
        if tag in BLOCK_TAGS:
            self._flush()
        if tag in VOID_TAGS:
            return
        # tolerant pop: unwind to the matching open tag if present
        if tag in self._stack:
            while self._stack:
                top = self._stack.pop()
                self._leave(top)
                if top == tag:
                    break

    def handle_data(self, data: str) -> None:
        if self._ignore or not data:
            return
        if not self._segments:
            # block context is sampled at first data of the block
            self._seg_content = self._content > 0
            self._seg_boiler = self._boiler > 0
        self._segments.append((data, self._anchor > 0))

    def close(self) -> None:
        super().close()
        self._flush()


def classify_blocks(blocks: list[Block]) -> list[bool]:
    """Boilerpipe-style cascade; returns is_content per block."""
    labels: list[bool] = []
    for i, b in enumerate(blocks):
        if b.in_boiler and not b.in_content:
            labels.append(False)
        elif b.link_density > MAX_LINK_DENSITY:
            labels.append(False)
        elif b.in_content:
            labels.append(True)
        elif b.words >= MANY_WORDS:
            labels.append(True)
        elif b.words >= SOME_WORDS and (
            (i > 0 and blocks[i - 1].words >= MANY_WORDS)
            or (i + 1 < len(blocks) and blocks[i + 1].words >= MANY_WORDS)
        ):
            labels.append(True)
        else:
            labels.append(False)
    return labels


# ---------------------------------------------------------------------------
# fast scanner — same block semantics as _BlockParser, ~3x faster
# ---------------------------------------------------------------------------

# one pass: comments / doctype / PI / end tags / start tags; attribute values
# may contain '>' inside quotes
_TAG_RE = re.compile(
    r"<(?:"
    r"!--.*?--\s*>"                                  # comment
    r"|!\[CDATA\[.*?\]\]>"                           # cdata
    r"|![^>]*>"                                      # doctype / decl
    r"|\?[^>]*>"                                     # processing instruction
    r"|(/?)([a-zA-Z][a-zA-Z0-9:_-]*)"                # 1:endslash 2:tag (no space after <, per html.parser)
    r"((?:\"[^\"]*\"|'[^']*'|[^>\"'])*?)"            # 3:attrs (quote-aware, lazy so a trailing / reaches group 4)
    r"(/?)>"                                         # 4:self-close
    r")",
    re.DOTALL,
)
# raw-text (CDATA-mode) elements — html.parser treats exactly these two as
# unparsed content (CDATA_CONTENT_ELEMENTS); textarea/title are parsed normally
_RAW_TEXT_TAGS = frozenset({"script", "style"})
_HAS_AMP = "&"


class _FastScanner:
    """Regex-scan tokenizer feeding the same block assembly as _BlockParser.

    Equivalence with the html.parser path is pinned by
    tests/test_extractors.py::TestFastScannerEquivalence over the corpus and
    the adversarial unit pages; `parse_blocks` falls back to the stdlib
    parser on any scanner exception.
    """

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self._stack: list[str] = []
        self._ignore = 0
        self._content = 0
        self._boiler = 0
        self._anchor = 0
        self._segments: list[tuple[str, bool]] = []
        self._seg_content = False
        self._seg_boiler = False

    _flush = _BlockParser._flush
    _enter = _BlockParser._enter
    _leave = _BlockParser._leave

    def _data(self, data: str) -> None:
        if self._ignore or not data:
            return
        if not self._segments:
            self._seg_content = self._content > 0
            self._seg_boiler = self._boiler > 0
        if _HAS_AMP in data:
            data = _html_mod.unescape(data)
        self._segments.append((data, self._anchor > 0))

    def scan(self, html: str) -> list[Block]:
        pos = 0
        n = len(html)
        lower = None  # built lazily for raw-text close-tag search
        # hot-loop locals: attribute lookups cost ~15% of scan time at
        # ~200 tags/doc (profiled); bind once per document
        find = html.find
        tag_match = _TAG_RE.match
        data = self._data
        while pos < n:
            lt = find("<", pos)
            if lt < 0:
                data(html[pos:])
                break
            if lt > pos:
                data(html[pos:lt])
            m = tag_match(html, lt)
            if not m:
                # stray '<' — treat as text, like html.parser's recovery
                data("<")
                pos = lt + 1
                continue
            pos = m.end()
            endslash, tag, selfslash = m.group(1, 2, 4)  # one C call, not three
            if tag is None:
                continue  # comment / doctype / PI
            tag = tag.lower()
            closing = endslash == "/"
            selfclose = selfslash == "/"

            if not closing and tag in _RAW_TEXT_TAGS and not selfclose:
                if lower is None:
                    lower = html.lower()
                close = lower.find(f"</{tag}", pos)
                if close < 0:
                    pos = n
                else:
                    m2 = tag_match(html, close)
                    pos = m2.end() if m2 else close + len(tag) + 3
                continue

            if closing:
                if tag in BLOCK_TAGS:
                    self._flush()
                if tag in VOID_TAGS:
                    continue
                if tag in self._stack:
                    while self._stack:
                        top = self._stack.pop()
                        self._leave(top)
                        if top == tag:
                            break
            else:
                if tag in BLOCK_TAGS:
                    self._flush()
                if selfclose or tag in VOID_TAGS:
                    continue
                self._stack.append(tag)
                self._enter(tag)
        self._flush()
        return self.blocks


import html as _html_mod  # noqa: E402 — used by the scanner above


def parse_blocks(payload: bytes | str) -> list[Block]:
    """Decode + parse one page into ordered text blocks (fast scanner with
    stdlib-parser fallback)."""
    if isinstance(payload, bytes):
        payload = payload.decode("utf-8", errors="replace")
    try:
        return _FastScanner().scan(payload)
    except Exception:  # noqa: BLE001 — malformed page: take the slow path
        return parse_blocks_stdlib(payload)


def parse_blocks_stdlib(payload: bytes | str) -> list[Block]:
    """Reference implementation on html.parser (equivalence baseline)."""
    if isinstance(payload, bytes):
        payload = payload.decode("utf-8", errors="replace")
    p = _BlockParser()
    p.feed(payload)
    p.close()
    return p.blocks


def extract_html(payload: bytes | str) -> dict:
    """One page -> extraction record (failure-is-data, never raises).

    Returns dict with keys: text, spans, confidence, n_blocks, warnings,
    error, flat_text (full text incl. boilerplate, for field extraction).
    """
    try:
        if not payload:
            return _error_record("empty payload")
        blocks = parse_blocks(payload)
        labels = classify_blocks(blocks)
        content = [b for b, keep in zip(blocks, labels) if keep]

        parts: list[str] = []
        spans: list[dict] = []
        pos = 0
        for i, b in enumerate(content):
            if parts:
                pos += 2  # "\n\n"
            parts.append(b.text)
            spans.append({"field": f"block_{i}", "start": pos, "end": pos + len(b.text)})
            pos += len(b.text)
        text = "\n\n".join(parts)

        warnings: list[str] = []
        if not content:
            warnings.append("no content blocks detected")
            confidence = 0.0
        else:
            total = sum(len(b.text) for b in content)
            confidence = round_confidence(
                sum(b.score * len(b.text) for b in content) / total
            )
        return {
            "text": text,
            "spans": spans,
            "confidence": confidence,
            "n_blocks": len(blocks),
            "warnings": warnings,
            "error": None,
            "flat_text": "\n".join(b.text for b in blocks),
        }
    except Exception as e:  # noqa: BLE001 — failure is data, not a crash
        return _error_record(f"html parse error: {e}")


def _error_record(msg: str) -> dict:
    return {
        "text": None, "spans": [], "confidence": 0.0, "n_blocks": 0,
        "warnings": [], "error": msg, "flat_text": "",
    }


# ---------------------------------------------------------------------------
# Schema-driven field extraction over flat text
# ---------------------------------------------------------------------------

_TABLE_RE = re.compile(
    r"<table[^>]*class=[\"']([^\"']*)[\"'][^>]*>(.*?)</table>", re.DOTALL | re.IGNORECASE
)
_TR_RE = re.compile(r"<tr[^>]*>(.*?)</tr>", re.DOTALL | re.IGNORECASE)
_CELL_RE = re.compile(r"<t[hd][^>]*>(.*?)</t[hd]>", re.DOTALL | re.IGNORECASE)
_STRIP_TAGS = re.compile(r"<[^>]+>")


def extract_tables(html: str) -> dict[str, dict]:
    """class name -> {"headers": [...], "rows": [[...]]} for every classed
    table. Cells are tag-stripped + entity-decoded."""
    out: dict[str, dict] = {}
    for m in _TABLE_RE.finditer(html or ""):
        cls = m.group(1).strip()
        rows = []
        for tr in _TR_RE.finditer(m.group(2)):
            cells = [
                _html_mod.unescape(_STRIP_TAGS.sub("", c.group(1))).strip()
                for c in _CELL_RE.finditer(tr.group(1))
            ]
            if cells:
                rows.append(cells)
        if not rows or cls in out:
            continue
        out[cls] = {"headers": rows[0], "rows": rows[1:]}
    return out


def bind_array_field(field_name: str, tables: dict[str, dict]) -> list[dict] | None:
    """ARRAY fields bind to the table whose class matches the field name
    (``line_items`` -> class ``line-items``); rows become dicts keyed by
    snake_cased headers. Digit-only cells become ints (type normalization
    for quantity-like columns happens here; currency/date cells stay raw
    strings for the validation layer's dual representation)."""
    table = tables.get(field_name.replace("_", "-")) or tables.get(field_name)
    if table is None:
        return None
    keys = [h.strip().lower().replace(" ", "_") for h in table["headers"]]
    items: list[dict] = []
    for row in table["rows"]:
        item: dict = {}
        for k, v in zip(keys, row):
            item[k] = int(v) if v.isdigit() else v
        items.append(item)
    return items


def compile_field_patterns(schema: SchemaDefinition) -> dict[str, re.Pattern]:
    """Field name -> compiled label pattern (``invoice_number`` ->
    ``Invoice Number\\s*[:=]\\s*<value to end of line>``), built ONCE per
    kernel instance in ``__init__`` (mirrors reference prompt compilation,
    services/ai/extraction.py:128-199)."""
    patterns: dict[str, re.Pattern] = {}
    for f in schema.fields:
        label = re.escape(" ".join(w.capitalize() for w in f.name.split("_")))
        patterns[f.name] = re.compile(
            rf"{label}\s*[:=]\s*(.+?)\s*$", re.IGNORECASE | re.MULTILINE
        )
    return patterns


def extract_fields(
    flat_text: str,
    patterns: dict[str, re.Pattern],
    *,
    html: str | None = None,
    array_fields: set[str] | None = None,
) -> tuple[dict, dict]:
    """Label-match each scalar schema field; bind ARRAY fields from classed
    html tables. Returns (raw_fields, field_confidences).

    Missing label/table => field absent (validation trusts missing keys).
    Confidence is the deterministic analogue of the reference's per-field
    scores: 0.95 for a label/table match (reference default confidence
    shape, services/ai/extraction.py:89-125 uses 0.75 fallback).
    """
    data: dict = {}
    conf: dict[str, float] = {}
    tables = extract_tables(html) if (html and array_fields) else {}
    for name, pat in patterns.items():
        if array_fields and name in array_fields:
            items = bind_array_field(name, tables)
            if items is not None:
                data[name] = items
                conf[name] = 0.95
            continue
        m = pat.search(flat_text)
        if m:
            data[name] = m.group(1).strip()
            conf[name] = 0.95
    return data, conf
