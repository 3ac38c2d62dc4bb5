"""Deterministic Common-Crawl-style page synthesis.

Turns the driver's ``documents`` table (``doc_id, text, lang, source,
n_chars``) into the engine's canonical input table
``(url, warc_ts, html, text, lang)`` (BASELINE.json ``input_hint``), with
ground truth **by construction**: the known main content ``text`` is wrapped
in boilerplate (nav/header/footer/sidebars/cookie banner/comments), so the
expected extractor output equals ``text`` byte-for-byte.

Everything is a pure function of ``(doc_id, text, lang, n_chars)`` — no
randomness, no wall clock — and the metadata rules are deliberately simple
enough to restate in ANSI SQL for the driver's DuckDB oracle:

- ``host_id  = 0 if doc_id % 3 == 0 else doc_id % 41``  (skewed hosts: one
  giant host owns ~1/3 of rows — exercises the url-prefix shuffle)
- ``url      = https://h{host_id}.example.com/p/{doc_id}``
- ``warc_ts  = 2024-01-01T00:00:00 + doc_id seconds``
- ``kind     = 'pdf' if doc_id % 10 == 7 else 'html'``  (~10% PDF payloads)
- invoice metadata (html lane only, embedded OUTSIDE the main content):
    invoice_number = 'INV-' + zero-padded doc_id (6)
    invoice_date   = 2024-01-01 + (doc_id % 365) days, ISO
    subtotal_cents = n_chars * 75 ; tax = subtotal // 10 ; total = sub + tax
    is_paid        = doc_id % 2 == 0

Template variants rotate per doc_id; variant 3 (plain div soup without
``<article>``/``<main>`` semantic containers) is only used when the document
is long enough for pure density classification (>= 200 chars), so extraction
stays exact on every row regardless of variant. The extractors must recover
``text`` without knowing which variant produced the page.

The PDF lane builds minimal-but-valid PDF 1.4 files the way the reference's
test fixture does (reference: tests/conftest.py:20-59 handcrafts a %PDF-1.4
with one content stream), extended with Flate-compressed content streams and
absolute ``Tm`` positioning per line, with lines emitted in a scrambled
deterministic order so the extractor's reading-order sort is load-bearing.
"""

from __future__ import annotations

import html as _html
import zlib
from datetime import datetime, timedelta

import pyarrow as pa

_EPOCH = datetime(2024, 1, 1)
PDF_MODULO = 10
PDF_RESIDUE = 7
N_HOSTS = 41
FONT_SIZE = 12
LEADING = 14
MARGIN_X = 72
TOP_Y = 720
MAX_LINE_CHARS = 72


def host_id_for(doc_id: int) -> int:
    return 0 if doc_id % 3 == 0 else doc_id % N_HOSTS


def host_ids_for(doc_ids):  # noqa: ANN001 — np.ndarray -> np.ndarray
    """Vectorized twin of ``host_id_for`` — the ONLY other statement of
    the host rule (review finding: three numpy copies of the rule had
    accreted in queries.py; a rule change here must not drift them)."""
    import numpy as np

    d = np.asarray(doc_ids, dtype=np.int64)
    return np.where(d % 3 == 0, 0, d % N_HOSTS)


def url_for(doc_id: int) -> str:
    return f"https://h{host_id_for(doc_id)}.example.com/p/{doc_id}"


def warc_ts_for(doc_id: int) -> datetime:
    return _EPOCH + timedelta(seconds=int(doc_id))


def is_pdf_row(doc_id: int) -> bool:
    return doc_id % PDF_MODULO == PDF_RESIDUE


def _fmt_cents(cents: int) -> str:
    return f"${cents // 100:,}.{cents % 100:02d}"


def invoice_fields_for(doc_id: int, n_chars: int) -> dict[str, str]:
    """Invoice metadata strings embedded into the html lane (SQL-restatable)."""
    subtotal = n_chars * 75
    tax = subtotal // 10
    total = subtotal + tax
    date = (_EPOCH + timedelta(days=doc_id % 365)).strftime("%Y-%m-%d")
    return {
        "Invoice Number": f"INV-{doc_id:06d}",
        "Invoice Date": date,
        "Subtotal": _fmt_cents(subtotal),
        "Tax Amount": _fmt_cents(tax),
        "Total Amount": _fmt_cents(total),
        "Is Paid": "yes" if doc_id % 2 == 0 else "no",
    }


# ---------------------------------------------------------------------------
# HTML lane
# ---------------------------------------------------------------------------

_NAV_LINKS = "".join(
    f'<a href="/{s}">{s.title()}</a> '
    for s in ["news", "sports", "tech", "science", "opinion", "video", "live", "more"]
)
_TRENDING = "".join(
    f'<li><a href="/t/{i}">Trending topic number {i} right now</a></li>' for i in range(6)
)
_RELATED = "".join(
    f'<a href="/r/{i}">Related story {i} you may like</a> ' for i in range(5)
)
_COMMENTS = "".join(
    f'<div class="comment"><a href="/u/{i}">user{i}</a> says: nice '
    f'<a href="/reply/{i}">reply</a> <a href="/share/{i}">share</a> '
    f'<a href="/report/{i}">report</a></div>'
    for i in range(3)
)
_COOKIE = (
    '<div class="cookie-banner">We use cookies on this site. '
    '<a href="/privacy">Privacy policy</a> <a href="#accept">Accept all</a> '
    '<a href="#reject">Reject</a></div>'
)
_FOOTER = (
    "<footer><p>&copy; Example Site. All rights reserved. "
    '<a href="/terms">Terms</a> <a href="/contact">Contact</a> '
    '<a href="/about">About</a></p></footer>'
)


def line_items_for(doc_id: int, n_chars: int) -> list[dict]:
    """Deterministic line items (SQL-restatable): 1 + doc_id % 3 rows;
    row i: quantity i+1, unit price cents = n_chars*25 + i*50,
    total cents = quantity * unit_price."""
    items = []
    for i in range(1 + doc_id % 3):
        unit_cents = n_chars * 25 + i * 50
        qty = i + 1
        items.append({
            "description": f"Item {i}",
            "quantity": qty,
            "unit_price": _fmt_cents(unit_cents),
            "total": _fmt_cents(unit_cents * qty),
        })
    return items


def _meta_block(doc_id: int, n_chars: int) -> str:
    rows = "".join(
        f'<div class="row"><span class="k">{k}</span>: <span class="v">{v}</span></div>'
        for k, v in invoice_fields_for(doc_id, n_chars).items()
    )
    items = line_items_for(doc_id, n_chars)
    header = "<tr><th>Description</th><th>Quantity</th><th>Unit Price</th><th>Total</th></tr>"
    body = "".join(
        f"<tr><td>{it['description']}</td><td>{it['quantity']}</td>"
        f"<td>{it['unit_price']}</td><td>{it['total']}</td></tr>"
        for it in items
    )
    table = f'<table class="line-items">{header}{body}</table>'
    return f'<div class="doc-meta">{rows}{table}</div>'


def build_html(doc_id: int, text: str, lang: str, n_chars: int) -> bytes:
    """Wrap ``text`` in boilerplate; extractor must recover ``text`` exactly."""
    esc = _html.escape(text)
    host = host_id_for(doc_id)
    head = (
        f'<!DOCTYPE html><html lang="{lang}"><head><meta charset="utf-8">'
        f"<title>Page {doc_id} — Example Site</title>"
        "<style>body{margin:0;font:16px serif}.k{font-weight:bold}</style>"
        '<script>window.__t=Date.now();var q=[];function tr(x){q.push(x)}</script>'
        "</head><body>"
    )
    header = (
        f'<header><h1><a href="/">Example Site h{host}</a></h1>'
        f"<nav>{_NAV_LINKS}</nav></header>"
    )
    aside_l = f"<aside><h3>Trending</h3><ul>{_TRENDING}</ul></aside>"
    aside_r = f'<aside class="related"><h3>Related</h3>{_RELATED}</aside>'
    tail = (
        f"{_meta_block(doc_id, n_chars)}"
        f'<div class="comments"><h3>Comments</h3>{_COMMENTS}</div>{_FOOTER}</body></html>'
    )

    variant = doc_id % 4
    if variant == 3 and n_chars >= 200:
        # div soup: no semantic container — pure density classification
        body = (
            f'{header}{_COOKIE}<div class="layout">{aside_l}'
            f'<div class="col"><div class="story"><p>{esc}</p></div></div>'
            f"{aside_r}</div>{tail}"
        )
    elif variant == 1:
        body = (
            f'{header}{_COOKIE}<div class="layout">{aside_l}'
            f"<main><p>{esc}</p></main>{aside_r}</div>{tail}"
        )
    elif variant == 2:
        body = (
            f"{header}{_COOKIE}<article><section><p>{esc}</p></section></article>"
            f'<div class="layout">{aside_l}{aside_r}</div>{tail}'
        )
    else:
        body = (
            f'{header}{_COOKIE}<div class="layout">{aside_l}'
            f"<main><article><p>{esc}</p></article></main>{aside_r}</div>{tail}"
        )
    return (head + body).encode("utf-8")


# ---------------------------------------------------------------------------
# PDF lane
# ---------------------------------------------------------------------------

def _pdf_escape(s: str) -> str:
    return s.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")


def _wrap_words(text: str) -> list[str]:
    """Greedy word wrap at MAX_LINE_CHARS; '' join-invariant:
    ' '.join(lines) == text."""
    words = text.split(" ")
    lines: list[str] = []
    cur: list[str] = []
    n = 0
    for w in words:
        add = len(w) + (1 if cur else 0)
        if cur and n + add > MAX_LINE_CHARS:
            lines.append(" ".join(cur))
            cur, n = [w], len(w)
        else:
            cur.append(w)
            n += add
    if cur:
        lines.append(" ".join(cur))
    return lines


def _scramble(n: int) -> list[int]:
    """Deterministic permutation of range(n): evens first, then odds, reversed."""
    order = [i for i in range(n) if i % 2 == 0] + [i for i in range(n) if i % 2 == 1]
    return list(reversed(order))


def _page_content(lines: list[str]) -> bytes:
    ops = ["BT", f"/F1 {FONT_SIZE} Tf"]
    for i in _scramble(len(lines)):
        y = TOP_Y - i * LEADING
        ops.append(f"1 0 0 1 {MARGIN_X} {y} Tm ({_pdf_escape(lines[i])}) Tj")
    ops.append("ET")
    return "\n".join(ops).encode("latin-1", errors="replace")


def build_pdf(doc_id: int, text: str) -> bytes:
    """Minimal valid PDF: one page, Flate content stream, scrambled line
    order. ``' '.join(wrap(text)) == text`` holds for EVERY string
    (str.split(' ') round-trips losslessly, empty words included), so the
    extracted text equals the input — the former fallback branch for a
    failed round-trip was unreachable (review finding). Caveat: the
    content stream is latin-1 with errors='replace'; non-latin-1 input
    breaks the identity (the pages synthesizer pre-replaces its ground
    truth for exactly this reason, synthesize_pages_batch below)."""
    return build_pdf_pages([_wrap_words(text)], doc_id)


def build_multipage_pdf(doc_id: int, page_paragraphs: list[str]) -> bytes:
    """One paragraph per page; expected extracted text =
    ``"\\n\\n".join(page_paragraphs)`` (per-page assembly contract).
    Same latin-1 caveat as build_pdf."""
    return build_pdf_pages([_wrap_words(p) or [p] for p in page_paragraphs], doc_id)


def build_pdf_pages(pages_lines: list[list[str]], doc_id: int = 0) -> bytes:
    n_pages = len(pages_lines)
    # object layout: 1 catalog, 2 pages, then per page: page obj + content obj
    page_obj_ids = [3 + 2 * i for i in range(n_pages)]
    kids = " ".join(f"{pid} 0 R" for pid in page_obj_ids)
    objects: list[bytes] = [
        b"<< /Type /Catalog /Pages 2 0 R >>",
        b"<< /Type /Pages /Kids [%s] /Count %d >>" % (kids.encode(), n_pages),
    ]
    font_obj_id = 3 + 2 * n_pages
    for i, lines in enumerate(pages_lines):
        stream = zlib.compress(_page_content(lines))
        objects.append(
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Contents %d 0 R /Resources << /Font << /F1 %d 0 R >> >> >>"
            % (page_obj_ids[i] + 1, font_obj_id)
        )
        objects.append(
            b"<< /Length %d /Filter /FlateDecode >>\nstream\n%s\nendstream"
            % (len(stream), stream)
        )
    objects.append(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    out = bytearray(b"%PDF-1.4\n")
    offsets = []
    for i, obj in enumerate(objects, start=1):
        offsets.append(len(out))
        out += b"%d 0 obj\n" % i + obj + b"\nendobj\n"
    xref_pos = len(out)
    out += b"xref\n0 %d\n" % (len(objects) + 1)
    out += b"0000000000 65535 f \n"
    for off in offsets:
        out += b"%010d 00000 n \n" % off
    out += (
        b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n"
        % (len(objects) + 1, xref_pos)
    )
    return bytes(out)


# ---------------------------------------------------------------------------
# Batch synthesis (the map_batches kernel)
# ---------------------------------------------------------------------------

def synthesize_pages_batch(
    batch: pa.Table, include_doc_id: bool = True, inflate: int = 1
) -> pa.Table:
    """Arrow batch of documents -> Arrow batch of pages (vector driver loop).

    Input columns: doc_id:int64, text:string, lang:string[, n_chars:int64].
    Output: (url, warc_ts, html, text, lang [, doc_id]) per PAGES_SCHEMA.
    """
    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    if inflate > 1:
        # bench-only: emulate realistic page sizes; ground truth inflates
        # consistently so extraction identity is preserved
        texts = [((t or "") + " ") * (inflate - 1) + (t or "") for t in texts]
    langs = batch.column("lang").to_pylist()
    if "n_chars" in batch.column_names:
        n_chars = batch.column("n_chars").to_pylist()
    else:
        n_chars = [len(t or "") for t in texts]

    urls, tss, payloads = [], [], []
    texts = list(texts)
    for i, (d, t, lg, nc) in enumerate(zip(doc_ids, texts, langs, n_chars)):
        t = t or ""
        urls.append(url_for(d))
        tss.append(warc_ts_for(d))
        if is_pdf_row(d):
            # the simple PDF encoder is latin-1 (no font CMaps); keep the
            # by-construction identity by writing the SAME replaced text
            # into the ground-truth column (extracted == text always holds)
            safe = t.encode("latin-1", errors="replace").decode("latin-1")
            texts[i] = safe
            payloads.append(build_pdf(d, safe))
        else:
            payloads.append(build_html(d, t, lg or "en", nc))

    cols = {
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "html": pa.array(payloads, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    }
    if include_doc_id:
        cols["doc_id"] = batch.column("doc_id")
    return pa.table(cols)


def synthesize_pages_table(documents: pa.Table) -> pa.Table:
    """Whole-table convenience wrapper (tests / small fixtures)."""
    return synthesize_pages_batch(documents)


def edge_rows_table() -> pa.Table:
    """Deterministic failure/edge rows (FIXTURES.md §5/§6, test-only — the
    driver oracle corpus stays clean): empty payload, non-HTML garbage,
    truncated PDF, and a duplicate-payload pair under two urls."""
    dup_payload = build_html(10_000, "shared duplicate content body", "en", 29)
    rows = [
        ("https://edge.example.com/empty", b"", None),
        ("https://edge.example.com/garbage", b"\x00\xfe\x9cnot markup\xff", None),
        ("https://edge.example.com/truncated-pdf", build_pdf(1, "cut off")[:40], None),
        ("https://edge.example.com/dup-a", dup_payload, "shared duplicate content body"),
        ("https://edge.example.com/dup-b", dup_payload, "shared duplicate content body"),
    ]
    cols = {
        "url": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([_EPOCH] * len(rows), pa.timestamp("us")),
        "html": pa.array([r[1] for r in rows], pa.binary()),
        "text": pa.array([r[2] for r in rows], pa.string()),
        "lang": pa.array(["en"] * len(rows), pa.string()),
        "doc_id": pa.array(list(range(10_001, 10_001 + len(rows))), pa.int64()),
    }
    return pa.table(cols)
