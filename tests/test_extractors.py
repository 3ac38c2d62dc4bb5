"""Extractor-kernel tests: HTML density heuristics, PDF layout parse,
corpus round-trip byte identity, failure-row semantics."""

from __future__ import annotations

import pyarrow.parquet as pq
import pytest

from ai_pdf_extraction_ray.schema import FieldDefinition, FieldType, SchemaDefinition
from ai_pdf_extraction_ray.sources.corpus import (
    build_html,
    build_pdf,
    invoice_fields_for,
    is_pdf_row,
    synthesize_pages_table,
    url_for,
)
from ai_pdf_extraction_ray.stages.html_extract import (
    compile_field_patterns,
    extract_fields,
    extract_html,
    parse_blocks,
)
from ai_pdf_extraction_ray.stages.pdf_extract import extract_pdf, page_count

SF_SMOKE = "/root/testdata/sf0.001"
SF_CORRECT = "/root/testdata/sf0.01"
SF_BENCH = "/root/testdata/sf0.1"


def _block_key(blocks):
    return [(b.text, b.link_chars, b.words, b.in_content, b.in_boiler) for b in blocks]


class TestHtmlExtractor:
    def test_article_content_selected(self):
        html = (
            "<html><body><nav><a href='/'>Home</a> <a href='/x'>X</a></nav>"
            "<article><p>Short main content here.</p></article>"
            "<footer><a href='/t'>Terms</a></footer></body></html>"
        )
        rec = extract_html(html)
        assert rec["text"] == "Short main content here."
        assert rec["error"] is None
        assert rec["confidence"] > 0

    def test_density_without_semantic_tags(self):
        long_para = " ".join(f"word{i}" for i in range(40))
        html = (
            "<html><body><div><a href='/a'>lots</a> <a href='/b'>of</a> "
            "<a href='/c'>links</a></div>"
            f"<div><p>{long_para}</p></div>"
            "<div><a href='/d'>more</a> <a href='/e'>links</a></div></body></html>"
        )
        assert extract_html(html)["text"] == long_para

    def test_link_dense_comment_trap_dropped(self):
        # high word count but high link density -> boilerplate
        links = " ".join(f"<a href='/u/{i}'>commenter name number {i}</a>" for i in range(10))
        body = " ".join(f"w{i}" for i in range(30))
        html = f"<html><body><article><p>{body}</p></article><div class='c'>{links}</div></body></html>"
        assert extract_html(html)["text"] == body

    def test_multi_paragraph_join(self):
        html = "<html><body><article><p>Para one.</p><p>Para two.</p></article></body></html>"
        rec = extract_html(html)
        assert rec["text"] == "Para one.\n\nPara two."
        assert rec["spans"] == [
            {"field": "block_0", "start": 0, "end": 9},
            {"field": "block_1", "start": 11, "end": 20},
        ]

    def test_entities_unescaped(self):
        html = "<html><body><article><p>A &amp; B &lt;ok&gt;</p></article></body></html>"
        assert extract_html(html)["text"] == "A & B <ok>"

    def test_script_style_ignored(self):
        html = (
            "<html><head><style>p{color:red}</style><script>var x=1;</script></head>"
            "<body><article><p>Real text.</p></article></body></html>"
        )
        assert extract_html(html)["text"] == "Real text."

    def test_empty_payload_is_error_row(self):
        rec = extract_html(b"")
        assert rec["error"] == "empty payload"
        assert rec["confidence"] == 0.0
        assert rec["text"] is None

    def test_no_content_warns(self):
        rec = extract_html("<html><body><nav><a href='/'>x</a></nav></body></html>")
        assert rec["text"] == ""
        assert rec["confidence"] == 0.0
        assert "no content blocks detected" in rec["warnings"]

    def test_garbage_bytes_do_not_crash(self):
        rec = extract_html(b"\x00\xff\xfe not html at all \x9c")
        assert rec["error"] is None or isinstance(rec["error"], str)

    def test_block_parse_counts(self):
        blocks = parse_blocks(
            "<body><nav>n1</nav><article><p>content words</p></article></body>"
        )
        assert [b.in_boiler for b in blocks] == [True, False]
        assert [b.in_content for b in blocks] == [False, True]


def _raw_pdf(content: bytes) -> bytes:
    return (
        b"%PDF-1.4\n1 0 obj\n<< /Length "
        + str(len(content)).encode()
        + b" >>\nstream\n"
        + content
        + b"\nendstream\nendobj\n"
    )


class TestPdfExtractor:
    def test_roundtrip_simple(self):
        text = " ".join(f"alpha{i}" for i in range(40))
        rec = extract_pdf(build_pdf(1, text))
        assert rec["text"] == text
        assert rec["error"] is None

    def test_scrambled_stream_order_reading_order_restored(self):
        # build_pdf emits lines in scrambled order; identity proves y-sort works
        text = " ".join(f"tok{i}" for i in range(120))
        assert extract_pdf(build_pdf(7, text))["text"] == text

    def test_magic_byte_rejection(self):
        rec = extract_pdf(b"not a pdf")
        assert rec["error"] == "not a PDF (missing %PDF magic)"

    def test_empty_rejection(self):
        assert extract_pdf(b"")["error"] == "empty payload"

    def test_truncated_pdf_is_error_or_empty(self):
        rec = extract_pdf(build_pdf(1, "hello world")[:60])
        assert rec["text"] in (None, "")  # never raises

    def test_uncompressed_stream_and_td_advance(self):
        content = b"BT /F1 12 Tf 72 720 Td (first line) Tj 0 -14 Td (second line) Tj ET"
        assert extract_pdf(_raw_pdf(content))["text"] == "first line second line"

    def test_block_gap_splits_paragraphs(self):
        content = (
            b"BT /F1 12 Tf 1 0 0 1 72 720 Tm (para one) Tj "
            b"1 0 0 1 72 600 Tm (para two) Tj ET"
        )
        assert extract_pdf(_raw_pdf(content))["text"] == "para one\n\npara two"

    def test_tj_array_and_escapes(self):
        content = rb"BT /F1 12 Tf 72 720 Td [(a\(b\)) -250 (c)] TJ ET"
        assert extract_pdf(_raw_pdf(content))["text"] == "a(b) c"

    def test_page_count(self):
        assert page_count(build_pdf(1, "hi")) == 1

    def test_page_count_at_end_of_buffer(self):
        """'/Type /Page' abutting end-of-buffer must still count — the old
        [^s] class CONSUMED a byte, so it required one more character
        (review finding); /Pages must still be excluded."""
        assert page_count(b"%PDF-1.4 /Type /Page") == 1
        assert page_count(b"/Type /Pages /Type /Page x /Type/Page") == 2

    def test_non_octal_digit_escapes_drop_backslash(self):
        r"""\8 and \9 are not octal: per spec the backslash drops and the
        digit survives; the old bytes.isdigit() check fed int(_, 8) and
        demoted the whole document to an error record (review finding)."""
        content = rb"BT /F1 12 Tf 72 720 Td (a\9b \812) Tj ET"
        rec = extract_pdf(_raw_pdf(content))
        assert rec["error"] is None
        assert rec["text"] == "a9b 812"


class TestCorpusRoundTrip:
    """The golden gate: byte-identical extracted text per url (north rule)."""

    @pytest.fixture(scope="class")
    def pages(self):
        return synthesize_pages_table(pq.read_table(f"{SF_SMOKE}/documents.parquet"))

    def test_byte_identity_all_rows(self, pages):
        for i in range(pages.num_rows):
            d = pages.column("doc_id")[i].as_py()
            payload = pages.column("html")[i].as_py()
            truth = pages.column("text")[i].as_py()
            rec = extract_pdf(payload) if is_pdf_row(d) else extract_html(payload)
            assert rec["text"] == truth, f"doc_id={d} kind={'pdf' if is_pdf_row(d) else 'html'}"

    def test_urls_deterministic(self, pages):
        assert pages.column("url")[0].as_py() == url_for(0) == "https://h0.example.com/p/0"
        # skew: doc 3 lands on the giant host
        assert url_for(3) == "https://h0.example.com/p/3"
        assert url_for(4) == "https://h4.example.com/p/4"

    def test_determinism_rebuild_identical(self):
        docs = pq.read_table(f"{SF_SMOKE}/documents.parquet").slice(0, 50)
        a = synthesize_pages_table(docs)
        b = synthesize_pages_table(docs)
        assert a.equals(b)

    def test_field_extraction_on_html_lane(self, pages):
        schema = SchemaDefinition(
            name="invoice",
            fields=[
                FieldDefinition("invoice_number", FieldType.STRING, required=True),
                FieldDefinition("invoice_date", FieldType.DATE),
                FieldDefinition("subtotal", FieldType.CURRENCY),
                FieldDefinition("tax_amount", FieldType.CURRENCY),
                FieldDefinition("total_amount", FieldType.CURRENCY),
                FieldDefinition("is_paid", FieldType.BOOLEAN),
            ],
            validation_rules=["total_amount == subtotal + tax_amount"],
        )
        pats = compile_field_patterns(schema)
        for i in (1, 2, 4, 5):
            d = pages.column("doc_id")[i].as_py()
            rec = extract_html(pages.column("html")[i].as_py())
            fields, confs = extract_fields(rec["flat_text"], pats)
            expected = invoice_fields_for(d, len(pages.column("text")[i].as_py()))
            assert fields["invoice_number"] == expected["Invoice Number"]
            assert fields["total_amount"] == expected["Total Amount"]
            assert confs["invoice_number"] == 0.95


class TestFastScannerEquivalence:
    """The fast regex scanner must match the stdlib-parser baseline on
    every page shape — corpus + adversarial."""

    ADVERSARIAL = [
        "<html><body><article><p>A &amp; B &lt;x&gt; &#65; &unknown; C</p></article></body></html>",
        "<body><script>if (a < b && c > d) { x = '<p>not text</p>'; }</script><main><p>real</p></main></body>",
        "<body><style>p > a { color: red }</style><article><p>styled</p></article></body>",
        "<body><!-- <p>commented out</p> --><main><p>kept</p></main></body>",
        "<body><div data-x='a > b' title=\"c > d\"><p>attr gt</p></div></body>",
        "<body><main><p>void<br>tags<hr/>here<img src='x.png'></p></main></body>",
        "<body><main><p>unclosed paragraph<p>second</main></body>",
        "<body><main><p>stray < bracket and 1 < 2 in text</p></main></body>",
        "<body><nav><a href='/'>Home</a></nav><MAIN><P>upper case tags</P></MAIN></body>",
        "<body><main><p>self-closed <span/>spans</p></main></body>",
        "<body><aside/><p>after self-closed aside twenty words follow here to pass the density rule easily one two three four five six</p></body>",
        "<body><nav/><main/><p>self-closed containers must not leak ancestor state into following blocks at all</p></body>",
        "<body><textarea><p>not parsed</p></textarea><main><p>after textarea</p></main></body>",
        "<body><main><p>nested <b>bold <i>italic</i></b> inline</p></main></body>",
        "<body><ul><li><a href='/1'>one</a></li><li>two words here</li></ul><article><p>art</p></article></body>",
        "<!DOCTYPE html><?xml version='1.0'?><body><main><p>decls</p></main></body>",
        "<body><main><p>entity edge &amp;amp; double</p></main></body>",
        "<body><div></div><main><p>empty div before</p></main><div>   </div></body>",
        "plain text with no tags at all",
        "",
    ]

    @pytest.mark.parametrize("html", ADVERSARIAL)
    def test_adversarial_equivalence(self, html):
        from ai_pdf_extraction_ray.stages.html_extract import (
            parse_blocks,
            parse_blocks_batch,
            parse_blocks_stdlib,
        )

        expected = _block_key(parse_blocks_stdlib(html))
        assert _block_key(parse_blocks(html)) == expected
        assert _block_key(parse_blocks_batch([html])[0]) == expected

    def test_adversarial_pages_as_one_batch(self):
        from ai_pdf_extraction_ray.stages.html_extract import (
            parse_blocks_batch,
            parse_blocks_stdlib,
        )

        got = parse_blocks_batch(self.ADVERSARIAL)
        assert [_block_key(b) for b in got] == [
            _block_key(parse_blocks_stdlib(h)) for h in self.ADVERSARIAL]

    def test_corpus_equivalence_sample(self):
        from ai_pdf_extraction_ray.stages.html_extract import (
            parse_blocks,
            parse_blocks_stdlib,
        )

        pages = synthesize_pages_table(
            pq.read_table(f"{SF_SMOKE}/documents.parquet").slice(0, 120)
        )
        for i in range(pages.num_rows):
            payload = pages.column("html")[i].as_py()
            if payload.startswith(b"%PDF"):
                continue
            assert _block_key(parse_blocks(payload)) == _block_key(parse_blocks_stdlib(payload))


class TestBatchScanner:
    """``scan_batch`` / ``extract_html_batch``: one tokenization per batch,
    the blocks and records of the per-page path on every page."""

    @staticmethod
    def _corpus_pages(sf_dir):
        pages = synthesize_pages_table(pq.read_table(f"{sf_dir}/documents.parquet"))
        return [p for p in pages.column("html").to_pylist() if p[:4] != b"%PDF"]

    @pytest.mark.parametrize("sf_dir", [SF_CORRECT, SF_BENCH])
    def test_corpus_blocks_match_stdlib_and_fallback_share(self, sf_dir, record_property):
        from ai_pdf_extraction_ray.sources.corpus import edge_rows_table
        from ai_pdf_extraction_ray.stages.html_extract import (
            parse_blocks_batch,
            parse_blocks_stdlib,
            scan_batch,
        )

        payloads = self._corpus_pages(sf_dir) + [
            p for p in edge_rows_table().column("html").to_pylist()
            if p and p[:4] != b"%PDF"]
        pages = [p.decode("utf-8", errors="replace") for p in payloads]
        scanned, fallback = [], 0
        for lo in range(0, len(pages), 256):
            scanned += parse_blocks_batch(pages[lo:lo + 256])
            fallback += int(scan_batch(pages[lo:lo + 256]).fallback.sum())
        for page, blocks in zip(pages, scanned):
            assert _block_key(blocks) == _block_key(parse_blocks_stdlib(page))
        share = fallback / len(pages)
        record_property("fallback_share", share)
        print(f"batch scanner fallback share: {fallback}/{len(pages)} pages")
        assert share <= 0.01, f"{fallback} of {len(pages)} corpus pages fell back"

    @pytest.mark.parametrize("sf_dir", [SF_SMOKE, SF_CORRECT])
    def test_records_equal_per_page_path(self, sf_dir):
        from ai_pdf_extraction_ray.sources.corpus import edge_rows_table
        from ai_pdf_extraction_ray.stages.html_extract import extract_html_batch

        payloads = (self._corpus_pages(sf_dir)
                    + edge_rows_table().column("html").to_pylist()
                    + [b"", "", "<p>str page</p>"]
                    + TestFastScannerEquivalence.ADVERSARIAL)
        assert extract_html_batch(payloads) == [extract_html(p) for p in payloads]
        assert extract_html_batch([]) == []
        # a str page with a lone surrogate has no UTF-8 form for the scan
        odd = ["<p>a\ud800b</p>", "<main><p>ok</p></main>"]
        assert extract_html_batch(odd) == [extract_html(p) for p in odd]

    def test_scan_slices_bound_characters(self, monkeypatch):
        from ai_pdf_extraction_ray.stages import html_extract

        monkeypatch.setattr(html_extract, "_SCAN_CHARS", 10)
        payloads = [b"aaaa"] * 5 + [b"x" * 30, b"", b"a", b"b", b"y" * 10]
        slices = html_extract._scan_slices(payloads)
        assert [(s.start, s.stop) for s in slices] == [
            (0, 2), (2, 4), (4, 5), (5, 6), (6, 9), (9, 10)]
        assert html_extract._scan_slices([]) == []

    def test_oversize_pages_scan_in_small_slices(self, monkeypatch):
        """A batch of pages whose sum passes the character budget scans in
        several slices and gives the per-page records."""
        from ai_pdf_extraction_ray.stages import html_extract

        payloads = self._corpus_pages(SF_SMOKE)[:40]
        monkeypatch.setattr(html_extract, "_SCAN_CHARS", 3 * max(map(len, payloads)))
        scans = []
        scan = html_extract.scan_batch
        monkeypatch.setattr(html_extract, "scan_batch",
                            lambda pages: scans.append(len(pages)) or scan(pages))
        assert html_extract.extract_html_batch(payloads) == [extract_html(p) for p in payloads]
        assert sum(scans) == len(payloads) and max(scans) <= 3 and len(scans) >= 14

    def test_a_failed_scan_falls_back_page_by_page(self, monkeypatch):
        from ai_pdf_extraction_ray.stages import html_extract

        def broken(pages):
            raise RuntimeError("scan failed")

        payloads = self._corpus_pages(SF_SMOKE)[:20] + [b"", b"<p>x</p>"]
        monkeypatch.setattr(html_extract, "scan_batch", broken)
        assert html_extract.extract_html_batch(payloads) == [extract_html(p) for p in payloads]

    @pytest.mark.parametrize("html, falls_back", [
        ("<div><p>a &amp; b</p><br/><img src=x><p>unclosed at the end", False),
        ("<body><script>var q=[];</script><main><p>x</p></main></body>", False),
        ("<p>stray < and a stray </nope> close</p>", True),
        ("<main><p>misnested</main></p>", True),
        ("</a><a>a close before any open, an open never closed", True),
        ("<script>if (a < b) {}</script><p>x</p>", True),
        ("<p><![CDATA[x]]></p>", True),
        ("<p>\u0130</p>", True),
    ])
    def test_fallback_decision(self, html, falls_back):
        from ai_pdf_extraction_ray.stages.html_extract import (
            _FastScanner,
            parse_blocks_batch,
            scan_batch,
        )

        assert bool(scan_batch([html]).fallback[0]) is falls_back
        assert _block_key(parse_blocks_batch([html])[0]) == _block_key(_FastScanner().scan(html))

    def test_whitespace_matches_python(self):
        """Block text strips and splits on ``str.isspace`` characters; the
        Arrow kernels the batch path uses must agree on every code point."""
        import pyarrow as pa
        import pyarrow.compute as pc

        from ai_pdf_extraction_ray.stages.html_extract import _WS

        points = [c for c in range(1, 0x110000) if not 0xD800 <= c < 0xE000]
        assert sorted(map(ord, _WS)) == [c for c in points if chr(c).isspace()]
        words = pc.list_value_length(pc.utf8_split_whitespace(
            pa.array(["a" + chr(c) + "b" for c in points]))).to_pylist()
        assert [c for c, n in zip(points, words) if (n == 2) != chr(c).isspace()] == []
        trimmed = pc.utf8_trim_whitespace(
            pa.array([chr(c) + "x" + chr(c) for c in points])).to_pylist()
        assert [c for c, t in zip(points, trimmed) if (t == "x") != chr(c).isspace()] == []


class TestArrayTableExtraction:
    def test_extract_tables_and_binding(self):
        from ai_pdf_extraction_ray.stages.html_extract import (
            bind_array_field,
            extract_tables,
        )

        html = (
            '<table class="line-items">'
            "<tr><th>Description</th><th>Quantity</th><th>Unit Price</th></tr>"
            "<tr><td>Item A &amp; B</td><td>2</td><td>$5.00</td></tr>"
            "<tr><td><b>Item C</b></td><td>10</td><td>$1.25</td></tr></table>"
        )
        tables = extract_tables(html)
        assert tables["line-items"]["headers"] == ["Description", "Quantity", "Unit Price"]
        items = bind_array_field("line_items", tables)
        assert items == [
            {"description": "Item A & B", "quantity": 2, "unit_price": "$5.00"},
            {"description": "Item C", "quantity": 10, "unit_price": "$1.25"},
        ]
        assert bind_array_field("missing_table", tables) is None

    def test_corpus_line_items_exact(self, pages=None):
        import json

        from ai_pdf_extraction_ray.sources.corpus import line_items_for
        from ai_pdf_extraction_ray.stages.extract import DocumentExtractor
        from ai_pdf_extraction_ray.pipelines.queries import INVOICE_SCHEMA

        docs = pq.read_table(f"{SF_SMOKE}/documents.parquet").slice(0, 30)
        table = synthesize_pages_table(docs)
        out = DocumentExtractor(INVOICE_SCHEMA.to_dict())(table).to_pylist()
        docs_rows = {r["doc_id"]: r for r in docs.to_pylist()}
        checked = 0
        for row in out:
            if row["kind"] != "html":
                continue
            d = int(row["url"].rsplit("/", 1)[1])
            expected = line_items_for(d, len(docs_rows[d]["text"]))
            assert json.loads(row["fields_json"])["line_items"] == expected
            checked += 1
        assert checked > 20


class TestTwoColumnPdf:
    def test_columns_read_left_then_right(self):
        # left column x=72, right column x=350 — interleaved y positions
        ops = ["BT", "/F1 12 Tf"]
        left = ["left one alpha", "left two beta", "left three gamma"]
        right = ["right one delta", "right two epsilon"]
        for i, line in enumerate(left):
            ops.append(f"1 0 0 1 72 {720 - i * 14} Tm ({line}) Tj")
        for i, line in enumerate(right):
            ops.append(f"1 0 0 1 350 {720 - i * 14} Tm ({line}) Tj")
        content = "\n".join(ops + ["ET"]).encode()
        rec = extract_pdf(_raw_pdf(content))
        assert rec["text"] == (
            "left one alpha left two beta left three gamma"
            "\n\nright one delta right two epsilon"
        )

    def test_single_column_unaffected(self):
        text = " ".join(f"tok{i}" for i in range(60)) 
        assert extract_pdf(build_pdf(3, text))["text"] == text


class TestPageStatsKernel:
    """q_pdf_page_stats' kernel (S4/M2 driver coverage): page counts must
    recover the known structure and the oversize lane must match the SQL
    restatement octet_length(text) + 1 > cap for EVERY text — including
    one that starts with '%PDF-' (the magic-guard newline pins the html
    lane; review finding)."""

    def test_known_pages_and_lane_parity(self):
        import pyarrow as pa

        from ai_pdf_extraction_ray.pipelines.queries import (
            PAGE_STATS_CAP_BYTES, _PAGE_STATS_MAX_PAGES, _PageStatsKernel)

        texts = [
            "short",
            "x" * (PAGE_STATS_CAP_BYTES + 50),
            "%PDF-" + "y" * (PAGE_STATS_CAP_BYTES + 50),  # magic-prefix text
            "%PDF-tiny",
            None,
            "",
        ]
        ids = list(range(len(texts)))
        out = _PageStatsKernel()(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(texts, pa.string()),
        }))
        assert out.column("n_pages").to_pylist() == [
            1 + d % _PAGE_STATS_MAX_PAGES for d in ids]
        want_lane = [
            "truncated" if t is not None
            and len(t.encode()) + 1 > PAGE_STATS_CAP_BYTES else "full"
            for t in texts]
        assert out.column("lane").to_pylist() == want_lane


class TestPageMetadata:
    """q_page_metadata's kernel: WAT-style title/lang/outlink extraction
    with vectorized magic-byte routing (pdf bytes must never reach the
    utf8 cast)."""

    def test_kernel_routing_and_extraction(self):
        import pyarrow as pa

        from ai_pdf_extraction_ray.sources.corpus import build_html, build_pdf
        from ai_pdf_extraction_ray.pipelines.queries import (
            _boilerplate_link_count, _page_metadata_batch)

        # the REAL kernel (module-level; a frozen copy here let kernel
        # regressions pass — review finding)
        html = build_html(12, "body text here", "fr", 14)
        pdf = build_pdf(7, "pdf text")
        out = _page_metadata_batch(pa.table({
            "url": pa.array(["h", "p"]),
            "html": pa.array([html, pdf], pa.binary()),
        }))
        assert out.column("title").to_pylist() == [
            "Page 12 — Example Site", None]
        assert out.column("lang_attr").to_pylist() == ["fr", None]
        assert out.column("n_links").to_pylist() == [
            _boilerplate_link_count(), 0]

    def test_link_constant_holds(self):
        """Cross-variant invariance: _boilerplate_link_count builds ONE
        page (it runs at import and must not raise), so THIS test owns the
        check that every layout variant agrees with that single page."""
        from ai_pdf_extraction_ray.pipelines.queries import (
            _boilerplate_link_count, boilerplate_link_count_variants)

        assert boilerplate_link_count_variants() == {_boilerplate_link_count()}
        assert _boilerplate_link_count() == 38


class TestExplodeSpans:
    def test_multi_span_rows_flatten_with_parent_urls(self):
        """explode_spans must fan each row's span list out under its url,
        skip zero-span rows, and preserve offsets — exercised with multi-
        block rows the driver corpus (single-block docs) never produces."""
        import pyarrow as pa

        from ai_pdf_extraction_ray.pipelines.queries import explode_spans
        from ai_pdf_extraction_ray.schema import SPAN_TYPE

        spans = pa.array([
            [{"field": "block_0", "start": 0, "end": 2},
             {"field": "block_1", "start": 4, "end": 7}],
            [],  # error/empty lane: contributes no row
            [{"field": "block_0", "start": 0, "end": 5}],
        ], pa.list_(SPAN_TYPE))
        b = pa.table({"url": ["u0", "u1", "u2"], "spans": spans})
        out = explode_spans(b)
        assert out.column("url").to_pylist() == ["u0", "u0", "u2"]
        assert out.column("block").to_pylist() == [
            "block_0", "block_1", "block_0"]
        assert out.column("span_start").to_pylist() == [0, 4, 0]
        assert out.column("span_end").to_pylist() == [2, 7, 5]
        assert out.schema.field("span_start").type == pa.int64()

    def test_extractor_blocks_roundtrip_through_explode(self):
        """End-to-end: a multi-block html payload through DocumentExtractor,
        spans exploded, must tile the text exactly like the span property
        test guarantees (2-char gaps)."""
        import pyarrow as pa

        from ai_pdf_extraction_ray.pipelines.queries import explode_spans
        from ai_pdf_extraction_ray.schema import SPAN_TYPE
        from ai_pdf_extraction_ray.stages.extract import DocumentExtractor

        html = (b"<html><body><main><p>first paragraph of content here</p>"
                b"<p>second paragraph with more words</p>"
                b"<p>third one closes it out</p></main></body></html>")
        ext = DocumentExtractor()
        out = ext(pa.table({"url": ["https://e.com/x"], "html": [html]}))
        text = out.column("text").to_pylist()[0]
        assert "\n\n" in text  # genuinely multi-block
        exploded = explode_spans(pa.table({
            "url": out.column("url"),
            "spans": out.column("spans").cast(pa.list_(SPAN_TYPE)),
        }))
        parts = text.split("\n\n")
        assert exploded.num_rows == len(parts)
        for i, (s, e) in enumerate(zip(
                exploded.column("span_start").to_pylist(),
                exploded.column("span_end").to_pylist())):
            assert text[s:e] == parts[i]
