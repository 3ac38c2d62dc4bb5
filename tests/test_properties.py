"""Property-based tests (hypothesis): round-trip invariants of the
generator/extractor pair and the scalar kernels."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from ai_pdf_extraction_ray.functions.rules import evaluate_rule
from ai_pdf_extraction_ray.functions.scalars import parse_currency, parse_date
from ai_pdf_extraction_ray.sources.corpus import (
    build_html,
    build_multipage_pdf,
    build_pdf,
    synthesize_pages_batch,
)
from ai_pdf_extraction_ray.stages.html_extract import extract_html
from ai_pdf_extraction_ray.stages.pdf_extract import extract_pdf

# text that survives block stripping: no edge whitespace, no newlines,
# printable, at least one non-space char
# NOTE: block canonicalization strips *unicode* whitespace at block edges
# (str.strip()), so round-trip holds exactly for strip-stable texts — a text
# made only of \xa0 etc. is canonicalized away by design (hypothesis found
# this boundary; see html_extract._flush).
_word = st.text(
    alphabet=st.characters(
        codec="utf-8",
        exclude_categories=("Cc", "Cs", "Zl", "Zp"),
        exclude_characters=" ",
    ),
    min_size=1,
    max_size=12,
).filter(lambda w: w.strip() == w and w.strip())
_text = st.lists(_word, min_size=1, max_size=60).map(" ".join)

# pdf-safe text: latin-1 encodable words (content streams are latin-1)
_pdf_word = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=255, exclude_characters="\xad"),
    min_size=1, max_size=10,
).filter(lambda w: w.strip() == w and w)
_pdf_text = st.lists(_pdf_word, min_size=1, max_size=80).map(" ".join)


class TestHtmlRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(doc_id=st.integers(min_value=0, max_value=10_000), text=_text)
    def test_extract_recovers_embedded_text(self, doc_id: int, text: str):
        payload = build_html(doc_id, text, "en", len(text))
        rec = extract_html(payload)
        assert rec["error"] is None
        assert rec["text"] == text

    @settings(max_examples=50, deadline=None)
    @given(text=_text)
    def test_spans_partition_output(self, text: str):
        rec = extract_html(build_html(7, text, "en", len(text)))
        # spans tile the output text exactly with 2-char gaps
        pos = 0
        for s in rec["spans"]:
            assert s["start"] == pos
            assert rec["text"][s["start"]:s["end"]]
            pos = s["end"] + 2
        assert pos - 2 == len(rec["text"])


# malformed HTML for the batch scanner: tags of every class, in any case and
# nesting, with unclosed and stray closes; stray '<'; raw text holding '<';
# CDATA; comments; entities cut by tags; NUL bytes and odd whitespace
_tag_name = st.sampled_from([
    "p", "P", "div", "DIV", "span", "b", "a", "A", "main", "MAIN", "article", "nav",
    "header", "footer", "aside", "li", "ul", "table", "td", "h1", "br", "hr", "img",
    "head", "title", "noscript", "template", "svg", "textarea", "script", "Script",
    "style", "STYLE", "x-y", "o:p",
])
_attrs = st.sampled_from([
    "", " class='c'", ' title="a > b"', " data-x='<p>'", " href=/x", " /",
    " a='open", ' q="x/"', "\n", " s=a/",
])
_open_tag = st.builds(lambda n, a, slash: f"<{n}{a}{'/' if slash else ''}>",
                      _tag_name, _attrs, st.booleans())
_close_tag = st.builds(lambda n, a: f"</{n}{a}>", _tag_name, st.sampled_from(["", " ", " x"]))
_chars = st.text(alphabet=st.sampled_from(
    list("ab c\n\t&;#<>/!-?x") + ["\x00", "\xa0", "\u2028", "\x1c", "\u0130", "\xe9",
                                  "\u3000", "\x01"]), max_size=10)
_oddments = st.sampled_from([
    "<", "< p>", "</", "<p", "<!-- c -->", "<!-- <p>x</p> -->", "<!--->", "<!-- a -- b -->",
    "<![CDATA[x<y]]>", "<!DOCTYPE html>", "<?xml v?>", "&amp;", "&am", "&#65;", "&lt",
    "&nbsp;", "&#x3C;", "<script>a<b</script>", "<style>p>a{}</style>",
    "<script>x</scripts>", "<script>", "</script>", "<script>q</SCRIPT >", "<style></style>",
])
_fragment = st.one_of(_open_tag, _close_tag, _chars, _oddments)
_page = st.lists(_fragment, max_size=40).map("".join)
# nested pages with a slip: an element may close under another element's
# name (an ancestor's, which closes several at once, or one not open at
# all) or not close; text sits between the tags
_misnested_page = st.recursive(
    st.sampled_from(["x", " y ", "z z", "&amp;", ""]),
    lambda inner: st.builds(
        lambda n, kids, close: f"<{n}>{''.join(kids)}" + (
            f"</{n}>" if close == "own" else f"</{close}>" if close else ""),
        st.sampled_from(["p", "a", "main", "nav", "b", "div"]),
        st.lists(inner, max_size=4),
        st.sampled_from(["own", "own", "own", "", "p", "a", "main", "nav"])),
    max_leaves=20,
)
# a script or style element between well-nested parts, closed or not, its
# content holding '<', quotes, a '</script' that is no tag, or a tag
_raw_text_page = st.builds(
    lambda before, tag, content, close, after: f"{before}<{tag}>{content}{close}{after}",
    st.sampled_from(["", "<p>x</p>", "<main><p>y z</p></main>"]),
    st.sampled_from(["script", "style", "SCRIPT"]),
    st.lists(st.sampled_from(list("ab <>/\"'=") + ["</script", "</style", "<br>"]),
             max_size=8).map("".join),
    st.sampled_from(["</script>", "</style>", "</SCRIPT x>", "</scripts>", "<br>", "", "</p>"]),
    st.sampled_from(["", "tail", "<p>after</p>", " <br> tail"]),
)
# well-formed pages that take the batch path, to mix with the malformed ones
_nested_page = st.recursive(
    _chars.map(lambda t: t.replace("<", "").replace("\x01", "")),
    lambda inner: st.builds(lambda n, a, kids: f"<{n}{a}>{''.join(kids)}</{n}>",
                            st.sampled_from(["p", "div", "a", "main", "nav", "b", "li"]),
                            st.sampled_from(["", " class='c'", ' t="a > b"']),
                            st.lists(inner, max_size=4)),
    max_leaves=20,
)


class TestBatchScannerProperties:
    """The batch scanner gives every page ``_FastScanner``'s blocks, whether
    it scans the page itself or hands it to ``_FastScanner``."""

    @staticmethod
    def _key(blocks):
        return [(b.text, b.link_chars, b.words, b.in_content, b.in_boiler) for b in blocks]

    @settings(max_examples=300, deadline=None)
    @given(pages=st.lists(st.one_of(_page, _nested_page, _misnested_page, _raw_text_page), min_size=1, max_size=6))
    def test_blocks_equal_fast_scanner(self, pages: list[str]):
        from ai_pdf_extraction_ray.stages.html_extract import _FastScanner, parse_blocks_batch

        got = parse_blocks_batch(pages)
        assert [self._key(b) for b in got] == [
            self._key(_FastScanner().scan(p)) for p in pages]

    @settings(max_examples=100, deadline=None)
    @given(pages=st.lists(st.one_of(_page, _nested_page, _misnested_page, _raw_text_page), min_size=2, max_size=6))
    def test_mixed_batch_gives_each_page_its_own_blocks(self, pages: list[str]):
        from ai_pdf_extraction_ray.stages.html_extract import parse_blocks_batch

        together = parse_blocks_batch(pages)
        for page, blocks in zip(pages, together):
            assert self._key(blocks) == self._key(parse_blocks_batch([page])[0])

    @settings(max_examples=100, deadline=None)
    @given(pages=st.lists(st.one_of(_page, _nested_page, _misnested_page, _raw_text_page), min_size=1, max_size=6))
    def test_records_equal_extract_html(self, pages: list[str]):
        from ai_pdf_extraction_ray.stages.html_extract import extract_html_batch

        payloads = [p.encode("utf-8") for p in pages]
        assert extract_html_batch(payloads) == [extract_html(p) for p in payloads]


class TestPdfRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(doc_id=st.integers(min_value=0, max_value=10_000), text=_pdf_text)
    def test_extract_recovers_pdf_text(self, doc_id: int, text: str):
        rec = extract_pdf(build_pdf(doc_id, text))
        assert rec["error"] is None
        assert rec["text"] == text

    @settings(max_examples=30, deadline=None)
    @given(paras=st.lists(_pdf_text, min_size=1, max_size=5))
    def test_multipage_pages_in_order(self, paras: list[str]):
        rec = extract_pdf(build_multipage_pdf(1, paras))
        assert rec["text"] == "\n\n".join(paras)


class TestScalarProperties:
    @settings(max_examples=200, deadline=None)
    @given(cents=st.integers(min_value=0, max_value=10**12))
    def test_currency_format_parse_roundtrip(self, cents: int):
        s = f"${cents // 100:,}.{cents % 100:02d}"
        assert parse_currency(s) == cents / 100.0

    @settings(max_examples=100, deadline=None)
    @given(
        y=st.integers(min_value=1000, max_value=9999),
        m=st.integers(min_value=1, max_value=12),
        d=st.integers(min_value=1, max_value=28),
    )
    def test_date_iso_roundtrip(self, y: int, m: int, d: int):
        iso = f"{y:04d}-{m:02d}-{d:02d}"
        assert parse_date(iso) == iso
        assert parse_date(f"{m:02d}/{d:02d}/{y:04d}") == iso  # US precedence

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        b=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_rule_true_equations_always_pass(self, a: float, b: float):
        ok, _, _ = evaluate_rule("t == a + b", {"a": a, "b": b, "t": a + b})
        assert ok

    @settings(max_examples=100, deadline=None)
    @given(junk=st.text(max_size=40))
    def test_parsers_never_raise(self, junk: str):
        parse_currency(junk)
        parse_date(junk)


class TestGeneratorDeterminism:
    @settings(max_examples=20, deadline=None)
    @given(doc_id=st.integers(min_value=0, max_value=100_000), text=_text)
    def test_pages_batch_pure(self, doc_id: int, text: str):
        import pyarrow as pa

        batch = pa.table({
            "doc_id": pa.array([doc_id], pa.int64()),
            "text": pa.array([text], pa.string()),
            "lang": pa.array(["en"], pa.string()),
        })
        assert synthesize_pages_batch(batch).equals(synthesize_pages_batch(batch))


class TestClusterPairsProperties:
    """Union-find vs brute-force transitive closure on random edge sets."""

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                    min_size=0, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_closure(self, edges: list[tuple[int, int]]):
        import pandas as pd

        from ai_pdf_extraction_ray.stages.dedup import cluster_pairs

        edges = [(a, b) for a, b in edges if a != b]
        label, size = cluster_pairs(pd.DataFrame({
            "doc_a": [a for a, _ in edges],
            "doc_b": [b for _, b in edges]}))
        # brute force: repeated relaxation until fixpoint
        nodes = {n for e in edges for n in e}
        ref = {n: n for n in nodes}
        changed = True
        while changed:
            changed = False
            for a, b in edges:
                lo = min(ref[a], ref[b])
                for n in (a, b):
                    if ref[n] != lo:
                        # relabel the whole component, not just the endpoint
                        old = ref[n]
                        for k in ref:
                            if ref[k] == old:
                                ref[k] = lo
                        changed = True
        assert label == ref
        from collections import Counter

        assert size == Counter(ref.values())


class TestBloomProperties:
    @given(st.lists(st.integers(-2**40, 2**40), min_size=0, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_never_false_negative(self, keys: list[int]):
        import numpy as np

        from ai_pdf_extraction_ray.functions.bloom import BloomFilter

        bf = BloomFilter()
        arr = np.array(keys, dtype=np.int64) if keys else np.array([], dtype=np.int64)
        bf.add_many(arr)
        if keys:
            assert bf.contains_many(arr).all()

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200),
           st.lists(st.integers(0, 10**6), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_union_build(self, ka: list[int], kb: list[int]):
        import numpy as np

        from ai_pdf_extraction_ray.functions.bloom import BloomFilter

        a, b, u = BloomFilter(), BloomFilter(), BloomFilter()
        a.add_many(np.array(ka, dtype=np.int64))
        b.add_many(np.array(kb, dtype=np.int64))
        u.add_many(np.array(ka + kb, dtype=np.int64))
        a.merge(b)
        assert (a.bits == u.bits).all()
