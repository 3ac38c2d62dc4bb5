"""functions/fasthash.py: the vectorized 64-bit hash kernel shared by the
MinHash/SimHash/HLL/sampling stages (replaced the per-token md5 loops)."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from ai_pdf_extraction_ray.functions.fasthash import (
    fold_rows,
    hash64_ints,
    hash64_strs,
    shingle_hashes64,
    splitmix64,
    token_hashes64,
)
from ai_pdf_extraction_ray.functions.tokenize import PY_WS_CHARS
from tests.conftest import REPO_ROOT, SF_CORRECT, SF_SMOKE


class TestSplitmix:
    def test_reference_vector(self):
        """Pin the finalizer against a scalar big-int reference
        implementation (so any constant/shift drift is caught)."""
        def ref(x: int) -> int:
            m = (1 << 64) - 1
            z = x & m
            z ^= z >> 30
            z = (z * 0xBF58476D1CE4E5B9) & m
            z ^= z >> 27
            z = (z * 0x94D049BB133111EB) & m
            z ^= z >> 31
            return z

        xs = np.array([0, 1, 2, 42, 2**63, 2**64 - 1], dtype=np.uint64)
        out = splitmix64(xs)
        assert [int(v) for v in out] == [ref(int(x)) for x in xs]

    def test_sql_restatement_matches(self):
        """The DuckDB HUGEINT restatement used by the hash_sample /
        dataset_split / curation_splits oracles is bit-exact vs numpy."""
        import duckdb

        from ai_pdf_extraction_ray.pipelines.queries import _splitmix_hv_sql

        ids = np.arange(0, 2000, dtype=np.int64)
        py = hash64_ints(ids)
        con = duckdb.connect()
        con.execute("create table t as select unnest(range(0, 2000)) as doc_id")
        rows = con.execute(
            f"SELECT {_splitmix_hv_sql('doc_id')} AS hv FROM t ORDER BY doc_id"
        ).fetchall()
        sq = np.array([int(r[0]) for r in rows], dtype=np.uint64)
        assert (sq == py).all()


class TestTokenShingleHashes:
    def test_token_hashes_deterministic_and_positional(self):
        h = token_hashes64("aa bb aa cc")
        assert len(h) == 4
        assert h[0] == h[2] and h[0] != h[1] and h[1] != h[3]
        # same token in a different document hashes identically
        assert token_hashes64("zz aa")[1] == h[0]

    def test_token_hash_ignores_surrounding_whitespace_and_case(self):
        assert (token_hashes64("  Foo\tBar\n") == token_hashes64("foo bar")).all()

    def test_shingles_match_scalar_definition(self):
        """Shingle hash == hash of the ' '-joined k-gram (cross-document
        stability — the property MinHash/Jaccard depend on)."""
        a = shingle_hashes64("x y z w", 2)
        b = shingle_hashes64("q r x y", 2)
        assert len(np.intersect1d(a, b)) == 1  # shared "x y"
        assert len(a) == 3 and len(a) == len(np.unique(a))

    def test_shingles_shorter_than_k_empty(self):
        assert len(shingle_hashes64("one two", 3)) == 0
        assert len(shingle_hashes64("", 3)) == 0

    def test_no_collisions_over_many_tokens(self):
        h = token_hashes64(" ".join(f"tok{i}" for i in range(50_000)))
        assert len(np.unique(h)) == 50_000

    def test_bit_balance(self):
        h = token_hashes64(" ".join(f"w{i}" for i in range(20_000)))
        bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1))
        balance = bits.mean(axis=0)
        assert balance.min() > 0.45 and balance.max() < 0.55


class TestValueHashes:
    def test_str_hashes(self):
        h = hash64_strs(["abc", "abd", "", "abc"])
        assert h[0] == h[3] and h[0] != h[1] and h[2] != h[0]

    def test_int_hashes(self):
        h = hash64_ints(np.array([1, 2, 3, 1], dtype=np.int64))
        assert h[0] == h[3] and len(np.unique(h)) == 3

    def test_int_str_cross_stability(self):
        """int and str paths are independent hash families (no accidental
        equality contract) but each is internally deterministic."""
        assert (hash64_ints(np.arange(5)) == hash64_ints(np.arange(5))).all()
        assert (hash64_strs(list("abcde")) == hash64_strs(list("abcde"))).all()


class TestFoldRows:
    def test_fold_distinguishes_rows_and_order(self):
        m = np.array([[1, 2], [1, 2], [2, 1], [3, 4]], dtype=np.uint64)
        f = fold_rows(m)
        assert f[0] == f[1]
        assert f[0] != f[2]  # order-dependent
        assert f[0] != f[3]

    def test_empty(self):
        assert len(fold_rows(np.empty((0, 4), dtype=np.uint64))) == 0


class TestPolyMersenne:
    """The structurally-different second digest half (mod 2^61-1) that
    replaced the second mod-2^64 polynomial in hash128_strs (advisor
    round-4 finding: Thue-Morse pairs collide for EVERY odd base mod
    2^64, so two mod-2^64 halves fail simultaneously)."""

    P = (1 << 61) - 1

    def _slow_span(self, data, l, r, poly) -> int:
        """Scalar bignum reference: base-Binv polynomial of the span mod
        p, then splitmix64(poly ^ len*salt) — the exact contract of
        _PolyMersenne.span_hashes."""
        binv = pow(poly.base_int, self.P - 2, self.P)
        h = 0
        for k, j in enumerate(range(l, r)):
            h = (h + int(data[j]) * pow(binv, k, self.P)) % self.P
        x = (h ^ ((r - l) * int(poly.len_salt))) & ((1 << 64) - 1)
        return int(splitmix64(np.array([x], dtype=np.uint64))[0])

    def test_matches_bignum_reference_on_overlapping_spans(self):
        from ai_pdf_extraction_ray.functions.fasthash import _MPOLY

        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, size=300).astype(np.uint64)
        starts = rng.integers(0, 250, size=40)
        ends = starts + rng.integers(0, 50, size=40)  # overlapping + empty
        got = _MPOLY.span_hashes(data, starts.astype(np.int64),
                                 ends.astype(np.int64))
        for i in range(len(starts)):
            assert int(got[i]) == self._slow_span(
                data, int(starts[i]), int(ends[i]), _MPOLY)

    def test_mulmod_matches_bignum(self):
        from ai_pdf_extraction_ray.functions.fasthash import _mulmod61

        rng = np.random.default_rng(11)
        a = rng.integers(0, self.P, size=2000).astype(np.uint64)
        b = rng.integers(0, self.P, size=2000).astype(np.uint64)
        # include boundary operands
        a[:3] = [0, 1, self.P - 1]
        b[:3] = [self.P - 1, self.P - 1, self.P - 1]
        got = _mulmod61(a, b)
        for i in range(len(a)):
            assert int(got[i]) == (int(a[i]) * int(b[i])) % self.P

    @staticmethod
    def _thue_morse_pair(k: int = 11) -> tuple[str, str]:
        s, t = "a", "b"
        for _ in range(k):
            s, t = s + t, t + s
        return s, t

    def test_thue_morse_breaks_two_mod64_halves_but_not_the_pair(self):
        """The attack the advisor described: at length 2^11 the Thue-Morse
        pair collides under a polynomial mod 2^64 for EVERY odd base —
        both old halves at once. The Mersenne half separates it."""
        from ai_pdf_extraction_ray.functions.fasthash import (
            _MPOLY, _Poly, _POLY1, _str_buffer)

        s, t = self._thue_morse_pair()
        old_second = _Poly(0xC2B2AE3D27D4EB4F, 0xA0761D6478BD642F)
        for text_pair in ((s, t),):
            data, starts, ends = _str_buffer(list(text_pair))
            h1 = _POLY1.span_hashes(data, starts, ends)
            h2 = old_second.span_hashes(data, starts, ends)
            hm = _MPOLY.span_hashes(data, starts, ends)
            assert h1[0] == h1[1], "TM pair should collide mod 2^64 (base 1)"
            assert h2[0] == h2[1], "TM pair should collide mod 2^64 (base 2)"
            assert hm[0] != hm[1], "Mersenne half must separate the TM pair"

    def test_hash128_strs_second_half_is_mersenne(self):
        from ai_pdf_extraction_ray.functions.fasthash import (
            _MPOLY, _str_buffer, hash128_strs)

        vals = ["", "x", "hello world", "hello world", "HELLO WORLD"]
        hi, lo = hash128_strs(vals)
        data, starts, ends = _str_buffer(vals)
        assert (lo == _MPOLY.span_hashes(data, starts, ends)).all()
        assert hi[2] == hi[3] and lo[2] == lo[3]
        assert (hi[2], lo[2]) != (hi[4], lo[4])


def _reference_windows(texts, width: int, stride: int) -> list[tuple]:
    """``token_windows`` restated one document at a time over
    ``token_spans``: (row, index, start, end, dh, dl) per window."""
    from ai_pdf_extraction_ray.functions.fasthash import (
        _MPOLY, _POLY1, token_spans)

    out = []
    for row, text in enumerate(texts):
        data, starts, ends = token_spans(text or "")
        n = len(starts)
        if stride == width:
            n_win = max(1, -(-n // width))
        else:
            n_win = max(1, -(-(n - width + 1) // stride))
        for j in range(n_win):
            s, e = j * stride, min(j * stride + width, n)
            span = ((np.array([starts[s]]), np.array([ends[e - 1]]))
                    if e > s else (np.zeros(1, np.int64),) * 2)
            out.append((row, j + 1, s, e,
                        int(_POLY1.span_hashes(data, *span).view(np.int64)[0]),
                        int(_MPOLY.span_hashes(data, *span).view(np.int64)[0])))
    return out


def _rows(w) -> list[tuple]:  # noqa: ANN001 — TokenWindows
    return list(zip(*(col.tolist() for col in w)))


SHAPES = [(20, 20), (20, 5), (3, 1)]


class TestTokenWindows:
    """The one batch window kernel gives every window, and every digest,
    that hashing each document alone would."""

    @pytest.fixture(scope="class", params=[SF_SMOKE, SF_CORRECT])
    def corpus(self, request) -> list:
        import pyarrow.parquet as pq

        return pq.read_table(f"{request.param}/documents.parquet",
                             columns=["text"]).column("text").to_pylist()

    @pytest.mark.parametrize("width,stride", SHAPES)
    def test_matches_per_document_reference(self, corpus, width, stride):
        from ai_pdf_extraction_ray.functions.fasthash import token_windows

        assert _rows(token_windows(corpus, width, stride)) == \
            _reference_windows(corpus, width, stride)

    def test_full_3_windows_are_the_shingles(self, corpus):
        from ai_pdf_extraction_ray.functions.fasthash import token_windows
        from ai_pdf_extraction_ray.stages.dedup import shingles

        w = token_windows(corpus, 3, 1)
        full = w.end - w.start == 3
        for row, text in enumerate(corpus):
            got = np.unique(w.dh[full & (w.row == row)].view(np.uint64))
            assert np.array_equal(got, shingles(text or "", 3))

    EDGE = [None, "", "   \t\n ", "İstanbul ΣΟΦΙΑ ΟΔΟΣ", "a İ Σ b ς",
            "x" + "".join(f"{c}w{i}" for i, c in enumerate(PY_WS_CHARS))]

    @pytest.mark.parametrize("width,stride", SHAPES)
    def test_edge_texts(self, width, stride):
        from ai_pdf_extraction_ray.functions.fasthash import token_windows

        sized = [" ".join(f"t{i}" for i in range(n))
                 for n in (width - 1, width, width + 1)]
        texts = self.EDGE + sized
        assert _rows(token_windows(texts, width, stride)) == \
            _reference_windows(texts, width, stride)

    def test_window_counts(self):
        """Tiling keeps the short tail; sliding keeps full windows only; a
        text shorter than the width is one short window; no tokens is one
        empty window."""
        from ai_pdf_extraction_ray.functions.fasthash import token_windows

        texts = [" ".join("abcdefg"[:n]) for n in (0, 2, 5, 7)]
        tile = token_windows(texts, 3, 3)
        assert np.bincount(tile.row).tolist() == [1, 1, 2, 3]
        assert tile.end[tile.row == 3].tolist() == [3, 6, 7]
        slide = token_windows(texts, 3, 1)
        assert np.bincount(slide.row).tolist() == [1, 1, 3, 5]
        assert (slide.start[0], slide.end[0]) == (0, 0)

    def test_all_empty_batch_hashes_its_empty_windows(self):
        from ai_pdf_extraction_ray.functions.fasthash import token_windows

        w = token_windows([None, "", " 　 "], 20, 5)
        assert w.row.tolist() == [0, 1, 2]
        assert w.index.tolist() == [1, 1, 1]
        assert len(set(zip(w.dh.tolist(), w.dl.tolist()))) == 1
        assert _rows(w) == _reference_windows([None, "", " 　 "], 20, 5)

    def test_empty_batch(self):
        from ai_pdf_extraction_ray.functions.fasthash import token_windows

        assert all(len(col) == 0 for col in token_windows([], 20, 20))

    def test_mersenne_refuses_a_2gib_buffer(self):
        """The mod-p prefix sums are exact below 2^31 bytes; a larger
        batch buffer raises before any work (a zero-stride view stands in
        for the buffer)."""
        from ai_pdf_extraction_ray.functions.fasthash import _MPOLY

        data = np.broadcast_to(np.uint64(0), (1 << 31,))
        one = np.zeros(1, np.int64)
        with pytest.raises(ValueError):
            _MPOLY.span_hashes(data, one, one)


class TestSingleWindowSite:
    """Token windows and their digests come only from
    ``fasthash.token_windows``: the queries module reaches none of the
    span-hash internals."""

    BANNED = {"token_spans", "span_hashes", "_POLY1", "_MPOLY"}

    @classmethod
    def stray(cls, path: Path) -> list[int]:
        """Lines of ``path`` that import or name a banned span-hash
        internal."""
        lines = []
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            if names & cls.BANNED:
                lines.append(node.lineno)
        return sorted(set(lines))

    def test_queries_use_only_token_windows(self):
        queries = REPO_ROOT / "ai_pdf_extraction_ray" / "pipelines" / "queries.py"
        assert self.stray(queries) == []

    def test_guard_flags_a_direct_import(self, tmp_path):
        src = tmp_path / "q.py"
        src.write_text("def f(t):\n"
                       "    from x import _MPOLY, _POLY1, token_spans\n"
                       "    return _POLY1.span_hashes(*token_spans(t))\n")
        assert self.stray(src) == [2, 3]
