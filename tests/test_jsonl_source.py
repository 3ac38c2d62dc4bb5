"""JSONL source lane: normalization to the canonical documents schema."""

from __future__ import annotations

import json

import pytest


@pytest.mark.usefixtures("ray_session")
class TestJsonlSource:
    def _write(self, path, records):
        with open(path, "w") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")

    def test_normalizes_and_flags(self, tmp_path):
        from ai_pdf_extraction_ray.sources.jsonl import read_jsonl_corpus

        p = tmp_path / "corpus.jsonl"
        self._write(p, [
            {"doc_id": 1, "text": "hello world", "lang": "en", "source": "cc"},
            {"doc_id": 2, "text": "bonjour", "n_chars": 999},   # n_chars lies
            {"text": "no id record"},
            {"doc_id": 4, "text": ""},                           # empty
            {"doc_id": 5},                                       # missing text
        ])
        df = read_jsonl_corpus(str(p)).to_pandas().sort_values("doc_id")
        by_id = df.set_index("doc_id")
        assert by_id.loc[1, "lang"] == "en" and by_id.loc[1, "source"] == "cc"
        assert by_id.loc[2, "lang"] == "und"
        assert by_id.loc[2, "n_chars"] == len("bonjour")  # recomputed
        assert by_id.loc[4, "ingest_error"] == "empty_or_missing_text"
        assert by_id.loc[5, "ingest_error"] == "empty_or_missing_text"
        ok = df[df.ingest_error.isna()]
        assert len(ok) == 3
        # derived id is stable and non-negative
        derived = df[~df.doc_id.isin([1, 2, 4, 5])]
        assert len(derived) == 1 and (derived["doc_id"] >= 0).all()

    def test_malformed_file_becomes_error_row(self, tmp_path):
        """A file Arrow's JSON parser rejects must surface as ONE auditable
        ingest_error row, not abort the ingest task — the module's
        failure-is-data contract (advisor round-3 finding)."""
        from ai_pdf_extraction_ray.sources.jsonl import read_jsonl_corpus

        good = tmp_path / "good.jsonl"
        self._write(good, [{"doc_id": 1, "text": "fine record"}])
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": 2, "text": "unterminated\n{oops')
        df = read_jsonl_corpus(str(tmp_path)).to_pandas()
        errs = df[df.ingest_error.notna()]
        assert len(errs) == 1
        assert errs.iloc[0]["ingest_error"].startswith("malformed_json")
        assert errs.iloc[0]["doc_id"] >= 0
        ok = df[df.ingest_error.isna()]
        assert list(ok["doc_id"]) == [1]

    def test_derived_ids_deterministic_across_runs(self, tmp_path):
        from ai_pdf_extraction_ray.sources.jsonl import read_jsonl_corpus

        p = tmp_path / "c.jsonl"
        self._write(p, [{"text": f"record number {i}"} for i in range(20)])
        a = sorted(read_jsonl_corpus(str(p)).to_pandas()["doc_id"])
        b = sorted(read_jsonl_corpus(str(p)).to_pandas()["doc_id"])
        assert a == b
        assert len(set(a)) == 20

    def test_feeds_downstream_operators(self, tmp_path):
        """The normalized table drives the text operators unchanged."""
        from ai_pdf_extraction_ray.sources.jsonl import read_jsonl_corpus
        from ai_pdf_extraction_ray.stages.textstats import GopherSignals

        p = tmp_path / "c.jsonl"
        self._write(p, [{"doc_id": i, "text": "alpha beta gamma alpha"}
                        for i in range(5)])
        ds = read_jsonl_corpus(str(p)).map_batches(
            GopherSignals(), batch_format="pyarrow")
        df = ds.to_pandas()
        assert len(df) == 5
        assert (df["n_words"] == 4).all()


@pytest.mark.usefixtures("ray_session")
class TestDerivedIdDistinctness:
    def _write(self, path, records):
        with open(path, "w") as f:
            for r in records:
                f.write(json.dumps(r) + "\n")

    def test_error_rows_get_distinct_ids(self, tmp_path):
        """Missing-text rows must NOT collapse onto md5('') — metadata and
        file path discriminate them (advisor round-2 finding)."""
        from ai_pdf_extraction_ray.sources.jsonl import read_jsonl_corpus

        p = tmp_path / "c.jsonl"
        self._write(p, [{"lang": "en"}, {"lang": "fr"}, {"source": "x"}])
        df = read_jsonl_corpus(str(p)).to_pandas()
        assert (df["ingest_error"] == "empty_or_missing_text").all()
        assert df["doc_id"].nunique() == 3

    def test_identical_records_in_one_batch_get_distinct_ids(self, tmp_path):
        from ai_pdf_extraction_ray.sources.jsonl import read_jsonl_corpus

        p = tmp_path / "c.jsonl"
        self._write(p, [{"text": "same text"}] * 4)
        df = read_jsonl_corpus(str(p)).to_pandas()
        assert df["doc_id"].nunique() == 4

    def test_same_text_different_metadata_distinct(self, tmp_path):
        from ai_pdf_extraction_ray.sources.jsonl import read_jsonl_corpus

        p = tmp_path / "c.jsonl"
        self._write(p, [{"text": "t", "lang": "en"}, {"text": "t", "lang": "fr"}])
        df = read_jsonl_corpus(str(p)).to_pandas()
        assert df["doc_id"].nunique() == 2

    def test_non_numeric_doc_id_is_auditable_not_fatal(self, tmp_path):
        """A record with a string doc_id must keep its text, get a derived
        id, and carry an invalid_doc_id error row — int() on it killed the
        whole task before (review finding)."""
        from ai_pdf_extraction_ray.sources.jsonl import read_jsonl_corpus

        p = tmp_path / "c.jsonl"
        # uniformly string-typed ids: Arrow parses the column as string
        # (a MIXED id column fails the whole-file parse and correctly
        # takes the malformed_json lane instead)
        self._write(p, [
            {"doc_id": "a1", "text": "string id record"},
            {"doc_id": "a2", "text": "another"},
        ])
        df = (read_jsonl_corpus(str(p)).to_pandas()
              .sort_values("ingest_error").reset_index(drop=True))
        assert len(df) == 2
        assert (df.ingest_error.str.startswith("invalid_doc_id: a")).all()
        assert set(df.text) == {"string id record", "another"}
        assert (df.doc_id >= 0).all()
        assert df.doc_id.nunique() == 2
