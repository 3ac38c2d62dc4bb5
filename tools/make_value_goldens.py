"""Generate pinned value-level oracles for non-SQL-expressible queries.

For kernels DuckDB cannot restate (md5-seeded SimHash banding, the 61-bit
rolling-hash fingerprint, HyperLogLog register estimates, sample-trained IVF
probes, the discovery classifier), the driver's value gate is closed with a
COMMITTED GOLDEN: the query's full result at the driver's correctness scale
(sf0.01), embedded as a ``SELECT * FROM (VALUES ...)`` oracle. The golden is
a regression pin — correctness of the underlying kernels is established by
the unit tests with planted/analytic ground truth (tests/test_dedup_similarity.py,
tests/test_multimodal.py, tests/test_exports_repair_merge.py); the golden
then guarantees the driver detects ANY value drift.

Usage: python tools/make_value_goldens.py   (regenerate after an intentional
kernel change; pair with the committed goldens in pipelines/goldens.py)
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pandas as pd

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))

SF_DIR = "/root/testdata/sf0.01"

GOLDEN_QUERIES = [
    "compression_ratio",
    "discovered_schema",
    "fingerprints",
    "approx_distinct_users",
    "simhash_near_dups",
    "knn_ivf",
    "embedding_near_dups_lsh",
    "export_csv_check",
    "export_json_check",
]


def _sql_literal(v, dtype_kind: str) -> str:
    if v is None or (isinstance(v, float) and np.isnan(v)):
        return "NULL"
    if dtype_kind == "b":
        return "TRUE" if v else "FALSE"
    if dtype_kind in ("i", "u"):
        return str(int(v))
    if dtype_kind == "f":
        return repr(float(v))  # repr round-trips float64 exactly
    s = str(v).replace("'", "''")
    return f"'{s}'"


def _cast_for(kind: str) -> str:
    return {"b": "BOOLEAN", "i": "BIGINT", "u": "BIGINT",
            "f": "DOUBLE"}.get(kind, "VARCHAR")


def values_sql(df: pd.DataFrame) -> str:
    cols = list(df.columns)
    kinds = [df[c].dtype.kind for c in cols]
    rows = []
    for idx, (_, r) in enumerate(df.iterrows()):
        lits = [_sql_literal(r[c], k) for c, k in zip(cols, kinds)]
        if idx == 0:  # first-row casts type the whole VALUES relation
            lits = [f"CAST({lit} AS {_cast_for(k)})" for lit, k in zip(lits, kinds)]
        rows.append("(" + ", ".join(lits) + ")")
    body = ",\n            ".join(rows)
    names = ", ".join(cols)
    return f"SELECT * FROM (VALUES\n            {body}\n        ) AS t({names})"


def main() -> int:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ai_pdf_extraction_ray.pipelines.queries import QUERIES
    from ai_pdf_extraction_ray.stages.dedup import collect_table

    out: dict[str, str] = {}
    for name in GOLDEN_QUERIES:
        df = collect_table(QUERIES[name]["fn"](SF_DIR)).to_pandas()
        sort_cols = [c for c in df.columns if df[c].dtype.kind != "f"]
        df = df.sort_values(sort_cols or list(df.columns)).reset_index(drop=True)
        out[name] = values_sql(df)
        print(f"{name}: {len(df)} rows pinned")

    dest = REPO / "ai_pdf_extraction_ray" / "pipelines" / "goldens.py"
    with open(dest, "w") as f:
        f.write('"""Committed golden-value oracles (generated — do not hand-edit).\n\n')
        f.write(f"Pinned from the driver's correctness corpus ({SF_DIR}) by\n")
        f.write("tools/make_value_goldens.py. Valid ONLY at that scale — the driver\n")
        f.write("runs its value gate at sf0.01. See the generator docstring for why\n")
        f.write('these queries use pinned goldens instead of computed SQL.\n"""\n\n')
        f.write("GOLDEN_SQL: dict[str, str] = {\n")
        for name, sql in out.items():
            f.write(f'    "{name}": """\n        {sql}\n    """,\n')
        f.write("}\n")
    print(f"wrote {dest}")
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
