"""Local stand-in for the driver's correctness gate.

Runs every ``queries()`` entry at sf0.01 and compares against
``oracle_sql()`` via DuckDB: row count, column names, and an
order-insensitive value comparison (sorted by all columns).

Usage: python tools/check_oracles.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys
from pathlib import Path

import duckdb
import pandas as pd

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))
# Ray workers import kernels by module reference and do NOT see the
# driver's sys.path — propagate via env BEFORE ray.init (review finding;
# same note as __ray_entry__.py)
import os

os.environ["PYTHONPATH"] = (
    f"{REPO}{os.pathsep}{os.environ['PYTHONPATH']}"
    if os.environ.get("PYTHONPATH") else str(REPO))

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    # Sort by non-float (key) columns only: float aggregates can differ by
    # sub-tolerance ulps between engines and must not drive row order.
    # Within each group of rows TIED on every key column, each float column
    # is then sorted independently — the downstream positional allclose
    # thereby compares key-tied float values as a multiset with tolerance.
    # (Snapping floats to a rounding grid, the previous scheme, still
    # cross-paired sub-tolerance values that straddle a grid boundary —
    # advisor round-4 finding; no fixed grid can avoid that.)
    keys = [c for c in df.columns if df[c].dtype.kind != "f"]
    floats = [c for c in df.columns if df[c].dtype.kind == "f"]
    if keys:
        df = df.sort_values(by=keys, kind="mergesort").reset_index(drop=True)
    else:
        df = df.reset_index(drop=True)
    if floats and len(df):
        if keys:
            # group by string repr: matches the astype(str) equality the
            # key-column compare itself uses, and stays hashable for
            # object columns holding lists
            gid = df.groupby([df[c].astype(str) for c in keys],
                             sort=False, dropna=False).ngroup()
        else:
            gid = pd.Series(0, index=df.index)
        for c in floats:
            df[c] = df.groupby(gid)[c].transform(
                lambda s: s.sort_values(na_position="last").to_numpy())
    return df


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        problems.append(f"columns: ray={sorted(ray_df.columns)} sql={sorted(sql_df.columns)}")
        return problems
    if len(ray_df) != len(sql_df):
        problems.append(f"rows: ray={len(ray_df)} sql={len(sql_df)}")
    a, b = canon(ray_df), canon(sql_df)
    if len(a) == len(b):
        for col in a.columns:
            av, bv = a[col], b[col]
            try:
                if av.dtype.kind == "f" or bv.dtype.kind == "f":
                    import numpy as np

                    if not np.allclose(
                        av.astype(float), bv.astype(float), rtol=0, atol=1e-9, equal_nan=True
                    ):
                        problems.append(f"values differ in float col {col}")
                elif not av.astype(str).equals(bv.astype(str)):
                    problems.append(f"values differ in col {col}")
            except Exception as e:  # noqa: BLE001
                problems.append(f"compare error col {col}: {e}")
    return problems


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():  # noqa: SIM108 — shutdown in main()'s caller
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod
    from ai_pdf_extraction_ray.stages.dedup import collect_table

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    unknown = only - set(qs)
    if unknown:
        # a typo'd filter must not report silent success from the gate
        print(f"ERR  unknown query name(s): {sorted(unknown)}")
        return 2

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        import time

        t0 = time.perf_counter()
        try:
            ray_df = collect_table(fn(sf_dir)).to_pandas()
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: ray error: {type(e).__name__}: {e}")
            failures += 1
            continue
        wall = time.perf_counter() - t0
        if name not in sqls:
            print(f"ok   {name}: rows={len(ray_df)} ({wall:.1f}s) [rows-only, no oracle]")
            continue
        try:
            sql_df = con.execute(sqls[name]).df()
        except Exception as e:  # noqa: BLE001 — one bad oracle must not
            # abort the sweep (the per-query FAIL report is the product)
            print(f"FAIL {name}: sql error: {type(e).__name__}: {e}")
            failures += 1
            continue
        problems = compare(name, ray_df, sql_df)
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)} ({wall:.1f}s)")
            failures += 1
        else:
            print(f"ok   {name}: rows={len(ray_df)} ({wall:.1f}s)")
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        rc = main()
    finally:
        # shutdown even when a query/oracle raised — a leaked local Ray
        # session can hang the NEXT ray.init(address="local") process
        import ray as _ray

        if _ray.is_initialized():
            _ray.shutdown()
    sys.exit(rc)
