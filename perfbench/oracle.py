"""Catalog results against their DuckDB ``oracle_sql`` twins.

The comparison is order-insensitive: same column names, same row count,
rows sorted by every non-float column (key-tied float values compared as a
sorted multiset).

Float columns are equal within ``ATOL``, except a column the oracle rounds
to ``d`` decimals (1 <= d <= ``MAX_DECIMALS``; every value a multiple of
10**-d and not every value an integer): there the library's value may differ
by one unit of the d-th decimal. The library rounds float sums whose last
bits depend on the order rows arrive in, so a sum within float error of a
half unit (cent sums in ``pricing_summary``, say) rounds one way on one row
permutation and the other way in DuckDB. The allowed difference is 1.5
units, so float error in the subtraction never counts; two units fail.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


ATOL = 1e-9
MAX_DECIMALS = 6


def to_frame(result) -> pd.DataFrame:  # noqa: ANN001 — Dataset | Table | DataFrame
    if isinstance(result, pd.DataFrame):
        return result
    return result.to_pandas()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    keys = [c for c in df.columns if df[c].dtype.kind != "f"]
    floats = [c for c in df.columns if df[c].dtype.kind == "f"]
    df = (df.sort_values(by=keys, kind="mergesort") if keys else df).reset_index(drop=True)
    if floats and keys and len(df):
        group = df.groupby([df[c].astype(str) for c in keys], sort=False,
                           dropna=False).ngroup()
        for c in floats:
            df[c] = df.groupby(group)[c].transform(
                lambda s: s.sort_values(na_position="last").to_numpy())
    elif floats:
        for c in floats:
            df[c] = np.sort(df[c].to_numpy())
    return df


def rounding_unit(values: np.ndarray) -> float:
    """One unit of the last decimal ``values`` are rounded to, or 0 when
    they are integers or not rounded to at most MAX_DECIMALS decimals."""
    v = values[np.isfinite(values)]
    for d in range(MAX_DECIMALS + 1):
        scaled = v * 10.0 ** d
        if np.all(np.abs(scaled - np.rint(scaled)) <= 1e-3):
            return 10.0 ** -d if d else 0.0
    return 0.0


def differences(got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    """Empty when ``got`` equals ``want`` as a multiset of rows."""
    if sorted(got.columns) != sorted(want.columns):
        return [f"columns {sorted(got.columns)} != {sorted(want.columns)}"]
    if len(got) != len(want):
        return [f"rows {len(got)} != {len(want)}"]
    a, b = _canon(got), _canon(want)
    out = []
    for col in a.columns:
        if a[col].dtype.kind == "f" or b[col].dtype.kind == "f":
            want_f = b[col].astype(float).to_numpy()
            atol = max(ATOL, 1.5 * rounding_unit(want_f))
            same = np.allclose(a[col].astype(float).to_numpy(), want_f,
                               rtol=0, atol=atol, equal_nan=True)
        else:
            same = a[col].astype(str).equals(b[col].astype(str))
        if not same:
            out.append(f"values differ in {col}")
    return out


class Oracle:
    """DuckDB views over one directory of generated parquet tables."""

    def __init__(self, table_dir: str, tables: list[str]) -> None:
        import duckdb

        self.con = duckdb.connect()
        for t in tables:
            self.con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{table_dir}/{t}.parquet')")

    def run(self, sql: str) -> pd.DataFrame:
        return self.con.execute(sql).df()

    def close(self) -> None:
        self.con.close()
