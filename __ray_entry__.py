"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module:
nothing here (or in the library) calls ``ray.init()``/``ray.shutdown()``.

- ``entry()``      — flagship pipeline at sf0.001 (smoke check)
- ``queries()``    — one callable per implemented operator (SURVEY.md §2)
- ``oracle_sql()`` — DuckDB-equivalent SQL per query where SQL-expressible

NOTE: Ray WORKER processes must also be able to import
``ai_pdf_extraction_ray`` — run the driver with cwd=/root/repo (or the repo
on PYTHONPATH before ``ray.init``). A driver-side ``sys.path`` insert alone
reaches only the driver process; task stages deserialize the kernel
instances by module reference inside workers.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

_REPO = Path(__file__).resolve().parent
if str(_REPO) not in sys.path:
    sys.path.insert(0, str(_REPO))

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship: pages -> extraction tasks -> validated records."""
    from ai_pdf_extraction_ray.pipelines.extract_pipeline import (
        pages_dataset,
        run_extraction,
    )
    from ai_pdf_extraction_ray.pipelines.queries import INVOICE_SCHEMA

    ext = run_extraction(pages_dataset(SF_SMOKE), INVOICE_SCHEMA)
    # spans is list<struct> — drop nested columns for a stable, hashable
    # smoke schema; the full schema is exercised by tests and queries().
    return ext.select_columns([
        "url", "host", "payload_sha256", "kind", "text", "confidence",
        "n_blocks", "error", "field_invoice_number", "field_total_amount",
    ])


def queries() -> dict[str, Callable[[str], Any]]:
    from ai_pdf_extraction_ray.pipelines.queries import QUERIES

    return {name: spec["fn"] for name, spec in QUERIES.items()}


def oracle_sql() -> dict[str, str]:
    from ai_pdf_extraction_ray.pipelines.queries import QUERIES

    return {
        name: spec["sql"]
        for name, spec in QUERIES.items()
        # truthiness, not `is not None`: a missing golden falls back to ""
        # in a couple of entries, and an empty-string oracle must become a
        # rows-only check, not a DuckDB parse error (review finding)
        if spec.get("sql")
    }
