"""CLI entry points — the ``ray job submit`` surface.

Usage (each owns its Ray session; the driver contract in __ray_entry__.py
never goes through here):

    python -m ai_pdf_extraction_ray extract --input DIR --output DIR [--schema FILE]
    python -m ai_pdf_extraction_ray query NAME [--sf-dir DIR]
    python -m ai_pdf_extraction_ray export --input DIR --output FILE --format csv|json
    python -m ai_pdf_extraction_ray discover [--sf-dir DIR]

``extract`` is the resumable batch job (shard manifests; re-run to resume).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_init(num_cpus: int | None) -> None:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def _load_schema(path: str | None):
    from .pipelines.queries import INVOICE_SCHEMA
    from .schema import SchemaDefinition

    if path is None:
        return INVOICE_SCHEMA
    with open(path, encoding="utf-8") as f:
        return SchemaDefinition.from_dict(json.load(f))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="ai_pdf_extraction_ray")
    parser.add_argument("--num-cpus", type=int, default=None)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_extract = sub.add_parser("extract", help="resumable batch extraction")
    p_extract.add_argument("--input", required=True, help="dir with documents.parquet (or parquet files)")
    p_extract.add_argument("--output", required=True)
    p_extract.add_argument("--schema", default=None, help="schema json file")
    p_extract.add_argument("--no-resume", action="store_true")
    p_extract.add_argument("--repair", action="store_true",
                           help="append the rule-driven completion stage")

    p_query = sub.add_parser("query", help="run a catalog query")
    p_query.add_argument("name")
    p_query.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    p_query.add_argument("--limit", type=int, default=20)

    p_export = sub.add_parser("export", help="export extraction results")
    p_export.add_argument("--input", required=True, help="sf dir to extract from")
    p_export.add_argument("--output", required=True)
    p_export.add_argument("--format", choices=["csv", "json"], default="csv")
    p_export.add_argument("--schema", default=None)

    p_disc = sub.add_parser("discover", help="infer a schema from a sample")
    p_disc.add_argument("--sf-dir", default="/root/testdata/sf0.01")

    args = parser.parse_args(argv)
    _ray_init(args.num_cpus)
    import ray

    try:
        if args.cmd == "extract":
            from .pipelines.extract_pipeline import extract_job

            inp = args.input
            files = (
                [os.path.join(inp, "documents.parquet")]
                if os.path.isdir(inp) else [inp]
            )
            manifests = extract_job(
                files, args.output, _load_schema(args.schema),
                resume=not args.no_resume, repair=args.repair,
            )
            print(json.dumps(manifests, indent=2))
        elif args.cmd == "query":
            from .pipelines.queries import QUERIES
            from .stages.dedup import collect_table

            if args.name not in QUERIES:
                print(f"unknown query {args.name!r}; available: {sorted(QUERIES)}",
                      file=sys.stderr)
                return 2
            # collect_table keeps the columns of a zero-row result
            df = collect_table(QUERIES[args.name]["fn"](args.sf_dir)).to_pandas()
            print(df.head(args.limit).to_string())
            print(f"... {len(df)} rows")
        elif args.cmd == "export":
            from .pipelines.exports import export_csv, export_json
            from .pipelines.extract_pipeline import pages_dataset, run_extraction

            schema = _load_schema(args.schema)
            ext = run_extraction(pages_dataset(args.input), schema)
            if args.format == "csv":
                n = export_csv(ext, schema, args.output)
                print(f"wrote {n} rows to {args.output}")
            else:
                env = export_json(ext, schema, args.output)
                print(f"wrote {env['total_documents']} results to {args.output}")
        elif args.cmd == "discover":
            from .pipelines.extract_pipeline import pages_dataset
            from .stages.discovery import discover_schema

            schema = discover_schema(pages_dataset(args.sf_dir))
            print(json.dumps(schema.to_dict(), indent=2))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
