"""Schema registry: persist SchemaDefinitions, list newest-first (O2).

Reference ``routers/schemas.py:114-118`` lists stored schemas ordered by
``created_at DESC`` from Postgres; here the registry is a directory of JSON
documents (one per schema name+version, atomically written), which is the
shape a Ray cluster shares via its artifact store. Listing is a driver-side
read — the registry is configuration-scale, never data-scale.
"""

from __future__ import annotations

import json
import os
import tempfile

import pyarrow as pa

from ..schema import SchemaDefinition


def save_schema(
    registry_dir: str, schema: SchemaDefinition, *, created_at: str
) -> str:
    """Persist one schema (atomic write; re-saving the same name+version
    overwrites). ``created_at`` is caller-supplied ISO-8601 — the engine
    never reads wall clocks so registries are reproducible."""
    os.makedirs(registry_dir, exist_ok=True)
    doc = {
        "name": schema.name,
        "version": schema.version,
        "description": schema.description,
        "created_at": created_at,
        "n_fields": len(schema.fields),
        "definition": schema.to_dict(),
    }
    safe = f"{schema.name}@{schema.version}".replace("/", "_").replace(" ", "_")
    dest = os.path.join(registry_dir, f"{safe}.json")
    fd, tmp = tempfile.mkstemp(dir=registry_dir, suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        json.dump(doc, f, sort_keys=True)
    os.replace(tmp, dest)
    return dest


_LISTING = pa.schema({"name": pa.string(), "version": pa.string(),
                      "n_fields": pa.int64(), "created_at": pa.string()})


def list_schemas(registry_dir: str) -> pa.Table:
    """(name, version, n_fields, created_at) ordered created_at DESC then
    name — the reference's listing order with a deterministic tie-break."""
    rows = []
    if os.path.isdir(registry_dir):
        for fn in sorted(os.listdir(registry_dir)):
            if not fn.endswith(".json"):
                continue
            try:
                with open(os.path.join(registry_dir, fn)) as f:
                    doc = json.load(f)
                rows.append({
                    "name": doc["name"],
                    "version": doc["version"],
                    "n_fields": int(doc["n_fields"]),
                    "created_at": doc["created_at"],
                })
            except (OSError, ValueError, KeyError, TypeError):
                # foreign/truncated/malformed .json in the registry dir
                # must not break listing for every schema — the same
                # tolerance manifest.py applies (review finding)
                continue
    return pa.Table.from_pylist(rows, schema=_LISTING).sort_by(
        [("created_at", "descending"), ("name", "ascending")])


def load_schema(registry_dir: str, name: str, version: str) -> SchemaDefinition:
    safe = f"{name}@{version}".replace("/", "_").replace(" ", "_")
    with open(os.path.join(registry_dir, f"{safe}.json")) as f:
        return SchemaDefinition.from_dict(json.load(f)["definition"])
