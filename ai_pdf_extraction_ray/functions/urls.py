"""URL canonicalization — the web-curation normalizer that makes
capture-level dedup possible.

Common-Crawl-style corpora carry many raw captures of the same logical
page: tracking query params (``utm_*``, ``fbclid``, ``gclid``), fragments,
case-insensitive scheme/host spellings, explicit default ports, duplicate
or trailing slashes, and query params in arbitrary order. The reference
has no URL surface at all (it ingests uploaded files keyed by UUID,
reference routers/documents.py); canonicalization is part of this
engine's web-scale extension set (SURVEY.md §2 extension lane, same
family as url_host_filter's C4-style source filter).

Rules applied (the standard WHATWG-adjacent normalization subset that is
safe without fetching — each is order-dependent, applied as listed):

1. lowercase the scheme and authority (host[:port]) — never the path;
2. drop the fragment (``#...``);
3. drop explicit default ports (``https://h:443`` -> ``https://h``,
   ``http://h:80`` -> ``http://h``), also behind userinfo
   (``https://u:p@h:443``) and on bracketed IPv6 hosts
   (``https://[::1]:443``);
4. collapse duplicate slashes in the PATH (``//p//x`` -> ``/p/x``) and
   strip trailing slashes (``/p/1/`` -> ``/p/1``; the root path ``/`` is
   preserved, and an empty path becomes ``/``);
5. remove tracking params (``utm_[A-Za-z0-9_]+``, ``fbclid``, ``gclid``,
   with or without a value) and SORT the surviving params
   lexicographically; an emptied query loses its ``?``.

Everything is vectorized: scheme/authority/path/query splitting and the
regex rewrites are Arrow (RE2) kernels; the per-param filter+sort runs in
polars list expressions (Rust) — no Python loop at any input size. Rows
that do not parse as ``scheme://authority...`` URLs pass through
unchanged (failure-is-data: a garbage url simply dedupes as itself).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# one split: scheme://authority | path | ?query | #fragment(dropped)
_SPLIT_RE = (
    r"^(?P<auth>[A-Za-z][A-Za-z0-9+.\-]*://[^/?#]*)"
    r"(?P<path>[^?#]*)"
    r"(?:\?(?P<query>[^#]*))?"
    r"(?:#.*)?$"
)
_TRACKER_RE = r"^(?:utm_[A-Za-z0-9_]+|fbclid|gclid)(?:=|$)"
# [userinfo@] then a bracketed IPv6 literal or a reg-name/IPv4 host
_HOST_RE = r"(?:[^/?#@]*@)?(?:\[[^\]/?#]*\]|[^:/?#@\[\]]+)"


def _clean_query(query: pa.Array) -> pa.Array:
    """Drop tracking params and sort the rest — polars list kernels.

    For MATCHED rows Arrow's ``extract_regex`` yields ``""`` (not null)
    when the optional query group did not participate — so the no-``?``
    path arrives here as the empty string; null occurs only for rows the
    split regex rejected outright, whose canon the caller discards via
    the ``matched`` passthrough. Either way the caller's ``has_query``
    check drops the ``?`` for an empty/absent query, including a query
    whose params were all trackers.
    """
    import polars as pl

    s = pl.from_arrow(query)
    if not isinstance(s, pl.Series):  # pragma: no cover — from_arrow quirk
        s = pl.Series(s)
    out = (
        s.str.split("&")
        .list.eval(pl.element().filter(~pl.element().str.contains(_TRACKER_RE)))
        .list.sort()
        .list.join("&")
    )
    arr = out.to_arrow()
    return arr.cast(pa.string()) if arr.type != pa.string() else arr


def canonicalize_urls(urls: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized URL canonicalization (rules in the module docstring)."""
    if isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    u = urls.cast(pa.string()) if urls.type != pa.string() else urls

    parts = pc.extract_regex(u, _SPLIT_RE)
    matched = pc.is_valid(parts)
    auth = pc.struct_field(parts, "auth")
    path = pc.struct_field(parts, "path")
    query = pc.struct_field(parts, "query")

    # authority: lowercase, then strip explicit default ports
    auth = pc.utf8_lower(auth)
    for scheme, port in (("https", 443), ("http", 80)):
        auth = pc.replace_substring_regex(
            auth, pattern=rf"^({scheme}://{_HOST_RE}):{port}$",
            replacement=r"\1")

    # path: collapse duplicate slashes, strip trailing slashes, seed root
    path = pc.replace_substring_regex(path, pattern=r"/{2,}", replacement="/")
    path = pc.replace_substring_regex(
        path, pattern=r"^(/.*[^/])/+$", replacement=r"\1")
    path = pc.if_else(pc.equal(path, ""), pa.scalar("/"), path)

    # query: tracker removal + lexicographic param sort (polars, Rust)
    query = _clean_query(query)
    has_query = pc.and_(pc.is_valid(query), pc.not_equal(query, ""))
    qmark = pc.if_else(has_query, pa.scalar("?"), pa.scalar(""))
    qpart = pc.if_else(pc.is_valid(query), query, pa.scalar(""))

    canon = pc.binary_join_element_wise(auth, path, qmark, qpart, "")
    # unparseable rows pass through untouched
    return pc.if_else(matched, canon, u)
