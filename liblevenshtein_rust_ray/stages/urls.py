"""URL canonicalization + crawl-snapshot dedup.

A Common-Crawl-style corpus reaches the pipeline with the SAME logical page
under many crawl URLs: tracking query params (``utm_*``, ``gclid``,
``fbclid``), fragments, case-folded scheme/host, default ports, trailing
slashes, and repeated snapshots of one URL at different ``warc_ts``.
Canonicalizing before ER blocking collapses these for free — otherwise every
variant re-enters blocking as a distinct record and inflates candidate
pairs.

Two stages:

* :func:`canonicalize_urls` — stateless ``map_batches``; every rewrite step
  is a vectorized Arrow RE2 kernel (``pc.replace_substring_regex`` /
  ``pc.extract_regex``), no Python rows.  The step ORDER is part of the
  contract: DuckDB's ``regexp_replace(..., 'g')`` chain (same RE2 engine,
  same patterns, same order) reproduces the output byte-for-byte, which is
  what the ``url_canonical_dedup`` SQL oracle does.
* :func:`url_snapshot_dedup` — keep the newest snapshot per canonical URL
  (ties broken by min crawl URL) and count snapshots.  Per-batch Arrow
  partial reduce first, so the single hash exchange ships one row per
  (batch × canonical), not one per snapshot; the final combine runs in
  :func:`~.grouped.bucketed_apply` buckets (Arrow ``group_by``, bounded
  bucket size — at 10^12 docs pass more buckets, same one exchange).

Reference parity: the reference engine dedups dictionary terms before
automaton construction (``src/dictionary/dawg.rs`` sorted-unique input
contract); this is the web-corpus analogue at the record level.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .grouped import bucketed_apply

# (pattern, replacement) chain applied IN ORDER, all-occurrence, RE2.
# Mirrored verbatim by the SQL oracle — do not reorder without updating it.
_CANON_STEPS = (
    # 1. drop fragment
    (r"#.*$", ""),
    # 2. drop tracking params (value included).  Anchored to a query
    # delimiter which is re-emitted: an UNANCHORED match would also fire
    # inside legitimate param names/values ('?xutm_source=1', '?q=gclid=x')
    # and silently collapse distinct pages (round-2 ADVICE item).
    (r"([?&])(utm_[a-z]+|gclid|fbclid)=[^&#]*", r"\1"),
    # 3. query-string cleanup after param removal
    (r"&&+", "&"),
    (r"\?&", "?"),
    (r"[?&]+$", ""),
)
_PORT_STEPS = (
    # 4. default ports (run AFTER case-folding so the scheme is lowercase)
    (r"^(https://[^/:]+):443(/|$)", r"\1\2"),
    (r"^(http://[^/:]+):80(/|$)", r"\1\2"),
)
_TRAIL_SLASH = (r"/$", "")
_PREFIX_RE = r"^(?P<pre>[A-Za-z][A-Za-z0-9+.-]*://[^/]*)(?P<rest>(?s:.*))$"


def canonicalize_url_array(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Vectorized canonical form of a URL column (see module doc for the
    rule chain).  Non-URL strings (no ``scheme://``) pass through with only
    the generic rewrites applied."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = pc.coalesce(col, pa.scalar("", type=pa.string()))
    for pat, repl in _CANON_STEPS:
        col = pc.replace_substring_regex(col, pattern=pat, replacement=repl)
    # 5. case-fold scheme + host (path/query case is significant, keep it)
    parts = pc.extract_regex(col, pattern=_PREFIX_RE)
    pre = pc.utf8_lower(pc.struct_field(parts, "pre"))
    rest = pc.struct_field(parts, "rest")
    folded = pc.binary_join_element_wise(pre, rest, "")
    col = pc.coalesce(folded, col)  # no-match rows keep the generic form
    for pat, repl in _PORT_STEPS:
        col = pc.replace_substring_regex(col, pattern=pat, replacement=repl)
    # 6. trailing slash (single): /a/b/ == /a/b; bare host root too
    col = pc.replace_substring_regex(
        col, pattern=_TRAIL_SLASH[0], replacement=_TRAIL_SLASH[1])
    return col


def canonicalize_urls(ds, url_col: str = "url",
                      out_col: str = "canonical_url"):
    """Dataset stage: append ``out_col`` = canonical form of ``url_col``."""

    def batch(t: pa.Table) -> pa.Table:
        return t.append_column(out_col, canonicalize_url_array(t.column(url_col)))

    return ds.map_batches(batch, batch_format="pyarrow")


_TS_DIV = {"s": 1, "ms": 1_000, "us": 1_000_000, "ns": 1_000_000_000}


def _epoch_seconds(ts: pa.ChunkedArray | pa.Array) -> pa.Array:
    """int64 epoch seconds from a timestamp column of any unit (or an
    already-integer seconds column)."""
    if isinstance(ts, pa.ChunkedArray):
        ts = ts.combine_chunks()
    if pa.types.is_timestamp(ts.type):
        return pc.divide(ts.cast(pa.int64()),
                         pa.scalar(_TS_DIV[ts.type.unit], type=pa.int64()))
    return ts.cast(pa.int64())


def messy_crawl_variants(ds, url_col: str = "url", ts_col: str = "warc_ts",
                         carry_cols: tuple[str, ...] = ()):
    """Deterministic crawl-messiness synthesizer for tests/oracles: rewrite
    each clean corpus URL into one of five in-the-wild variants (tracking
    params + fragment, trailing slash, upper-cased scheme/host, explicit
    ``:443`` port, ``gclid`` param), chosen by ``page_number % 5``; pages
    with ``page_number % 3 == 0`` additionally get a SECOND snapshot one day
    later under the *next* variant class.  Every branch is a vectorized
    Arrow kernel and every rule is mirrored verbatim by the
    ``url_canonical_dedup`` SQL oracle, so this is the shared fixture both
    engines canonicalize back to the same clean URL.

    Output: ``(crawl_url: string, ts: int64 epoch seconds)`` plus any
    ``carry_cols`` passed through unchanged (recrawl rows repeat the
    original row's values — a crawl re-fetch of the same page).
    """

    def batch(t: pa.Table) -> pa.Table:
        url = t.column(url_col)
        if isinstance(url, pa.ChunkedArray):
            url = url.combine_chunks()
        epoch = _epoch_seconds(t.column(ts_col))
        v = pc.cast(
            pc.struct_field(
                pc.extract_regex(url, pattern=r"/p(?P<v>\d+)$"), "v"),
            pa.int64()).to_numpy(zero_copy_only=False)

        def variant(u: pa.Array, c: np.ndarray) -> pa.Array:
            m0 = pc.binary_join_element_wise(
                u, pa.scalar("?utm_source=feed&utm_campaign=x#frag"), "")
            m1 = pc.binary_join_element_wise(u, pa.scalar("/"), "")
            parts = pc.extract_regex(u, pattern=_PREFIX_RE)
            m2 = pc.binary_join_element_wise(
                pc.utf8_upper(pc.struct_field(parts, "pre")),
                pc.struct_field(parts, "rest"), "")
            m3 = pc.replace_substring_regex(
                u, pattern=r"^(https://[^/:]+)", replacement=r"\1:443")
            m4 = pc.binary_join_element_wise(
                u, pa.scalar("?gclid=ABC123"), "")
            out = pc.if_else(pa.array(c == 0), m0,
                  pc.if_else(pa.array(c == 1), m1,
                  pc.if_else(pa.array(c == 2), m2,
                  pc.if_else(pa.array(c == 3), m3, m4))))
            return out

        base = variant(url, v % 5)
        recrawl_mask = (v % 3) == 0
        mask = pa.array(recrawl_mask)
        re_url = variant(url.filter(mask), (v[recrawl_mask] + 1) % 5)
        re_ts = pc.add(epoch.filter(mask), pa.scalar(86_400, type=pa.int64()))
        cols = {
            "crawl_url": pa.concat_arrays(
                [base.combine_chunks() if isinstance(base, pa.ChunkedArray)
                 else base, re_url]),
            "ts": pa.concat_arrays([epoch.cast(pa.int64()), re_ts]),
        }
        for c in carry_cols:
            a = t.column(c)
            a = a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
            cols[c] = pa.concat_arrays([a, a.filter(mask)])
        return pa.table(cols)

    return ds.map_batches(batch, batch_format="pyarrow")


_HOST_RE = r"^[A-Za-z][A-Za-z0-9+.-]*://(?P<host>[^/]*)"

# mega-host flag: hosts holding more than this many pages get reviewed /
# downweighted (zipf-skewed crawls put a large share of pages on a few
# hosts, which also makes them blocking hot-spots).  Mirrored in SQL.
HOST_MAX_PAGES = 500


def host_stats(ds, url_col: str = "url", text_col: str = "text",
               n_buckets: int = 64):
    """Per-host corpus stats for domain-level curation: page count, total
    and mean text chars, and a ``flag_mega`` verdict for hosts above
    :data:`HOST_MAX_PAGES`.  Host extraction is one vectorized RE2 kernel;
    reduction is per-batch Arrow partials then ONE bucketed exchange of
    (host, count, sum) rows — the exchange ships one row per (batch x
    host), never per page."""

    def partial(t: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(
                pc.coalesce(t.column(url_col),
                            pa.scalar("", type=pa.string())),
                pattern=_HOST_RE), "host")
        host = pc.coalesce(host, pa.scalar("", type=pa.string()))
        chars = pc.utf8_length(
            pc.coalesce(t.column(text_col), pa.scalar("", type=pa.string())))
        return _host_sums(pa.table({
            "host": host,
            "n_pages": np.ones(t.num_rows, dtype=np.int64),
            "sum_chars": chars.cast(pa.int64()),
        }))

    def combine(t: pa.Table) -> pa.Table:
        g = _host_sums(t)
        n, s = g["n_pages"].to_numpy(), g["sum_chars"].to_numpy()
        return pa.table({
            "host": g["host"], "n_pages": n, "sum_chars": s,
            "mean_chars": s / n, "flag_mega": n > HOST_MAX_PAGES,
        }, schema=_HOST_STATS)

    return bucketed_apply(ds.map_batches(partial, batch_format="pyarrow"),
                          "host", combine, n_buckets=n_buckets,
                          empty_result=_HOST_STATS.empty_table())


def _host_sums(t: pa.Table) -> pa.Table:
    return t.group_by("host", use_threads=False).aggregate(
        [("n_pages", "sum"), ("sum_chars", "sum")]
    ).rename_columns(["host", "n_pages", "sum_chars"])


_HOST_STATS = pa.schema([
    ("host", pa.string()), ("n_pages", pa.int64()), ("sum_chars", pa.int64()),
    ("mean_chars", pa.float64()), ("flag_mega", pa.bool_())])


def _make_combine(carry_cols: tuple[str, ...]):
    """Associative snapshot combine: newest ts wins, ties to min crawl URL;
    snapshot counts add; carried columns take the winning snapshot's value.
    Works for raw rows (n_snapshots==1) and partials."""
    order = ["canonical_url", "kept_url", "kept_ts", "n_snapshots",
             *carry_cols]

    def combine(t: pa.Table) -> pa.Table:
        t = t.sort_by([("kept_ts", "descending"), ("kept_url", "ascending")])
        return t.group_by("canonical_url", use_threads=False).aggregate(
            [("kept_url", "first"), ("kept_ts", "first"),
             ("n_snapshots", "sum"), *[(c, "first") for c in carry_cols]]
        ).rename_columns(order)

    return combine


def url_snapshot_dedup(ds, url_col: str = "url", ts_col: str = "warc_ts",
                       n_buckets: int = 64,
                       carry_cols: tuple[str, ...] = (),
                       input_blocks: int | None = None):
    """One row per canonical URL: the newest crawl snapshot + snapshot count.

    Output columns: ``canonical_url, kept_url, kept_ts`` (epoch seconds,
    int64), ``n_snapshots`` (int64), plus any ``carry_cols`` (the winning
    snapshot's values — carry only the columns downstream needs; at scale
    wide payloads ride the exchange once per distinct canonical per batch).
    Streaming shape: canonicalize (map) → per-batch partial reduce (map) →
    ONE bucketed hash exchange → C-path final combine.  The exchange
    payload is bounded by distinct canonical URLs per batch, not snapshot
    count.

    ``input_blocks``: optional adjacent-merge repartition of the INPUT
    before the map chain — set to ~2 blocks per CPU when the source
    arrives as many small files/blocks; the per-task fixed cost of tiny
    blocks dominates otherwise (measured at 209k pages / 200 source
    blocks / 32 CPUs: 14.0 s → 2.8 s with ``input_blocks=64``)."""
    if input_blocks:
        ds = ds.repartition(input_blocks)
    ds = canonicalize_urls(ds, url_col=url_col)
    combine = _make_combine(tuple(carry_cols))

    def partial(t: pa.Table) -> pa.Table:
        return combine(pa.table({
            "canonical_url": t.column("canonical_url"),
            "kept_url": t.column(url_col),
            "kept_ts": _epoch_seconds(t.column(ts_col)),
            "n_snapshots": np.ones(t.num_rows, dtype=np.int64),
            **{c: t.column(c) for c in carry_cols},
        }))

    partials = ds.map_batches(partial, batch_format="pyarrow")
    empty = pa.schema([
        ("canonical_url", pa.string()), ("kept_url", pa.string()),
        ("kept_ts", pa.int64()), ("n_snapshots", pa.int64()),
        *[(c, pa.string()) for c in carry_cols]]).empty_table()
    return bucketed_apply(partials, "canonical_url", combine,
                          n_buckets=n_buckets, empty_result=empty)
