"""Blocking-key derivation (north-star blocking: host + length-bucketed
title tokens + exact title; simhash banding serves the near-dup operators).

Each page explodes to one row ``(block_key, url, key_string)`` per key:

* ``{host}|t|{token}|{len_bucket}`` — one per distinct title token.  A
  <=2-edit title perturbation touches at most 2 token regions, so two titles
  within distance 2 (and >= 3 tokens) ALWAYS share an unchanged token —
  recall by construction, not probability.  The length bucket (width 16,
  dual-emitted within 2 of an edge so a <=2-edit length change cannot split
  a pair) prunes blocks the way the north star's "length-bucketed title
  tokens" prescribes.
* ``/{title}``                   — global exact-title key: catches identical
  titles across hosts at distance 0 with one tiny block per distinct title.
  A token key starts with its host, and a host never holds ``/`` (nor is
  it empty), so no token key can equal an exact key.

Skew: hot (host, token) blocks — stopword-like tokens on mega-hosts — are
scored whole: the scorer pairs a block's titles within ``max_distance`` in
length, in bounded tiles (``stages.scorer.PAIR_TILE``), drops the pairs
whose char signatures are too far apart, and scores the survivors in
bounded DP batches, so no pair within ``max_distance`` is dropped and no
block materializes its whole triangle; the keys themselves never fan out
more than (#tokens + 1) rows per page, keeping the blocking shuffle linear
in corpus size.
"""

import pyarrow as pa

BLOCK_BANDS = 4
_LEN_BUCKET = 16
_EDGE = 2


def blocking_keys_batch(batch: pa.Table) -> pa.Table:
    """map_batches kernel: explode each page into its blocking keys.
    Input needs ``url`` + ``title``; output ``(block_key, url, key_string)``.

    Vectorized: hosts via one regex kernel, token explosion via Arrow
    list-flatten with numpy parent indices, key assembly via
    ``binary_join_element_wise`` — no Python runs per row.  Duplicate
    tokens within a title emit duplicate rows (the scorer dedups)."""
    import numpy as np
    import pyarrow.compute as pc

    n = batch.num_rows
    urls = batch.column("url")
    titles = pc.coalesce(batch.column("title"), pa.scalar("", type=pa.string()))

    # hosts: netloc of scheme://netloc/...; no scheme (or an empty
    # netloc) -> 'unknown'
    host = pc.coalesce(
        pc.struct_field(pc.extract_regex(urls, r"^[a-zA-Z][a-zA-Z0-9+.-]*://(?P<h>[^/]*)"), "h"),
        pa.scalar("unknown", type=pa.string()),
    )
    host = pc.if_else(pc.equal(host, ""), pa.scalar("unknown", type=pa.string()), host)

    # exact-title key (skip empty titles — they emit no keys at all)
    ne_idx = pa.array(np.flatnonzero(pc.not_equal(titles, "").to_numpy(zero_copy_only=False)))
    ne_titles = titles.take(ne_idx)

    # token explosion: split on whitespace, flatten with parent indices
    toks = pc.split_pattern_regex(titles, r"\s+")
    flat = pc.list_flatten(toks)
    parents = np.repeat(np.arange(n, dtype=np.int64),
                        pc.list_value_length(toks).to_numpy(zero_copy_only=False))
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    flat = flat.filter(pa.array(keep))
    parents = parents[keep]

    # length buckets with dual emission at the +-_EDGE boundary
    tlen = pc.utf8_length(titles).to_numpy(zero_copy_only=False).astype(np.int64)
    b = tlen // _LEN_BUCKET
    rem = tlen % _LEN_BUCKET
    low = rem < _EDGE
    high = rem >= _LEN_BUCKET - _EDGE
    parts_k, parts_u, parts_s = [], [], []

    def emit_token_keys(parent_ix, lb):
        fk = flat if parent_ix is None else flat.filter(pa.array(parent_ix))
        par = parents if parent_ix is None else parents[parent_ix]
        key = pc.binary_join_element_wise(
            host.take(pa.array(par)), pa.scalar("t"), fk,
            pc.cast(pa.array(lb[par]), pa.string()), "|",
        )
        parts_k.append(key)
        parts_u.append(urls.take(pa.array(par)))
        parts_s.append(titles.take(pa.array(par)))

    emit_token_keys(None, b)
    if low.any():
        lb1 = np.maximum(b - 1, 0)
        mask = low[parents] & (b[parents] > 0)
        if mask.any():
            emit_token_keys(mask, lb1)
    if high.any():
        mask = high[parents]
        if mask.any():
            emit_token_keys(mask, b + 1)

    parts_k.append(pc.binary_join_element_wise("/", ne_titles, ""))
    parts_u.append(urls.take(ne_idx))
    parts_s.append(ne_titles)

    def cat(chunks):
        arrs = []
        for c in chunks:
            if isinstance(c, pa.ChunkedArray):
                arrs.extend(c.chunks)
            else:
                arrs.append(c)
        return pa.concat_arrays([a.cast(pa.string()) for a in arrs])

    return pa.table(
        {
            "block_key": cat(parts_k),
            "url": cat(parts_u),
            "key_string": cat(parts_s),
        }
    )
