"""Blocking-key derivation (north-star blocking: host + length-bucketed
title tokens + exact-hash; simhash banding serves the near-dup operators).

Each page explodes to one row ``(block_key, url, key_string)`` per key:

* ``{host}|t|{token}|{len_bucket}`` — one per distinct title token.  A
  <=2-edit title perturbation touches at most 2 token regions, so two titles
  within distance 2 (and >= 3 tokens) ALWAYS share an unchanged token —
  recall by construction, not probability.  The length bucket (width 16,
  dual-emitted within 2 of an edge so a <=2-edit length change cannot split
  a pair) prunes blocks the way the north star's "length-bucketed title
  tokens" prescribes.
* ``x|{hash64(title)}``          — global exact-title key: catches identical
  titles across hosts at distance 0 with one tiny block per distinct title.

Skew: hot (host, token) blocks — stopword-like tokens on mega-hosts — are
scored whole: the scorer pairs a block's titles within ``max_distance`` in
length, in bounded tiles (``stages.scorer.PAIR_TILE``), drops the pairs
whose char signatures are too far apart, and scores the survivors in
bounded DP batches, so no pair within ``max_distance`` is dropped and no
block materializes its whole triangle; the keys themselves never fan out
more than (#tokens + 1) rows per page, keeping the blocking shuffle linear
in corpus size.
"""

from urllib.parse import urlparse

import pyarrow as pa

from ..functions.simhash import hash64, simhash64, simhash_bands  # noqa: F401 (bands used by dedup ops)

BLOCK_BANDS = 4
_LEN_BUCKET = 16
_EDGE = 2


def host_of(url: str) -> str:
    try:
        return urlparse(url).netloc or "unknown"
    except Exception:
        return "unknown"


def _len_buckets(n: int) -> set[int]:
    b = n // _LEN_BUCKET
    out = {b}
    if n % _LEN_BUCKET < _EDGE:
        out.add(max(0, b - 1))
    if n % _LEN_BUCKET >= _LEN_BUCKET - _EDGE:
        out.add(b + 1)
    return out


def keys_for_title(host: str, title: str) -> list[str]:
    if not title:
        return []
    keys = [f"x|{hash64(title):016x}"]
    buckets = _len_buckets(len(title))
    for token in dict.fromkeys(title.split()):
        for lb in buckets:
            keys.append(f"{host}|t|{token}|{lb}")
    return keys


def blocking_keys_batch(batch: pa.Table) -> pa.Table:
    """map_batches kernel: explode each page into its blocking keys.
    Input needs ``url`` + ``title``; output ``(block_key, url, key_string)``.

    Vectorized: hosts via one regex kernel, token explosion via Arrow
    list-flatten with numpy parent indices, key assembly via
    ``binary_join_element_wise`` — the only per-row Python left is the
    64-bit exact-title hash (one blake2b per page, not per token).
    Duplicate tokens within a title emit duplicate rows (the scorer
    dedups); semantically identical to the scalar ``keys_for_title``
    (parity pinned by tests)."""
    import numpy as np
    import pyarrow.compute as pc

    n = batch.num_rows
    urls = batch.column("url")
    titles = pc.coalesce(batch.column("title"), pa.scalar("", type=pa.string()))

    # hosts: netloc of scheme://netloc/... (host_of equivalence for the
    # schemed urls this pipeline sees; no scheme -> 'unknown')
    host = pc.coalesce(
        pc.struct_field(pc.extract_regex(urls, r"^[a-zA-Z][a-zA-Z0-9+.-]*://(?P<h>[^/]*)"), "h"),
        pa.scalar("unknown", type=pa.string()),
    )
    host = pc.if_else(pc.equal(host, ""), pa.scalar("unknown", type=pa.string()), host)

    # exact-title key (skip empty titles — they emit no keys at all)
    tl = titles.to_pylist()
    nonempty = np.fromiter((bool(t) for t in tl), bool, count=n)
    ne_idx = np.nonzero(nonempty)[0]
    exact_keys = pa.array(
        [f"x|{hash64(tl[i]):016x}" for i in ne_idx], type=pa.string()
    )

    # token explosion: split on whitespace, flatten with parent indices
    toks = pc.split_pattern_regex(titles, r"\s+")
    flat = pc.list_flatten(toks)
    parents = np.repeat(np.arange(n, dtype=np.int64),
                        pc.list_value_length(toks).to_numpy(zero_copy_only=False))
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    flat = flat.filter(pa.array(keep))
    parents = parents[keep]

    # length buckets with dual emission at the +-_EDGE boundary
    tlen = np.fromiter((len(t) for t in tl), np.int64, count=n)
    b = tlen // _LEN_BUCKET
    rem = tlen % _LEN_BUCKET
    buckets = [b]
    low = rem < _EDGE
    high = rem >= _LEN_BUCKET - _EDGE
    parts_k, parts_u, parts_s = [], [], []

    def emit_token_keys(parent_ix, lb):
        fk = flat if parent_ix is None else flat.filter(pa.array(parent_ix))
        par = parents if parent_ix is None else parents[parent_ix]
        key = pc.binary_join_element_wise(
            host.take(pa.array(par)), pa.scalar("t"), fk,
            pa.array([str(x) for x in lb[par]], type=pa.string()), "|",
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

    parts_k.append(exact_keys)
    parts_u.append(urls.take(pa.array(ne_idx)))
    parts_s.append(titles.take(pa.array(ne_idx)))

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
