"""End-to-end training-data curation over a documents table — the composed
pipeline an LLM-data job runs at 100 TB, built from this repo's stages:

    quality screen (length / punctuation heuristics, vectorized per batch)
    → language-ID filter (trigram-profile heuristic, functions.textstats)
    → exact dedup (keep min doc_id per identical text — one hash exchange)
    → MinHash-LSH near-dedup (md5 hash family, stages.dedup) → drop the
      GREATER id of every candidate pair at jaccard ≥ threshold
    → anti-join of the drop set (one id-keyed bucketed exchange)

Every step is individually oracle-checked elsewhere (quality_docs,
langid_docs, exact_dedup_part, minhash_neardup_docs_md5); the composition
ships its own composed SQL oracle (__ray_entry__ ``curate_docs``), so the
whole pipeline — filters, both dedups, and the drop rule — is
value-checked end to end against DuckDB.

Scale shape: the screen is a stateless map (no exchange); exact dedup is
one hash-bucketed exchange on text; the near-dedup drop set is tiny
relative to the corpus (duplicate fraction × docs) and the anti-join is
a broadcast filter while the drop set fits in the object store (auto,
the common case: drops ≤ candidate pairs), falling back to an id-keyed
bucketed exchange — so the corpus crosses the network at most twice.
The deduped intermediate feeds BOTH the near-dup scorer and the keep
side (a diamond); it is materialized once into the object store (at
cluster scale: the per-partition checkpoint parquet fills this role, and
a resumed run starts from it) instead of re-executing the screen+dedup
subtree per consumer.
"""

import numpy as np
import pyarrow as pa


def curate_documents(ds, min_tokens: int = 10, max_punct: float = 0.2,
                     lang: str = "en", threshold: float = 0.5,
                     hasher: str = "md5", max_broadcast_drops: int = 5_000_000):
    """Dataset[(doc_id, n_tokens)] of curated documents.

    Keep rule: trigram language-ID == ``lang``, at least ``min_tokens``
    tokens, punctuation ratio ≤ ``max_punct``; then exact-dedup (min
    doc_id per text wins); then drop any doc that is the greater element
    of a MinHash-LSH candidate pair at jaccard ≥ threshold.

    ``hasher="md5"`` (default) keeps the near-dup step SQL-reproducible —
    the curate_docs oracle depends on it; pass ``"blake2b"`` for the
    fastest production hash family (same pipeline, different pair RNG)."""
    from ..stages.dedup import exact_dedup, minhash_lsh_pairs
    from ..stages.grouped import bucketed_apply
    from ..stages.textstats import _LANGID_LANGS, langid_scores_batch

    # Small-input coalesce at the READ (count is parquet metadata here):
    # a 64-way split of a few-thousand-doc table pays 64x task dispatch
    # on every downstream stage and 64 x n_buckets shuffle fragments in
    # the dedup exchanges — measured 3.4 -> 2.0 s end-to-end at sf0.1.
    # Never fires at web scale, so the cluster physical plan is unchanged.
    n_in = ds.count()
    if n_in <= 65536:
        ds = ds.repartition(max(8, n_in // 256))

    def screen(t: pa.Table) -> pa.Table:
        # fully vectorized (VERDICT r02 task 2): two RE2 count kernels +
        # the shared ~60-kernel langid profile scorer — this is a
        # full-corpus pass at 100 TB, so no Python row loop
        import pyarrow.compute as pc

        text = pc.coalesce(t.column("text"), pa.scalar("", type=pa.string()))
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        lower = pc.utf8_lower(text)
        n_tokens = (pc.count_substring_regex(lower, pattern=r"[a-z0-9]+")
                    .to_numpy(zero_copy_only=False).astype(np.int64))
        n_chars = (pc.utf8_length(text)
                   .to_numpy(zero_copy_only=False).astype(np.int64))
        n_punct = (pc.count_substring_regex(text, pattern=r"[^\w\s]")
                   .to_numpy(zero_copy_only=False).astype(np.int64))
        punct_ratio = np.where(n_chars > 0,
                               n_punct / np.maximum(n_chars, 1), 0.0)
        scores = langid_scores_batch(text)
        best_score = scores.max(axis=0) if scores.size else np.zeros(0)
        langs = np.array(_LANGID_LANGS, dtype=object)
        pred = np.where(best_score >= 3,
                        langs[scores.argmax(axis=0)], "und")
        keep = ((n_tokens >= min_tokens) & (punct_ratio <= max_punct)
                & (pred == lang))
        out = pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "text": text,
            "n_tokens": pa.array(n_tokens, type=pa.int64()),
        })
        return out.filter(pa.array(keep))

    kept = ds.map_batches(screen, batch_format="pyarrow")
    # Diamond: `deduped` feeds both the near-dup scorer and the keep side.
    # Without pinning it, Ray's lazy plan re-executes screen+dedup once per
    # consumer; materialize keeps the (already screened+deduped) blocks in
    # the object store.  At cluster scale the per-partition checkpoint
    # parquet of this stage plays the same role.
    deduped = exact_dedup(kept, "text", "doc_id").materialize()

    pairs = minhash_lsh_pairs(deduped, "text", "doc_id",
                              threshold=threshold, hasher=hasher)
    drop_ids = pairs.select_columns(["id_b"]).materialize()

    if drop_ids.count() <= max_broadcast_drops:
        # Common case: the drop set (≤ candidate pairs ≈ duplicate fraction
        # × docs) fits in one array — broadcast it via the object store and
        # anti-join as a stateless vectorized filter, no extra exchange.
        import ray

        ids = np.unique(np.concatenate(
            [b["id_b"].to_numpy(zero_copy_only=False)
             for b in drop_ids.iter_batches(batch_format="pyarrow")]
            or [np.array([], dtype=np.int64)]).astype(np.int64))
        ids_ref = ray.put(ids)

        def anti_bcast(t: pa.Table) -> pa.Table:
            drop = ray.get(ids_ref)  # zero-copy from the local object store
            keep = ~np.isin(t.column("doc_id").to_numpy(zero_copy_only=False), drop)
            return t.filter(pa.array(keep)).select(["doc_id", "n_tokens"])

        return deduped.map_batches(anti_bcast, batch_format="pyarrow")

    # Scale fallback (drop set too large to broadcast): one id-keyed
    # bucketed exchange carrying (doc_id, n_tokens, is_drop) rows.
    drops = drop_ids.map_batches(
        lambda t: pa.table({
            "doc_id": t.column("id_b").cast(pa.int64()),
            "n_tokens": pa.array([0] * t.num_rows, type=pa.int64()),
            "is_drop": pa.array([True] * t.num_rows, type=pa.bool_()),
        }),
        batch_format="pyarrow",
    )
    docs = deduped.select_columns(["doc_id", "n_tokens"]).map_batches(
        lambda t: t.append_column("is_drop",
                                  pa.array([False] * t.num_rows, pa.bool_())),
        batch_format="pyarrow",
    )

    def anti(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        dropped = ids[t.column("is_drop").to_numpy(zero_copy_only=False)]
        return t.filter(pa.array(~np.isin(ids, dropped))).select(
            ["doc_id", "n_tokens"])

    return bucketed_apply(
        docs.union(drops),
        "doc_id",
        anti,
        empty_result=pa.schema([("doc_id", pa.int64()),
                                ("n_tokens", pa.int64())]).empty_table(),
    )


def neardup_canonicalize(ds, text_col: str = "text", id_col: str = "doc_id",
                         threshold: float = 0.5, hasher: str = "md5",
                         max_bucket: int = 1_000_000,
                         max_driver_members: int = 5_000_000):
    """Map every document to its near-duplicate CLUSTER representative:
    ``(id_col, canon_id)`` for the full corpus.

    Composition (each piece independently oracle-checked): MinHash-LSH
    candidate pairs → transitive closure (``connected_components``) →
    per-cluster representative = the member with the MOST tokens (ties:
    smallest id) → members map to the representative, every other doc
    maps to itself.  This is the "keep the best copy" curation step that
    greedy pair-drop (curate_documents' anti-join) approximates — here
    the whole cluster agrees on one canonical id, so downstream joins
    on ``canon_id`` are stable under re-runs and insertions.

    Scale shape: the pair/cluster side is bounded by near-duplicate
    documents (cluster table ≪ corpus).  Common case (member count ≤
    ``max_driver_members``): the cluster table is pulled to the driver,
    member token counts arrive via ONE broadcast-filtered stateless
    pass, the argmax runs driver-side, and the final map is a second
    stateless pass against the broadcast (member → canon) arrays —
    ZERO exchanges beyond the pair/closure machinery.  Past the guard,
    the exchange plan takes over: three thin-row bucketed exchanges
    (doc-keyed n_tokens attach, cluster-keyed argmax, doc-keyed final
    left join), none carrying text — bit-identical output (pinned).

    Contract: ``id_col`` must be a NON-NEGATIVE integer column — the
    exchange plan uses ``-1`` sentinels to distinguish tag rows and
    cluster ids round-trip through string casts, so non-integer id
    types are rejected up front and negative ids raise inside the
    corpus passes rather than being silently misclassified."""
    import pyarrow.compute as pc

    from ..stages.cluster import connected_components
    from ..stages.dedup import minhash_lsh_pairs
    from ..stages.grouped import bucketed_apply
    from ..stages.keys import key_codes, run_ranks

    sch = ds.schema()  # ray.data Schema: parallel .names / .types
    id_type = dict(zip(sch.names, sch.types))[id_col]
    if not pa.types.is_integer(id_type):
        raise TypeError(
            f"neardup_canonicalize requires an integer {id_col!r} column "
            f"(got {id_type}); the plan uses -1 sentinels and int64 "
            "round-trips that would misclassify other types")

    def _ids_nonneg(col: "pa.ChunkedArray") -> "pa.Array":
        ids = col.combine_chunks().cast(pa.int64())
        mn = pc.min(ids).as_py()
        if mn is not None and mn < 0:
            raise ValueError(
                f"neardup_canonicalize requires non-negative {id_col!r} "
                f"ids (found {mn}); -1 is reserved as a tag sentinel")
        return ids

    pairs = minhash_lsh_pairs(ds, text_col, id_col, threshold=threshold,
                              hasher=hasher, max_bucket=max_bucket)

    comp = connected_components(pairs.map_batches(
        lambda t: pa.table({
            "url_a": pc.cast(t.column("id_a"), pa.string()),
            "url_b": pc.cast(t.column("id_b"), pa.string()),
        }), batch_format="pyarrow")).materialize()
    # (url=str(id), cluster_id=str)

    if comp.count() <= max_driver_members:
        import ray

        cdf = comp.to_pandas()
        mids = cdf["url"].astype(np.int64).to_numpy()
        order = np.argsort(mids, kind="stable")
        mids_sorted = mids[order]
        mref = ray.put(np.ascontiguousarray(mids_sorted))

        def member_toks(t: pa.Table) -> pa.Table:
            mem = ray.get(mref)  # zero-copy local view
            ids = t.column(id_col).combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64, copy=False)
            pos = np.searchsorted(mem, ids)
            keep = (pos < len(mem))
            keep &= (mem[np.minimum(pos, max(len(mem) - 1, 0))] == ids
                     ) if len(mem) else False
            text = pc.coalesce(t.column(text_col),
                               pa.scalar("", pa.string()))
            n = pc.count_substring_regex(
                pc.utf8_lower(text), pattern=r"[a-z0-9]+").cast(pa.int64())
            return pa.table({
                id_col: pa.array(ids[keep], type=pa.int64()),
                "n_tokens": n.filter(pa.array(keep)),
            })

        mt = (ds.map_batches(member_toks, batch_format="pyarrow")
              .to_pandas())  # members-sized
        cdf = cdf.assign(**{id_col: mids}).merge(mt, on=id_col,
                                                 how="inner")
        cdf = cdf.sort_values(["cluster_id", "n_tokens", id_col],
                              ascending=[True, False, True])
        rep = cdf.groupby("cluster_id", sort=False)[id_col].transform(
            "first").astype("int64").to_numpy()
        member_ids = cdf[id_col].to_numpy()
        order2 = np.argsort(member_ids, kind="stable")
        lut_ids = np.ascontiguousarray(member_ids[order2])
        lut_canon = np.ascontiguousarray(rep[order2])
        lref = ray.put((lut_ids, lut_canon))

        def map_all(t: pa.Table) -> pa.Table:
            lids, lcanon = ray.get(lref)
            ids = t.column(id_col).combine_chunks().to_numpy(
                zero_copy_only=False).astype(np.int64, copy=False)
            canon = ids.copy()
            if len(lids):
                pos = np.searchsorted(lids, ids)
                hit = pos < len(lids)
                pos = np.minimum(pos, len(lids) - 1)
                hit &= lids[pos] == ids
                canon[hit] = lcanon[pos[hit]]
            return pa.table({id_col: pa.array(ids, type=pa.int64()),
                             "canon_id": pa.array(canon, type=pa.int64())})

        return ds.select_columns([id_col]).map_batches(
            map_all, batch_format="pyarrow")

    # thin (doc_id, n_tokens) for every doc — same count the screens use
    def tok_rows(t: pa.Table) -> pa.Table:
        text = pc.coalesce(t.column(text_col), pa.scalar("", pa.string()))
        n = pc.count_substring_regex(pc.utf8_lower(text),
                                     pattern=r"[a-z0-9]+")
        return pa.table({id_col: _ids_nonneg(t.column(id_col)),
                         "n_tokens": n.cast(pa.int64())})

    toks = ds.map_batches(tok_rows, batch_format="pyarrow")

    # exchange 1 (doc-keyed): attach n_tokens to cluster members
    def member_rows(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: pc.cast(t.column("url"), pa.int64()),
            "cl": t.column("cluster_id").combine_chunks(),
            "n_tokens": pa.array(np.full(t.num_rows, -1, dtype=np.int64)),
        })

    def tok_tagged(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: t.column(id_col).combine_chunks().cast(pa.int64()),
            "cl": pa.nulls(t.num_rows, type=pa.string()).fill_null(""),
            "n_tokens": t.column("n_tokens").combine_chunks(),
        })

    def join_members(t: pa.Table) -> pa.Table:
        neg = pc.less(t.column("n_tokens"), 0)
        mem = t.filter(neg).select([id_col, "cl"])
        cnt = t.filter(pc.invert(neg)).select([id_col, "n_tokens"])
        return mem.join(cnt, id_col, join_type="inner").select(
            [id_col, "cl", "n_tokens"])

    members = bucketed_apply(
        comp.map_batches(member_rows, batch_format="pyarrow").union(
            toks.map_batches(tok_tagged, batch_format="pyarrow")),
        id_col, join_members,
        empty_result=pa.schema([(id_col, pa.int64()), ("cl", pa.string()),
                                ("n_tokens", pa.int64())]).empty_table(),
    )
    canon = pa.schema([(id_col, pa.int64()), ("canon_id", pa.int64())])

    # exchange 2 (cluster-keyed): representative per cluster, map members
    def pick_rep(t: pa.Table) -> pa.Table:
        t = t.sort_by([("cl", "ascending"), ("n_tokens", "descending"),
                       (id_col, "ascending")])
        ids = t.column(id_col).to_numpy()
        first = np.arange(len(ids)) + 1 - run_ranks(key_codes(t.column("cl")))
        return pa.table([ids, ids[first]], schema=canon)

    mapped = bucketed_apply(members, "cl", pick_rep,
                            empty_result=canon.empty_table())

    # exchange 3 (doc-keyed): full corpus LEFT JOIN mapped → self default
    def all_tagged(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: _ids_nonneg(t.column(id_col)),
            "canon_id": pa.array(np.full(t.num_rows, -1, dtype=np.int64)),
        })

    def finish(t: pa.Table) -> pa.Table:
        m = pc.greater_equal(t.column("canon_id"), 0)
        base = t.filter(pc.invert(m)).group_by(id_col).aggregate([])
        out = base.join(t.filter(m), id_col, join_type="left outer")
        return pa.table([out.column(id_col), pc.coalesce(
            out.column("canon_id"), out.column(id_col))], schema=canon)

    return bucketed_apply(
        ds.select_columns([id_col]).map_batches(
            all_tagged, batch_format="pyarrow").union(mapped),
        id_col, finish, empty_result=canon.empty_table(),
    )
