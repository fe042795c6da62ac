"""Generic fuzzy-matching pipelines over arbitrary string columns.

* ``fuzzy_self_join``  — all DISTINCT-value pairs within edit distance n.
  Complete (no recall loss): blocking is by length bucket with an edge rule
  that guarantees any pair with |len_a - len_b| <= n co-blocks, and the
  per-block automaton is exact.  This is the engine's distance-join operator;
  the DuckDB oracle is a cross join with ``levenshtein()``.
* ``fuzzy_join``       — two-sided: for each left value, all right values
  within n (per-block trie of the right side, automaton per left value) —
  the reference's ``Transducer::query`` lifted to a join
  (/root/reference/src/transducer/mod.rs:360-388).
* ``fuzzy_lookup_agg`` — FuzzyMultiMap semantics: fuzzy lookup then
  aggregate the union of matched payloads per query
  (/root/reference/src/cache/multimap.rs:210-340).
"""

import pandas as pd
import pyarrow as pa

from ..kernel import STANDARD, build_trie
from ..kernel.query import query as kernel_query
from ..stages.scorer import _sorted_codes

_LEN_BUCKET = 16
# blocks whose (length-filtered) pair count stays under this use the numpy
# banded-DP kernel (kernel.vectorized — the SIMD distance-matrix path);
# larger blocks keep the trie+automaton traversal, whose pruning wins
# asymptotically (README.md:901: 100-1000x over naive scans on large dicts)
_VEC_MAX_PAIRS = 2_000_000


def _vec_self_pairs(vals: list, n: int, algorithm: str, subst=None,
                    pair_scorer=None, max_score=None, len_diff=None):
    """All (i<j) pairs of sorted ``vals`` within distance n, or None when the
    candidate count exceeds _VEC_MAX_PAIRS (caller falls back to automaton).
    Returns (val_a, val_b, distance) lists; the smaller string is the
    automaton-side query, matching the trie path exactly.

    ``pair_scorer(queries, terms) -> ndarray`` swaps the unit-cost banded-DP
    kernel for another engine (weighted operation sets, the universal
    automaton); ``max_score`` is its keep threshold (default n) and
    ``len_diff`` the length filter (default n).  Custom scorers never bail
    to the trie path — oversized blocks are chunked instead."""
    import numpy as np

    from ..kernel.vectorized import batch_distances

    k = len(vals)
    lens = np.fromiter((len(v) for v in vals), np.int64, count=k)
    ii, jj = np.triu_indices(k, 1)
    m = np.abs(lens[ii] - lens[jj]) <= (n if len_diff is None else len_diff)
    ii, jj = ii[m], jj[m]
    if pair_scorer is None and ii.size > _VEC_MAX_PAIRS:
        return None
    thresh = n if max_score is None else max_score
    a_out, b_out, d_out = [], [], []
    for lo in range(0, ii.size, _VEC_MAX_PAIRS):
        si, sj = ii[lo:lo + _VEC_MAX_PAIRS], jj[lo:lo + _VEC_MAX_PAIRS]
        qa = [vals[i] for i in si]
        qb = [vals[j] for j in sj]
        if pair_scorer is not None:
            d = np.asarray(pair_scorer(qa, qb))
        else:
            d = batch_distances(qa, qb, n, algorithm, subst)
        keep = d <= thresh
        a_out.extend(vals[i] for i in si[keep])
        b_out.extend(vals[j] for j in sj[keep])
        d_out.extend(d[keep].tolist())
    return (a_out, b_out, d_out)


def _len_keys(s: str, n: int) -> list[int]:
    """Complete co-blocking for pairs with length difference <= n:
    emit len//W, plus (len//W - 1) when len % W < n (see proof in
    stages/blocking.py — the longer string reaches down into the shorter's
    bucket)."""
    b = len(s) // _LEN_BUCKET
    out = [b]
    if len(s) % _LEN_BUCKET < n and b > 0:
        out.append(b - 1)
    return out


def _distinct(ds, col: str):
    # vectorized distinct: per-bucket Arrow group_by (a null stays one row)
    from ..stages.grouped import bucketed_apply

    return bucketed_apply(
        ds.select_columns([col]), col, lambda t: t.group_by(col).aggregate([])
    )


def _min_distance(a: str, b: str):
    """Bucket function: one row per (a, b) pair, at its least distance."""
    return lambda t: t.group_by([a, b], use_threads=False).aggregate(
        [("distance", "min")]).rename_columns([a, b, "distance"])


def _pair_schema(a: str, b: str, score_dtype: str = "int64") -> pa.Schema:
    import numpy as np

    return pa.schema([(a, pa.string()), (b, pa.string()),
                      ("distance", pa.from_numpy_dtype(np.dtype(score_dtype)))])


def _deletion_variants(v: str, n: int) -> set[str]:
    """All strings reachable from ``v`` by deleting up to ``n`` chars
    (FastSS / SymSpell neighborhood — Bocek et al. 2007, public)."""
    outs = {v}
    frontier = {v}
    for _ in range(n):
        nxt = {w[:i] + w[i + 1:] for w in frontier for i in range(len(w))}
        frontier = nxt - outs
        outs |= nxt
    return outs


def _sig_hashes(variants: list):
    """63-bit signature of each deletion variant: pandas siphash (fixed key,
    the same in every process) of its UTF-8 bytes.  Hashing the str itself
    would compare it only up to its first NUL, in a per-batch factorize
    that makes the value depend on the rest of the batch.  Collisions only
    ADD candidates — the DP verify keeps the pair set exact."""
    import numpy as np

    b = pa.array(variants, type=pa.string()).cast(pa.large_binary())
    h = pd.util.hash_pandas_object(b.to_pandas(), index=False).to_numpy()
    return (h & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)


def _deletion_self_join(ds, col: str, n: int, algorithm: str,
                        score_dtype: str = "int64", n_buckets: int = 256):
    """FastSS-style exact self-join: candidates = value pairs sharing a
    <=n-deletion variant (NECESSARY for standard/OSA distance <= n: every
    edit op is neutralized by deleting <=1 char on each side), verified
    with the banded-DP kernel.

    Scale contrast with the length plan: a length bucket holds every
    same-length value (corpus-proportional -> O(f^2) DP at web-scale
    vocab), while a deletion-signature group is STRUCTURALLY bounded
    (originators of one variant are within alphabet^n x positions,
    independent of corpus size).  The price is the exchange: ~O(L^n/n!)
    signature rows per value (8-byte hashes).  Use it when distinct
    values >> 10^5; the length plan wins below that."""
    import numpy as np

    from ..kernel.vectorized import batch_distances
    from ..stages.grouped import bucketed_apply

    def explode(t: pa.Table) -> pa.Table:
        vals = t.column(col).to_pylist()
        variants, out_v = [], []
        for v in vals:
            if v is None:
                continue
            for s in _deletion_variants(v, n):
                variants.append(s)
                out_v.append(v)
        return pa.table({
            "sig": _sig_hashes(variants),
            "val": pa.array(out_v, type=pa.string())})

    schema = _pair_schema("val_a", "val_b", score_dtype)

    def score_bucket(t: pa.Table) -> pa.Table:
        code, uniq = _sorted_codes(t.column("val"))
        df = pd.DataFrame({"sig": t.column("sig").to_numpy(), "v": code}) \
            .drop_duplicates()
        m = df.merge(df, on="sig")  # C-path in-group pair enumeration
        m = m[m["v_x"] < m["v_y"]].drop_duplicates(["v_x", "v_y"])
        if not len(m):
            return schema.empty_table()
        a = uniq.take(pa.array(m["v_x"].to_numpy()))
        b = uniq.take(pa.array(m["v_y"].to_numpy()))
        d = np.asarray(batch_distances(a, b, n, algorithm), dtype=np.int64)
        keep = pa.array(d <= n)
        return pa.table([a.filter(keep), b.filter(keep), d[d <= n]],
                        schema=schema)

    sigs = _distinct(ds, col).map_batches(explode, batch_format="pyarrow")
    pairs = bucketed_apply(sigs, "sig", score_bucket, n_buckets=n_buckets,
                           empty_result=schema.empty_table())
    # the same pair verifies in every shared-signature bucket — exact dedup
    return bucketed_apply(pairs, ["val_a", "val_b"],
                          _min_distance("val_a", "val_b"),
                          empty_result=schema.empty_table())


def fuzzy_self_join(ds, col: str, n: int = 2, algorithm: str = STANDARD, subst=None,
                    pair_scorer=None, max_score=None, len_diff=None,
                    score_dtype: str = "int64", engine: str = "auto",
                    blocking: str = "length"):
    """Dataset[(val_a, val_b, distance)] over distinct values of ``col``,
    val_a < val_b, distance <= n.  ``subst`` grants zero-cost substitutions
    (kernel.substitution presets).

    ``pair_scorer``/``max_score``/``len_diff`` plug an alternative distance
    engine into the same length-bucketed distributed plan (weighted
    operation sets, universal automaton — see ``_vec_self_pairs``);
    ``score_dtype`` pins the output distance dtype (float64 for weighted
    cost models).

    ``engine`` selects the per-bucket scorer: ``"auto"`` (vectorized
    banded DP with automaton fallback) or ``"arraytrie"`` (the CSR
    DoubleArrayTrie-role backend, kernel/arraytrie.py — the reference's
    fast default backend, src/dictionary/double_array_trie.rs:204).

    ``blocking``: ``"length"`` (default — one bucket per length band) or
    ``"deletion"`` (FastSS signature blocking, see
    :func:`_deletion_self_join` — the web-scale-vocab path whose group
    sizes are corpus-size-independent).  Deletion blocking supports
    standard/transposition with unit costs only (zero-cost substitutions
    and merge/split ops break signature completeness)."""
    from ..stages.grouped import coalesce_small_input

    ds = coalesce_small_input(ds)
    if blocking == "deletion":
        if subst is not None or pair_scorer is not None or \
                algorithm not in (STANDARD, "transposition"):
            raise ValueError(
                "deletion blocking supports unit-cost standard/"
                "transposition only")
        return _deletion_self_join(ds, col, n, algorithm,
                                   score_dtype=score_dtype)
    eff_len = n if len_diff is None else len_diff

    def explode(t: pa.Table) -> pa.Table:
        vals = t.column(col).to_pylist()
        out_b, out_v = [], []
        for v in vals:
            if v is None:
                continue
            for b in _len_keys(v, eff_len):
                out_b.append(b)
                out_v.append(v)
        return pa.table({"bucket": pa.array(out_b, type=pa.int32()),
                         "val": pa.array(out_v, type=pa.string())})

    schema = _pair_schema("val_a", "val_b", score_dtype)

    def score(g: pa.Table) -> pa.Table:
        vals = sorted(set(g.column("val").to_pylist()))
        a_out, b_out, d_out = [], [], []
        if len(vals) > 1:
            if engine == "arraytrie":
                from ..kernel.arraytrie import ArrayTrie, batched_query

                at = ArrayTrie.from_terms(vals, presorted=True)
                for q in vals:
                    for term, dist in batched_query(at, q, n, algorithm,
                                                    subst=subst):
                        if term > q:
                            a_out.append(q)
                            b_out.append(term)
                            d_out.append(dist)
                return pa.table([a_out, b_out, d_out], schema=schema)
            vec = _vec_self_pairs(vals, n, algorithm, subst,
                                  pair_scorer=pair_scorer, max_score=max_score,
                                  len_diff=len_diff)
            if vec is not None:
                a_out, b_out, d_out = vec
            else:
                trie = build_trie(vals)
                for q in vals:
                    for cand in kernel_query(trie, q, n, algorithm, subst=subst):
                        if cand.term > q:
                            a_out.append(q)
                            b_out.append(cand.term)
                            d_out.append(cand.distance)
        return pa.table([a_out, b_out, pd.Series(d_out, dtype=score_dtype)],
                        schema=schema)

    from ..stages.grouped import bucketed_apply

    pairs = (
        _distinct(ds, col)
        .map_batches(explode, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(score, batch_format="pyarrow")
    )
    # a pair can appear in two buckets (edge rule) — exact dedup
    return bucketed_apply(pairs, ["val_a", "val_b"],
                          _min_distance("val_a", "val_b"),
                          empty_result=schema.empty_table())


def deletion_signatures(ds, col: str, n: int):
    """Dataset[(sig: int64, val: string)] — the FastSS signature index of a
    value column.  Deterministic (fixed-key siphash), so a dictionary's
    index can be built ONCE, persisted as parquet and reused by every
    later :func:`fuzzy_join(..., blocking="deletion", right_sigs=...)`
    call — the SymSpell precomputed-index pattern, and the distributed
    analogue of the reference's serialized dictionaries (§2.8)."""
    import numpy as np

    def explode(t: pa.Table) -> pa.Table:
        vals = t.column(col).to_pylist()
        variants, out_v = [], []
        for v in vals:
            if v is None:
                continue
            for s in _deletion_variants(v, n):
                variants.append(s)
                out_v.append(v)
        return pa.table({
            "sig": _sig_hashes(variants),
            "val": pa.array(out_v, type=pa.string())})

    return _distinct(ds, col).map_batches(explode, batch_format="pyarrow")


def _deletion_probe_join(left, left_col: str, right_sigs, n: int,
                         algorithm: str, max_probes: int = 200_000):
    """Query-stream-vs-indexed-dictionary join: the LEFT side (probes) is
    small, the RIGHT side is a persisted :func:`deletion_signatures`
    index.  The probe signature table is broadcast ONCE via ``ray.put``
    and the index streams through a stateless semi-join filter — the
    index is NEVER re-shuffled (measured on the 124k-word dictionary
    index, 60 probes: 29 s exchange plan -> ~4 s broadcast plan).  This
    is the distributed analogue of the reference's per-query automaton
    lookup against a prebuilt dictionary."""
    import numpy as np
    import ray

    from ..kernel.vectorized import batch_distances
    from ..stages.grouped import bucketed_apply

    rows = _distinct(left, left_col).take(max_probes + 1)
    if len(rows) > max_probes:
        raise ValueError(
            f"probe side exceeds max_probes={max_probes}; use the "
            "exchange plan (right_sigs=None) for large-vs-large joins")
    toks = [r[left_col] for r in rows if r[left_col] is not None]
    variants, owner = [], []
    for v in toks:
        for s in _deletion_variants(v, n):
            variants.append(s)
            owner.append(v)
    probe_ref = ray.put(pa.table({
        "sig": _sig_hashes(variants),
        "tok": pa.array(owner, type=pa.string()),
    }))
    schema = _pair_schema("left_val", "right_val")

    def match(t: pa.Table) -> pa.Table:
        p = ray.get(probe_ref)  # zero-copy handle from the local store
        m = t.select(["sig", "val"]).join(p, "sig", join_type="inner") \
            .group_by(["tok", "val"]).aggregate([])
        d = np.asarray(batch_distances(m.column("tok"), m.column("val"), n, algorithm),
                       dtype=np.int64)
        keep = pa.array(d <= n)
        return pa.table([m.column("tok").filter(keep),
                         m.column("val").filter(keep), d[d <= n]],
                        schema=schema)

    pairs = right_sigs.map_batches(match, batch_format="pyarrow")
    return bucketed_apply(pairs, ["left_val", "right_val"],
                          _min_distance("left_val", "right_val"),
                          empty_result=schema.empty_table())


def _deletion_join(left, right, left_col: str, right_col: str, n: int,
                   algorithm: str, n_buckets: int = 256):
    """Two-sided FastSS deletion-signature join (see
    :func:`_deletion_self_join` for the blocking analysis): candidates =
    cross-side value pairs sharing a <=n-deletion variant, verified with
    the banded-DP kernel.  For a SMALL probe side against a persisted
    index use :func:`_deletion_probe_join` (via
    ``fuzzy_join(right_sigs=...)``) instead — it never re-shuffles the
    index."""
    import numpy as np

    from ..kernel.vectorized import batch_distances
    from ..stages.grouped import bucketed_apply

    def explode(side: str, col: str):
        def fn(t: pa.Table) -> pa.Table:
            vals = t.column(col).to_pylist()
            variants, out_v = [], []
            for v in vals:
                if v is None:
                    continue
                for s in _deletion_variants(v, n):
                    variants.append(s)
                    out_v.append(v)
            return pa.table({
                "sig": _sig_hashes(variants),
                "val": pa.array(out_v, type=pa.string()),
                "side": pa.array([side] * len(out_v), type=pa.string())})
        return fn

    tagged = _distinct(left, left_col).map_batches(
        explode("l", left_col), batch_format="pyarrow"
    ).union(
        _distinct(right, right_col).map_batches(
            explode("r", right_col), batch_format="pyarrow"))
    schema = _pair_schema("left_val", "right_val")

    def score_bucket(t: pa.Table) -> pa.Table:
        code, uniq = _sorted_codes(t.column("val"))
        df = pd.DataFrame({"sig": t.column("sig").to_numpy(), "v": code,
                           "side": t.column("side").to_numpy(
                               zero_copy_only=False)}).drop_duplicates()
        lt = df[df["side"] == "l"]
        rt = df[df["side"] == "r"]
        m = lt.merge(rt, on="sig").drop_duplicates(["v_x", "v_y"])
        if not len(m):
            return schema.empty_table()
        a = uniq.take(pa.array(m["v_x"].to_numpy()))
        b = uniq.take(pa.array(m["v_y"].to_numpy()))
        d = np.asarray(batch_distances(a, b, n, algorithm), dtype=np.int64)
        keep = pa.array(d <= n)
        return pa.table([a.filter(keep), b.filter(keep), d[d <= n]],
                        schema=schema)

    pairs = bucketed_apply(tagged, "sig", score_bucket, n_buckets=n_buckets,
                           empty_result=schema.empty_table())
    return bucketed_apply(pairs, ["left_val", "right_val"],
                          _min_distance("left_val", "right_val"),
                          empty_result=schema.empty_table())


def fuzzy_join(left, right, left_col: str, right_col: str, n: int = 2,
               algorithm: str = STANDARD, blocking: str = "length",
               right_sigs=None):
    """Dataset[(left_val, right_val, distance)]: distinct left values matched
    against distinct right values within edit distance n.  ``blocking`` as
    in :func:`fuzzy_self_join` (``"deletion"`` = the web-scale-vocab path;
    unit-cost standard/transposition only).  ``right_sigs``: a persisted
    :func:`deletion_signatures` index of the right side (deletion blocking
    only) — skips rebuilding the dictionary index per run."""
    if blocking == "deletion":
        if algorithm not in (STANDARD, "transposition"):
            raise ValueError(
                "deletion blocking supports unit-cost standard/"
                "transposition only")
        if right_sigs is not None:
            return _deletion_probe_join(left, left_col, right_sigs, n,
                                        algorithm)
        return _deletion_join(left, right, left_col, right_col, n, algorithm)
    if right_sigs is not None:
        raise ValueError("right_sigs requires blocking='deletion'")

    def explode(side: str, col: str):
        def fn(t: pa.Table) -> pa.Table:
            vals = t.column(col).to_pylist()
            out_b, out_v, out_s = [], [], []
            for v in vals:
                if v is None:
                    continue
                for b in _len_keys(v, n):
                    out_b.append(b)
                    out_v.append(v)
                    out_s.append(side)
            return pa.table({"bucket": pa.array(out_b, type=pa.int32()),
                             "val": pa.array(out_v, type=pa.string()),
                             "side": pa.array(out_s, type=pa.string())})
        return fn

    tagged = _distinct(left, left_col).map_batches(
        explode("l", left_col), batch_format="pyarrow"
    ).union(
        _distinct(right, right_col).map_batches(
            explode("r", right_col), batch_format="pyarrow"
        )
    )

    schema = _pair_schema("left_val", "right_val")

    def score(g: pa.Table) -> pa.Table:
        import numpy as np

        from ..kernel.vectorized import batch_distances

        vals = g.column("val").to_pylist()
        sides = g.column("side").to_pylist()
        lvals = sorted({v for v, s in zip(vals, sides) if s == "l"})
        rvals = sorted({v for v, s in zip(vals, sides) if s == "r"})
        a_out, b_out, d_out = [], [], []
        if lvals and rvals:
            if len(lvals) * len(rvals) <= _VEC_MAX_PAIRS:
                llen = np.fromiter((len(v) for v in lvals), np.int64, count=len(lvals))
                rlen = np.fromiter((len(v) for v in rvals), np.int64, count=len(rvals))
                ii, jj = np.nonzero(np.abs(llen[:, None] - rlen[None, :]) <= n)
                d = batch_distances(
                    [lvals[i] for i in ii], [rvals[j] for j in jj], n, algorithm
                )
                keep = d <= n
                a_out = [lvals[i] for i in ii[keep]]
                b_out = [rvals[j] for j in jj[keep]]
                d_out = d[keep].tolist()
            else:
                trie = build_trie(rvals)
                for q in lvals:
                    for cand in kernel_query(trie, q, n, algorithm):
                        a_out.append(q)
                        b_out.append(cand.term)
                        d_out.append(cand.distance)
        return pa.table([a_out, b_out, d_out], schema=schema)

    from ..stages.grouped import bucketed_apply

    pairs = tagged.groupby("bucket").map_groups(score, batch_format="pyarrow")
    return bucketed_apply(pairs, ["left_val", "right_val"],
                          _min_distance("left_val", "right_val"),
                          empty_result=schema.empty_table())


def canonicalize_terms(ds, col: str, n: int = 1, algorithm: str = STANDARD):
    """Dataset[(term, canon)] — term normalization: connected components of
    the d<=n fuzzy self-join, canonical representative = the component's
    lexicographic minimum (singletons map to themselves).  The term-level
    analogue of er_clusters — the reference's union_with / value-merge over
    equivalent dictionary entries (SURVEY §2.5-2.6) expressed as
    edges -> transitive closure -> min-label."""
    import pyarrow as pa

    from ..stages.cluster import connected_components

    # diamond: the distinct-term table feeds BOTH the self-join and the
    # self-loop side — pin it once (the distinct vocabulary is the small
    # side; at cluster scale the per-partition checkpoint parquet of this
    # stage plays the same role) instead of re-executing the upstream plan
    # per consumer
    terms = _distinct(ds, col).materialize()
    pairs = fuzzy_self_join(terms, col, n=n, algorithm=algorithm)

    def to_edges(t: pa.Table) -> pa.Table:
        return pa.table({"url_a": t.column("val_a").cast(pa.string()),
                         "url_b": t.column("val_b").cast(pa.string())})

    # self-loops register every term (incl. singletons) as a labeled node —
    # one extra row per DISTINCT term, linear, no effect on components
    def self_loops(t: pa.Table) -> pa.Table:
        v = t.column(col).cast(pa.string())
        return pa.table({"url_a": v, "url_b": v})

    edges = pairs.map_batches(to_edges, batch_format="pyarrow").union(
        terms.map_batches(self_loops, batch_format="pyarrow")
    )
    out = connected_components(edges)

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({"term": t.column("url"),
                         "canon": t.column("cluster_id")})

    return out.map_batches(rename, batch_format="pyarrow")


def fuzzy_topk(ds, col: str, k: int = 3, n: int = 2, algorithm: str = STANDARD):
    """Per distinct value: its k nearest OTHER distinct values within
    distance n, ranked (distance asc, value lexicographic) — the
    ``query_ordered``/``query_ranked`` + limit surface
    (/root/reference/src/transducer/ordered_query.rs:64-340) as a join.

    Output: (query, match, distance, rank).  Partial top-k per length
    bucket, global merge per query (small: <= k rows per bucket)."""
    from ..stages.grouped import bucketed_apply
    from ..stages.keys import key_codes, run_ranks

    def explode(t: pa.Table) -> pa.Table:
        vals = t.column(col).to_pylist()
        out_b, out_v = [], []
        for v in vals:
            if v is None:
                continue
            for b in _len_keys(v, n):
                out_b.append(b)
                out_v.append(v)
        return pa.table({"bucket": pa.array(out_b, type=pa.int32()),
                         "val": pa.array(out_v, type=pa.string())})

    schema = pa.schema([("query", pa.string()), ("match", pa.string()),
                        ("distance", pa.int64())])

    def ranked(t: pa.Table) -> pa.Table:
        """Rows of ``t`` ranked per query by (distance, match), rank <= k."""
        t = t.sort_by([("query", "ascending"), ("distance", "ascending"),
                       ("match", "ascending")])
        rank = run_ranks(key_codes(t.column("query")))
        return t.filter(pa.array(rank <= k)).append_column(
            "rank", pa.array(rank[rank <= k], pa.int64()))

    def score(g: pa.Table) -> pa.Table:
        from ..kernel.query import ordered_query

        vals = sorted(set(g.column("val").to_pylist()))
        q_out, m_out, d_out = [], [], []
        if len(vals) > 1:
            vec = _vec_self_pairs(vals, n, algorithm)
            if vec is not None:
                # symmetric distances: emit both directions, then the
                # ordered-query rank rule (distance asc, term lexicographic)
                a, b, d = vec
                return ranked(pa.table([a + b, b + a, d + d], schema=schema)) \
                    .drop_columns(["rank"])
            trie = build_trie(vals)
            for q in vals:
                got = [c for c in ordered_query(trie, q, n, algorithm) if c.term != q]
                for cand in got[:k]:
                    q_out.append(q)
                    m_out.append(cand.term)
                    d_out.append(cand.distance)
        return pa.table([q_out, m_out, d_out], schema=schema)

    partial = (
        _distinct(ds, col)
        .map_batches(explode, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(score, batch_format="pyarrow")
    )

    def merge(t: pa.Table) -> pa.Table:
        return ranked(t.group_by(["query", "match"], use_threads=False)
                      .aggregate([("distance", "min")])
                      .rename_columns(schema.names))

    return bucketed_apply(
        partial, "query", merge,
        empty_result=schema.append(pa.field("rank", pa.int64())).empty_table())


def substring_search(ds, text_col: str, id_col: str, pattern: str, n: int = 1):
    """Approximate substring occurrences of ``pattern`` in each document
    (suffix-automaton capability as a map_batches stage): one output row per
    document with at least one match, carrying the best (distance, end)."""
    from ..kernel.substring import best_substring_match

    def scan(t: pa.Table) -> pa.Table:
        ids, dists, ends = [], [], []
        for i, x in zip(t.column(id_col).to_pylist(), t.column(text_col).to_pylist()):
            got = best_substring_match(pattern, x or "", n)
            if got is not None:
                ids.append(i)
                dists.append(got[0])
                ends.append(got[1])
        return pa.table({
            id_col: pa.array(ids),
            "distance": pa.array(dists, type=pa.int64()),
            "match_end": pa.array(ends, type=pa.int64()),
        })

    return ds.map_batches(scan, batch_format="pyarrow")


def substring_positions(ds, text_col: str, id_col: str, pattern: str, n: int = 1):
    """ALL approximate occurrences of ``pattern`` per document — one row per
    (doc, end) with its distance.  The reference's full ``match_positions``
    surface (/root/reference/src/dictionary/suffix_automaton.rs:758), where
    :func:`substring_search` keeps only the best hit per doc.  ``match_end``
    counts characters consumed (exclusive 0-based end == 1-based position of
    the match's last character), so d=0 is SQL-checkable with substr()."""
    from ..kernel.substring import substring_match_ends

    def scan(t: pa.Table) -> pa.Table:
        ids, dists, ends = [], [], []
        for i, x in zip(t.column(id_col).to_pylist(), t.column(text_col).to_pylist()):
            e, d = substring_match_ends(pattern, x or "", n)
            ids.extend([i] * len(e))
            ends.extend(e.tolist())
            dists.extend(d.tolist())
        return pa.table({
            id_col: pa.array(ids),
            "match_end": pa.array(ends, type=pa.int64()),
            "distance": pa.array(dists, type=pa.int64()),
        })

    return ds.map_batches(scan, batch_format="pyarrow")


def fuzzy_lookup_agg(queries, dictionary, query_col: str, term_col: str,
                     value_col: str, n: int = 1, algorithm: str = STANDARD,
                     value_pred=None, backend: str = "trie",
                     max_broadcast_terms: int = 2_000_000):
    """FuzzyMultiMap: per query, the sorted-distinct union of payload values
    of ALL dictionary terms within distance n, comma-joined (plus match
    count and min distance) — mirrors union-semantics multimap lookups.

    ``value_pred`` is the value-filter pushdown of
    ``Transducer::query_filtered`` (/root/reference/src/transducer/mod.rs:548-564):
    failing values are pruned from the dictionary BEFORE the trie is built
    (a term with no surviving values disappears entirely), so filtered
    branches are never traversed — the reference prunes during traversal;
    pruning the broadcast dictionary gives the same visible semantics one
    step earlier.

    ``backend`` picks the per-actor dictionary structure: ``"trie"``
    (default), ``"path_map"`` (MappedTrie — values resolved through the
    mapped-dictionary surface itself, the reference's
    ``PathMapDictionary<V>`` role, src/dictionary/pathmap.rs:44), or
    ``"array_trie"`` (CSR trie + level-synchronous batched query).

    SIZE GUARD (round-2 VERDICT task 5): the broadcast path materializes
    the dictionary on the driver — correct for the reference-sized small
    side (124k terms ~ 2 MB) but wrong for a web-scale dictionary.  Above
    ``max_broadcast_terms`` rows (count from parquet/block metadata, no
    scan) the lookup auto-routes through the distributed
    deletion-signature probe join instead (same relation; pinned by
    tests/test_fuzzy_scale.py parity)."""
    import ray

    if dictionary.count() > max_broadcast_terms:  # metadata only, no scan
        return _fuzzy_lookup_agg_distributed(
            queries, dictionary, query_col, term_col, value_col,
            n=n, algorithm=algorithm, value_pred=value_pred,
        )

    # dictionary term -> sorted distinct values, broadcast (small side)
    dict_df = (
        dictionary.select_columns([term_col, value_col])
        .to_pandas()
        .dropna()
    )
    term_values: dict[str, set] = {}
    for t, v in zip(dict_df[term_col], dict_df[value_col]):
        if value_pred is not None and not value_pred(v):
            continue
        term_values.setdefault(t, set()).add(str(v))
    ref = ray.put(term_values)

    class Lookup:
        def __init__(self):
            self.tv = None
            self.trie = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self.tv is None:
                self.tv = ray.get(ref)
                if backend == "path_map":
                    from ..kernel.pathmap import MappedTrie

                    self.trie = MappedTrie(
                        (t, frozenset(vs)) for t, vs in sorted(self.tv.items()))
                elif backend == "array_trie":
                    from ..kernel.arraytrie import ArrayTrie

                    self.trie = ArrayTrie.from_terms(sorted(self.tv),
                                                     presorted=True)
                else:
                    self.trie = build_trie(sorted(self.tv))
            out_q, out_v, out_c, out_d = [], [], [], []
            if backend == "array_trie":
                from ..kernel.arraytrie import batched_query as _bq

                def hits(q):
                    return _bq(self.trie, q, n, algorithm)
            else:
                def hits(q):
                    return ((c.term, c.distance)
                            for c in kernel_query(self.trie, q, n, algorithm))
            for q in batch.column(query_col).to_pylist():
                if q is None:
                    continue
                vals: set = set()
                cnt = 0
                mind = None
                for term, dist in hits(q):
                    if backend == "path_map":
                        vals |= self.trie.get(term)
                    else:
                        vals |= self.tv[term]
                    cnt += 1
                    if mind is None or dist < mind:
                        mind = dist
                out_q.append(q)
                out_v.append(",".join(sorted(vals)))
                out_c.append(cnt)
                out_d.append(-1 if mind is None else mind)
            return pa.table(
                {
                    "query": pa.array(out_q, type=pa.string()),
                    "values": pa.array(out_v, type=pa.string()),
                    "n_matches": pa.array(out_c, type=pa.int64()),
                    "min_distance": pa.array(out_d, type=pa.int64()),
                }
            )

    return _distinct(queries, query_col).map_batches(Lookup(), batch_format="pyarrow")


def _fuzzy_lookup_agg_distributed(queries, dictionary, query_col: str,
                                  term_col: str, value_col: str, n: int,
                                  algorithm: str, value_pred=None):
    """Web-scale twin of :func:`fuzzy_lookup_agg`: the dictionary NEVER
    reaches the driver.  Plan:

    1. value-filter pushdown as a distributed batch filter (terms whose
       values all fail vanish, matching the broadcast path);
    2. (query, term, distance) pairs via the deletion-signature join
       (corpus-size-independent candidate groups) — length blocking for
       algorithms the deletion index doesn't cover;
    3. one term-keyed bucketed exchange attaches each term's distinct
       values to its matching queries;
    4. one query-keyed bucketed exchange aggregates values / match count
       / min distance, with a sentinel stream so queries with zero
       matches still emit their empty row."""
    import numpy as np

    from ..stages.grouped import bucketed_apply
    from ..stages.keys import key_codes

    dict2 = dictionary.select_columns([term_col, value_col])
    if value_pred is not None:
        def vfilter(df: pd.DataFrame) -> pd.DataFrame:
            df = df.dropna()
            return df[df[value_col].map(value_pred)].reset_index(drop=True)

        dict2 = dict2.map_batches(vfilter, batch_format="pandas")
    else:
        dict2 = dict2.map_batches(
            lambda df: df.dropna().reset_index(drop=True),
            batch_format="pandas")

    blocking = "deletion" if algorithm in (STANDARD, "transposition") else "length"
    pairs = fuzzy_join(queries, dict2, query_col, term_col,
                       n=n, algorithm=algorithm, blocking=blocking)

    # --- term-keyed exchange: pairs + dict values, tagged union ----------
    # .to_numpy() everywhere: mixing indexed Series (a filtered batch
    # keeps its original index) with fresh Series would misalign rows
    def tag_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "term": pd.Series(df["right_val"].to_numpy(), dtype="object"),
            "query": pd.Series(df["left_val"].to_numpy(), dtype="object"),
            "value": pd.Series([""] * len(df), dtype="object"),
            "distance": pd.Series(df["distance"].to_numpy(), dtype="int64"),
            "side": pd.Series(["p"] * len(df), dtype="object"),
        })

    def tag_dict(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "term": pd.Series(df[term_col].to_numpy(), dtype="object"),
            "query": pd.Series([""] * len(df), dtype="object"),
            "value": pd.Series(df[value_col].astype(str).to_numpy(),
                               dtype="object"),
            "distance": pd.Series([-1] * len(df), dtype="int64"),
            "side": pd.Series(["d"] * len(df), dtype="object"),
        })

    mid_schema = pa.schema([("query", pa.string()), ("value", pa.string()),
                            ("distance", pa.int64()), ("side", pa.string())])

    def groups(t: pa.Table, col: str):
        """``t``'s rows as pandas frames, one per ``col`` value; a null key
        has no group, as in a pandas groupby."""
        codes = key_codes(t.column(col))
        return (g for c, g in t.to_pandas().groupby(codes, sort=False)
                if c >= 0)

    def attach_values(t: pa.Table) -> pa.Table:
        outs = []
        for g in groups(t, "term"):
            p = g[g["side"] == "p"]
            if not len(p):
                continue
            vals = sorted(set(g.loc[g["side"] == "d", "value"]))
            # stat rows: one per (query, term) -> count + min distance
            outs.append(pd.DataFrame({
                "query": p["query"].to_numpy(),
                "value": "",
                "distance": p["distance"].to_numpy(),
                "side": "q",
            }))
            if vals:  # value rows: query x distinct value
                nq = len(p)
                outs.append(pd.DataFrame({
                    "query": np.repeat(p["query"].to_numpy(), len(vals)),
                    "value": np.tile(np.asarray(vals, dtype=object), nq),
                    "distance": -1,
                    "side": "v",
                }))
        if not outs:
            return mid_schema.empty_table()
        return pa.Table.from_pandas(
            pd.concat(outs, ignore_index=True), schema=mid_schema,
            preserve_index=False).replace_schema_metadata(None)

    mid = bucketed_apply(
        pairs.map_batches(tag_pairs, batch_format="pandas")
        .union(dict2.map_batches(tag_dict, batch_format="pandas")),
        "term", attach_values, empty_result=mid_schema.empty_table(),
    )

    # --- query-keyed exchange: final aggregate + zero-match sentinels ----
    def sentinels(t: pa.Table) -> pa.Table:
        import pyarrow as pa_

        q = t.column(query_col)
        nrows = t.num_rows
        return pa_.table({
            "query": q.cast(pa_.string()),
            "value": pa_.array([""] * nrows, type=pa_.string()),
            "distance": pa_.array([-1] * nrows, type=pa_.int64()),
            "side": pa_.array(["s"] * nrows, type=pa_.string()),
        })

    out_schema = pa.schema([("query", pa.string()), ("values", pa.string()),
                            ("n_matches", pa.int64()),
                            ("min_distance", pa.int64())])

    def agg(t: pa.Table) -> pa.Table:
        out_q, out_v, out_c, out_d = [], [], [], []
        for g in groups(t, "query"):
            stats = g[g["side"] == "q"]
            out_q.append(g["query"].iloc[0])
            out_v.append(",".join(sorted(set(g.loc[g["side"] == "v", "value"]))))
            out_c.append(len(stats))
            out_d.append(int(stats["distance"].min()) if len(stats) else -1)
        return pa.table([out_q, out_v, out_c, out_d], schema=out_schema)

    return bucketed_apply(
        mid.union(_distinct(queries, query_col).map_batches(
            sentinels, batch_format="pyarrow")),
        "query", agg, empty_result=out_schema.empty_table(),
    )
