"""Deduplication operators over a string column (training-data pipeline ops).

All operators take a ``ray.data.Dataset`` and column names and return
Datasets; shuffles are explicit:

* ``exact_dedup``      — content-hash partition + per-group min-id keep
  (one shuffle on a 64-bit hash; the classic exact pass)
* ``minhash_lsh_pairs``— shingle → minhash → band → bucket groupby →
  candidate pairs → exact-jaccard verify (near-dedup)
* ``simhash_pairs``    — 64-bit simhash, band buckets, Hamming verify
* ``embedding_neardup_pairs`` — cosine near-dup over an embedding column
  (exact broadcast-matmul baseline; random-hyperplane LSH scale path with
  star collapse, salted hot buckets, and a thin-row ``vec_transport="join"``
  mode that never ships vectors through the bucket exchange)

Pair outputs are canonical (id_a < id_b) and deduplicated.
"""

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.minhash import (  # noqa: F401
    jaccard_estimate,
    minhash_band_keys_batch,
    minhash_bands,
    minhash_signature,
    minhash_signatures_batch,
)
from ..functions.simhash import simhash64, simhash_bands, hamming64, hash64  # noqa: F401
from ..functions.tokenize import char_ngrams
from .similarity import _list_col_matrix

# byte-wise popcount lookup table for vectorized 64-bit Hamming distance
_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

# per-process cache of seeded LSH hyperplane tables (built once per worker,
# not per batch): (dim, n_planes, n_tables) -> list of (dim, n_planes) arrays
_LSH_PLANES_CACHE: dict = {}


def _lsh_planes(dim: int, n_planes: int, n_tables: int, seed: int = 1234):
    key = (dim, n_planes, n_tables, seed)
    if key not in _LSH_PLANES_CACHE:
        rng = np.random.default_rng(seed)
        _LSH_PLANES_CACHE[key] = [
            rng.standard_normal((dim, n_planes)) for _ in range(n_tables)
        ]
    return _LSH_PLANES_CACHE[key]


def _vec_hash_and_salts(m_raw, m_norm):
    """Per-row 64-bit content hash (byte-identical rows collapse to stars)
    plus two 8-bit sign salts from EXTRA hyperplanes (distinct seed so salt
    bits never repeat a bucket table's own key bits).  Near-dup pairs agree
    on each extra sign bit with prob 1-θ/π, so salting an oversized bucket
    keeps most true pairs co-salted while splitting random floods ~256-way."""
    m_raw = np.ascontiguousarray(m_raw)
    h = np.fromiter(
        (hash64(r.tobytes()) for r in m_raw), dtype=np.uint64, count=len(m_raw)
    )
    sp = _lsh_planes(m_norm.shape[1], 8, 2, seed=99991)
    weights = 1 << np.arange(8)
    s0 = (((m_norm @ sp[0]) > 0) @ weights).astype(np.uint8)
    s1 = (((m_norm @ sp[1]) > 0) @ weights).astype(np.uint8)
    return h, s0, s1


# ----------------------------------------------------------------------
def _doc_distinct_shingle_hashes(col, k: int):
    """Per-document DISTINCT word-``k``-shingle blake2b hashes, columnar:
    ``(parents, hashes, n_sh)`` — flat uint64 hashes with their doc row
    index, plus the per-doc distinct-shingle count.  The tokenizer /
    shingler is one numpy pass over the batch's flat string buffer and
    the blake2b loop runs once per DISTINCT shingle in the batch, not
    once per occurrence (``functions.tokenize.shingle_codes_column``)."""
    from ..functions.tokenize import shingle_codes_column

    codes, offs, uniq = shingle_codes_column(col, k)
    n_docs = len(offs) - 1
    if len(codes) == 0:
        return (np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.uint64),
                np.zeros(n_docs, dtype=np.int64))
    doc = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(offs))
    n_uniq = len(uniq)
    dk = np.unique(doc * n_uniq + codes)      # distinct (doc, shingle)
    d = dk // n_uniq
    c = dk % n_uniq
    uh = np.fromiter((hash64(s) for s in uniq.to_pylist()),
                     dtype=np.uint64, count=n_uniq)
    n_sh = np.bincount(d, minlength=n_docs).astype(np.int64)
    return d, uh[c], n_sh


def _bench_shingle_array(benchmark_texts, text_col: str, k: int):
    """Sorted uint64 blake2b hashes of the benchmark side's DISTINCT
    word-``k``-shingles — the broadcast payload for decontaminate and
    contamination_report (buffer-backed: every task's ``ray.get`` is a
    zero-copy view of the local object store)."""
    import numpy as np

    bench: set[int] = set()
    if hasattr(benchmark_texts, "iter_batches"):
        for b in benchmark_texts.select_columns([text_col]).iter_batches(
            batch_size=4096, batch_format="pyarrow"
        ):
            _, hh, _ = _doc_distinct_shingle_hashes(b.column(text_col), k)
            bench.update(hh.tolist())
    else:
        _, hh, _ = _doc_distinct_shingle_hashes(
            pa.array([x or "" for x in benchmark_texts],
                     type=pa.string()), k)
        bench.update(hh.tolist())
    return np.fromiter(sorted(bench), dtype=np.uint64, count=len(bench))


def decontaminate(ds, text_col: str, benchmark_texts, k: int = 3,
                  min_overlap: int = 1):
    """Training-data decontamination: drop corpus rows sharing at least
    ``min_overlap`` DISTINCT word-``k``-shingles with a benchmark/test
    set; survivors pass through with their full schema.

    The benchmark is the SMALL side by definition (eval sets are
    thousands of documents, the corpus is the 100-TB side): its shingles
    are hashed once on the driver into a SORTED uint64 numpy array and
    broadcast via ``ray.put`` — buffer-backed, so every task's
    ``ray.get`` is a true zero-copy view of the local object store (a
    Python set would be pickle-deserialized per task).  The corpus
    streams through ONE stateless ``map_batches`` filter whose
    membership test is a single ``np.isin`` over the batch's flattened
    shingle hashes — no shuffle, no join, nothing proportional to the
    corpus crosses the network.  Overlap is counted on 64-bit blake2b
    shingle hashes, not strings: a false drop needs a corpus shingle
    colliding with a benchmark shingle (p ~ |bench| / 2^64 per distinct
    shingle — negligible even at 10^12 docs).  For a benchmark too large
    to broadcast exactly, swap the array for a Bloom filter
    (``kernel.bloom``) — same stage shape, with bounded false-positive
    over-drops instead of exactness.

    ``benchmark_texts``: an iterable of strings, or a Dataset with
    ``text_col`` (consumed on the driver — small side only)."""
    import ray

    bref = ray.put(_bench_shingle_array(benchmark_texts, text_col, k))

    def keep(t: pa.Table) -> pa.Table:
        b = ray.get(bref)  # zero-copy numpy view of the local object store
        parents, ha, _ = _doc_distinct_shingle_hashes(
            t.column(text_col), k)  # DISTINCT overlap
        n = np.zeros(t.num_rows, dtype=np.int64)
        if len(ha):
            hit = np.isin(ha, b)
            n += np.bincount(parents[hit],
                             minlength=t.num_rows).astype(np.int64)
        return t.filter(pa.array(n < min_overlap, type=pa.bool_()))

    return ds.map_batches(keep, batch_format="pyarrow")


def contamination_report(ds, text_col: str, id_col: str,
                         benchmark_texts, k: int = 3):
    """Per-document contamination MEASUREMENT — the reporting twin of
    :func:`decontaminate`'s drop rule: ``(id_col, n_shingles,
    n_contaminated, frac)`` where ``n_shingles`` is the doc's DISTINCT
    word-``k``-shingle count, ``n_contaminated`` how many of those
    appear in the benchmark's shingle set, and ``frac`` their ratio
    (0.0 for shingle-less docs).  Run this BEFORE committing to a
    ``min_overlap`` policy — the frac distribution is what the
    threshold should be read off.  Same scale shape as decontaminate:
    benchmark shingles broadcast once (sorted uint64 array, zero-copy
    per task), corpus streams through ONE stateless pass, no shuffle."""
    import ray

    bref = ray.put(_bench_shingle_array(benchmark_texts, text_col, k))
    id_type = ds.schema().base_schema.field(id_col).type

    def report(t: pa.Table) -> pa.Table:
        b = ray.get(bref)
        parents, ha, n_sh = _doc_distinct_shingle_hashes(
            t.column(text_col), k)
        n_hit = np.zeros(t.num_rows, dtype=np.int64)
        if len(ha):
            hit = np.isin(ha, b)
            n_hit += np.bincount(parents[hit],
                                 minlength=t.num_rows).astype(np.int64)
        frac = n_hit / np.maximum(n_sh, 1)
        return pa.table({
            id_col: t.column(id_col).combine_chunks(),
            "n_shingles": pa.array(n_sh, type=pa.int64()),
            "n_contaminated": pa.array(n_hit, type=pa.int64()),
            "frac": pa.array(frac, type=pa.float64()),
        }, schema=pa.schema([(id_col, id_type),
                             ("n_shingles", pa.int64()),
                             ("n_contaminated", pa.int64()),
                             ("frac", pa.float64())]))

    return ds.map_batches(report, batch_format="pyarrow")


# ----------------------------------------------------------------------
def exact_dedup(ds, text_col: str, id_col: str):
    """Keep one row (min id) per distinct text.  Hash-partition on a content
    hash so the groupby shuffles co-locates duplicates by an 8-byte key, but
    dedup WITHIN the bucket compares the text itself — a 64-bit hash alone
    has ~3x10^7 expected birthday collisions at 10^12 docs, each of which
    would silently merge two distinct documents; text-compare makes a
    collision cost a slightly bigger bucket instead of a wrong answer."""

    def add_hash(t: pa.Table) -> pa.Table:
        hs = pa.array(
            [hash64(x) if x is not None else 0 for x in t.column(text_col).to_pylist()],
            type=pa.uint64(),
        )
        return t.append_column("__content_hash", hs)

    from .grouped import bucketed_apply

    def keep_min_id(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(id_col).drop_duplicates(text_col, keep="first")

    return bucketed_apply(
        ds.map_batches(add_hash, batch_format="pyarrow"), "__content_hash", keep_min_id
    ).drop_columns(["__content_hash"])


# ----------------------------------------------------------------------
_BANDED_SIG_EXCHANGE_CAP = 1 << 30  # banded -> join above 1 GiB of band rows


def minhash_lsh_pairs(
    ds,
    text_col: str,
    id_col: str,
    threshold: float = 0.5,
    num_perm: int = 64,
    n_bands: int = 32,
    shingle_k: int = 3,
    max_bucket: int = 256,
    hasher: str = "blake2b",
    sig_transport: str = "auto",
):
    """Near-duplicate candidate pairs via MinHash LSH, verified with the
    signature Jaccard estimate >= ``threshold``.

    Shape: map_batches (signatures + band keys, explode) → groupby(band
    bucket) → within-bucket candidate pairs (each bucket is tiny by LSH
    construction) → groupby(pair) dedup.

    Identical signatures collapse to a star (rep = min id) and buckets over
    ``max_bucket`` distinct signatures are salted — the emitted edge set is
    connectivity-equivalent to the full clique set (pinned by tests) and
    bounded O(bucket) instead of O(bucket^2) under duplicate floods.

    ``hasher="md5"`` switches shingle hashing / permutations / band keys to
    the DuckDB-reproducible md5 forms (functions.minhash md5 variant) so
    the whole LSH pipeline can be checked against a SQL oracle; output
    semantics are identical, only the hash family differs.

    ``sig_transport`` picks how full signatures reach the verify step —
    the 100-TB knob (output rows are identical either way, pinned by test):

    * ``"banded"`` — the full ``num_perm*8``-byte signature rides on every
      band row, so the ONE band exchange carries ``n_bands`` copies per doc
      (~16 KB/doc at the defaults — ~16x a typical web page's text).  Two
      exchanges total; optimal while the band table fits shared memory.
    * ``"join"`` — band rows carry only ``(id, band_key, sig_hash64, two
      salt bytes)`` (~40 B/row); candidate pairs form on the hash (stars +
      salting identical to banded), and the full signatures are attached
      ONCE per distinct pair by two id-keyed exchanges against a
      materialized ``(id, sig)`` table.  Exchange bytes ≈ ``40*n_bands +
      3*num_perm*8``/doc (~2.8 KB at the defaults, 6x less; the band
      exchange itself shrinks 12x) and the verify runs once per distinct
      pair instead of once per co-occurring bucket.  The sig table is the
      one deliberate materialization — ``num_perm*8`` B/doc, 12x smaller
      than the band payload it replaces, and it spills via the object
      store at scale.
    * ``"auto"`` (default) — banded until the band-exchange payload would
      exceed 1 GiB (row count from parquet/block metadata, no scan), join
      beyond.
    """
    n_docs = ds.count()  # parquet/block metadata, no scan
    if sig_transport == "auto":
        banded_bytes = n_docs * n_bands * (num_perm * 8 + 48)
        sig_transport = "join" if banded_bytes > _BANDED_SIG_EXCHANGE_CAP else "banded"
    # Small-input coalesce: the fixed 64-split read plan is right for the
    # web-scale corpus, but a tiny side table (docs <= 64k) split 64 ways
    # pays 64 sign dispatches + 64 x n_partitions shuffle fragments of
    # ~80-row blocks — pure overhead.  Coalescing to ~256 docs/block
    # measured 3.0 -> 1.6 s at sf0.1 (5k docs, identical output).  The
    # branch never fires at scale, so the cluster physical plan is
    # unchanged.
    if n_docs <= 65536:
        ds = ds.repartition(max(8, n_docs // 256))

    def sign(t: pa.Table) -> pa.Table:
        # batch kernels: distinct-text/distinct-shingle dedup + one matrix
        # perm sweep per batch (bit-identical to the per-row kernels,
        # pinned by tests/test_minhash_batch.py).
        ids = t.column(id_col)
        texts = t.column(text_col).to_pylist()
        mat = minhash_signatures_batch(texts, num_perm, shingle_k, hasher)
        keys = minhash_band_keys_batch(mat, n_bands, hasher)
        sig_bytes = np.empty(len(texts), dtype=object)
        for j in range(len(texts)):
            sig_bytes[j] = mat[j].tobytes()
        return pa.table(
            {
                "id": pa.array(
                    np.repeat(ids.to_numpy(zero_copy_only=False), n_bands)),
                "bucket": pa.array(keys.ravel(), type=pa.string()),
                "sig": pa.array(np.repeat(sig_bytes, n_bands),
                                type=pa.binary()),
            }
        )

    if sig_transport == "join":
        return _minhash_pairs_sig_join(
            ds, text_col, id_col, threshold, num_perm, n_bands, shingle_k,
            max_bucket, hasher,
        )

    _empty = pd.DataFrame(
        {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"),
         "jaccard": pd.Series(dtype="float64")}
    )

    def pairs_in_hashbucket(df: pd.DataFrame) -> pd.DataFrame:
        # whole hash-bucket of band-buckets at once: pandas C merge forms
        # the candidate pairs, one numpy pass scores every pair's signature
        # agreement (vs per-band-bucket Python dispatch — most band buckets
        # are singletons, and dispatch dominated wall time).
        #
        # Hot-bucket bound (the 100-TB rule, same pattern as the ER scorer):
        # 1. identical signatures collapse to a distance-0 STAR (estimate
        #    1.0 >= any threshold) — a flood of f exact/near-exact
        #    duplicates emits f-1 rows, not f^2/2;
        # 2. a bucket still holding > max_bucket distinct signatures is
        #    salted by two extra signature bands — true near-dup pairs
        #    agree on most permutation values, so they co-land in at least
        #    one view w.h.p.  Cross-signature edges connect representatives
        #    (min id per signature), transitively equivalent for clustering.
        df = df.drop_duplicates(["bucket", "id"])
        rep = df.groupby(["bucket", "sig"], sort=False)["id"].transform("min")
        member = df["id"].to_numpy()
        star = member != rep.to_numpy()
        stars = pd.DataFrame(
            {"id_a": rep.to_numpy()[star], "id_b": member[star],
             "jaccard": np.ones(int(star.sum()))}
        ).drop_duplicates(["id_a", "id_b"])

        dd = df.groupby(["bucket", "sig"], as_index=False, sort=False)["id"].min()
        sizes = dd.groupby("bucket", sort=False)["sig"].transform("size")
        small = dd[sizes <= max_bucket]
        big = dd[sizes > max_bucket]
        if len(big):
            salted = []
            for view, byte_ix in enumerate((3, 28)):
                b = big.copy()
                b["bucket"] = [
                    f"{k}#v{view}|{s[byte_ix % len(s)]:02x}"
                    for k, s in zip(b["bucket"], b["sig"])
                ]
                salted.append(b)
            dd = pd.concat([small, *salted], ignore_index=True)
        else:
            dd = small

        m = dd.merge(dd, on="bucket", suffixes=("_a", "_b"))
        m = m[m["id_a"] < m["id_b"]].drop_duplicates(["id_a", "id_b"])
        if not len(m):
            return stars if len(stars) else _empty
        A = np.frombuffer(b"".join(m["sig_a"]), dtype=np.uint64).reshape(len(m), -1)
        B = np.frombuffer(b"".join(m["sig_b"]), dtype=np.uint64).reshape(len(m), -1)
        est = (A == B).mean(axis=1)
        keep = est >= threshold
        out = pd.DataFrame(
            {"id_a": m["id_a"].to_numpy()[keep], "id_b": m["id_b"].to_numpy()[keep],
             "jaccard": est[keep]}
        )
        return pd.concat([stars, out], ignore_index=True) if len(stars) else out

    from .grouped import bucketed_apply

    cand = bucketed_apply(
        ds.map_batches(sign, batch_format="pyarrow"),
        "bucket",
        pairs_in_hashbucket,
        empty_result=_empty,
    )
    return bucketed_apply(
        cand,
        ["id_a", "id_b"],
        lambda df: df.groupby(["id_a", "id_b"], as_index=False)["jaccard"].max(),
        empty_result=_empty,
    )


# ----------------------------------------------------------------------
def _minhash_pairs_sig_join(ds, text_col, id_col, threshold, num_perm,
                            n_bands, shingle_k, max_bucket, hasher):
    """``sig_transport="join"`` body of :func:`minhash_lsh_pairs` — output
    rows are IDENTICAL to the banded path (pinned by test); only where the
    signature bytes travel differs.  Three exchanges:

    1. band bucket over thin rows ``(id, band_key, sig_hash64, salt0/1)`` —
       star edges (identical sig hashes) + cross-rep candidate pairs, with
       the same ``max_bucket`` salting as banded (the salt bytes are the
       same two signature bytes, carried as columns);
    2. id_a-keyed: dedup ``(id_a, id_b)`` globally (every copy of a pair
       shares its id_a bucket) and attach ``sig_a`` from the sig table;
    3. id_b-keyed: attach ``sig_b`` and verify the Jaccard estimate once
       per distinct pair.

    Stars re-verify trivially (identical signatures estimate exactly 1.0),
    so every pair flows through one code path.
    """

    from .grouped import bucketed_apply, bucketed_apply_arrow

    def sign_docs(t: pa.Table) -> pa.Table:
        """One row per doc: id, sig bytes, 64-bit sig hash, two salt bytes
        (the same signature bytes the banded path salts with)."""
        ids = t.column(id_col).to_pylist()
        texts = t.column(text_col).to_pylist()
        mat = minhash_signatures_batch(texts, num_perm, shingle_k, hasher)
        u8 = np.ascontiguousarray(mat).view(np.uint8).reshape(len(texts), -1)
        sigs, hs = [], []
        for j in range(len(texts)):
            sb = u8[j].tobytes()
            sigs.append(sb)
            hs.append(hash64(sb))
        nbytes = u8.shape[1]
        return pa.table(
            {
                "id": pa.array(ids, type=pa.int64()),
                "sig": pa.array(sigs, type=pa.binary()),
                "h": pa.array(hs, type=pa.uint64()),
                "s0": pa.array(u8[:, 3 % nbytes], type=pa.uint8()),
                "s1": pa.array(u8[:, 28 % nbytes], type=pa.uint8()),
            }
        )

    # the ONE deliberate materialization: num_perm*8 B/doc, consumed by the
    # band explode and both attach exchanges (3 consumers — without it Ray
    # would re-run read+sign per consumer); spills via the object store.
    sigs = ds.map_batches(sign_docs, batch_format="pyarrow").materialize()

    def explode_bands(t: pa.Table) -> pa.Table:
        """Thin band rows from stored signatures — no text access."""
        n = t.num_rows
        sig_col = t.column("sig").combine_chunks()
        if n:
            mat = np.stack([np.frombuffer(sig_col[j].as_py(), dtype=np.uint64)
                            for j in range(n)])
            keys = minhash_band_keys_batch(mat, n_bands, hasher).ravel()
        else:
            keys = np.empty(0, dtype=object)
        rep = np.repeat(np.arange(n), n_bands)
        return pa.table(
            {
                "id": t.column("id").take(rep).cast(pa.int64()),
                "bucket": pa.array(keys, type=pa.string()),
                "h": t.column("h").take(rep),
                "s0": t.column("s0").take(rep),
                "s1": t.column("s1").take(rep),
            }
        )

    _empty_cand = pd.DataFrame(
        {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64")}
    )

    def pairs_in_hashbucket(df: pd.DataFrame) -> pd.DataFrame:
        # mirrors the banded in-bucket logic with sig -> (h, s0, s1):
        # identical hashes collapse to stars, oversized buckets are salted
        # by the same two signature bytes.  Pairs leave UNVERIFIED (the
        # estimate needs full signatures, attached downstream once per
        # distinct pair).
        df = df.drop_duplicates(["bucket", "id"])
        rep = df.groupby(["bucket", "h"], sort=False)["id"].transform("min")
        member = df["id"].to_numpy()
        star = member != rep.to_numpy()
        stars = pd.DataFrame(
            {"id_a": rep.to_numpy()[star], "id_b": member[star]}
        ).drop_duplicates(["id_a", "id_b"])

        dd = df.groupby(["bucket", "h"], as_index=False, sort=False).agg(
            id=("id", "min"), s0=("s0", "first"), s1=("s1", "first")
        )
        sizes = dd.groupby("bucket", sort=False)["h"].transform("size")
        small = dd[sizes <= max_bucket]
        big = dd[sizes > max_bucket]
        if len(big):
            salted = []
            for view, col in enumerate(("s0", "s1")):
                b = big.copy()
                b["bucket"] = [
                    f"{k}#v{view}|{s:02x}" for k, s in zip(b["bucket"], b[col])
                ]
                salted.append(b)
            dd = pd.concat([small, *salted], ignore_index=True)
        else:
            dd = small

        m = dd.merge(dd[["bucket", "id"]], on="bucket", suffixes=("_a", "_b"))
        m = m[m["id_a"] < m["id_b"]].drop_duplicates(["id_a", "id_b"])
        out = m[["id_a", "id_b"]]
        return pd.concat([stars, out], ignore_index=True) if len(stars) else out

    cand = bucketed_apply(
        sigs.map_batches(explode_bands, batch_format="pyarrow"),
        "bucket",
        pairs_in_hashbucket,
        empty_result=_empty_cand,
    )

    # ---- attach sig_a (id_a-keyed; global pair dedup happens here) -----
    def pairs_for_a(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t.column("id_a").cast(pa.int64()),
                "o": t.column("id_b").cast(pa.int64()),
                "sig": pa.nulls(t.num_rows, pa.binary()),
                "role": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        )

    def sigs_for_attach(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t.column("id").cast(pa.int64()),
                "o": pa.array(np.full(t.num_rows, -1, dtype=np.int64)),
                "sig": t.column("sig"),
                "role": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        )

    schema_a = pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), ("sig_a", pa.binary())]
    )

    def attach_a(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        s = df[df["role"] == 1]
        p = df[df["role"] == 0].drop_duplicates(["k", "o"])
        if not len(p):
            return schema_a.empty_table()
        m = p[["k", "o"]].merge(s[["k", "sig"]], on="k", how="left")
        return pa.table(
            {
                "id_a": pa.array(m["k"].to_numpy(), type=pa.int64()),
                "id_b": pa.array(m["o"].to_numpy(), type=pa.int64()),
                "sig_a": pa.array(m["sig"].tolist(), type=pa.binary()),
            }
        )

    with_a = bucketed_apply_arrow(
        cand.map_batches(pairs_for_a, batch_format="pyarrow").union(
            sigs.map_batches(sigs_for_attach, batch_format="pyarrow")
        ),
        "k",
        attach_a,
        n_buckets=64,
        empty_result=schema_a.empty_table(),
    )

    # ---- attach sig_b (id_b-keyed) + verify once per distinct pair -----
    def pairs_for_b(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t.column("id_b"),
                "o": t.column("id_a"),
                "sig_a": t.column("sig_a"),
                "sig": pa.nulls(t.num_rows, pa.binary()),
                "role": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        )

    def sigs_for_b(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t.column("id").cast(pa.int64()),
                "o": pa.array(np.full(t.num_rows, -1, dtype=np.int64)),
                "sig_a": pa.nulls(t.num_rows, pa.binary()),
                "sig": t.column("sig"),
                "role": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        )

    schema_out = pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), ("jaccard", pa.float64())]
    )

    def attach_b_verify(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        s = df[df["role"] == 1]
        p = df[df["role"] == 0]
        if not len(p):
            return schema_out.empty_table()
        m = p[["k", "o", "sig_a"]].merge(s[["k", "sig"]], on="k", how="left")
        A = np.frombuffer(b"".join(m["sig_a"]), dtype=np.uint64).reshape(len(m), -1)
        B = np.frombuffer(b"".join(m["sig"]), dtype=np.uint64).reshape(len(m), -1)
        est = (A == B).mean(axis=1)
        keep = est >= threshold
        return pa.table(
            {
                "id_a": pa.array(m["o"].to_numpy()[keep], type=pa.int64()),
                "id_b": pa.array(m["k"].to_numpy()[keep], type=pa.int64()),
                "jaccard": pa.array(est[keep], type=pa.float64()),
            }
        )

    return bucketed_apply_arrow(
        with_a.map_batches(pairs_for_b, batch_format="pyarrow").union(
            sigs.map_batches(sigs_for_b, batch_format="pyarrow")
        ),
        "k",
        attach_b_verify,
        n_buckets=64,
        empty_result=schema_out.empty_table(),
    )


# ----------------------------------------------------------------------
def simhash_pairs(ds, text_col: str, id_col: str, max_hamming: int = 3,
                  n_bands: int | None = None, max_bucket: int = 256,
                  hasher: str = "blake2b"):
    """SimHash near-dup: band-bucket groupby then Hamming-distance verify
    (<= ``max_hamming``).  Identical simhashes collapse to a star; buckets
    over ``max_bucket`` distinct hashes are salted (connectivity-preserving,
    bounds duplicate floods to O(bucket) edges).

    Completeness by pigeonhole: with ``n_bands > max_hamming`` equal bands of
    the 64-bit simhash, any pair within ``max_hamming`` bit flips shares at
    least one untouched band — so banding never loses a qualifying pair
    (default ``n_bands = max_hamming + 1``)."""
    if n_bands is None:
        n_bands = max_hamming + 1
    if 64 % n_bands:
        n_bands = next(b for b in (2, 4, 8, 16, 32, 64) if b >= n_bands)
    from .grouped import coalesce_small_input

    ds = coalesce_small_input(ds)

    def sign(t: pa.Table) -> pa.Table:
        from ..functions.simhash import simhash64_md5

        sim = simhash64_md5 if hasher == "md5" else simhash64
        ids = t.column(id_col).to_pylist()
        texts = t.column(text_col).to_pylist()
        out_id, out_bucket, out_sh = [], [], []
        for i, x in zip(ids, texts):
            sh = sim(char_ngrams((x or "").lower(), 3))
            for band_id, bits in enumerate(simhash_bands(sh, n_bands)):
                out_id.append(i)
                out_bucket.append(f"{band_id}:{bits:04x}")
                out_sh.append(sh)
        return pa.table(
            {
                "id": pa.array(out_id),
                "bucket": pa.array(out_bucket, type=pa.string()),
                "simhash": pa.array(out_sh, type=pa.uint64()),
            }
        )

    _empty = pd.DataFrame(
        {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"),
         "hamming": pd.Series(dtype="int64")}
    )

    def verify_hashbucket(df: pd.DataFrame) -> pd.DataFrame:
        # pairs across the whole hash-bucket via C merge; vectorized XOR +
        # byte-LUT popcount for the Hamming verify.
        #
        # Hot-bucket bound (same pattern as the ER scorer): identical
        # simhashes collapse to a hamming-0 STAR; buckets over
        # ``max_bucket`` distinct simhashes are salted by two rotated 8-bit
        # views of the full hash (near pairs agree on most bits, so they
        # co-land in at least one view w.h.p.).
        df = df.drop_duplicates(["bucket", "id"])
        rep = df.groupby(["bucket", "simhash"], sort=False)["id"].transform("min")
        member = df["id"].to_numpy()
        star = member != rep.to_numpy()
        stars = pd.DataFrame(
            {"id_a": rep.to_numpy()[star], "id_b": member[star],
             "hamming": np.zeros(int(star.sum()), dtype=np.int64)}
        ).drop_duplicates(["id_a", "id_b"])

        dd = df.groupby(["bucket", "simhash"], as_index=False, sort=False)["id"].min()
        sizes = dd.groupby("bucket", sort=False)["simhash"].transform("size")
        small = dd[sizes <= max_bucket]
        big = dd[sizes > max_bucket]
        if len(big):
            salted = []
            for view, shift in enumerate((24, 52)):
                b = big.copy()
                b["bucket"] = [
                    f"{k}#v{view}|{(int(s) >> shift) & 0xFF:02x}"
                    for k, s in zip(b["bucket"], b["simhash"])
                ]
                salted.append(b)
            dd = pd.concat([small, *salted], ignore_index=True)
        else:
            dd = small

        m = dd.merge(dd, on="bucket", suffixes=("_a", "_b"))
        m = m[m["id_a"] < m["id_b"]].drop_duplicates(["id_a", "id_b"])
        if not len(m):
            return stars if len(stars) else _empty
        x = m["simhash_a"].to_numpy().astype(np.uint64) ^ m["simhash_b"].to_numpy().astype(np.uint64)
        h = _POPCNT8[x.view(np.uint8).reshape(len(m), 8)].sum(axis=1).astype(np.int64)
        keep = h <= max_hamming
        out = pd.DataFrame(
            {"id_a": m["id_a"].to_numpy()[keep], "id_b": m["id_b"].to_numpy()[keep],
             "hamming": h[keep]}
        )
        return pd.concat([stars, out], ignore_index=True) if len(stars) else out

    from .grouped import bucketed_apply

    cand = bucketed_apply(
        ds.map_batches(sign, batch_format="pyarrow"),
        "bucket",
        verify_hashbucket,
        empty_result=_empty,
    )
    return bucketed_apply(
        cand,
        ["id_a", "id_b"],
        lambda df: df.groupby(["id_a", "id_b"], as_index=False)["hamming"].min(),
        empty_result=_empty,
    )


# ----------------------------------------------------------------------
def _list_offsets(counts) -> pa.Array:
    """int32 ``list<...>`` offsets for lists of ``counts`` elements each,
    summed in int64; raises ``ValueError`` instead of wrapping when the
    total passes int32 (a ``list<string>`` column's offset limit)."""
    offs = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, dtype=np.int64, out=offs[1:])
    if offs[-1] > np.iinfo(np.int32).max:
        raise ValueError(
            f"{int(offs[-1])} list elements overflow int32 list offsets")
    return pa.array(offs.astype(np.int32), type=pa.int32())


def ngram_jaccard_pairs(ds, text_col: str, id_col: str, threshold: float = 0.5,
                        k: int = 3, max_df: int | None = 1024):
    """EXACT token-k-shingle Jaccard pairs via a distributed inverted-index
    join — no LSH approximation, no driver-side collect:

    1. groupby(set-hash): docs with IDENTICAL shingle sets collapse to one
       representative (min id) carrying the member-id list — a flood of f
       exact duplicates costs the index ONE entry per shingle instead of f
       (the hot-shingle f^2 killer at 100 TB is duplicate floods);
    2. explode each representative's DISTINCT shingles to
       ``(shingle, id, set_size, members)``;
    3. groupby(shingle): every co-occurring rep pair (canonical
       id_a <= id_b; the diagonal row survives for multi-member groups —
       it carries the group's internal pairs);
    4. groupby(id_a, id_b): the pair's row count IS |A ∩ B| (each shared
       shingle contributes exactly one row), so
       ``jaccard = c / (|A| + |B| - c)`` — exact, filtered at threshold;
       then rep pairs expand to member pairs (every member shares its
       rep's set, so the jaccard transfers verbatim).  Output is the full
       exact pair set — identical to the naive join, oracle-pinned.

    ``max_df`` (default 1024 — the production scale guard): shingle groups
    with more than ``max_df`` distinct sets are dropped from the index —
    the standard stop-shingle prefix filter.  Step 1 already collapses
    duplicate FLOODS (identical sets) to one rep, but a natural stop-word
    shingle with document frequency df costs df^2 rep-pair rows under the
    exact contract (df=10^6 -> 10^12 rows); the cap bounds every shingle
    group's fan-out at max_df^2 and the total at O(sum df) for the long
    tail.  RECALL BOUND: computed jaccard becomes a LOWER bound (hot
    shingles are missing from the intersection count AND still counted in
    |A|+|B|), so a qualifying pair is missed only if dropping its hot
    shared shingles pushes c/(|A|+|B|-c) below threshold — pairs whose
    overlap is mostly stop-shingles.  Pass ``max_df=None`` for the exact
    contract (the SQL-oracle mode)."""
    from .grouped import coalesce_small_input

    ds = coalesce_small_input(ds)

    def sets_batch(t: pa.Table) -> pa.Table:
        # columnar: distinct (doc, shingle) pairs ordered by the
        # LEXICOGRAPHIC rank of the shingle string, so each doc's list
        # comes out already equal to sorted(set(shingles(...)))
        from ..functions.tokenize import shingle_codes_column
        import pyarrow.compute as pc

        codes, offs, uniq = shingle_codes_column(t.column(text_col), k)
        n_docs = t.num_rows
        if len(codes) == 0:
            return pa.table({
                "__set_hash": pa.array([], type=pa.uint64()),
                "id": pa.array([], type=t.column(id_col).type),
                "shingles": pa.array([], type=pa.list_(pa.string())),
            })
        order = pc.array_sort_indices(uniq).to_numpy(zero_copy_only=False)
        lexrank = np.empty(len(uniq), dtype=np.int64)
        lexrank[order] = np.arange(len(uniq), dtype=np.int64)
        doc = np.repeat(np.arange(n_docs, dtype=np.int64), np.diff(offs))
        n_uniq = len(uniq)
        dk = np.unique(doc * n_uniq + lexrank[codes])
        d = dk // n_uniq
        c_sorted_code = np.asarray(order)[dk % n_uniq]  # back to uniq idx
        per_doc = np.bincount(d, minlength=n_docs)
        nonempty = np.flatnonzero(per_doc > 0)
        flat = uniq.take(pa.array(c_sorted_code)).cast(pa.string())
        lists = pa.ListArray.from_arrays(_list_offsets(per_doc[nonempty]),
                                         flat)
        joined = pc.binary_join(lists, "\x00").to_pylist()
        out_h = np.fromiter((hash64(s) for s in joined),
                            dtype=np.uint64, count=len(joined))
        return pa.table({
            "__set_hash": pa.array(out_h, type=pa.uint64()),
            "id": t.column(id_col).take(pa.array(nonempty)),
            "shingles": lists,
        })

    def collapse_and_explode(bucket: pd.DataFrame) -> pd.DataFrame:
        out_s, out_i, out_n, out_m = [], [], [], []
        for _h, g in bucket.groupby("__set_hash", sort=False):
            members = tuple(sorted(g["id"].tolist()))
            sh = g["shingles"].iloc[0]
            for s in sh:
                out_s.append(s)
                out_i.append(members[0])
                out_n.append(len(sh))
                out_m.append(members)
        return pd.DataFrame(
            {"shingle": out_s, "id": out_i, "set_size": out_n, "members": out_m}
        )

    def pairs_in_group(bucket: pd.DataFrame) -> pd.DataFrame:
        if max_df is not None:
            df_count = bucket.groupby("shingle", sort=False)["id"].transform("size")
            bucket = bucket[df_count <= max_df]
        m = bucket.merge(bucket, on="shingle", suffixes=("_a", "_b"))
        multi = m["members_a"].map(len) > 1
        m = m[(m["id_a"] < m["id_b"]) | ((m["id_a"] == m["id_b"]) & multi)]
        return m[["id_a", "id_b", "set_size_a", "set_size_b", "members_a", "members_b"]]

    def combine(bucket: pd.DataFrame) -> pd.DataFrame:
        import itertools

        g = bucket.groupby(["id_a", "id_b"], as_index=False).agg(
            c=("set_size_a", "size"),
            set_size_a=("set_size_a", "first"),
            set_size_b=("set_size_b", "first"),
            members_a=("members_a", "first"),
            members_b=("members_b", "first"),
        )
        c = g["c"].to_numpy()
        union = g["set_size_a"].to_numpy() + g["set_size_b"].to_numpy() - c
        j = np.where(union > 0, c / np.maximum(union, 1), 1.0)
        g = g.assign(jaccard=j)
        g = g[g["jaccard"] >= threshold]
        out_a, out_b, out_j = [], [], []
        for ia, ib, ma, mb, jj in zip(
            g["id_a"], g["id_b"], g["members_a"], g["members_b"], g["jaccard"]
        ):
            if ia == ib:  # internal pairs of one identical-set group
                for x, y in itertools.combinations(ma, 2):
                    out_a.append(x)
                    out_b.append(y)
                    out_j.append(jj)
            else:
                for x in ma:
                    for y in mb:
                        out_a.append(min(x, y))
                        out_b.append(max(x, y))
                        out_j.append(jj)
        return pd.DataFrame(
            {"id_a": pd.Series(out_a, dtype="int64"),
             "id_b": pd.Series(out_b, dtype="int64"),
             "jaccard": pd.Series(out_j, dtype="float64")}
        )

    from .grouped import bucketed_apply

    ex = ds.map_batches(sets_batch, batch_format="pyarrow")
    reps = bucketed_apply(ex, "__set_hash", collapse_and_explode)
    cand = bucketed_apply(reps, "shingle", pairs_in_group)
    return bucketed_apply(
        cand,
        ["id_a", "id_b"],
        combine,
        empty_result=pd.DataFrame(
            {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64"),
             "jaccard": pd.Series(dtype="float64")}
        ),
    )


# ----------------------------------------------------------------------
_EXACT_MATRIX_BYTES_CAP = 256 * 1024 * 1024  # flip exact -> lsh above this


def _norm_rows(m):
    nrm = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(nrm, 1e-12)


def embedding_neardup_pairs(
    ds, vec_col: str, id_col: str, threshold: float = 0.9, method: str = "auto",
    n_planes: int = 8, vec_transport: str = "auto", max_bucket: int = 512,
):
    """Embedding-cosine near-duplicate pairs (id_a < id_b, cosine >= t).

    ``method="exact"``: broadcast the (normalized) full matrix once via
    ``ray.put``, then each batch does ONE numpy matmul against it — the
    brute-force baseline, oracle-checkable against SQL.  Fine while the
    matrix fits a worker (N·dim·8 bytes); beyond that use ``method="lsh"``:
    random-hyperplane sign buckets (pairs agreeing on all ``n_planes`` signs
    co-group; recall degrades gracefully with angle) with exact verify
    inside buckets — the scale path, approximate by construction.

    ``method="auto"`` (default) picks: exact while the matrix stays under
    ``_EXACT_MATRIX_BYTES_CAP`` (row count x dim from parquet metadata +
    one peeked row — no data materialization), lsh beyond — so the default
    never drags a 100-TB embedding table onto the driver.

    LSH hot-bucket discipline (mirrors :func:`minhash_lsh_pairs`): byte-wise
    identical vectors collapse to star edges (rep = min id) instead of a
    clique — a flood of f exact-duplicate embeddings emits O(f) rows, not
    f²/2 — and buckets with more than ``max_bucket`` DISTINCT vectors are
    re-salted by two extra 8-plane sign bytes (near-dups agree on extra
    sign bits with high probability, random vectors split ~256 ways).

    ``vec_transport`` picks how vectors reach the in-bucket verify:

    * ``"banded"`` — the full vector rides every one of the 16 table rows
      per doc (simple, one exchange; payload amplification 16x vec bytes).
    * ``"join"`` — table rows carry only ``(id, bucket, vec_hash, salts)``
      (~40 B); full vectors are attached once per DISTINCT candidate pair
      via two id-keyed exchanges from a materialized thin vector table.
      At web scale (dim 768 float64 ≈ 6 KB/vec → ~98 KB/doc banded) this
      is the only sane transport.
    * ``"auto"`` (default) — banded until the table-row exchange payload
      would exceed 1 GiB (row count from parquet metadata, no scan)."""
    import ray

    from .grouped import coalesce_small_input

    ds = coalesce_small_input(ds)
    n_tables = 16
    n_rows = dim = None
    if method == "auto" or (method != "exact" and vec_transport == "auto"):
        n_rows = ds.count()  # parquet metadata / block metadata, no scan
        row = ds.take(1)
        dim = len(row[0][vec_col]) if row else 0
    if method == "auto":
        method = "exact" if n_rows * dim * 8 <= _EXACT_MATRIX_BYTES_CAP else "lsh"

    def load_matrix():
        df = ds.select_columns([id_col, vec_col]).to_pandas()
        ids = df[id_col].to_numpy()
        order = np.argsort(ids)
        m = np.array(df[vec_col].tolist(), dtype=np.float64)[order]
        return ids[order], _norm_rows(m)

    if method == "exact":
        ids, mat = load_matrix()
        ref = ray.put((ids, mat))

        def score(t: pa.Table) -> pa.Table:
            all_ids, all_m = ray.get(ref)
            bid = np.asarray(t.column(id_col).to_pylist())
            bm = _norm_rows(_list_col_matrix(t.column(vec_col)))
            sims = bm @ all_m.T
            bi, aj = np.nonzero(sims >= threshold)
            ia, ib = bid[bi], all_ids[aj]
            keep = ia < ib  # canonical, also drops self-pairs
            return pa.table(
                {
                    "id_a": pa.array(ia[keep].tolist(), type=pa.int64()),
                    "id_b": pa.array(ib[keep].tolist(), type=pa.int64()),
                    "cosine": pa.array(sims[bi, aj][keep], type=pa.float64()),
                }
            )

        return ds.select_columns([id_col, vec_col]).map_batches(
            score, batch_format="pyarrow"
        )

    # ---- LSH sign-bucket path ----------------------------------------
    # multi-table amplification: L independent tables of k hyperplanes;
    # a pair co-buckets if ALL k signs agree in AT LEAST ONE table.  For a
    # pair at angle θ, hit prob = 1-(1-(1-θ/π)^k)^L — sized for the
    # near-duplicate regime (cosine >= ~0.85); low-threshold searches
    # should use method="exact".
    if vec_transport == "auto":
        banded_bytes = n_rows * n_tables * (dim * 8 + 40)
        vec_transport = (
            "join" if banded_bytes > _BANDED_SIG_EXCHANGE_CAP else "banded"
        )
    if vec_transport == "join":
        return _embedding_pairs_vec_join(
            ds, vec_col, id_col, threshold, n_planes, n_tables, max_bucket
        )

    def bucketize(t: pa.Table) -> pa.Table:
        raw = _list_col_matrix(t.column(vec_col))
        if raw.ndim != 2 or raw.shape[0] == 0:
            return pa.table(
                {
                    "bucket": pa.array([], type=pa.int64()),
                    "id": pa.array([], type=pa.int64()),
                    "vec": pa.array([], type=pa.list_(pa.float64())),
                    "h": pa.array([], type=pa.uint64()),
                    "s0": pa.array([], type=pa.uint8()),
                    "s1": pa.array([], type=pa.uint8()),
                }
            )
        m = _norm_rows(raw)
        # plane matrices are deterministic (seeded) and shared by every
        # batch: built once per worker process via the module-level cache,
        # not regenerated per batch
        planes_all = _lsh_planes(m.shape[1], n_planes, n_tables)
        h, s0, s1 = _vec_hash_and_salts(raw, m)
        nb = m.shape[0]
        out_bucket = np.empty(n_tables * nb, dtype=np.int64)
        for table_id in range(n_tables):
            bits = (m @ planes_all[table_id]) > 0
            keys = (bits * (1 << np.arange(n_planes))).sum(axis=1)
            out_bucket[table_id * nb:(table_id + 1) * nb] = (
                np.int64(table_id) << 32
            ) | keys
        ids = np.asarray(t.column(id_col).to_pylist(), dtype=np.int64)
        vecs = t.column(vec_col).to_pylist()
        tile = np.tile(np.arange(nb), n_tables)
        return pa.table(
            {
                "bucket": pa.array(out_bucket, type=pa.int64()),
                "id": pa.array(ids[tile]),
                "vec": pa.array([vecs[i] for i in tile]),
                "h": pa.array(h[tile]),
                "s0": pa.array(s0[tile]),
                "s1": pa.array(s1[tile]),
            }
        )

    _empty_pairs = pd.DataFrame(
        {
            "id_a": pd.Series(dtype="int64"),
            "id_b": pd.Series(dtype="int64"),
            "cosine": pd.Series(dtype="float64"),
        }
    )

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return _empty_pairs
        g = g.sort_values("id")
        out = []
        # star collapse: byte-identical vectors pair only with their rep
        # (min id) — a flood of f exact-dup embeddings emits f-1 rows
        rep = g.groupby("h", sort=False)["id"].transform("min")
        member = g["id"].to_numpy()
        star = member != rep.to_numpy()
        if star.any():
            sv = _norm_rows(np.array(g["vec"][star].tolist(), dtype=np.float64))
            out.append(
                pd.DataFrame(
                    {
                        "id_a": rep.to_numpy()[star],
                        "id_b": member[star],
                        "cosine": (sv * sv).sum(axis=1),
                    }
                )
            )
        dd = g.drop_duplicates("h", keep="first")  # id-sorted -> rep rows

        def allpairs(sub: pd.DataFrame):
            if len(sub) < 2:
                return None
            ids = sub["id"].to_numpy()
            m = _norm_rows(np.array(sub["vec"].tolist(), dtype=np.float64))
            sims = m @ m.T
            ii, jj = np.nonzero(np.triu(sims >= threshold, 1))
            if not len(ii):
                return None
            return pd.DataFrame(
                {"id_a": ids[ii], "id_b": ids[jj], "cosine": sims[ii, jj]}
            )

        if len(dd) > max_bucket:
            # oversized bucket: re-salt by the two extra sign bytes (true
            # near-dups mostly co-salt; random floods split ~256-way)
            for col in ("s0", "s1"):
                for _, sub in dd.groupby(col, sort=False):
                    r = allpairs(sub)
                    if r is not None:
                        out.append(r)
        else:
            r = allpairs(dd)
            if r is not None:
                out.append(r)
        if not out:
            return _empty_pairs
        return pd.concat(out, ignore_index=True).drop_duplicates(["id_a", "id_b"])

    from .grouped import bucketed_apply

    cand = ds.map_batches(bucketize, batch_format="pyarrow")
    pairs = cand.groupby("bucket").map_groups(verify, batch_format="pandas")
    return bucketed_apply(
        pairs,
        ["id_a", "id_b"],
        lambda df: df.groupby(["id_a", "id_b"], as_index=False)["cosine"].max(),
        empty_result=_empty_pairs,
    )


def _embedding_pairs_vec_join(ds, vec_col, id_col, threshold, n_planes,
                              n_tables, max_bucket):
    """``vec_transport="join"`` body of :func:`embedding_neardup_pairs` —
    same candidate discipline as the banded path (star collapse on identical
    vectors, salted oversized buckets), but table rows through the bucket
    exchange are THIN ``(id, bucket, h, s0, s1)`` (~40 B instead of
    40 + dim·8 B, a 16x-amplified saving at dim 768); full (normalized)
    vectors are attached once per DISTINCT candidate pair via two id-keyed
    exchanges from a materialized thin vector table, mirroring
    :func:`_minhash_pairs_sig_join`."""
    from .grouped import bucketed_apply, bucketed_apply_arrow

    sign_schema = pa.schema(
        [
            ("id", pa.int64()),
            ("vb", pa.binary()),
            ("h", pa.uint64()),
            ("s0", pa.uint8()),
            ("s1", pa.uint8()),
        ]
    )

    def sign_vecs(t: pa.Table) -> pa.Table:
        raw = _list_col_matrix(t.column(vec_col))
        if raw.ndim != 2 or raw.shape[0] == 0:
            return sign_schema.empty_table()
        m = _norm_rows(raw)
        h, s0, s1 = _vec_hash_and_salts(raw, m)
        return pa.table(
            {
                "id": t.column(id_col).cast(pa.int64()),
                "vb": pa.array([r.tobytes() for r in m], type=pa.binary()),
                "h": pa.array(h),
                "s0": pa.array(s0),
                "s1": pa.array(s1),
            }
        )

    # the ONE deliberate materialization: dim*8 B/doc, consumed by the
    # bucket explode and both attach exchanges; spills via the object store
    vecs = ds.map_batches(sign_vecs, batch_format="pyarrow").materialize()

    bucket_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("id", pa.int64()),
            ("h", pa.uint64()),
            ("s0", pa.uint8()),
            ("s1", pa.uint8()),
        ]
    )

    def explode_tables(t: pa.Table) -> pa.Table:
        nb = t.num_rows
        if nb == 0:
            return bucket_schema.empty_table()
        m = np.frombuffer(
            b"".join(t.column("vb").to_pylist()), dtype=np.float64
        ).reshape(nb, -1)
        planes_all = _lsh_planes(m.shape[1], n_planes, n_tables)
        buckets = np.empty(n_tables * nb, dtype=np.int64)
        for table_id in range(n_tables):
            bits = (m @ planes_all[table_id]) > 0
            keys = (bits * (1 << np.arange(n_planes))).sum(axis=1)
            buckets[table_id * nb:(table_id + 1) * nb] = (
                np.int64(table_id) << 32
            ) | keys
        tile = np.tile(np.arange(nb), n_tables)
        return pa.table(
            {
                "bucket": pa.array(buckets),
                "id": pa.array(t.column("id").to_numpy()[tile]),
                "h": pa.array(t.column("h").to_numpy()[tile]),
                "s0": pa.array(t.column("s0").to_numpy()[tile]),
                "s1": pa.array(t.column("s1").to_numpy()[tile]),
            }
        )

    _empty_cand = pd.DataFrame(
        {"id_a": pd.Series(dtype="int64"), "id_b": pd.Series(dtype="int64")}
    )

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # mirrors the banded verify's candidate logic with vec -> (h, s0, s1):
        # identical hashes collapse to stars, oversized buckets re-salted.
        # Pairs leave UNVERIFIED (cosine needs the vectors, attached
        # downstream once per distinct pair).
        df = df.drop_duplicates(["bucket", "id"])
        rep = df.groupby(["bucket", "h"], sort=False)["id"].transform("min")
        member = df["id"].to_numpy()
        star = member != rep.to_numpy()
        stars = pd.DataFrame(
            {"id_a": rep.to_numpy()[star], "id_b": member[star]}
        ).drop_duplicates(["id_a", "id_b"])

        dd = df.groupby(["bucket", "h"], as_index=False, sort=False).agg(
            id=("id", "min"), s0=("s0", "first"), s1=("s1", "first")
        )
        sizes = dd.groupby("bucket", sort=False)["h"].transform("size")
        small = dd[sizes <= max_bucket]
        big = dd[sizes > max_bucket]
        if len(big):
            salted = []
            for view, col in enumerate(("s0", "s1")):
                b = big.copy()
                b["bucket"] = [
                    f"{k}#v{view}|{s:02x}" for k, s in zip(b["bucket"], b[col])
                ]
                salted.append(b)
            dd = pd.concat([small, *salted], ignore_index=True)
        else:
            dd = small

        m = dd.merge(dd[["bucket", "id"]], on="bucket", suffixes=("_a", "_b"))
        m = m[m["id_a"] < m["id_b"]].drop_duplicates(["id_a", "id_b"])
        out = m[["id_a", "id_b"]]
        return pd.concat([stars, out], ignore_index=True) if len(stars) else out

    cand = bucketed_apply(
        vecs.map_batches(explode_tables, batch_format="pyarrow"),
        "bucket",
        pairs_in_bucket,
        empty_result=_empty_cand,
    )

    # ---- attach vb_a (id_a-keyed; global pair dedup happens here) ------
    def pairs_for_a(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t.column("id_a").cast(pa.int64()),
                "o": t.column("id_b").cast(pa.int64()),
                "vb": pa.nulls(t.num_rows, pa.binary()),
                "role": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        )

    def vecs_for_attach(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t.column("id").cast(pa.int64()),
                "o": pa.array(np.full(t.num_rows, -1, dtype=np.int64)),
                "vb": t.column("vb"),
                "role": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        )

    schema_a = pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), ("vb_a", pa.binary())]
    )

    def attach_a(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        s = df[df["role"] == 1]
        p = df[df["role"] == 0].drop_duplicates(["k", "o"])
        if not len(p):
            return schema_a.empty_table()
        m = p[["k", "o"]].merge(s[["k", "vb"]], on="k", how="left")
        return pa.table(
            {
                "id_a": pa.array(m["k"].to_numpy(), type=pa.int64()),
                "id_b": pa.array(m["o"].to_numpy(), type=pa.int64()),
                "vb_a": pa.array(m["vb"].tolist(), type=pa.binary()),
            }
        )

    with_a = bucketed_apply_arrow(
        cand.map_batches(pairs_for_a, batch_format="pyarrow").union(
            vecs.map_batches(vecs_for_attach, batch_format="pyarrow")
        ),
        "k",
        attach_a,
        n_buckets=64,
        empty_result=schema_a.empty_table(),
    )

    # ---- attach vb_b (id_b-keyed) + verify once per distinct pair ------
    def pairs_for_b(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t.column("id_b"),
                "o": t.column("id_a"),
                "vb_a": t.column("vb_a"),
                "vb": pa.nulls(t.num_rows, pa.binary()),
                "role": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        )

    def vecs_for_b(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "k": t.column("id").cast(pa.int64()),
                "o": pa.array(np.full(t.num_rows, -1, dtype=np.int64)),
                "vb_a": pa.nulls(t.num_rows, pa.binary()),
                "vb": t.column("vb"),
                "role": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        )

    schema_out = pa.schema(
        [("id_a", pa.int64()), ("id_b", pa.int64()), ("cosine", pa.float64())]
    )

    def attach_b_verify(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        s = df[df["role"] == 1]
        p = df[df["role"] == 0]
        if not len(p):
            return schema_out.empty_table()
        m = p[["k", "o", "vb_a"]].merge(s[["k", "vb"]], on="k", how="left")
        A = np.frombuffer(b"".join(m["vb_a"]), dtype=np.float64).reshape(len(m), -1)
        B = np.frombuffer(b"".join(m["vb"]), dtype=np.float64).reshape(len(m), -1)
        cos = (A * B).sum(axis=1)
        keep = cos >= threshold
        return pa.table(
            {
                "id_a": pa.array(m["o"].to_numpy()[keep], type=pa.int64()),
                "id_b": pa.array(m["k"].to_numpy()[keep], type=pa.int64()),
                "cosine": pa.array(cos[keep], type=pa.float64()),
            }
        )

    return bucketed_apply_arrow(
        with_a.map_batches(pairs_for_b, batch_format="pyarrow").union(
            vecs.map_batches(vecs_for_b, batch_format="pyarrow")
        ),
        "k",
        attach_b_verify,
        n_buckets=64,
        empty_result=schema_out.empty_table(),
    )
