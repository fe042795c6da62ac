"""Exact duplicated-substring detection (suffix-array-style span dedup).

Lee et al. 2022 ("Deduplicating Training Data Makes Language Models
Better") remove every substring of >= 50 tokens that occurs more than
once in the corpus, found with a monolithic suffix array.  A suffix
array over 100 TB does not distribute; the standard distributed
restatement (used by SlimPajama / Dolma-style curation) is exact over
fixed-width shingles: a duplicated span of >= w tokens is precisely a
maximal run of w-token shingles each of which occurs >= min_df times
corpus-wide.  We compute that contract exactly:

* pass 1 (count) — stateless ``map_batches``: split each doc on single
  spaces (vectorized Arrow kernel), hash each DISTINCT token once
  (Arrow dictionary-encode), combine token hashes into w-gram hashes with a
  position-weighted polynomial (O(w·n) numpy, no shingle strings ever
  materialized), pre-aggregate ``(shingle_hash, cnt)`` partials per
  batch.  The ONE count exchange carries 16-byte rows per distinct
  shingle per block — never corpus text.
* the dup set (hashes with corpus df >= ``min_df``) is proportional to
  the duplicated vocabulary; broadcast once via ``ray.put`` as a sorted
  int64 array, membership-tested with ``np.isin`` (same discipline as
  stages/lines.py; for dup sets beyond the broadcast cap swap in the
  bucketed-exchange mark used there, or a Bloom filter (kernel/bloom.py)
  accepting a bounded false-drop rate).
* pass 2 (mark + merge) — a second stateless pass recomputes shingle
  hashes per doc (each doc lives in one batch row, so windows never
  straddle tasks), flags duplicated positions, and merges maximal runs
  of consecutive flags into spans with one ``np.diff`` — all
  vectorized, zero Python per-row work.

Dedup is by 64-bit polynomial-combined blake2b token hashes; the SQL
oracle groups by the shingle STRING itself — identical output absent
collisions (none on the deterministic test corpus; at 10^12 shingles a
birthday collision costs one spuriously-removed span, not a wrong
merge — same trade stages/lines.py documents for line hashes).

Reference analogue: the reference library curates dictionaries, not
corpora; this stage is part of the training-data extension surface
(VERDICT "LLM-data-pipeline operators"), built on the exchange
discipline of stages/lines.py and stages/dedup.py.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.simhash import hash64_distinct

# polynomial base for combining token hashes positionally (odd => invertible
# mod 2^64, so windows differing in any slot hash differently w.h.p.)
_POLY_BASE = np.uint64(0x9E3779B97F4A7C15)


def _split_tokens(t: pa.Table, text_col: str):
    """Vectorized single-space split (empty tokens kept — the SQL oracle's
    string_split does the same).  Returns (tokens as an Arrow string array,
    per-doc token counts)."""
    col = t.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    col = col.fill_null("")
    lst = pc.split_pattern(col, pattern=" ")
    counts = np.diff(lst.offsets.to_numpy()).astype(np.int64)
    return lst.values, counts


def _shingle_hashes(tokens, per_doc: np.ndarray, w: int):
    """w-gram hashes at every in-doc position.

    Returns (hashes uint64[n_pos], doc_idx int64[n_pos], pos int64[n_pos])
    where ``pos`` is the 0-based token index of the window start within
    its doc.  Windows that would straddle a doc boundary are excluded by
    construction (positions run only to len(doc) - w per doc).
    """
    n = len(tokens)
    n_docs = len(per_doc)
    if n == 0 or n_docs == 0:
        z = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=np.uint64), z, z
    th = hash64_distinct(tokens)  # uint64 hash per token, flat order

    # windowed polynomial over the FLAT array: H[p] = sum_j th[p+j]*B^j
    n_win = n - w + 1
    if n_win <= 0:
        z = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=np.uint64), z, z
    H = np.zeros(n_win, dtype=np.uint64)
    bj = np.uint64(1)
    with np.errstate(over="ignore"):
        for j in range(w):
            H += th[j:j + n_win] * bj
            bj *= _POLY_BASE

    # keep only windows fully inside one doc
    starts = np.concatenate(([0], np.cumsum(per_doc)[:-1]))
    doc_idx_all = np.repeat(np.arange(n_docs, dtype=np.int64), per_doc)
    pos_all = np.arange(n, dtype=np.int64) - starts[doc_idx_all]
    valid = pos_all[:n_win] <= (per_doc[doc_idx_all[:n_win]] - w)
    return H[valid], doc_idx_all[:n_win][valid], pos_all[:n_win][valid]


def _dup_hash_array(ds, text_col: str, w: int, min_df: int) -> np.ndarray:
    """Pass 1: corpus-wide shingle counts -> sorted int64 array of hashes
    with df >= min_df (the only exchange carries 16-byte partial rows)."""
    def partial_counts(t: pa.Table) -> pa.Table:
        tokens, per_doc = _split_tokens(t, text_col)
        h, _, _ = _shingle_hashes(tokens, per_doc, w)
        hs, cnts = np.unique(h.view(np.int64), return_counts=True)
        return pa.table({
            "shingle_hash": pa.array(hs, type=pa.int64()),
            "cnt": pa.array(cnts.astype(np.int64)),
        })

    counts = ds.map_batches(partial_counts, batch_format="pyarrow") \
               .groupby("shingle_hash").sum("cnt")

    def only_dup(t: pa.Table) -> pa.Table:
        mask = pc.greater_equal(t.column("sum(cnt)"), pa.scalar(min_df))
        return t.filter(mask).select(["shingle_hash"])

    dup = counts.map_batches(only_dup, batch_format="pyarrow").materialize()
    arrs = [b["shingle_hash"].to_numpy(zero_copy_only=False)
            for b in dup.iter_batches(batch_format="pyarrow")]
    return np.sort(np.concatenate(arrs).astype(np.int64)) if arrs \
        else np.empty(0, dtype=np.int64)


def duplicated_spans(ds, text_col: str = "text", id_col: str = "doc_id",
                     w: int = 8, min_df: int = 2):
    """Maximal duplicated spans per document.

    Returns Dataset[(id_col, span_start, span_end, n_tokens)] — one row
    per maximal run of consecutive token positions p such that the
    w-token shingle starting at p occurs >= ``min_df`` times corpus-wide.
    ``span_start`` is the 0-based token index of the first duplicated
    window; ``span_end`` is EXCLUSIVE and covers the final window
    (last_p + w); ``n_tokens = span_end - span_start``.  Deterministic.
    """
    import ray

    ref = ray.put(_dup_hash_array(ds, text_col, w, min_df))

    def mark_merge(t: pa.Table) -> pa.Table:
        dup_arr = ray.get(ref)  # zero-copy view of the sorted hash array
        tokens, per_doc = _split_tokens(t, text_col)
        h, doc_idx, pos = _shingle_hashes(tokens, per_doc, w)
        flag = np.isin(h.view(np.int64), dup_arr)
        doc_idx, pos = doc_idx[flag], pos[flag]
        if len(pos) == 0:
            return pa.table({
                id_col: pa.array([], type=t.schema.field(id_col).type),
                "span_start": pa.array([], type=pa.int64()),
                "span_end": pa.array([], type=pa.int64()),
                "n_tokens": pa.array([], type=pa.int64()),
            })
        # positions arrive sorted (doc-major, pos-minor, by construction);
        # a new run starts where the doc changes or pos jumps by > 1
        brk = np.empty(len(pos), dtype=bool)
        brk[0] = True
        brk[1:] = (doc_idx[1:] != doc_idx[:-1]) | (pos[1:] != pos[:-1] + 1)
        run_id = np.cumsum(brk) - 1
        starts = pos[brk]
        ends = pos[np.concatenate((brk[1:], [True]))] + w
        run_doc = doc_idx[brk]
        ids = t.column(id_col).to_pandas().to_numpy()
        return pa.table({
            id_col: pa.array(ids[run_doc]),
            "span_start": pa.array(starts, type=pa.int64()),
            "span_end": pa.array(ends, type=pa.int64()),
            "n_tokens": pa.array(ends - starts, type=pa.int64()),
        })

    return ds.map_batches(mark_merge, batch_format="pyarrow")


def dup_span_fraction(ds, text_col: str = "text", id_col: str = "doc_id",
                      w: int = 8, min_df: int = 2):
    """Per-document duplicated-window fraction (the keep/drop signal a
    curation pipeline thresholds on — BFF-style, but exact).

    Returns Dataset[(id_col, n_windows, n_dup_windows, dup_fraction)];
    docs with fewer than w tokens have 0 windows and fraction 0.0.
    """
    import ray

    ref = ray.put(_dup_hash_array(ds, text_col, w, min_df))

    def score(t: pa.Table) -> pa.Table:
        dup_arr = ray.get(ref)
        tokens, per_doc = _split_tokens(t, text_col)
        h, doc_idx, _ = _shingle_hashes(tokens, per_doc, w)
        n_docs = len(per_doc)
        n_win = np.maximum(per_doc - w + 1, 0).astype(np.int64)
        flag = np.isin(h.view(np.int64), dup_arr)
        n_dup = np.bincount(doc_idx[flag], minlength=n_docs).astype(np.int64)
        frac = np.divide(n_dup, n_win, out=np.zeros(n_docs, dtype=np.float64),
                         where=n_win > 0)
        return pa.table({
            id_col: t.column(id_col),
            "n_windows": pa.array(n_win),
            "n_dup_windows": pa.array(n_dup),
            "dup_fraction": pa.array(frac, type=pa.float64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")
