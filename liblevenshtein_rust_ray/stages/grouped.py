"""Bucketed apply: the cure for per-group Python dispatch.

``ds.groupby(key).map_groups(fn)`` calls Python once per GROUP — at millions
of small blocks (the normal case for blocking keys) the ~0.1-0.2 ms dispatch
dominates end-to-end time.  :func:`bucketed_apply` instead:

1. cuts rows into ``n_buckets`` coarse buckets by :func:`hash_buckets`
   (vectorized, deterministic across processes);
2. runs ONE ``map_groups`` per bucket (tiny dispatch count);
3. hands the whole bucket to ``bucket_fn`` as a ``pa.Table``, which does
   its own vectorized per-key work (Arrow ``group_by`` /
   ``dictionary_encode`` codes, numpy kernels).

All members of a key share its bucket, so semantics are identical to a
per-key groupby.  ``n_buckets`` bounds bucket size ≈ rows / n_buckets: size
it so a bucket fits a worker's heap (at webscale pass thousands of buckets;
the shuffle cost is the same one exchange).  Batches stay Arrow end to end.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def hash_buckets(tbl, key_cols, n_buckets: int):
    """Bucket id (int32 numpy array) per row of ``tbl``: each key column's
    DICTIONARY is hashed (distinct values only — pandas siphash for
    cross-process determinism) and the code ``take``n per row; multi-column
    keys combine per-column hashes with a polynomial mix.  The bucketed
    exchange and ``er_pairs``' local plan cut rows by this one function.
    Strings are hashed as UTF-8 bytes: pandas hashes a str only up to its
    first NUL (bytes hash in full, to the same value when there is none).
    A column's nulls all hash to 0, so they share one bucket."""
    acc = np.zeros(tbl.num_rows, dtype=np.uint32)
    for c in key_cols:
        d = pc.dictionary_encode(tbl[c].combine_chunks())
        vals = d.dictionary
        if pa.types.is_string(vals.type) or pa.types.is_large_string(vals.type):
            vals = vals.cast(pa.large_binary())
        hd = pd.util.hash_pandas_object(vals.to_pandas(), index=False)
        hd = np.append(hd.to_numpy().astype(np.uint32), np.uint32(0))  # null
        idx = d.indices.fill_null(len(vals)).to_numpy()
        acc = acc * np.uint32(1000003) ^ hd[idx]
    return (acc % np.uint32(n_buckets)).astype(np.int32)


def bucketed_apply(ds, key_cols, bucket_fn, n_buckets: int = 64,
                   empty_result=None):
    """Apply ``bucket_fn`` to each :func:`hash_buckets` bucket of
    ``key_cols`` — the WHOLE bucket as one ``pa.Table``, so Python
    dispatches = n_buckets, whatever the group count.  ``bucket_fn`` returns
    a ``pa.Table`` with the schema of ``empty_result`` (a typed 0-row
    table), which is unioned as the schema sentinel: an exchange over zero
    groups still yields the column set."""
    import ray.data as rd

    if isinstance(key_cols, str):
        key_cols = [key_cols]

    def add_bucket(tbl: pa.Table) -> pa.Table:
        # no b'pandas' metadata from pandas-made blocks: a schema holding
        # it is unhashable, and Ray's schema unify logs per block pair
        return tbl.replace_schema_metadata(None).append_column(
            "__bucket", pa.array(hash_buckets(tbl, key_cols, n_buckets),
                                 type=pa.int32()))

    def apply_bucket(tbl: pa.Table) -> pa.Table:
        return bucket_fn(tbl.drop_columns(["__bucket"]))

    out = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(apply_bucket, batch_format="pyarrow")
    )
    if empty_result is not None:
        out = out.union(rd.from_arrow(empty_result))
    return out


def coalesce_small_input(ds, rows_per_block: int = 256, max_rows: int = 65536):
    """Repartition a SMALL input to ~``rows_per_block`` rows/block.

    The fixed 64-split read plan is right for the web-scale corpus, but a
    tiny side table split 64 ways pays 64x task dispatch per stage and
    64 x n_partitions shuffle fragments of ~80-row blocks — pure overhead
    (measured 3.0 -> 1.6 s on the sf0.1 minhash pipeline, identical
    output).  Above ``max_rows`` the input is returned untouched, so the
    cluster physical plan never changes at scale.

    Call this on READS or materialized datasets only: ``count()`` is free
    there (parquet/block metadata) but would execute a derived lazy plan.
    """
    n = ds.count()
    if n <= max_rows:
        # only ever REDUCE below the 64-split read plan: a target >= 64
        # would ADD a shuffle for nothing (the read already has <= 64
        # blocks under read_op_min_num_blocks)
        target = min(64, max(8, n // rows_per_block))
        if target < 64:
            ds = ds.repartition(target)
    return ds
