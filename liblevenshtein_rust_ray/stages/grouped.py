"""Bucketed apply: the cure for per-group Python dispatch.

``ds.groupby(key).map_groups(fn)`` calls Python once per GROUP — at millions
of small blocks (the normal case for blocking keys) the ~0.1-0.2 ms dispatch
dominates end-to-end time.  The helpers here instead:

1. hash the key columns into ``n_buckets`` coarse buckets (vectorized,
   deterministic — pandas siphash with its fixed key, process-independent);
2. run ONE ``map_groups`` per bucket (tiny dispatch count);
3. hand the whole bucket to ``bucket_fn``, which does its own vectorized
   per-key work (pandas/Arrow C groupbys, numpy kernels).

All members of a key share its bucket, so semantics are identical to a
per-key groupby.  ``n_buckets`` bounds bucket size ≈ rows / n_buckets: size
it so a bucket fits a worker's heap (at webscale pass thousands of buckets;
the shuffle cost is the same one exchange).  :func:`bucketed_apply_arrow`
keeps batches as ``pa.Table`` end to end (the ER path);
:func:`bucketed_apply` is its pandas form for the aggregate-shaped stages.
"""

import numpy as np
import pandas as pd


def _as_typed_block(out, empty_result: pd.DataFrame | None):
    """Non-empty bucket output -> a typed ARROW block matching the
    ``empty_result`` schema.  Without this, non-empty buckets emit pandas
    blocks while empty buckets and the union sentinel emit Arrow — Ray
    logs a 'RefBundle with a different schema' warning per block pair
    (log spam at 800k blocks, and a real schema-drift foot-gun on a
    cluster).  When no ``empty_result`` pins a schema the pandas block
    passes through unchanged (no sentinel exists to drift against)."""
    if empty_result is None or out is None or not isinstance(out, pd.DataFrame):
        return out
    import pyarrow as pa

    schema = _empty_arrow(empty_result).schema
    # replace_schema_metadata(None): from_pandas attaches b'pandas' metadata,
    # and a schema whose metadata holds a dict is UNHASHABLE — Ray's
    # unify_schemas then logs "Failed to hash the schemas" per bundle pair
    # and loses its early-exit dedup (transform_pyarrow.py:175-181).
    return pa.Table.from_pandas(
        out[list(empty_result.columns)], schema=schema, preserve_index=False
    ).replace_schema_metadata(None)


def _empty_arrow(empty_result: pd.DataFrame):
    """Typed 0-row Arrow table matching ``empty_result``'s columns.  Empty
    UDF outputs return THIS instead of an empty object-dtype DataFrame:
    Arrow block size is exact metadata, while Ray's pandas size estimator
    np.vectorize()s over object columns and errors loudly on 0 rows."""
    import numpy as np
    import pyarrow as pa

    def arrow_type(dtype):
        if dtype == object:
            return pa.string()
        return pa.from_numpy_dtype(np.dtype(dtype))

    schema = pa.schema(
        [(c, arrow_type(empty_result[c].dtype)) for c in empty_result.columns]
    )
    return pa.table(
        {c: pa.array([], type=schema.field(c).type) for c in empty_result.columns},
        schema=schema,
    )


def _with_schema_sentinel(out, empty_result: pd.DataFrame | None):
    """A groupby over zero groups yields a schema-less empty dataset; union a
    typed 0-row ARROW block so downstream consumers (schema(), to_pandas,
    write_parquet) always see the column set."""
    if empty_result is None:
        return out
    import ray.data as rd

    return out.union(rd.from_arrow(_empty_arrow(empty_result)))


def bucketed_apply(ds, key_cols, bucket_fn, n_buckets: int = 64,
                   empty_result: pd.DataFrame | None = None):
    """Apply ``bucket_fn`` per hash bucket of ``key_cols``: it gets the
    WHOLE bucket DataFrame and does its own (pandas C) grouping —
    e.g. ``df.groupby(keys, as_index=False)[col].min()``.  Total Python
    dispatches = n_buckets, regardless of group count.  Use it for
    aggregate-shaped per-key logic (dedup, min/sum/count combine)."""
    if isinstance(key_cols, str):
        key_cols = [key_cols]

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        h = pd.util.hash_pandas_object(df[list(key_cols)], index=False)
        # uint32 before the mod: this host's CPU has no vectorized 64-bit
        # integer division (uint64 % is ~30x slower than uint32 %)
        df["__bucket"] = (
            h.to_numpy().astype("uint32") % np.uint32(n_buckets)
        ).astype("int32")
        return df

    def apply_bucket(bucket: pd.DataFrame):
        out = bucket_fn(bucket.drop(columns="__bucket"))
        if empty_result is not None and out is not None and not len(out):
            return _empty_arrow(empty_result)
        return _as_typed_block(out, empty_result)

    out = (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(apply_bucket, batch_format="pandas")
    )
    return _with_schema_sentinel(out, empty_result)


def hash_buckets(tbl, key_cols, n_buckets: int):
    """Bucket id (int32 numpy array) per row of ``tbl``: each key column's
    DICTIONARY is hashed (distinct values only — pandas siphash for
    cross-process determinism) and the code ``take``n per row; multi-column
    keys combine per-column hashes with a polynomial mix.  The bucketed
    exchange and ``er_pairs``' local plan cut rows by this one function.
    Strings are hashed as UTF-8 bytes: pandas hashes a str only up to its
    first NUL (bytes hash in full, to the same value when there is none)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    acc = np.zeros(tbl.num_rows, dtype=np.uint32)
    for c in key_cols:
        d = pc.dictionary_encode(tbl[c].combine_chunks())
        vals = d.dictionary
        if pa.types.is_string(vals.type) or pa.types.is_large_string(vals.type):
            vals = vals.cast(pa.large_binary())
        hd = (
            pd.util.hash_pandas_object(vals.to_pandas(), index=False)
            .to_numpy()
            .astype(np.uint32)
        )
        acc = acc * np.uint32(1000003) ^ hd[d.indices.to_numpy()]
    return (acc % np.uint32(n_buckets)).astype(np.int32)


def bucketed_apply_arrow(ds, key_cols, bucket_fn, n_buckets: int = 256,
                         empty_result=None):
    """Arrow-native :func:`bucketed_apply`: batches stay ``pa.Table`` end to
    end, so exchange rows never become Python objects; rows are bucketed
    by :func:`hash_buckets`.  ``bucket_fn(pa.Table) -> pa.Table`` must
    return the same schema for every bucket; ``empty_result`` (a typed
    0-row ``pa.Table``) is unioned as the schema sentinel."""
    import pyarrow as pa
    import ray.data as rd

    if isinstance(key_cols, str):
        key_cols = [key_cols]

    def add_bucket(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
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
