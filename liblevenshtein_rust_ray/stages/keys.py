"""Group keys for bucket functions, compared as full bytes.

pandas ``groupby`` / ``factorize`` / multi-column ``drop_duplicates`` hash an
object str only up to its first NUL, so keys that differ after a NUL merge
without an error.  Bucket functions group string keys with Arrow instead:
``Table.group_by``, or the integer codes below.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def key_codes(col) -> np.ndarray:
    """int64 dictionary code per value of an Arrow column: equal values
    share a code; nulls get -1."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.dictionary_encode(col).indices.fill_null(-1).to_numpy() \
        .astype(np.int64)


def run_ranks(codes) -> np.ndarray:
    """1-based position of each row within its run of equal ``codes`` —
    the per-group rank of rows sorted by their group key."""
    codes = np.asarray(codes)
    i = np.arange(len(codes))
    new = np.ones(len(codes), dtype=bool)
    new[1:] = codes[1:] != codes[:-1]
    return i + 1 - np.maximum.accumulate(np.where(new, i, 0))


def arrow_type(ds, col: str) -> pa.DataType:
    """``col``'s Arrow type in Dataset ``ds``; a pandas block's object
    column reads as the string column it becomes in the exchange."""
    schema = ds.schema()
    t = dict(zip(schema.names, schema.types))[col]
    return t if isinstance(t, pa.DataType) else pa.string()
