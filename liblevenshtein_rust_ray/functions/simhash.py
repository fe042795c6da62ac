"""64-bit SimHash over shingles — the blocking-key workhorse.

Deterministic (blake2b feature hashing — C-speed, never Python's
process-salted ``hash``).  Near-identical strings differ in few shingles, so
most simhash bits agree; banding the 64 bits into ``n_bands`` chunks gives
LSH blocking keys: two strings within small edit distance share at least one
band with high probability (north-star blocking: host + simhash band +
length bucket).
"""

from hashlib import blake2b

import numpy as np

_BIT_IDX = np.arange(64, dtype=np.uint64)


def hash64(data: str | bytes) -> int:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


def hash64_distinct(values) -> np.ndarray:
    """:func:`hash64` of every string of an Arrow array, as uint64, each
    DISTINCT string hashed once.  ``pc.dictionary_encode`` hashes whole
    strings; ``pd.factorize`` would merge strings that differ only after a
    NUL (pandas' string hash stops at one)."""
    import pyarrow.compute as pc

    d = pc.dictionary_encode(values)
    uniq = d.dictionary.to_pylist()
    uh = np.fromiter((hash64(x) for x in uniq), dtype=np.uint64, count=len(uniq))
    return uh[d.indices.to_numpy()]


def simhash64(features: list[str]) -> int:
    """Classic Charikar simhash: per-bit majority vote over feature hashes."""
    if not features:
        return 0
    hs = np.fromiter((hash64(f) for f in features), dtype=np.uint64, count=len(features))
    bits = ((hs[:, None] >> _BIT_IDX[None, :]) & np.uint64(1)).astype(np.int32)
    acc = bits.sum(axis=0) * 2 - len(features)  # (+1/-1 votes)
    out = np.uint64(0)
    for i in np.nonzero(acc > 0)[0]:
        out |= np.uint64(1) << np.uint64(i)
    return int(out)


def md5_hash64(data: str | bytes) -> int:
    """DuckDB ``md5_number_lower``-compatible 64-bit hash (second digest
    half, little-endian) — the SQL-reproducible hash family shared by the
    minhash/simhash/fingerprint oracle variants."""
    import hashlib

    if isinstance(data, str):
        data = data.encode("utf-8")
    return int.from_bytes(hashlib.md5(data).digest()[8:], "little")


def simhash64_md5(features: list[str]) -> int:
    """simhash64 with md5-derived feature hashes (SQL-reproducible)."""
    if not features:
        return 0
    hs = np.fromiter((md5_hash64(f) for f in features), dtype=np.uint64,
                     count=len(features))
    bits = ((hs[:, None] >> _BIT_IDX[None, :]) & np.uint64(1)).astype(np.int32)
    acc = bits.sum(axis=0) * 2 - len(features)
    out = np.uint64(0)
    for i in np.nonzero(acc > 0)[0]:
        out |= np.uint64(1) << np.uint64(i)
    return int(out)


def simhash_bands(sh: int, n_bands: int = 4) -> list[int]:
    """Split a 64-bit simhash into ``n_bands`` equal bit-chunks."""
    width = 64 // n_bands
    mask = (1 << width) - 1
    return [(sh >> (i * width)) & mask for i in range(n_bands)]


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")
