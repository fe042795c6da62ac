"""MinHash signatures + LSH banding for near-duplicate detection.

Mergeable-sketch design (ray_guide.md "Aggregation at scale"): a signature is
``num_perm`` 64-bit minima over the shingle set; the LSH step explodes each
doc into ``(band_id, band_hash)`` keys and a groupby co-locates candidates.
Deterministic: permutations are fixed odd multipliers derived from blake2b of
the permutation index (universal hashing mod 2^61-1).
"""

import numpy as np

from .simhash import hash64

_PRIME = np.uint64((1 << 61) - 1)


def _perm_params(num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([hash64(f"minhash-a-{i}") | 1 for i in range(num_perm)], dtype=np.uint64)
    b = np.array([hash64(f"minhash-b-{i}") for i in range(num_perm)], dtype=np.uint64)
    return a % _PRIME, b % _PRIME


_PARAM_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def minhash_signature(features: list[str], num_perm: int = 64) -> np.ndarray:
    """uint64[num_perm] signature; empty feature set -> all-max sentinel."""
    params = _PARAM_CACHE.get(num_perm)
    if params is None:
        params = _PARAM_CACHE[num_perm] = _perm_params(num_perm)
    a, b = params
    if not features:
        return np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    hs = np.fromiter((hash64(f) for f in features), dtype=np.uint64, count=len(features))
    hs = hs % _PRIME
    with np.errstate(over="ignore"):
        # (a*h + b) mod p per permutation; uint64 wraparound is fine for the
        # multiply because we reduce mod the Mersenne prime afterwards via
        # python ints — keep it simple & correct: use object-free loop in numpy
        vals = (hs[None, :] * a[:, None] + b[:, None]) % _PRIME
    return vals.min(axis=1).astype(np.uint64)


def minhash_bands(sig: np.ndarray, n_bands: int = 16) -> list[int]:
    """LSH: hash each row-band of the signature to one 64-bit bucket key."""
    rows = len(sig) // n_bands
    out = []
    for i in range(n_bands):
        band = sig[i * rows : (i + 1) * rows]
        out.append(hash64(band.tobytes()))
    return out


def jaccard_estimate(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float((sig_a == sig_b).mean())


# ----------------------------------------------------------------------
# md5 variant — bit-identical to what DuckDB can compute, so the LSH
# pipeline gains an exact SQL oracle (md5_number_lower(x) == the second
# half of the md5 digest read little-endian; verified empirically).
# Exact 128-bit modular arithmetic (Python ints), unlike the fast
# blake2b path's uint64-wraparound multiply — both deterministic, only
# this one is reproducible in SQL.
# ----------------------------------------------------------------------
from .simhash import md5_hash64  # noqa: F401  (re-export; shared md5 family)

_P_INT = (1 << 61) - 1


_MD5_PARAM_CACHE: dict[int, tuple[list[int], list[int]]] = {}


def md5_perm_params(num_perm: int = 64) -> tuple[list[int], list[int]]:
    """Permutation constants for the md5 variant; embedded as literals in
    the generated oracle SQL so both engines share them by construction."""
    if num_perm not in _MD5_PARAM_CACHE:
        a = [(md5_hash64(f"minhash-a-{i}") | 1) % _P_INT for i in range(num_perm)]
        b = [md5_hash64(f"minhash-b-{i}") % _P_INT for i in range(num_perm)]
        _MD5_PARAM_CACHE[num_perm] = (a, b)
    return _MD5_PARAM_CACHE[num_perm]


_M61 = np.uint64((1 << 61) - 1)
_MD5_VEC_CACHE: dict[int, tuple] = {}


def _mulmod_m61(a1, a0, h: np.ndarray) -> np.ndarray:
    """Exact ``a*h mod 2^61-1`` in uint64 (a = a1*2^30 + a0, a,h < p).

    2^61 ≡ 1 (mod p) folds every partial product below 2^61 before any
    addition, so the running sum of the 4 partials stays under 2^64:
    a*h = a1·h1·2^61 + a1·h0·2^30 + a0·h1·2^31 + a0·h0 with h = h1·2^31+h0
    (h1 < 2^30, h0 < 2^31; a1 < 2^31, a0 < 2^30)."""
    h1 = h >> np.uint64(31)
    h0 = h & np.uint64((1 << 31) - 1)
    mask30 = np.uint64((1 << 30) - 1)
    mask31 = np.uint64((1 << 31) - 1)
    t = a1 * h1  # < 2^61 : times 2^61 ≡ itself
    x = a1 * h0  # < 2^62 : times 2^30 → fold
    t += ((x & mask31) << np.uint64(30)) + (x >> np.uint64(31))
    y = a0 * h1  # < 2^60 : times 2^31 → fold
    t += ((y & mask30) << np.uint64(31)) + (y >> np.uint64(30))
    t += a0 * h0  # < 2^61
    # t < 4·2^61 + small: two folds land in [0, p]
    t = (t & _M61) + (t >> np.uint64(61))
    t = (t & _M61) + (t >> np.uint64(61))
    return np.where(t >= _M61, t - _M61, t)


def minhash_signature_md5(features: list[str], num_perm: int = 64) -> np.ndarray:
    """uint64[num_perm] signature via exact (a*h + b) mod 2^61-1 over
    md5-derived shingle hashes; empty feature set -> all-max sentinel.
    Vectorized Mersenne-61 mulmod — bit-identical to the Python-int
    formula (pinned by test) and to the generated oracle SQL."""
    if not features:
        return np.full(num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    if num_perm not in _MD5_VEC_CACHE:
        a, b = md5_perm_params(num_perm)
        av = np.array(a, dtype=np.uint64)
        _MD5_VEC_CACHE[num_perm] = (
            (av >> np.uint64(30))[:, None],
            (av & np.uint64((1 << 30) - 1))[:, None],
            np.array(b, dtype=np.uint64)[:, None],
        )
    a1, a0, bv = _MD5_VEC_CACHE[num_perm]
    hs = np.fromiter((md5_hash64(f) % _P_INT for f in features),
                     dtype=np.uint64, count=len(features))
    vals = _mulmod_m61(a1, a0, hs[None, :]) + bv  # < p + p < 2^62
    vals = (vals & _M61) + (vals >> np.uint64(61))
    vals = np.where(vals >= _M61, vals - _M61, vals)
    return vals.min(axis=1).astype(np.uint64)


def minhash_bands_md5(sig: np.ndarray, n_bands: int = 32) -> list[str]:
    """Band keys as value-concatenated strings (SQL-reproducible, unlike
    the blake2b band hash)."""
    rows = len(sig) // n_bands
    return [
        ",".join(str(int(v)) for v in sig[i * rows : (i + 1) * rows])
        for i in range(n_bands)
    ]


# ----------------------------------------------------------------------
# Batch kernels — the 100-TB signer.  One call per Arrow batch instead of
# one per document: shingles are hashed ONCE per distinct string in the
# batch (np.unique; web corpora repeat stop-shingles heavily), the
# (a*h+b) mod p sweep runs as a single (num_perm x n_unique) matrix, and
# per-document minima come from one np.minimum.reduceat over the flat
# shingle stream.  Bit-identical to the per-row functions above (pinned
# by tests/test_minhash_batch.py); only the loop structure differs.
# ----------------------------------------------------------------------
_U64_MAX = np.uint64(np.iinfo(np.uint64).max)




def _perm_sweep_md5(uh: np.ndarray, num_perm: int) -> np.ndarray:
    """(num_perm, n) exact (a*h+b) mod 2^61-1 over md5-derived hashes."""
    if num_perm not in _MD5_VEC_CACHE:
        minhash_signature_md5(["warm"], num_perm)  # populate the cache
    a1, a0, bv = _MD5_VEC_CACHE[num_perm]
    vals = _mulmod_m61(a1, a0, uh[None, :]) + bv
    vals = (vals & _M61) + (vals >> np.uint64(61))
    return np.where(vals >= _M61, vals - _M61, vals)


def _perm_sweep_blake2b(uh: np.ndarray, num_perm: int) -> np.ndarray:
    """(num_perm, n) wraparound (a*h+b) mod p — the fast family, matching
    minhash_signature exactly (same uint64 overflow multiply)."""
    params = _PARAM_CACHE.get(num_perm)
    if params is None:
        params = _PARAM_CACHE[num_perm] = _perm_params(num_perm)
    a, b = params
    with np.errstate(over="ignore"):
        return (uh[None, :] * a[:, None] + b[:, None]) % _PRIME


def minhash_signatures_batch(
    texts, num_perm: int = 64, shingle_k: int = 3, hasher: str = "blake2b"
) -> np.ndarray:
    """(n_docs, num_perm) uint64 signature matrix for a batch of texts.

    Row j is bit-identical to
    ``minhash_signature[_md5](shingles(tokenize(texts[j]), shingle_k))``:
    a signature is a MIN over the shingle multiset, so tokenizing /
    shingling with the columnar kernel (``shingle_codes_column`` — one
    numpy pass over the flat string buffer, strings assembled only per
    DISTINCT token window; the sf0.1 corpus repeats each shingle ~4x,
    webtext more), hashing each distinct shingle once, gathering the
    (n_flat, num_perm) value stream in doc order and segment-reducing
    with ONE ``np.minimum.reduceat`` changes nothing but the constant
    factor.  Empty docs get the all-max sentinel, same as the per-row
    kernel."""
    import pyarrow as pa

    from .tokenize import shingle_codes_column

    # Sign each DISTINCT text once: webtext batches carry heavy exact
    # duplication (boilerplate pages, mirrored docs — the very thing the
    # dedup stage hunts), and a duplicate's signature is byte-identical.
    # Arrow groups texts by their full bytes (pandas' factorize hashes a
    # str only up to its first NUL).
    arr = pa.array([x or "" for x in texts], type=pa.string())
    enc = arr.dictionary_encode()
    if len(enc.dictionary) < len(arr):
        return minhash_signatures_batch(
            enc.dictionary.to_pylist(), num_perm, shingle_k, hasher
        )[enc.indices.to_numpy()]

    n_docs = len(arr)
    out = np.full((n_docs, num_perm), _U64_MAX, dtype=np.uint64)
    if n_docs == 0:
        return out
    codes, offs, uniq_arr = shingle_codes_column(arr, shingle_k)
    if len(codes) == 0:
        return out
    uniq = uniq_arr.to_pylist()
    if hasher == "md5":
        uh = np.fromiter((md5_hash64(f) % _P_INT for f in uniq),
                         dtype=np.uint64, count=len(uniq))
        vals = _perm_sweep_md5(uh, num_perm)
    else:
        uh = np.fromiter((hash64(f) for f in uniq),
                         dtype=np.uint64, count=len(uniq)) % _PRIME
        vals = _perm_sweep_blake2b(uh, num_perm)
    valsT = np.ascontiguousarray(vals.T)  # (n_uniq, num_perm)
    # Segment-min over the doc-ordered flat stream.  reduceat needs
    # non-empty segments: reduce only docs with >=1 shingle, leaving the
    # all-max sentinel on the rest (the per-row empty-doc semantics).
    nonempty = np.flatnonzero(np.diff(offs) > 0)
    out[nonempty] = np.minimum.reduceat(valsT[codes], offs[nonempty], axis=0)
    return out


def minhash_band_keys_batch(
    sig_mat: np.ndarray, n_bands: int, hasher: str = "blake2b"
) -> np.ndarray:
    """(n_docs, n_bands) object array of ``"band_id:key"`` bucket strings,
    bit-identical to enumerate(minhash_bands[_md5](sig)) per row.

    md5 family: one vectorized uint64→str cast + np.char joins (the keys
    are value-concatenations, no hashing).  blake2b family: band hashes
    are computed once per DISTINCT signature (duplicate docs share every
    band), then broadcast back.
    """
    n_docs, num_perm = sig_mat.shape
    rows = num_perm // n_bands
    if hasher == "md5":
        s = sig_mat.astype("U20")  # vectorized decimal repr of uint64
        parts = s.reshape(n_docs, n_bands, rows)
        key = parts[:, :, 0]
        for r in range(1, rows):
            key = np.char.add(np.char.add(key, ","), parts[:, :, r])
        prefix = np.array([f"{b}:" for b in range(n_bands)], dtype=object)
        return np.char.add(prefix[None, :].astype("U8"), key).astype(object)
    # blake2b: hash each distinct signature's bands once
    view = np.ascontiguousarray(sig_mat).view(
        np.dtype((np.void, num_perm * 8))).ravel()
    _, uidx, uinv = np.unique(view, return_index=True, return_inverse=True)
    out_u = np.empty((len(uidx), n_bands), dtype=object)
    for r, i in enumerate(uidx):
        sig = sig_mat[i]
        for b in range(n_bands):
            bh = hash64(sig[b * rows:(b + 1) * rows].tobytes())
            out_u[r, b] = f"{b}:{bh:016x}"
    return out_u[uinv]
