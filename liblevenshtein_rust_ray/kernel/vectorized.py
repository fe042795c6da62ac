"""Vectorized banded pairwise edit distances — the numpy analogue of the
reference's SIMD distance-matrix kernels (/root/reference/src/distance/simd.rs,
src/transducer/simd.rs: AVX2/SSE4.1 batched DP with scalar fallback).

``batch_distances(queries, terms, n, algorithm)`` computes, for P string
pairs at once, the reference's edit distance clamped at ``n + 1``
(``> n`` ⇒ ``n + 1``), using an Ukkonen band of width ``W = 2n + 1`` so work
is O(P · maxlen · n) numpy ops instead of per-pair Python DP:

* band cell ``k`` of row ``i`` holds D[i][j] with ``j = i + k - n``; the DP
  state is band-major (W rows between two guard rows, one column per
  pair), so a row's W dictionary chars are the contiguous rows
  ``Tp[i : i + W]`` of the padded, transposed terms, and one row update is
  a few ``(W, m)`` vector ops plus a (W - 1)-step insertion chain;
* pairs are sorted by query length, descending: row ``i`` touches only the
  ``m`` pairs still active (query length ``>= i``), and the pairs whose
  query ends at row ``i`` are one contiguous slice;
* a cell depends only on cells with ``j' <= j``, so cells past a term's end
  are never masked — they never reach the cell that is read;
* values outside the band count as ``n + 1``: DP values are
  non-decreasing along any path, so a cell ``> n`` can never produce a
  final result ``≤ n``, and one clamp of the results (none per row) is
  exact for all reported distances;
* algorithms mirror kernel.distance exactly (standard two-row
  Wagner-Fischer mod.rs:244-288; transposition/OSA three-row mod.rs:304-359;
  merge-and-split greedy-match recursion mod.rs:624-730 — run forward over
  REVERSED strings, which is the suffix DP in prefix coordinates);
* ``subst`` (standard algorithm only): zero-cost characteristic-vector
  matches for allowed (dict_char, query_char) pairs, as
  substitution_set.rs:156-640.

Units are the reference's CharUnits (char_unit.rs:30-78), in one encoding
owned here: :func:`codepoints` decodes an Arrow array's values buffer (code
points, or raw bytes for ``binary``) and :func:`pad_rows` pads any of its
values for the band kernels.  Every caller passes Arrow arrays (or lists)
and encodes its distinct strings once.  Cross-validated against the
per-pair DP oracle by Hypothesis (tests/test_kernel_property.py).
"""

import numpy as np
import pyarrow as pa

from .algorithm import STANDARD, TRANSPOSITION, MERGE_AND_SPLIT


def codepoints(arr):
    """An Arrow ``string``/``large_string`` array (chunked or sliced) ->
    ``(units uint32, starts int64, lens int64)``: value ``i`` is
    ``units[starts[i] : starts[i] + lens[i]]``, its code points decoded
    from the UTF-8 values buffer; ``binary``/``large_binary`` values come
    out as raw bytes.  Invalid UTF-8 raises ``pa.ArrowInvalid``."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    arr.validate(full=True)
    if not len(arr):  # an empty array's offsets buffer may be empty too
        return np.zeros(0, np.uint32), np.zeros(0, np.int64), np.zeros(0, np.int64)
    large = arr.type in (pa.large_string(), pa.large_binary())
    _, offs, data = arr.buffers()
    offs = np.frombuffer(offs, np.int64 if large else np.int32)[
        arr.offset : arr.offset + len(arr) + 1].astype(np.int64)
    vals = np.frombuffer(data or b"", np.uint8)[offs[0] : offs[-1]]
    offs -= offs[0]
    if arr.type in (pa.binary(), pa.large_binary()):
        return vals.astype(np.uint32), offs[:-1], np.diff(offs)
    units = vals[(vals & 0xC0) != 0x80].astype(np.uint32)  # one per lead byte
    multi = np.flatnonzero(vals >= 0xC0)  # multi-byte leads, their units fixed up
    lead = vals[multi]
    width = 2 + (lead >= 0xE0) + (lead >= 0xF0)  # bytes in the sequence
    shift = np.concatenate(([0], np.cumsum(width - 1)))  # continuation bytes before
    cp = (lead & (0xFF >> (width + 1))).astype(np.uint32)  # the lead's payload bits
    for k in (1, 2, 3):  # fold in the continuation bytes, 6 bits each
        more = np.flatnonzero(width > k)
        cp[more] = (cp[more] << 6) | (vals[multi[more] + k] & 0x3F)
    units[multi - shift[:-1]] = cp
    bounds = offs - shift[np.searchsorted(multi, offs)]  # values start on leads
    return units, bounds[:-1], np.diff(bounds)


def pad_rows(units, starts, lens, rows, reverse: bool = False):
    """The values ``rows`` of :func:`codepoints`' output as the zero-padded
    ``(len(rows), maxlen)`` uint32 matrix (at least one column) that
    :func:`_banded_pairs` reads; ``reverse=True`` writes each value back
    to front, the merge-and-split layout."""
    lens = lens[rows]
    width = max(int(lens.max(initial=0)), 1)
    buf = np.concatenate([units[::-1] if reverse else units, np.zeros(width, np.uint32)])
    first = len(units) - starts[rows] - lens if reverse else starts[rows]
    out = np.lib.stride_tricks.sliding_window_view(buf, width)[first]
    out[np.arange(width) >= lens[:, None]] = 0
    return out


def encode_pairs(queries, terms, reverse: bool = False):
    """Pair sides (lists of str or bytes, or Arrow arrays) -> ``(ENC, lens,
    qi, ti)``: the distinct values of ``queries + terms`` (Arrow's
    ``dictionary_encode`` compares full bytes, so values that differ only
    after a NUL stay apart) as one :func:`pad_rows` matrix, their lengths,
    and each pair's two rows in it."""
    q, t = (v.combine_chunks() if isinstance(v, pa.ChunkedArray)
            else v if isinstance(v, pa.Array) else pa.array(v) for v in (queries, terms))
    enc = pa.concat_arrays([q, t.cast(q.type)]).dictionary_encode()
    inv = enc.indices.to_numpy().astype(np.int64)
    units, starts, lens = codepoints(enc.dictionary)
    ENC = pad_rows(units, starts, lens, np.arange(len(lens)), reverse)
    return ENC, lens, inv[: len(q)], inv[len(q) :]


def _banded_pairs(ENC, ulen, qi, ti, n: int, algorithm: str, subst=None):
    """Distances for the pairs of :func:`pad_rows` matrix rows ``qi``/``ti``
    (``ulen``: the rows' lengths).  Pairs within ``n`` in length run in
    query-length-descending order, in chunks of ``CHUNK``, so a chunk's
    pairs have similar lengths and its row loop does little wasted work."""
    P = len(qi)
    out = np.full(P, n + 1, dtype=np.int32)
    qlen, tlen = ulen[qi], ulen[ti]
    idx = np.flatnonzero(np.abs(qlen - tlen) <= n)
    idx = idx[np.argsort(-qlen[idx], kind="stable")]
    CHUNK = 8192  # 400k mixed-length pairs: 16-25% faster than 64k, 4k slower
    for s in range(0, idx.size, CHUNK):
        sel = idx[s : s + CHUNK]
        width = min(int(np.maximum(qlen[sel], tlen[sel]).max()), ENC.shape[1])
        Q, T = ENC[qi[sel], :width], ENC[ti[sel], :width]
        if algorithm == MERGE_AND_SPLIT:
            out[sel] = _band_merge_split_enc(Q, qlen[sel], T, tlen[sel], n)
        else:
            out[sel] = _band_standard_enc(Q, qlen[sel], T, tlen[sel], n, algorithm, subst)
    return out


def _subst_keys(subst):
    """Allowed (dict_char, query_char) pairs as packed uint64 keys."""
    pairs = getattr(subst, "_pairs", None)
    if not pairs:
        return None
    return np.fromiter(
        ((ord(a) << 32) | ord(b) for a, b in pairs), dtype=np.uint64, count=len(pairs)
    )


def batch_distances(queries, terms, n: int, algorithm: str = STANDARD, subst=None):
    """Distances (clamped at n+1) for ``zip(queries, terms)``
    (:func:`encode_pairs`' inputs); the query is the automaton-side string,
    the term the dictionary-side string (matters only for directional
    ``subst`` sets)."""
    P = len(queries)
    out = np.full(P, n + 1, dtype=np.int32)
    if P == 0:
        return out
    if subst is not None and algorithm != STANDARD:
        # restricted substitutions are defined on the characteristic vector;
        # outside the standard tables fall back to the exact automaton kernel
        from . import build_trie
        from .query import query as _kquery

        queries, terms = (v.to_pylist() if hasattr(v, "to_pylist") else v for v in (queries, terms))
        for i in range(P):
            trie = build_trie([terms[i]])
            hits = list(_kquery(trie, queries[i], n, algorithm, subst=subst))
            out[i] = hits[0].distance if hits else n + 1
        return out

    ENC, ulen, qi, ti = encode_pairs(queries, terms, reverse=algorithm == MERGE_AND_SPLIT)
    return _banded_pairs(ENC, ulen, qi, ti, n, algorithm, subst)


def _band_setup(Q, qlen, T, tlen, n):
    """Shared state of the band kernels for pairs sorted by query length,
    descending: queries transposed (``Qt[i - 1]`` is row ``i``'s char);
    terms transposed and padded so row ``i``'s W band chars are
    ``Tp[i : i + W]`` (column ``c`` lands at row ``c + n + 1``); ``act[i]``
    = the pairs with query length ``>= i``, a prefix; three band-major
    ``(W + 2, P)`` DP rows whose guard rows 0 and W + 1 stay ``n + 1``,
    the first holding row 0 (D[0][j] = j); results, ``qlen == 0`` filled."""
    P, W, INF = Q.shape[0], 2 * n + 1, n + 1
    maxq = int(qlen[0]) if P else 0
    Qt = np.ascontiguousarray(Q[:, :maxq].T)
    Tp = np.zeros((max(maxq, T.shape[1]) + 2 * n + 2, P), dtype=T.dtype)
    Tp[n + 1 : n + 1 + T.shape[1]] = T.T
    act = np.searchsorted(-qlen, -np.arange(maxq + 2), side="right")
    rows = [np.full((W + 2, P), INF, dtype=np.int32) for _ in range(3)]
    rows[0][n + 1 : W + 1] = np.arange(n + 1, dtype=np.int32)[:, None]
    res = np.full(P, INF, dtype=np.int32)
    res[act[1]:] = np.minimum(tlen[act[1]:], INF)
    return Qt, Tp, act, rows, res


def _band_standard_enc(Q, qlen, T, tlen, n, algorithm, subst):
    """Forward band DP; handles STANDARD and TRANSPOSITION (OSA).  Rows
    must be sorted by ``qlen`` descending.  Values are not clamped per row:
    a cell past the band or below ``j = 0`` holds ``>= n + 1``, and the
    result is clamped once."""
    W, INF = 2 * n + 1, n + 1
    Qt, Tp, act, (prev, curr, prev2), res = _band_setup(Q, qlen, T, tlen, n)
    skeys = _subst_keys(subst)
    trans = algorithm == TRANSPOSITION
    for i in range(1, len(Qt) + 1):
        m = act[i]
        qc, win = Qt[i - 1, :m], Tp[i : i + W, :m]
        e = curr[1 : W + 1, :m]
        cost = win != qc
        if skeys is not None:  # allowed (dict, query) pairs cost 0
            packed = (win.astype(np.uint64) << np.uint64(32)) | qc
            cost &= ~np.isin(packed, skeys)
        np.add(prev[1 : W + 1, :m], cost, out=e)  # diagonal (i-1, j-1)
        np.minimum(e, prev[2 : W + 2, :m] + 1, out=e)  # up (i-1, j)
        if trans and i >= 2:  # swap (i-2, j-2) when q[i-1]q[i] = t[j]t[j-1]
            swap = (Tp[i - 1 : i - 1 + W, :m] == qc) & (win == Qt[i - 2, :m])
            np.minimum(e, prev2[1 : W + 1, :m] + 1, out=e, where=swap)
        if i <= n:  # D[i][j < 0] is out of range, D[i][0] = i
            e[: n - i] = INF
            e[n - i] = i
        for k in range(1, W):  # insertion (i, j-1), ascending j
            np.minimum(e[k], e[k - 1] + 1, out=e[k])
        lo = act[i + 1]
        if lo < m:
            res[lo:m] = curr[tlen[lo:m] - i + n + 1, np.arange(lo, m)]
        if trans:
            prev2, prev, curr = prev, curr, prev2
        else:
            prev, curr = curr, prev
    return np.minimum(res, INF)


def _band_merge_split_enc(Q, qlen, T, tlen, n):
    """Forward band DP over reversed strings == the reference's greedy
    suffix recursion: on a character match ONLY the match branch is taken;
    otherwise 1 + min(delete, insert, substitute, split, merge).  Rows
    must be sorted by ``qlen`` descending.  Every term is band-wide; the
    match override rides the insertion chain as a step too big to take."""
    W, INF = 2 * n + 1, n + 1
    Qt, Tp, act, (prev, curr, prev2), res = _band_setup(Q, qlen, T, tlen, n)
    big = np.int32(len(Qt) + 2 * W)  # >= every DP value (<= n + 1 + i + W at row i)
    for i in range(1, len(Qt) + 1):
        m = act[i]
        match = Tp[i : i + W, :m] == Qt[i - 1, :m]
        e = curr[1 : W + 1, :m]
        # 1 + min(delete (i-1, j), substitute (i-1, j-1), split (i-1, j-2),
        #         merge (i-2, j-1)); a match takes (i-1, j-1) alone
        np.minimum(prev[2 : W + 2, :m], prev[1 : W + 1, :m], out=e)
        np.minimum(e, prev[0:W, :m], out=e)
        np.minimum(e, prev2[2 : W + 2, :m], out=e)
        e += 1
        np.copyto(e, prev[1 : W + 1, :m], where=match)
        if i <= n:  # D[i][j < 0] is out of range, D[i][0] = i
            e[: n - i] = INF
            e[n - i] = i
        step = match * big  # a match cell keeps its diagonal
        step += 1
        for k in range(1, W):  # insertion (i, j-1), ascending j
            np.minimum(e[k], e[k - 1] + step[k], out=e[k])
        lo = act[i + 1]
        if lo < m:
            res[lo:m] = curr[tlen[lo:m] - i + n + 1, np.arange(lo, m)]
        prev2, prev, curr = prev, curr, prev2
    return np.minimum(res, INF)
