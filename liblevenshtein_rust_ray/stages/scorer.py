"""Per-block pairwise scoring — the heart of the engine.

One bucket scorer, :func:`score_bucket_vectorized_arrow`:
``(pa.Table of (block_key, url, key_string), max_distance, algorithm)
-> pa.Table of (url_a, url_b, distance)``, run once per hash bucket of
``block_key`` (or once over the whole key table, in ``er_pairs``' local
plan).  It works on integer codes and batched calls into the numpy
banded-DP kernel (kernel.vectorized — the reference's SIMD distance
matrix, src/distance/simd.rs), and no string becomes a Python object.
Its edges are canonical (``url_a < url_b``), deduped by min distance,
and exact: every same-block string pair within ``max_distance`` is found.
Scale design decisions (north rule):

* **Identical strings collapse.**  k urls sharing one string produce a
  distance-0 STAR (k-1 edges to the lexicographically-smallest url), not
  k(k-1)/2 pairs — transitively equivalent for clustering and linear, not
  quadratic, in block size.
* **Cross-string matches connect representatives.**  One edge per matching
  string pair (min-url of each side).
* **``emit_all_pairs=True`` expands the same edges** into the quadratic
  SQL-oracle pair set: each identical-string group emits its clique, and
  each matching string pair the cross product of its two groups' urls.
  Only the expansion differs; blocking, candidates and the DP are shared.
* **Length-banded candidate tiles, filtered before they are deduped.**
  One edit changes a length by at most 1, so the scorer pairs each string
  only with the strings of its block within ``max_distance`` in length, in
  tiles of at most ``PAIR_TILE``.  A tile keeps the pairs that pass two
  char signatures built once per bucket (a 64-bin histogram and its
  presence mask); the survivors are deduped and scored in DP batches of
  about ``PAIR_TILE``.  Every step is lossless, and a hot block costs time
  in proportion to its banded pairs, never memory in proportion to its
  triangle.
* Parallelism is across buckets (Ray tasks), never inside one.
"""

from ..kernel import STANDARD
from ..kernel.vectorized import _banded_pairs, codepoints, pad_rows

EDGE_COLUMNS = ["url_a", "url_b", "distance"]
# Candidate string pairs the scorer generates and filters at once, and the
# survivors it holds before a DP batch (docs/SCALE.md §16).
PAIR_TILE = 65_536


def _edges_schema():
    import pyarrow as pa

    return pa.schema(
        [("url_a", pa.string()), ("url_b", pa.string()), ("distance", pa.int32())]
    )


def _empty_edges_arrow():
    import pyarrow as pa

    s = _edges_schema()
    return pa.table({f.name: pa.array([], type=f.type) for f in s}, schema=s)


def _sorted_codes(chunked):
    """Arrow column -> (lex-rank codes int64, sorted dictionary Array).

    ``dictionary_encode`` + ``array_sort_indices`` keep everything in C —
    values never become Python objects; the DISTINCT values exist once, as
    an Arrow dictionary."""
    import numpy as np
    import pyarrow.compute as pc

    d = pc.dictionary_encode(chunked.combine_chunks())
    idx = d.indices.to_numpy().astype(np.int64)
    order = pc.array_sort_indices(d.dictionary).to_numpy().astype(np.int64)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[idx], d.dictionary.take(order)


def score_bucket_vectorized_arrow(
    tbl,
    max_distance: int = 2,
    algorithm: str = STANDARD,
    stats: dict | None = None,
    emit_all_pairs: bool = False,
):
    """(block_key, url, key_string) rows -> canonical edges for the bucket:
    distance-0 stars for identical strings, one representative (min-url)
    edge per distinct string pair within ``max_distance``; with
    ``emit_all_pairs``, every distinct url pair within ``max_distance`` of
    each other in some block (the quadratic SQL-oracle semantics).

    No value becomes a Python string: dictionary-encode in C, decode the
    distinct strings to code points once (lengths, signatures and DP rows
    all read it; invalid UTF-8 raises ``pa.ArrowInvalid``), run the integer
    core, then ``take`` the output urls from the Arrow dictionary.

    A row alone in its block has no partner and no star, so it is dropped
    before anything is encoded.  ``stats``, if given, receives
    ``paired_rows`` (the rows kept) and the candidate funnel:
    ``candidate_pairs`` (length-banded string pairs), ``signature_pairs``
    (those passing both char-signature tests) and ``dp_pairs`` (distinct
    pairs the DP scored)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    stats = {} if stats is None else stats
    bkid = pc.dictionary_encode(tbl["block_key"].combine_chunks()).indices.to_numpy()
    paired = np.bincount(bkid)[bkid] > 1
    tbl, bkid = tbl.filter(pa.array(paired)), bkid[paired].astype(np.int64)
    stats["paired_rows"] = len(bkid)
    uid, url_dict = _sorted_codes(tbl["url"])
    sid, str_dict = _sorted_codes(tbl["key_string"])
    lo, hi, dist = _score_bucket_core(bkid, sid, uid, codepoints(str_dict), max_distance,
                                      algorithm, stats, emit_all_pairs)
    return pa.table({"url_a": url_dict.take(pa.array(lo)), "url_b": url_dict.take(pa.array(hi)),
                     "distance": pa.array(dist, type=pa.int32())}, schema=_edges_schema())


def _pair_ranges(counts):
    """Per-row pair counts -> ``(starts, ends)``: row ``i`` owns the pair
    numbers ``[starts[i], ends[i])``, and ``ends[-1]`` pairs in all."""
    import numpy as np

    ends = np.cumsum(counts, dtype=np.int64)
    return ends - counts, ends


def _owners(starts, ends, p0: int = 0, p1: int | None = None):
    """For the pair numbers ``p0..p1`` (default: all) of
    :func:`_pair_ranges`' rows: each one's owner row and its rank among
    that row's pairs — the "partners after me" expansion, built without
    materializing more than ``p1 - p0`` pairs."""
    import numpy as np

    p1 = (int(ends[-1]) if len(ends) else 0) if p1 is None else p1
    if p1 <= p0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    rows = np.arange(np.searchsorted(ends, p0, "right"), np.searchsorted(ends, p1) + 1)
    i = np.repeat(rows, np.minimum(ends[rows], p1) - np.maximum(starts[rows], p0))
    return i, np.arange(p0, p1) - starts[i]


def _score_bucket_core(bkid, sid, uid, units, max_distance: int, algorithm: str,
                       stats: dict, emit_all_pairs: bool = False):
    """All-integer bucket scoring: (block, string, url) id triples plus the
    distinct strings' ``codepoints`` ``units`` -> deduped canonical edges
    ``(lo_url_idx, hi_url_idx, distance)``; funnel counts go to ``stats``.

    ``sid`` codes MUST be assigned in lexicographic string order
    (:func:`_sorted_codes` ranks them) — canonical pair order is an
    int comparison on sids, and distance-0 star representatives are the
    min uid per (block, string) group.  Scored string pairs are pairs of
    those groups; ``emit_all_pairs`` expands each to every url pair of
    the two groups instead of their representatives."""
    import numpy as np

    n, lens = max_distance, units[2]

    # --- one sort, by (block, length, string, url): adjacent equal rows
    # are duplicate triples, a (block, string) group is a run whose head
    # row holds the min url, and the groups come out length-sorted within
    # each block, the order the candidate pairs read.  ``block * span +
    # length`` keeps blocks apart, as no length reaches ``span`` ---------
    key = bkid * (int(lens.max(initial=0)) + n + 1) + lens[sid]
    order = np.lexsort((uid, sid, key))
    key, s, u = key[order], sid[order], uid[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = (key[1:] != key[:-1]) | (s[1:] != s[:-1]) | (u[1:] != u[:-1])
    key, s, u = key[first], s[first], u[first]
    head = np.ones(len(key), dtype=bool)
    head[1:] = (key[1:] != key[:-1]) | (s[1:] != s[:-1])
    g_start = np.flatnonzero(head)
    g_size = np.diff(np.append(g_start, len(key)))
    grp = np.cumsum(head) - 1
    rep_u = u[g_start]

    # --- distance-0 edges: every non-head row stars to its head, or, for
    # all pairs, pairs with every row after it in its group ---------------
    if emit_all_pairs:
        i, k = _owners(*_pair_ranges(g_start[grp] + g_size[grp] - np.arange(len(u)) - 1))
        out = [(u[i], u[i + 1 + k], np.zeros(len(i), dtype=np.int64))]
    else:
        star = ~head
        out = [(rep_u[grp[star]], u[star], np.zeros(int(star.sum()), dtype=np.int64))]

    # --- candidate pairs: one edit moves a length by at most 1, so with a
    # block's groups sorted by length, a string's only partners are the
    # groups after it up to its length + n (lossless for every algorithm);
    # one searchsorted on the group keys finds every group's range --------
    key, gs = key[g_start], s[g_start]
    starts, ends = _pair_ranges(
        np.searchsorted(key, key + n, side="right") - np.arange(len(key)) - 1)
    total = int(ends[-1]) if len(ends) else 0

    # --- the pairs in tiles of PAIR_TILE, so no block materializes its
    # whole triangle.  A tile keeps the canonical (smaller sid first) pairs
    # that pass the bucket's char signatures; the survivors are held until
    # there are PAIR_TILE of them, then deduped and scored in one DP batch,
    # and the batch's group pairs expand to url pairs.  The presence masks
    # are gathered once into row order, so a tile's mask test reads them
    # by row and only its survivors go through ``gs`` ---------------------
    hist, mask = _char_signatures(*units)
    row_mask = mask[gs]
    held, n_held = [], 0
    stats.update(candidate_pairs=total, signature_pairs=0, dp_pairs=0)
    for p0 in range(0, total, PAIR_TILE):
        p1 = min(p0 + PAIR_TILE, total)
        i, k = _owners(starts, ends, p0, p1)
        j = i + 1 + k
        sa, sb, i, j = _signature_pass(i, j, gs, row_mask, hist, n, algorithm)
        held.append((sa, sb, i, j))
        n_held += len(sa)
        if n_held >= PAIR_TILE or (p1 == total and n_held):
            stats["signature_pairs"] += n_held
            ga, gb, d = _score_batch(*map(np.concatenate, zip(*held)), units, n, algorithm,
                                     stats)
            if emit_all_pairs:  # the cross product of the two groups' urls
                e, k = _owners(*_pair_ranges(g_size[ga] * g_size[gb]))
                ka, kb = np.divmod(k, g_size[gb[e]])
                ua, ub, d = u[g_start[ga[e]] + ka], u[g_start[gb[e]] + kb], d[e]
            else:
                ua, ub = rep_u[ga], rep_u[gb]
            keep = ua != ub  # one url holding both strings of the pair
            out.append((np.minimum(ua, ub)[keep], np.maximum(ua, ub)[keep], d[keep]))
            held, n_held = [], 0

    # --- merge distance-0 and scored edges, keep min distance per url pair
    all_lo, all_hi, all_d = (np.concatenate(c) for c in zip(*out))
    order = np.lexsort((all_d, all_hi, all_lo))
    all_lo, all_hi, all_d = all_lo[order], all_hi[order], all_d[order]
    keep = np.ones(len(all_lo), dtype=bool)
    keep[1:] = (all_lo[1:] != all_lo[:-1]) | (all_hi[1:] != all_hi[:-1])
    return all_lo[keep], all_hi[keep], all_d[keep]


def _char_signatures(units, starts, lens):
    """Per string of a :func:`~..kernel.vectorized.codepoints` encoding: a
    uint8 64-bin char histogram (chars mod 64, counts clipped at 255) and
    its 64-bit presence mask, 72 B in all.  Built PAIR_TILE // 64 strings
    at a time, so a bincount (np.add.at is ~7x slower) has PAIR_TILE bins."""
    import numpy as np

    step = max(PAIR_TILE // 64, 1)
    hist = np.empty((len(lens), 64), dtype=np.uint8)
    for k0 in range(0, len(lens), step):
        part = lens[k0:k0 + step]  # the strings' units are one slice
        buf = units[starts[k0]:starts[k0] + part.sum()]
        rows = np.repeat(np.arange(len(part)) * 64, part)
        h = np.bincount(rows + (buf & np.uint32(63)), minlength=len(part) * 64)
        hist[k0:k0 + len(part)] = np.minimum(h, 255, out=h).reshape(-1, 64)
    mask = np.packbits(hist > 0, axis=1).view(np.uint64).ravel()
    return hist, mask


def _signature_pass(i, j, gs, row_mask, hist, n: int, algorithm: str):
    """The length-sorted group-row pairs ``(i, j)`` whose strings may be
    within ``n`` -> their canonical string pairs ``(sa, sb)`` and rows.
    One edit moves the char-histogram L1 by at most 2 (3 for a merge or
    split), so it flips at most that many presence bits; hashing chars mod
    64 and clipping counts at 255 only weaken both bounds.  The 8 B mask
    test runs first, on the rows' masks (``row_mask = mask[gs]``); only its
    survivors are mapped to strings and have their 64 B histogram rows read,
    once each, their L1 summed in uint16."""
    import numpy as np

    limit = n * (3 if algorithm == "merge_and_split" else 2)
    x = row_mask[i]
    x ^= row_mask[j]
    low = np.empty_like(x)
    for _ in range(limit):  # clear the lowest set bit
        np.subtract(x, np.uint64(1), out=low)
        x &= low
    keep = np.flatnonzero(x == 0)  # at most ``limit`` bits differ
    i, j = i[keep], j[keep]
    a, b = gs[i], gs[j]
    A, B = hist[a], hist[b]  # gathered copies: |A - B| is built in place
    diff = np.maximum(A, B)
    diff -= np.minimum(A, B, out=A)
    keep = np.flatnonzero(np.add.reduce(diff, axis=1, dtype=np.uint16) <= limit)  # <= 64 * 255
    a, b = a[keep], b[keep]
    return np.minimum(a, b), np.maximum(a, b), i[keep], j[keep]


def _score_batch(sa, sb, ga, gb, units, n: int, algorithm: str, stats: dict):
    """Canonical string pairs ``(sa, sb)`` of the groups ``(ga, gb)`` ->
    the ``(ga, gb, distance)`` group pairs within ``n``: one banded DP per
    distinct string pair, allocating in proportion to the batch only."""
    import numpy as np

    lens = units[2]
    pair, inv = np.unique(sa * len(lens) + sb, return_inverse=True)
    qa, qb = np.divmod(pair, len(lens))
    stats["dp_pairs"] += len(pair)
    need = np.unique(np.concatenate([qa, qb]))
    ENC = pad_rows(*units, need, reverse=algorithm == "merge_and_split")
    dist = _banded_pairs(ENC, lens[need], np.searchsorted(need, qa),
                         np.searchsorted(need, qb), n, algorithm)[inv]
    keep = dist <= n
    return ga[keep], gb[keep], dist[keep]
