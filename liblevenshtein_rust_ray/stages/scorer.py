"""Per-block pairwise scoring — the heart of the engine.

Two bucket scorers with one signature,
``(pa.Table of (block_key, url, key_string), max_distance, algorithm)
-> pa.Table of (url_a, url_b, distance)``, each run once per hash bucket
of ``block_key`` (``er_pairs`` picks one):

* :func:`score_bucket_vectorized_arrow` (default) — integer codes and the
  numpy banded-DP kernel over the whole bucket, representative edges.
* :func:`score_bucket_all_pairs_arrow` (``emit_all_pairs``) — per block,
  ``BlockScorer``: dedup the block's strings, build a trie over the
  distinct strings (cheap — the reference builds 10k-term indexes in
  ~3 ms, docs/benchmarks/FINAL_BACKEND_COMPARISON.md:19-26) and run the
  intersected automaton-trie traversal per distinct string: the SQL-oracle
  semantics.

Both emit canonical edges ``(url_a, url_b, distance)`` with
``url_a < url_b``, and both are exact: every same-block string pair
within ``max_distance`` is found.  Scale design decisions (north rule):

* **Identical strings collapse.**  k urls sharing one string produce a
  distance-0 STAR (k-1 edges to the lexicographically-smallest url), not
  k(k-1)/2 pairs — transitively equivalent for clustering and linear, not
  quadratic, in block size.
* **Cross-string matches connect representatives.**  One edge per matching
  string pair (min-url of each side).  ``emit_all_pairs=True`` restores the
  full quadratic pair set for small-scale parity checks.
* **Length-banded candidate tiles, filtered before they are deduped.**
  One edit changes a length by at most 1, so the vectorized scorer pairs
  each string only with the strings of its block within ``max_distance``
  in length, in tiles of at most ``PAIR_TILE``.  A tile keeps the pairs
  that pass two char signatures built once per bucket (a 64-bin histogram
  and its presence mask); the survivors are deduped and scored in DP
  batches of about ``PAIR_TILE``.  Every step is lossless, and a hot block
  costs time in proportion to its banded pairs, never memory in
  proportion to its triangle.
* Traversal state (automaton transition memos) is per-query; the trie is
  per-group.  Parallelism is across buckets (Ray tasks), never inside a
  traversal (reference pool.rs:43-47).
"""

import pandas as pd

from ..kernel import STANDARD, build_trie
from ..kernel.query import query as kernel_query

EDGE_COLUMNS = ["url_a", "url_b", "distance"]
# Candidate string pairs the vectorized scorer generates and filters at
# once, and the survivors it holds before a DP batch (docs/SCALE.md §16).
PAIR_TILE = 65_536


def _empty_edges() -> pd.DataFrame:
    return pd.DataFrame({"url_a": pd.Series(dtype="object"),
                         "url_b": pd.Series(dtype="object"),
                         "distance": pd.Series(dtype="int32")})


class BlockScorer:
    """Scores one block: a pandas frame of (block_key, url, key_string)
    rows sharing a ``block_key``."""

    def __init__(
        self,
        max_distance: int = 2,
        algorithm: str = STANDARD,
        emit_all_pairs: bool = False,
        subst=None,
    ):
        self.n = max_distance
        self.algorithm = algorithm
        self.emit_all_pairs = emit_all_pairs
        self.subst = subst

    # -- public: one co-located block ----------------------------------
    def __call__(self, group: pd.DataFrame) -> pd.DataFrame:
        strings = group["key_string"].to_numpy()
        urls = group["url"].to_numpy()

        by_string: dict[str, list] = {}
        for s, u in zip(strings, urls):
            by_string.setdefault(s, []).append(u)
        for v in by_string.values():
            v.sort()

        out_a, out_b, out_d = [], [], []

        # distance-0 edges for identical strings: star to the min url by
        # default (linear); full quadratic pair set in emit_all_pairs mode
        # (small-scale parity / SQL-oracle mode)
        for us in by_string.values():
            ud = sorted(set(us))  # dup rows (repeated tokens) collapse
            for i in range(len(ud) if self.emit_all_pairs else 1):
                for j in range(i + 1, len(ud)):
                    out_a.append(ud[i])
                    out_b.append(ud[j])
                    out_d.append(0)

        self._score_distinct(sorted(by_string), by_string, out_a, out_b, out_d)

        if not out_a:
            return _empty_edges()
        df = pd.DataFrame({"url_a": out_a, "url_b": out_b, "distance": out_d})
        df["distance"] = df["distance"].astype("int32")
        return df

    # -- automaton-trie scoring over distinct strings ------------------
    def _score_distinct(self, distinct, by_string, out_a, out_b, out_d):
        if len(distinct) < 2:
            return
        trie = build_trie(distinct)
        for q in distinct:
            for cand in kernel_query(trie, q, self.n, self.algorithm, subst=self.subst):
                t = cand.term
                if t <= q:
                    continue  # canonical ordering: each string pair once
                k = None if self.emit_all_pairs else 1  # else min urls only
                for ua in by_string[q][:k]:
                    for ub in by_string[t][:k]:
                        a, b = (ua, ub) if ua < ub else (ub, ua)
                        out_a.append(a)
                        out_b.append(b)
                        out_d.append(cand.distance)


def score_bucket_all_pairs_arrow(
    tbl,
    max_distance: int = 2,
    algorithm: str = STANDARD,
):
    """(block_key, url, key_string) rows -> every url pair within
    ``max_distance`` per block, through ``BlockScorer(emit_all_pairs=True)``:
    the quadratic SQL-oracle semantics (identical strings give a distance-0
    clique, not a star, and every url of a matching string pair is paired).
    Pairs are not deduplicated across blocks; callers min-dedup them."""
    import pyarrow as pa

    scorer = BlockScorer(max_distance=max_distance, algorithm=algorithm,
                         emit_all_pairs=True)
    # Arrow codes, not pandas: its str hash stops at a NUL and would merge blocks
    bkid = tbl["block_key"].combine_chunks().dictionary_encode().indices.to_numpy()
    outs = [scorer(g) for _key, g in tbl.to_pandas().groupby(bkid, sort=False)
            if len(g) > 1]
    outs = [o for o in outs if len(o)]
    if not outs:
        return _empty_edges_arrow()
    return pa.Table.from_pandas(pd.concat(outs, ignore_index=True), schema=_edges_schema(),
                                preserve_index=False).replace_schema_metadata(None)


# ======================================================================
# Vectorized bucket scorer — the production path.  The automaton path above
# pays Python per traversal step, and blocks average a handful of rows;
# ``score_bucket_vectorized_arrow`` scores a WHOLE hash bucket with integer
# codes and batched calls into the numpy banded-DP kernel
# (kernel.vectorized — the reference's SIMD distance matrix,
# src/distance/simd.rs), with BlockScorer's representative-edge semantics.
# Parity with BlockScorer and a DP scan is pinned by tests/test_stages.py.
# ======================================================================
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
    row-level values never become Python objects; only the DISTINCT values
    exist as an Arrow dictionary (and later as a Python list only where the
    kernel needs real strings)."""
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
):
    """(block_key, url, key_string) rows -> canonical edges for the bucket:
    distance-0 stars for identical strings, one representative (min-url)
    edge per distinct string pair within ``max_distance``.

    The exchange hands us a ``pa.Table`` and we never materialize row-level
    Python strings — dictionary-encode in C, run the integer core, then
    ``take`` the output urls straight from the Arrow dictionary (only
    distinct strings cross into Python, for the DP kernel).  Quadratic
    SQL-oracle output goes through :func:`score_bucket_all_pairs_arrow`.

    ``stats``, if given, receives the candidate funnel:
    ``candidate_pairs`` (length-banded string pairs), ``signature_pairs``
    (those passing both char-signature tests) and ``dp_pairs`` (distinct
    pairs the DP scored)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    uid, url_dict = _sorted_codes(tbl["url"])
    sid, str_dict = _sorted_codes(tbl["key_string"])
    bkid = pc.dictionary_encode(tbl["block_key"].combine_chunks()).indices.to_numpy()
    lens = pc.utf8_length(str_dict).to_numpy().astype(np.int64)
    lo, hi, dist = _score_bucket_core(bkid.astype(np.int64), sid, uid, str_dict.to_pylist(), lens,
                                      max_distance, algorithm, {} if stats is None else stats)
    return pa.table({"url_a": url_dict.take(pa.array(lo)), "url_b": url_dict.take(pa.array(hi)),
                     "distance": pa.array(dist, type=pa.int32())}, schema=_edges_schema())


def _score_bucket_core(bkid, sid, uid, uniq_strs, lens, max_distance: int, algorithm: str,
                       stats: dict):
    """All-integer bucket scoring: (block, string, url) id triples plus the
    distinct strings and their lengths -> deduped canonical edges
    ``(lo_url_idx, hi_url_idx, distance)``; funnel counts go to ``stats``.

    ``sid`` codes MUST be assigned in lexicographic string order
    (:func:`_sorted_codes` ranks them) — canonical pair order is an
    int comparison on sids, and distance-0 star representatives are the
    min uid per (block, string) group."""
    import numpy as np

    n = max_distance

    # --- dedup (block, string, url) triples via lexsort ------------------
    order = np.lexsort((uid, sid, bkid))
    b, s, u = bkid[order], sid[order], uid[order]
    first = np.ones(len(b), dtype=bool)
    first[1:] = (b[1:] != b[:-1]) | (s[1:] != s[:-1]) | (u[1:] != u[:-1])
    b, s, u = b[first], s[first], u[first]

    # --- distance-0 stars: k urls sharing (block, string) -> k-1 edges ---
    # rows are sorted by (block, string, url), so the group head is the
    # min url; every non-head row stars to it
    head = np.ones(len(b), dtype=bool)
    head[1:] = (b[1:] != b[:-1]) | (s[1:] != s[:-1])
    grp = np.cumsum(head) - 1
    rep_u = u[head]
    star = ~head
    out = [(rep_u[grp[star]], u[star], np.zeros(int(star.sum()), dtype=np.int64))]

    # --- candidate pairs: one edit moves a length by at most 1, so with a
    # block's distinct strings sorted by length, a string's only partners
    # are the rows after it up to its length + n (lossless for every
    # algorithm).  ``block * span + length`` keeps blocks apart, so one
    # searchsorted finds every row's partner range ------------------------
    gs = s[head]
    key = b[head] * (int(lens.max(initial=0)) + n + 1) + lens[gs]
    order = np.argsort(key, kind="stable")
    key, gs, gu = key[order], gs[order], rep_u[order]
    n_partners = np.searchsorted(key, key + n, side="right") - np.arange(len(key)) - 1
    ends = np.cumsum(n_partners)
    starts, total = ends - n_partners, int(ends[-1]) if len(ends) else 0

    # --- the pairs in tiles of PAIR_TILE: pair p belongs to the row i whose
    # partner range [starts[i], ends[i]) holds it, so no block materializes
    # its whole triangle.  A tile keeps the canonical (smaller sid first:
    # BlockScorer's query side) pairs that pass the bucket's char
    # signatures; the survivors are held until there are PAIR_TILE of them,
    # then deduped and scored in one DP batch -----------------------------
    hist, mask = _char_signatures(uniq_strs, lens)
    held, n_held = [], 0
    stats.update(candidate_pairs=total, signature_pairs=0, dp_pairs=0)
    for p0 in range(0, total, PAIR_TILE):
        p1 = min(p0 + PAIR_TILE, total)
        rows = np.arange(np.searchsorted(ends, p0, "right"), np.searchsorted(ends, p1) + 1)
        i = np.repeat(rows, np.minimum(ends[rows], p1) - np.maximum(starts[rows], p0))
        j = i + 1 + np.arange(p0, p1) - starts[i]
        sa, sb = np.minimum(gs[i], gs[j]), np.maximum(gs[i], gs[j])
        keep = _signature_pass(sa, sb, hist, mask, n, algorithm)
        held.append((sa[keep], sb[keep], gu[i[keep]], gu[j[keep]]))
        n_held += len(keep)
        if n_held >= PAIR_TILE or (p1 == total and n_held):
            stats["signature_pairs"] += n_held
            out.append(_score_batch(*map(np.concatenate, zip(*held)), uniq_strs, lens,
                                    n, algorithm, stats))
            held, n_held = [], 0

    # --- merge stars + scored edges, keep min distance per url pair ------
    all_lo, all_hi, all_d = (np.concatenate(c) for c in zip(*out))
    order = np.lexsort((all_d, all_hi, all_lo))
    all_lo, all_hi, all_d = all_lo[order], all_hi[order], all_d[order]
    keep = np.ones(len(all_lo), dtype=bool)
    keep[1:] = (all_lo[1:] != all_lo[:-1]) | (all_hi[1:] != all_hi[:-1])
    return all_lo[keep], all_hi[keep], all_d[keep]


def _char_signatures(uniq_strs, lens):
    """Per string: a uint8 64-bin char histogram (chars mod 64, counts
    clipped at 255) and its 64-bit presence mask, 72 B in all.  Built
    PAIR_TILE // 64 strings at a time, so a bincount (np.add.at is ~7x
    slower) has PAIR_TILE bins."""
    import numpy as np

    step = max(PAIR_TILE // 64, 1)
    hist = np.empty((len(uniq_strs), 64), dtype=np.uint8)
    for k0 in range(0, len(uniq_strs), step):
        part = uniq_strs[k0:k0 + step]
        buf = np.frombuffer("".join(part).encode("utf-32-le"), dtype=np.uint32)
        rows = np.repeat(np.arange(len(part)) * 64, lens[k0:k0 + len(part)])
        h = np.bincount(rows + (buf & np.uint32(63)), minlength=len(part) * 64)
        hist[k0:k0 + len(part)] = np.minimum(h, 255, out=h).reshape(-1, 64)
    mask = np.packbits(hist > 0, axis=1).view(np.uint64).ravel()
    return hist, mask


def _signature_pass(sa, sb, hist, mask, n: int, algorithm: str):
    """Indices of the string pairs ``(sa, sb)`` that may be within ``n``.
    One edit moves the char-histogram L1 by at most 2 (3 for a merge or
    split), so it flips at most that many presence bits; hashing chars mod
    64 and clipping counts at 255 only weaken both bounds.  The 8 B mask
    test runs first; its survivors' 64 B histogram rows are read after."""
    import numpy as np

    limit = n * (3 if algorithm == "merge_and_split" else 2)
    x = mask[sa] ^ mask[sb]
    for _ in range(limit):
        x &= x - np.uint64(1)  # clear the lowest set bit
    keep = np.flatnonzero(x == 0)  # at most ``limit`` bits differ
    A, B = hist[sa[keep]], hist[sb[keep]]
    return keep[(np.maximum(A, B) - np.minimum(A, B)).sum(axis=1) <= limit]


def _score_batch(sa, sb, ua, ub, uniq_strs, lens, n: int, algorithm: str, stats: dict):
    """Canonical string pairs ``(sa, sb)`` with their representative urls ->
    the ``(lo_url, hi_url, distance)`` edges within ``n``: one banded DP per
    distinct string pair, allocating in proportion to the batch only."""
    import numpy as np

    from ..kernel.vectorized import _banded_pairs, encode_concat

    pair, inv = np.unique(sa * len(uniq_strs) + sb, return_inverse=True)
    qa, qb = np.divmod(pair, len(uniq_strs))
    stats["dp_pairs"] += len(pair)
    need = np.unique(np.concatenate([qa, qb]))
    ENC, elens, _ = encode_concat([uniq_strs[k] for k in need],
                                  reverse=(algorithm == "merge_and_split"),
                                  lens=lens[need])
    dist = _banded_pairs(ENC, elens, np.searchsorted(need, qa),
                         np.searchsorted(need, qb), n, algorithm)[inv]
    keep = (dist <= n) & (ua != ub)
    return (np.minimum(ua[keep], ub[keep]), np.maximum(ua[keep], ub[keep]),
            dist[keep])
