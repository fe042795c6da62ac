"""Per-block pairwise scoring — the heart of the engine.

Two bucket scorers with one signature,
``(pa.Table of (block_key, url, key_string), max_distance, algorithm,
max_block_strings) -> pa.Table of (url_a, url_b, distance)``, each run once
per hash bucket of ``block_key`` (``er_pairs`` picks one):

* :func:`score_bucket_vectorized_arrow` (default) — integer codes and the
  numpy banded-DP kernel over the whole bucket, representative edges.
* :func:`score_bucket_all_pairs_arrow` (``emit_all_pairs``) — per block,
  ``BlockScorer``: dedup the block's strings, build a trie over the
  distinct strings (cheap — the reference builds 10k-term indexes in
  ~3 ms, docs/benchmarks/FINAL_BACKEND_COMPARISON.md:19-26) and run the
  intersected automaton-trie traversal per distinct string: the SQL-oracle
  semantics.

Both emit canonical edges ``(url_a, url_b, distance)`` with
``url_a < url_b``.  Scale design decisions (north rule):

* **Identical strings collapse.**  k urls sharing one string produce a
  distance-0 STAR (k-1 edges to the lexicographically-smallest url), not
  k(k-1)/2 pairs — transitively equivalent for clustering and linear, not
  quadratic, in block size.
* **Cross-string matches connect representatives.**  One edge per matching
  string pair (min-url of each side).  ``emit_all_pairs=True`` restores the
  full quadratic pair set for small-scale parity checks.
* **In-group salting.**  A group whose distinct-string count exceeds
  ``max_block_strings`` is subdivided by additional simhash bits
  (recall-preserving for near-identical strings, which agree on most bits);
  the subdivision happens in-memory on the worker that already owns the
  group, so no extra shuffle.  Sub-block membership is replicated across
  2 rotations to keep boundary pairs.
* Traversal state (automaton transition memos) is per-query; the trie is
  per-group.  Parallelism is across buckets (Ray tasks), never inside a
  traversal (reference pool.rs:43-47).
"""

import pandas as pd

from ..kernel import STANDARD, build_trie
from ..kernel.query import query as kernel_query
from ..functions.simhash import simhash64
from ..functions.tokenize import char_ngrams

EDGE_COLUMNS = ["url_a", "url_b", "distance"]


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
        max_block_strings: int = 512,
        emit_all_pairs: bool = False,
        subst=None,
    ):
        self.n = max_distance
        self.algorithm = algorithm
        self.cap = max_block_strings
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
        for s, us in by_string.items():
            if len(us) > 1:
                if self.emit_all_pairs:
                    ud = sorted(set(us))
                    for i in range(len(ud)):
                        for j in range(i + 1, len(ud)):
                            out_a.append(ud[i])
                            out_b.append(ud[j])
                            out_d.append(0)
                else:
                    ud = sorted(set(us))  # dup rows (repeated tokens) collapse
                    rep = ud[0]
                    for u in ud[1:]:
                        out_a.append(rep)
                        out_b.append(u)
                        out_d.append(0)

        distinct = sorted(by_string)
        if len(distinct) > 1:
            for sub in self._subdivide(distinct):
                self._score_distinct(sub, by_string, out_a, out_b, out_d)

        if not out_a:
            return _empty_edges()
        df = pd.DataFrame({"url_a": out_a, "url_b": out_b, "distance": out_d})
        df["distance"] = df["distance"].astype("int32")
        return df

    # -- salting: subdivide oversized groups by extra simhash bits -----
    def _subdivide(self, distinct: list) -> list[list]:
        if len(distinct) <= self.cap:
            return [distinct]
        # two rotated 8-bit views of the strings' simhash: a pair of
        # near-identical strings lands together in at least one view with
        # high probability even when one view's bits straddle a flip
        subs: dict[tuple, list] = {}
        for s in distinct:
            sh = simhash64(char_ngrams(s, 3))
            for view, shift in enumerate((24, 52)):
                key = (view, (sh >> shift) & 0xFF)
                subs.setdefault(key, []).append(s)
        return list(subs.values())

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
                if self.emit_all_pairs:
                    for ua in by_string[q]:
                        for ub in by_string[t]:
                            a, b = (ua, ub) if ua < ub else (ub, ua)
                            out_a.append(a)
                            out_b.append(b)
                            out_d.append(cand.distance)
                else:
                    ua, ub = by_string[q][0], by_string[t][0]
                    a, b = (ua, ub) if ua < ub else (ub, ua)
                    out_a.append(a)
                    out_b.append(b)
                    out_d.append(cand.distance)


def score_bucket_all_pairs_arrow(
    tbl,
    max_distance: int = 2,
    algorithm: str = STANDARD,
    max_block_strings: int = 512,
):
    """(block_key, url, key_string) rows -> every url pair within
    ``max_distance`` per block, through ``BlockScorer(emit_all_pairs=True)``:
    the quadratic SQL-oracle semantics (identical strings give a distance-0
    clique, not a star, and every url of a matching string pair is paired).
    Pairs are not deduplicated across blocks; callers min-dedup them."""
    import pyarrow as pa

    scorer = BlockScorer(
        max_distance=max_distance, algorithm=algorithm,
        emit_all_pairs=True, max_block_strings=max_block_strings,
    )
    outs = [scorer(g) for _key, g in tbl.to_pandas().groupby("block_key", sort=False)
            if len(g) > 1]
    outs = [o for o in outs if len(o)]
    if not outs:
        return _empty_edges_arrow()
    return pa.Table.from_pandas(
        pd.concat(outs, ignore_index=True), schema=_edges_schema(),
        preserve_index=False,
    ).replace_schema_metadata(None)


# ======================================================================
# Vectorized bucket scorer — the production path.
#
# The automaton path above is exact but pays Python per traversal step; at
# blocking-key granularity groups average a handful of rows, so per-group
# Python work dominates.  ``score_bucket_vectorized_arrow`` instead
# processes a WHOLE hash bucket of blocks with integer codes + ONE call into
# the numpy banded-DP kernel (kernel.vectorized — the reference's SIMD
# distance-matrix capability, src/distance/simd.rs), with BlockScorer's
# representative-edge semantics: distance-0 stars for identical strings,
# representative edges across distinct strings, simhash-view salting for
# oversized blocks.  Parity is pinned by tests/test_stages.py.
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
    max_block_strings: int = 512,
    subst=None,
):
    """(block_key, url, key_string) rows -> canonical edges for the bucket:
    distance-0 stars for identical strings, one representative (min-url)
    edge per distinct string pair within ``max_distance``.

    The exchange hands us a ``pa.Table`` and we never materialize row-level
    Python strings — dictionary-encode in C, run the integer core, then
    ``take`` the output urls straight from the Arrow dictionary (only
    distinct strings cross into Python, for the DP kernel).  Quadratic
    SQL-oracle output goes through :func:`score_bucket_all_pairs_arrow`."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if tbl.num_rows == 0:
        return _empty_edges_arrow()
    uid, url_dict = _sorted_codes(tbl["url"])
    sid, str_dict = _sorted_codes(tbl["key_string"])
    bk = pc.dictionary_encode(tbl["block_key"].combine_chunks())
    bkid = bk.indices.to_numpy().astype(np.int64)
    uniq_strs = str_dict.to_pylist()

    lo, hi, dist = _score_bucket_core(
        bkid, sid, uid, uniq_strs, max_distance=max_distance,
        algorithm=algorithm, max_block_strings=max_block_strings, subst=subst,
    )
    if not len(lo):
        return _empty_edges_arrow()
    return pa.table(
        {
            "url_a": url_dict.take(pa.array(lo, type=pa.int64())),
            "url_b": url_dict.take(pa.array(hi, type=pa.int64())),
            "distance": pa.array(dist.astype(np.int32), type=pa.int32()),
        },
        schema=_edges_schema(),
    )


def _score_bucket_core(
    bkid, sid, uid, uniq_strs, max_distance: int, algorithm: str,
    max_block_strings: int, subst=None,
):
    """All-integer bucket scoring: (block, string, url) id triples ->
    deduped canonical edges ``(lo_url_idx, hi_url_idx, distance)``.

    ``sid`` codes MUST be assigned in lexicographic string order
    (:func:`_sorted_codes` ranks them) — canonical pair order is an
    int comparison on sids, and distance-0 star representatives are the
    min uid per (block, string) group."""
    import numpy as np

    from ..kernel.vectorized import _banded_pairs, batch_distances, encode_concat

    n = max_distance

    # --- dedup (block, string, url) triples via lexsort ------------------
    order = np.lexsort((uid, sid, bkid))
    b, s, u = bkid[order], sid[order], uid[order]
    first = np.empty(len(b), dtype=bool)
    first[:1] = True
    first[1:] = (b[1:] != b[:-1]) | (s[1:] != s[:-1]) | (u[1:] != u[:-1])
    b, s, u = b[first], s[first], u[first]

    # --- distance-0 stars: k urls sharing (block, string) -> k-1 edges ---
    # rows are sorted by (block, string, url), so the group head is the
    # min url; every non-head row stars to it
    head = np.empty(len(b), dtype=bool)
    head[:1] = True
    head[1:] = (b[1:] != b[:-1]) | (s[1:] != s[:-1])
    grp = np.cumsum(head) - 1
    rep_u = u[head]
    star = ~head
    star_lo = rep_u[grp[star]]
    star_hi = u[star]

    # --- distinct strings per block with their representative (min) url --
    gb, gs, gu = b[head], s[head], rep_u

    # --- salting: blocks over the cap subdivide by two rotated 8-bit
    # simhash views (group identity (block, view, byte) — same partition
    # as BlockScorer._subdivide's string key) ------------------------------
    blk_head = np.empty(len(gb), dtype=bool)
    blk_head[:1] = True
    blk_head[1:] = gb[1:] != gb[:-1]
    blk_id = np.cumsum(blk_head) - 1
    blk_sizes = np.bincount(blk_id)
    big = blk_sizes[blk_id] > max_block_strings
    # group code: block * 1024 + tag; tag 0 = unsalted, 1 + view*256 + byte
    gcode = gb * 1024
    if big.any():
        big_sids = np.unique(gs[big])
        sh = np.array(
            [simhash64(char_ngrams(uniq_strs[i], 3)) for i in big_sids],
            dtype=np.uint64,
        )
        byte0 = ((sh >> np.uint64(24)) & np.uint64(0xFF)).astype(np.int64)
        byte1 = ((sh >> np.uint64(52)) & np.uint64(0xFF)).astype(np.int64)
        pos = np.searchsorted(big_sids, gs[big])
        small_code = gcode[~big]
        code0 = gb[big] * 1024 + 1 + byte0[pos]
        code1 = gb[big] * 1024 + 1 + 256 + byte1[pos]
        gcode = np.concatenate([small_code, code0, code1])
        gs = np.concatenate([gs[~big], gs[big], gs[big]])
        gu = np.concatenate([gu[~big], gu[big], gu[big]])

    # --- in-block upper-triangle candidate pairs (pure numpy) ------------
    order = np.argsort(gcode, kind="stable")
    gcode, gs, gu = gcode[order], gs[order], gu[order]
    starts = np.flatnonzero(np.r_[True, gcode[1:] != gcode[:-1]])
    sizes = np.diff(np.r_[starts, len(gcode)])
    loc = np.arange(len(gcode)) - np.repeat(starts, sizes)
    total = int(loc.sum())
    if total:
        second = np.repeat(np.arange(len(gcode)), loc)
        csum = np.cumsum(loc) - loc
        start_per_elem = np.repeat(starts, sizes)
        first_idx = (
            np.arange(total)
            - np.repeat(csum, loc)
            + np.repeat(start_per_elem, loc)
        )
        sa, sb_ = gs[first_idx], gs[second]
        ua, ub = gu[first_idx], gu[second]
        # canonical order: smaller string (lexicographic == sid order) is
        # the automaton-side query (BlockScorer order)
        swap = sa > sb_
        sa2 = np.where(swap, sb_, sa)
        sb2 = np.where(swap, sa, sb_)
        ua2 = np.where(swap, ub, ua)
        ub2 = np.where(swap, ua, ub)
        sa, sb_, ua, ub = sa2, sb2, ua2, ub2

        lens = np.fromiter((len(x) for x in uniq_strs), np.int64, count=len(uniq_strs))
        keep = np.abs(lens[sa] - lens[sb_]) <= n
        sa, sb_, ua, ub = sa[keep], sb_[keep], ua[keep], ub[keep]
    else:
        sa = sb_ = ua = ub = np.zeros(0, dtype=np.int64)

    # --- DP once per distinct string pair ---------------------------------
    # pair dedup via lexsort on the two id columns — NOT an encoded
    # sa*K+sb key: decoding that needs int64 //-% which is ~250x slower
    # than uint32 ops on this host's CPU (no vectorized int64 division)
    if len(sa):
        porder = np.lexsort((sb_, sa))
        sa_s, sb_s = sa[porder], sb_[porder]
        phead = np.empty(len(sa_s), dtype=bool)
        phead[:1] = True
        phead[1:] = (sa_s[1:] != sa_s[:-1]) | (sb_s[1:] != sb_s[:-1])
        pgrp = np.cumsum(phead) - 1
        inv = np.empty(len(sa_s), dtype=np.int64)
        inv[porder] = pgrp
        pa_sid = sa_s[phead]
        pb_sid = sb_s[phead]
        d = np.full(len(pa_sid), n + 1, dtype=np.int64)
        todo = np.ones(len(pa_sid), dtype=bool)
        # encode the bucket's distinct strings ONCE (vectorized, no
        # per-string loop); the flat codepoint stream doubles as the
        # histogram input and the padded matrix feeds the band DP
        ENC, elens, buf = encode_concat(
            uniq_strs, reverse=(algorithm == "merge_and_split"), lens=lens
        )
        if subst is None:
            # hashed char-histogram lower bound ON UNIQUE PAIRS ONLY (the
            # per-candidate form allocated n_pairs x 64 temporaries — 68 s
            # on the sf0.5 hot bucket): one edit moves the L1 norm by <=2
            # (<=3 for merge/split); hashing chars mod 64 only weakens the
            # bound, never breaks it.  bincount (not ufunc.at — 2.6 s of
            # the 15.5 s serial profile) builds the (P, 64) histogram.
            l1_per_edit = 3 if algorithm == "merge_and_split" else 2
            rows = np.repeat(np.arange(len(uniq_strs), dtype=np.int64), elens)
            key = rows * 64 + (buf & np.uint32(63)).astype(np.int64)
            H = np.bincount(key, minlength=len(uniq_strs) * 64).reshape(
                len(uniq_strs), 64
            ).astype(np.int32)
            l1 = np.abs(H[pa_sid] - H[pb_sid]).sum(axis=1)
            # ceil(l1 / k) <= n  <=>  l1 <= n*k  (no int64 division)
            todo = l1 <= n * l1_per_edit
        if todo.any():
            if subst is not None and algorithm != STANDARD:
                # restricted substitutions outside the standard tables route
                # through batch_distances' exact automaton fallback
                d[todo] = np.asarray(
                    batch_distances(
                        [uniq_strs[i] for i in pa_sid[todo]],
                        [uniq_strs[i] for i in pb_sid[todo]],
                        n,
                        algorithm,
                        subst,
                    )
                )
            else:
                d[todo] = _banded_pairs(
                    ENC, elens, pa_sid[todo], pb_sid[todo], n, algorithm, subst
                )
        dist = d[inv]
        keep = (dist <= n) & (ua != ub)
        lo = np.minimum(ua[keep], ub[keep])
        hi = np.maximum(ua[keep], ub[keep])
        dist = dist[keep].astype(np.int64)
    else:
        lo = hi = dist = np.zeros(0, dtype=np.int64)

    # --- merge stars + scored edges, keep min distance per url pair ------
    all_lo = np.concatenate([star_lo, lo])
    all_hi = np.concatenate([star_hi, hi])
    all_d = np.concatenate([np.zeros(len(star_lo), dtype=np.int64), dist])
    if not len(all_lo):
        z = np.zeros(0, dtype=np.int64)
        return z, z, z
    order = np.lexsort((all_d, all_hi, all_lo))
    all_lo, all_hi, all_d = all_lo[order], all_hi[order], all_d[order]
    keep = np.empty(len(all_lo), dtype=bool)
    keep[:1] = True
    keep[1:] = (all_lo[1:] != all_lo[:-1]) | (all_hi[1:] != all_hi[:-1])
    return all_lo[keep], all_hi[keep], all_d[keep]
