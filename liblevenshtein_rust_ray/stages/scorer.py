"""Per-block pairwise scoring — the heart of the engine.

``BlockScorer`` is the stateful stage run as
``groupby("block_key").map_groups(BlockScorer(...), batch_format="pandas")``:
per group it dedups the block's strings, builds a trie over the distinct
strings (cheap — the reference builds 10k-term indexes in ~3 ms,
docs/benchmarks/FINAL_BACKEND_COMPARISON.md:19-26) and runs the intersected
automaton-trie traversal per distinct string, emitting canonical edges
``(url_a, url_b, distance)`` with ``url_a < url_b``.

Scale design decisions (north rule):

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
  per-group.  Parallelism is across groups (Ray actor pool), never inside
  a traversal (reference pool.rs:43-47).
"""

import pandas as pd

from ..kernel import STANDARD, LevenshteinAutomaton, build_trie
from ..kernel.query import query as kernel_query
from ..functions.simhash import simhash64
from ..functions.tokenize import char_ngrams

EDGE_COLUMNS = ["url_a", "url_b", "distance"]


def _empty_edges() -> pd.DataFrame:
    return pd.DataFrame({"url_a": pd.Series(dtype="object"),
                         "url_b": pd.Series(dtype="object"),
                         "distance": pd.Series(dtype="int32")})


class BlockScorer:
    """Callable class for ``map_groups`` (actor pool when ``concurrency`` is
    set on the enclosing ``map_batches``)."""

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


def score_block_pandas(group: pd.DataFrame, **kwargs) -> pd.DataFrame:
    """Function wrapper for quick use in ``map_groups`` without an actor."""
    return BlockScorer(**kwargs)(group)


# ======================================================================
# Vectorized bucket scorer — the production path.
#
# The automaton path above is exact but pays Python per traversal step; at
# blocking-key granularity groups average a handful of rows, so per-group
# Python work dominates.  ``score_bucket_vectorized`` instead processes a
# WHOLE hash bucket of blocks with pandas C groupbys + ONE call into the
# numpy banded-DP kernel (kernel.vectorized — the reference's SIMD
# distance-matrix capability, src/distance/simd.rs), with semantics
# identical to BlockScorer: distance-0 stars for identical strings,
# representative edges across distinct strings, simhash-view salting for
# oversized blocks.  Parity is pinned by tests/test_stages.py.
# ======================================================================
def _salt_oversized(dd: pd.DataFrame, max_block_strings: int) -> pd.DataFrame:
    """In-group salting: blocks whose distinct-string count exceeds the cap
    are subdivided by two rotated 8-bit simhash views — near-identical
    strings agree on most bits, so a true pair shares at least one view
    bucket w.h.p. (same rule as BlockScorer._subdivide)."""
    sizes = dd.groupby("block_key", sort=False)["key_string"].transform("size")
    small = dd[sizes <= max_block_strings]
    big = dd[sizes > max_block_strings]
    if not len(big):
        return small
    salted = []
    for view, shift in enumerate((24, 52)):
        b = big.copy()
        b["block_key"] = [
            f"{k}#s{view}|{(simhash64(char_ngrams(s, 3)) >> shift) & 0xFF:02x}"
            for k, s in zip(b["block_key"], b["key_string"])
        ]
        salted.append(b)
    return pd.concat([small, *salted], ignore_index=True)


def score_bucket_vectorized(
    bucket: pd.DataFrame,
    max_distance: int = 2,
    algorithm: str = STANDARD,
    max_block_strings: int = 512,
    subst=None,
) -> pd.DataFrame:
    """(block_key, url, key_string) rows -> canonical edges for the bucket.

    NOTE: this path always star-collapses identical strings and scores one
    representative url per distinct string — there is deliberately NO
    ``emit_all_pairs`` mode here; quadratic SQL-oracle output goes through
    ``BlockScorer(emit_all_pairs=True)``.

    All-integer hot path: urls / strings / block keys are factorized ONCE
    and every later step (triple dedup, star edges, salting, in-block
    upper-triangle pair generation, pair dedup) runs on int codes — a
    pandas object-string self-join here was 6 of the 9.6 s hot-bucket
    profile at sf0.5.  ``np.unique`` sorts, so sid order == lexicographic
    string order and canonical pair order is an int comparison."""
    import numpy as np

    n = max_distance
    if not len(bucket):
        return _empty_edges()

    # hash-based factorize with sorted uniques (np.unique semantics but
    # O(n) hashing + a uniques-only sort instead of an n-row object sort);
    # block-key codes don't need an order at all
    uid, uniq_urls = pd.factorize(bucket["url"].to_numpy(), sort=True)
    sid, uniq_strs = pd.factorize(bucket["key_string"].to_numpy(), sort=True)
    bkid, _ = pd.factorize(bucket["block_key"].to_numpy(), sort=False)
    uniq_urls = np.asarray(uniq_urls, dtype=object)
    uniq_strs = list(uniq_strs)

    lo, hi, dist = _score_bucket_core(
        bkid.astype(np.int64), sid.astype(np.int64), uid.astype(np.int64),
        uniq_strs, max_distance=n, algorithm=algorithm,
        max_block_strings=max_block_strings, subst=subst,
    )
    if not len(lo):
        return _empty_edges()
    return pd.DataFrame(
        {
            "url_a": uniq_urls[lo],
            "url_b": uniq_urls[hi],
            "distance": dist.astype("int32"),
        }
    )


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
    """Arrow-native twin of :func:`score_bucket_vectorized`: the exchange
    hands us a ``pa.Table`` and we never materialize row-level Python
    strings — dictionary-encode in C, run the same integer core, then
    ``take`` the output urls straight from the Arrow dictionary.  Measured
    against the pandas wrapper the per-bucket frontend drops the
    object-conversion cost of every row (only distinct strings cross into
    Python, for the DP kernel)."""
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

    ``sid`` codes MUST be assigned in lexicographic string order (both
    wrappers factorize with sorted uniques) — canonical pair order is an
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


# ======================================================================
# Exchange-deduped scoring (the er_pairs default since round 2).
#
# ``score_bucket_vectorized`` dedups string pairs WITHIN one hash bucket,
# but the same title pair co-occurs under several blocking keys (one per
# shared token) that hash to DIFFERENT buckets, so the banded-DP kernel
# re-scored each distinct pair ~3x.  The split below scores every distinct
# string pair exactly ONCE globally, with the same total exchange count:
#
#   phase A (per block-bucket)  ``candidate_pairs_bucket``:
#       distance-0 star rows + UNSCORED candidate rows, keyed by the
#       canonical string pair (s_a <= s_b);
#   exchange on (s_a, s_b)      co-locates every occurrence of a pair;
#   phase B (per pair-bucket)   ``score_candidates_bucket``:
#       one DP call per distinct pair, then url-pair dedup.
#
# The url-pair dedup inside phase B is GLOBAL, not partial, because each
# url carries exactly one key_string (its extracted title), so an
# unordered url pair determines its unordered string pair — all of its
# occurrences land in the same pair bucket.  That invariant lets the pair
# exchange REPLACE the old edge-dedup exchange instead of adding a third.
# ======================================================================
CANDIDATE_COLUMNS = ["s_a", "s_b", "url_a", "url_b", "distance"]


def _empty_candidates() -> pd.DataFrame:
    return pd.DataFrame({"s_a": pd.Series(dtype="object"),
                         "s_b": pd.Series(dtype="object"),
                         "url_a": pd.Series(dtype="object"),
                         "url_b": pd.Series(dtype="object"),
                         "distance": pd.Series(dtype="int32")})


def candidate_pairs_bucket(
    bucket: pd.DataFrame,
    max_distance: int = 2,
    max_block_strings: int = 512,
    algorithm: str = STANDARD,
    subst=None,
) -> pd.DataFrame:
    """Phase A: (block_key, url, key_string) rows -> star edges
    (``distance=0``) plus unscored candidate rows (``distance=-1``), each
    keyed by its canonical string pair."""
    import numpy as np

    n = max_distance
    du = bucket.drop_duplicates(["block_key", "key_string", "url"]).copy()
    uniq_urls, uid = np.unique(du["url"].to_numpy(), return_inverse=True)
    du["url"] = uid.astype(np.int64)

    # distance-0 stars: k urls sharing (block, string) -> k-1 edges
    rep = du.groupby(["block_key", "key_string"], sort=False)["url"].transform("min")
    star = du["url"].to_numpy() != rep.to_numpy()
    s_star = du["key_string"].to_numpy()[star]
    stars = pd.DataFrame(
        {
            "s_a": s_star,
            "s_b": s_star,
            "url_a": uniq_urls[rep.to_numpy()[star]],
            "url_b": uniq_urls[du["url"].to_numpy()[star]],
            "distance": np.zeros(int(star.sum()), dtype="int32"),
        }
    ).drop_duplicates(["url_a", "url_b"])

    dd = du.groupby(["block_key", "key_string"], as_index=False, sort=False)["url"].min()
    dd = _salt_oversized(dd, max_block_strings)

    # hashed char-histogram per distinct string: one edit changes the
    # histogram L1 norm by at most 2 (substitution) for standard /
    # transposition, at most 3 (merge/split), and the length by at most 1
    # — so distance >= max(ceil(L1/k), |len_a - len_b|).  Filtering
    # candidates on this bound BEFORE the pair exchange prunes the
    # genuinely-far shared-token pairs (~17% on the synthetic corpus,
    # much more on web-scale vocab where shared-token titles are rarely
    # near) from both the exchange and the DP.  Char hashing (mod 64)
    # only weakens the bound, never breaks it.
    l1_per_edit = 3 if algorithm == "merge_and_split" else 2
    uniq, sid = np.unique(dd["key_string"].to_numpy(), return_inverse=True)
    lens = np.fromiter((len(s) for s in uniq), np.int64, count=len(uniq))
    codes = (
        np.frombuffer("".join(uniq).encode("utf-32-le"), dtype=np.uint32)
        & np.uint32(63)
        if len(uniq) else np.zeros(0, np.uint32)
    )
    rows = np.repeat(np.arange(len(uniq)), lens)
    H = np.zeros((len(uniq), 64), dtype=np.int32)
    np.add.at(H, (rows, codes), 1)
    dd = dd.assign(__sid=sid)

    m = dd.merge(dd, on="block_key", suffixes=("_a", "_b"))
    m = m[m["key_string_a"] < m["key_string_b"]]
    if len(m):
        sa = m["__sid_a"].to_numpy()
        sb = m["__sid_b"].to_numpy()
        keep = np.abs(lens[sa] - lens[sb]) <= n
        if subst is None:  # free substitutions would break the L1 bound
            l1 = np.abs(H[sa] - H[sb]).sum(axis=1)
            # ceil(l1/k) <= n  <=>  l1 <= n*k  (avoids slow int64 //)
            keep &= l1 <= n * l1_per_edit
        m = m[keep]
    if len(m):
        ua = m["url_a"].to_numpy()
        ub = m["url_b"].to_numpy()
        lo = np.minimum(ua, ub)
        hi = np.maximum(ua, ub)
        keep = lo != hi
        cand = pd.DataFrame(
            {
                "s_a": m["key_string_a"].to_numpy()[keep],
                "s_b": m["key_string_b"].to_numpy()[keep],
                "url_a": uniq_urls[lo[keep]],
                "url_b": uniq_urls[hi[keep]],
                "distance": np.full(int(keep.sum()), -1, dtype="int32"),
            }
        ).drop_duplicates(["url_a", "url_b"])
    else:
        cand = _empty_candidates()

    out = pd.concat([stars, cand], ignore_index=True)
    if not len(out):
        return _empty_candidates()
    out["distance"] = out["distance"].astype("int32")
    return out


def score_candidates_bucket(
    bucket: pd.DataFrame,
    max_distance: int = 2,
    algorithm: str = STANDARD,
    subst=None,
) -> pd.DataFrame:
    """Phase B: one pair-keyed bucket of candidate rows -> canonical edges;
    each distinct string pair hits the DP kernel exactly once."""
    from ..kernel.vectorized import batch_distances

    n = max_distance
    stars = bucket[bucket["distance"] >= 0]
    cand = bucket[bucket["distance"] < 0]
    parts = []
    if len(stars):
        parts.append(stars[["url_a", "url_b", "distance"]])
    if len(cand):
        cand = cand.drop_duplicates(["url_a", "url_b"])
        up = cand[["s_a", "s_b"]].drop_duplicates()
        d = batch_distances(up["s_a"].tolist(), up["s_b"].tolist(), n, algorithm, subst)
        up = up.assign(__d=d)
        up = up[up["__d"] <= n]
        scored = cand.merge(up, on=["s_a", "s_b"])
        if len(scored):
            scored = scored.assign(distance=scored["__d"].astype("int32"))
            parts.append(scored[["url_a", "url_b", "distance"]])
    if not parts:
        return _empty_edges()
    out = pd.concat(parts, ignore_index=True)
    # global url-pair dedup (see module comment: one key_string per url =>
    # every occurrence of this url pair is in this bucket)
    out = out.groupby(["url_a", "url_b"], as_index=False)["distance"].min()
    out["distance"] = out["distance"].astype("int32")
    return out


class CandidateScorerActor:
    """Actor-pool form of phase B (the DP-heavy stage): ``__init__`` runs
    once per actor and holds the parametric universal-automaton tables
    (kernel.universal, SURVEY.md §2.4) — the broadcast-once scoring state;
    ``__call__`` scores one pair-keyed bucket.  Output identical to
    :func:`score_candidates_bucket` (pinned by tests)."""

    def __init__(self, max_distance: int = 2, algorithm: str = STANDARD):
        from ..kernel.universal import universal_automaton

        self.max_distance = max_distance
        self.algorithm = algorithm
        self.universal = universal_automaton(min(max_distance, 3))

    def __call__(self, bucket: pd.DataFrame) -> pd.DataFrame:
        out = score_candidates_bucket(
            bucket.drop(columns="__bucket", errors="ignore"),
            max_distance=self.max_distance,
            algorithm=self.algorithm,
        )
        return out if len(out) else _empty_edges()
