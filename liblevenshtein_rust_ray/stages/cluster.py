"""Transitive clustering over matched pairs (connected components).

:func:`connected_components` picks one of two execution paths from the
edge count alone (there is no plan option):

* driver — when the EDGE set is small (≤ ``DRIVER_MAX_EDGES``, 32M: the
  all-Arrow union-find dictionary-encodes urls in C++, so 32M edges ≈
  ~2 GB of distinct url strings + 0.5 GB int edge arrays + ~1 GB scipy
  COO ≈ 4-5 GB peak driver heap; measured 7.2M edges in ~10 s), stream
  the edges to the driver.  Edges are the SCORER's output — orders of
  magnitude smaller than the corpus — so this is the right call for
  small-to-medium runs (the guide's "union-find on the driver only if
  the candidate set is provably small").
* distributed — hash-partitioned min-label propagation over int64 node
  ids with ONLY C-path operations per round (no per-node Python): numpy
  joins per bucket for message passing, a min-combine exchange, and a
  global label-signature sum for termination.  2 shuffles per round,
  O(log diameter) rounds with label-link shortcutting.

Above the threshold the edge set is first CONTRACTED — per-partition
union-find replaces each partition's edges by its spanning star (a
shuffle-free combiner, exact for connectivity), then alternating-key
passes à la Kiveris et al. (SoCC'14) — and finishes on whichever path
the contracted size selects.  Both paths produce identical output:
``(url, cluster_id)`` with cluster_id = lexicographically smallest member
url — deterministic across runs, partitionings and paths.
"""

import logging

import pandas as pd
import pyarrow as pa

# Edge count up to which components run on the driver (see the module
# docstring for the memory sizing).
DRIVER_MAX_EDGES = 32_000_000


# ----------------------------------------------------------------------
def _cc_core(chunks_a, chunks_b):
    """Shared vectorized union-find core, all-Arrow: urls are
    dictionary-encoded in C++ (hash factorize), uniques ranked by one
    Arrow sort (so min code == lexicographically smallest member), then
    components via scipy csgraph (or min-label pointer jumping as the
    fallback).  Returns ``(uniq_sorted: pa.Array, label: np.int64[n])``
    with ``uniq_sorted[label[i]]`` the smallest member url of node i's
    component."""
    import numpy as np
    import pyarrow.compute as pc

    both = pa.chunked_array(list(chunks_a) + list(chunks_b)).combine_chunks()
    enc = both.dictionary_encode()
    inv = enc.indices.to_numpy().astype(np.int64)
    uniq = enc.dictionary

    # sort the DISTINCT urls so min code == min url.  polars' parallel sort
    # is ~5x pyarrow's single-threaded kernel at this shape (measured at
    # 19M uniques: 4.9 s vs 25.4 s, identical order); fall back for small
    # arrays (per-batch contraction calls) and if polars is unavailable.
    if len(uniq) >= 262_144:
        try:
            import polars as pl

            order = pl.from_arrow(uniq).arg_sort().to_numpy().astype(np.int64)
        except ImportError:
            order = pc.array_sort_indices(uniq).to_numpy().astype(np.int64)
    else:
        order = pc.array_sort_indices(uniq).to_numpy().astype(np.int64)
    rank_of = np.empty(len(uniq), dtype=np.int64)
    rank_of[order] = np.arange(len(uniq))
    codes = rank_of[inv]
    uniq = uniq.take(pa.array(order))  # uniq[r] = r-th smallest url
    n_edges = len(both) // 2
    ea, eb = codes[:n_edges], codes[n_edges:]
    n = len(uniq)

    try:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components as _scc

        g = coo_matrix((np.ones(n_edges, dtype=np.int8), (ea, eb)), shape=(n, n))
        _, comp = _scc(g, directed=False)
        # min-url representative per component
        rep = np.full(comp.max() + 1 if n else 0, n, dtype=np.int64)
        np.minimum.at(rep, comp, np.arange(n))
        label = rep[comp]
    except ImportError:
        # scatter-min + FULL pointer compression per round.  Compressing to
        # the fixpoint (label[label] until stable — cheap 0.1 s gathers)
        # keeps the outer scatter rounds at O(log diameter): measured at
        # 22.7M edges, 6 rounds / 18 s, vs ~140 s for the previous
        # single-jump-per-round form, whose chains dragged the round count.
        label = np.arange(n, dtype=np.int64)
        while True:
            m = np.minimum(label[ea], label[eb])
            before = label.copy()
            np.minimum.at(label, ea, m)
            np.minimum.at(label, eb, m)
            while True:
                nxt = label[label]
                if np.array_equal(nxt, label):
                    break
                label = nxt
            if np.array_equal(label, before):
                break

    return uniq, label


def _driver_cc(pairs) -> pa.Table:
    """Vectorized union-find on the driver, all-Arrow: no Python string
    objects are ever materialized (see :func:`_cc_core`).  Measured at
    sf0.5 (1.2M edges, 1M urls): ~3 s vs ~13 s for the previous
    iter_batches + pd.factorize(object) + from_pandas version — the
    object-array round trips were the whole difference."""
    import ray

    # to_arrow_refs hands back pandas-backed blocks unconverted (empty
    # sentinel blocks skip map_batches, so mixed-format inputs are legal)
    blocks = ray.get(list(pairs.to_arrow_refs()))
    tabs = [
        t if isinstance(t, pa.Table) else pa.Table.from_pandas(t, preserve_index=False)
        for t in blocks
    ]
    tabs = [t for t in tabs if t.num_rows]
    if not tabs:
        return pa.table({"url": pa.array([], type=pa.string()),
                         "cluster_id": pa.array([], type=pa.string())})
    chunks = [c for t in tabs for c in t.column("url_a").cast(pa.string()).chunks]
    chunks_b = [c for t in tabs for c in t.column("url_b").cast(pa.string()).chunks]
    uniq, label = _cc_core(chunks, chunks_b)
    return pa.table({"url": uniq, "cluster_id": uniq.take(pa.array(label))})


# ----------------------------------------------------------------------
_EMPTY_EDGES = pa.table({"url_a": pa.array([], type=pa.string()),
                         "url_b": pa.array([], type=pa.string())})


def _contract_table(t: pa.Table) -> pa.Table:
    """Contract ONE partition's edges to their spanning star: union-find
    over the batch, emit ``(member, local_min_url)`` per non-root node.

    Exactness: a star edge set has the same connected components as the
    sub-graph it came from, and components of a union of edge sets depend
    only on the union — so replacing each partition's edges by its local
    stars preserves the GLOBAL components while shrinking the edge count
    from |E_partition| to (#nodes − #local components).  Every endpoint
    survives (a node with any edge sits in a ≥2-node local component, so
    it appears as a member or as a root).  This is the per-partition
    combine of the CC exchange, same idea as pre-aggregation before a
    groupby."""
    import numpy as np

    if t.num_rows == 0:
        return _EMPTY_EDGES
    uniq, label = _cc_core(t.column("url_a").cast(pa.string()).chunks,
                           t.column("url_b").cast(pa.string()).chunks)
    member = np.flatnonzero(label != np.arange(len(uniq), dtype=np.int64))
    if len(member) == 0:
        return _EMPTY_EDGES
    mi = pa.array(member)
    return pa.table({"url_a": uniq.take(mi),
                     "url_b": uniq.take(pa.array(label[member]))})


def _contract(pairs, n_buckets: int, stats: dict | None = None):
    """Shrink the edge set by repeated star contraction until it fits the
    driver path (or stops improving).  Pass 0 is shuffle-free — pure
    ``map_batches`` per existing partition — and turns each partition's
    edges into local stars (measured at sf5.0 it shrinks little by itself:
    the pair-dedup exchange scatters co-cluster edges, and raw pairs
    rarely share an endpoint).  The keyed passes do the real work over
    the STAR set, alternating between ``url_b`` (regroups star fragments
    by root — measured: one pass collapses sf5.0's 11.6M edges to the
    7.2M star floor) and ``url_a`` — one exchange each, over an
    already-edge-scale table; this is the small-star/large-star
    alternation of Kiveris et al., "Connected Components in MapReduce
    and Beyond" (SoCC'14).  Returns ``(edges, n_edges)``."""
    from .grouped import bucketed_apply_arrow

    # batch_size=None → whole blocks: the scorer emits a block per bucket
    # group, so one batch holds a whole blocking region and the local
    # union-find merges maximally before any shuffle.
    cur = pairs.map_batches(
        _contract_table, batch_format="pyarrow", batch_size=None
    ).materialize()
    cnt = cur.count()
    if stats is not None:
        stats["contract_passes"] = 1
        stats["contract_edges"] = [cnt]
    # url_b first: scorer pairs are canonically ordered (url_a < url_b), and
    # measured at sf5.0 a url_b-keyed pass collapses 11.6M edges to the
    # 7.2M star floor while a url_a pass removes ~1%.
    key = "url_b"
    max_passes = 4  # bounds exchanges; alternation halves chains per pass
    while cnt > DRIVER_MAX_EDGES and max_passes > 0:
        max_passes -= 1
        nxt = bucketed_apply_arrow(
            cur, key, _contract_table, n_buckets, empty_result=_EMPTY_EDGES
        ).materialize()
        new = nxt.count()
        if stats is not None:
            stats["contract_passes"] += 1
            stats["contract_edges"].append(new)
        if new >= cnt:  # no progress: residual graph is genuinely large
            break
        cur, cnt = nxt, new
        key = "url_a" if key == "url_b" else "url_b"
    return cur, cnt


# ----------------------------------------------------------------------
def _distributed_cc(pairs, max_rounds: int, n_buckets: int = 64,
                    stats: dict | None = None):
    """Min-label propagation over INT64 node ids: the distributed path of
    :func:`connected_components` (call it directly to force that path).

    The label rounds move the full edge table twice per round; with url
    strings that was ~120 B/row (at 10^12 edges, ~30 TB of exchange per
    round).  Encoding nodes once to int64 cuts the per-round exchange
    payload ~7x (16 B/row) — the lever that matters on a real cluster,
    where rounds are network-bound — and turns the label groupby-min onto
    the int64 C path (init-labels exchange measured 8 s vs 37 s on 9.7M
    string rows).  The encode costs one url-keyed exchange (range-sampled
    id assignment) and two thin all-int exchanges (endpoint ids joined on
    128-bit url hashes, then endpoints paired up on an edge key); the
    final relabel adds two int-keyed exchanges.

    Ids are ORDER-PRESERVING (url lex order) without a global sort:
    sampled range boundaries (driver sees ≤64k sample urls at any scale)
    + per-range local rank, ``id = range << 40 | rank`` — unique with no
    cross-range offset coordination.  Order preservation is load-bearing
    for round count: min-label + link shortcutting is O(log diameter)
    only when id order gives one basin per component (measured on a
    256-chain: 9 rounds ordered vs 40 random).  A final per-component
    min-url pass pins exact driver-path parity independent of the id
    scheme."""
    import time as _time

    import numpy as np
    import pyarrow.compute as pc
    import ray.data as rd

    from .grouped import bucketed_apply_arrow

    def _mark(key, t0):
        if stats is not None:
            stats.setdefault("phase_secs", {})[key] = round(
                _time.perf_counter() - t0, 2)
        return _time.perf_counter()

    _t = _time.perf_counter()

    # Pin the edge plan once (sample + the two id-join exchanges each
    # consume it) and short-circuit an empty edge set — the sample
    # collection below would otherwise see a schema-less empty frame.
    pairs = pairs.materialize()
    if pairs.count() == 0:
        return rd.from_arrow(pa.table({
            "url": pa.array([], type=pa.string()),
            "cluster_id": pa.array([], type=pa.string())}))

    # ---- 0a. distinct nodes (per-batch pre-distinct = combiner) ---------
    def to_nodes(t: pa.Table) -> pa.Table:
        a = t.column("url_a").combine_chunks().cast(pa.string())
        b = t.column("url_b").combine_chunks().cast(pa.string())
        u = pc.unique(pa.chunked_array([a, b]).combine_chunks())
        return pa.table({"url": u})

    # ---- 0b. ORDER-PRESERVING unique ids via sampled range partition ----
    # Min-label + link shortcutting is O(log diameter) only when id order
    # correlates with label flow (one basin per component); with random
    # ids a path graph degrades to ~Θ(diameter) rounds (measured: 16-chain
    # 5 rounds ordered vs 8-12 random, 256-chain 9 vs 40).  Ids therefore
    # preserve url lexicographic order WITHOUT a global sort: sample
    # boundary urls (driver sees ≤64k samples regardless of scale), range-
    # partition distinct urls, local sort rank per range, and
    # ``id = range_index << 40 | rank`` — order-preserving and unique with
    # NO cross-range offset coordination (ids need not be dense).
    nodes = pairs.map_batches(to_nodes, batch_format="pyarrow")

    def batch_sample(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"url": pa.array([], type=pa.string())})
        k = min(64, t.num_rows)
        idx = np.linspace(0, t.num_rows - 1, k).astype(np.int64)
        return pa.table({"url": t.column("url").take(pa.array(idx))})

    sample = sorted(
        set(
            nodes.map_batches(batch_sample, batch_format="pyarrow")
            .limit(65536)
            .to_pandas()["url"]
        )
    )
    # n_buckets-1 cut points at sample quantiles
    if len(sample) > 1:
        cuts = [
            sample[(i * len(sample)) // n_buckets]
            for i in range(1, n_buckets)
        ]
        bnd = np.array(sorted(set(cuts)), dtype=object)
    else:
        bnd = np.array([], dtype=object)

    # Arrow end-to-end (round-3 VERDICT task 5): the id-assignment
    # exchange ships (url, __bucket) Arrow buffers and the per-range rank
    # is numpy over a zero-copy view — no pandas block conversion.
    def add_range_bucket(t: pa.Table) -> pa.Table:
        urls = t.column("url").combine_chunks().to_numpy(
            zero_copy_only=False)
        b = np.searchsorted(bnd, urls, side="right").astype(np.int32)
        return t.append_column("__bucket", pa.array(b))

    def assign_ranked_ids(t: pa.Table) -> pa.Table:
        urls = np.unique(t.column("url").combine_chunks().to_numpy(
            zero_copy_only=False))  # sorted distinct
        b = np.int64(t.column("__bucket")[0].as_py())
        ids = (b << np.int64(40)) + np.arange(len(urls), dtype=np.int64)
        return pa.table({"url": pa.array(urls, type=pa.string()),
                         "id": pa.array(ids, type=pa.int64())})

    _t = _mark("pin_and_sample", _t)
    ids = (
        nodes.map_batches(add_range_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(assign_ranked_ids, batch_format="pyarrow")
        .materialize()
    )
    _t = _mark("assign_ids", _t)

    # ---- 0c. edges -> (id_a, id_b): ONE url-keyed exchange + one thin
    # all-int exchange (was two url-keyed exchanges; at sf2.0 this phase
    # was 17.3 s of a 37.9 s total — the strings were crossing the wire
    # twice).  Each edge explodes into two endpoint rows tagged with a
    # 128-bit CONTENT key of the pair (the two endpoints' keyed 64-bit
    # url hashes, combined per word — vectorized, deterministic across
    # processes); the url exchange attaches each endpoint's int id, and
    # the endpoints re-meet on an exchange keyed by the edge key's first
    # word — 25 bytes/row, no strings.  A spurious edge needs two
    # DISTINCT pairs agreeing on all 128 bits (p ~ |E|^2 / 2^129 — at
    # 10^12 edges ~1e-15, documented like exact_dedup's collision note).
    def _scol(t: pa.Table, name: str) -> np.ndarray:
        return t.column(name).combine_chunks().to_numpy(zero_copy_only=False)

    # The endpoint↔id meet itself joins on a 128-bit url hash instead of
    # the url string, so NO strings cross this exchange either: edge
    # rows are (u1,u2,e1,e2,side) and id rows (u1,u2,id) — ~41 B/row
    # fixed-width vs ~(url+25) B, and the bucket sort runs on int
    # columns.  Same collision class as the edge key (a wrong id needs
    # two DISTINCT urls agreeing on all 128 bits, p ~ |V|²/2^129); a
    # first-word hash tie between different urls is handled by a
    # forward scan (expected zero iterations).  The urls are hashed as
    # UTF-8 BYTES: pandas hashes a str object only up to its first NUL,
    # so "x" and "x\x00y" would share every hash (bytes hash in full,
    # and to the same value as the str when there is no NUL).
    def _url_hash2(arr: pa.Array):
        ao = arr.cast(pa.binary()).to_numpy(zero_copy_only=False)
        h1 = pd.util.hash_array(ao, hash_key="llrr-url-key-001"
                                ).view(np.int64)
        h2 = pd.util.hash_array(ao, hash_key="llrr-url-key-002"
                                ).view(np.int64)
        return h1, h2

    def edge_endpoint_rows(t: pa.Table) -> pa.Table:
        a = t.column("url_a").combine_chunks().cast(pa.string())
        b = t.column("url_b").combine_chunks().cast(pa.string())
        h1a, h2a = _url_hash2(a)
        h1b, h2b = _url_hash2(b)
        # the edge key combines the two endpoints' keyed hashes; hashing
        # a joined "url_a NUL url_b" string made ("x", "y\x00z") and
        # ("x\x00y", "z") one key and paired the wrong endpoints
        mix = np.uint64(0x9E3779B97F4A7C15)
        e1 = ((h1a.view(np.uint64) * mix) ^ h1b.view(np.uint64)).view(np.int64)
        e2 = ((h2a.view(np.uint64) * mix) ^ h2b.view(np.uint64)).view(np.int64)
        n = t.num_rows
        return pa.table({
            "u1": pa.array(np.concatenate([h1a, h1b]), type=pa.int64()),
            "u2": pa.array(np.concatenate([h2a, h2b]), type=pa.int64()),
            "e1": pa.array(np.concatenate([e1, e1]), type=pa.int64()),
            "e2": pa.array(np.concatenate([e2, e2]), type=pa.int64()),
            "side": pa.array(np.concatenate(
                [np.zeros(n, np.int8), np.ones(n, np.int8)])),
            "id": pa.array(np.full(2 * n, -1, dtype=np.int64)),
        })

    def tag_ids(t: pa.Table) -> pa.Table:
        n = t.num_rows
        h1, h2 = _url_hash2(
            t.column("url").combine_chunks().cast(pa.string()))
        return pa.table({
            "u1": pa.array(h1, type=pa.int64()),
            "u2": pa.array(h2, type=pa.int64()),
            "e1": pa.array(np.zeros(n, np.int64)),
            "e2": pa.array(np.zeros(n, np.int64)),
            "side": pa.array(np.full(n, -1, dtype=np.int8)),
            "id": t.column("id").combine_chunks(),
        })

    def join_endpoint_ids(t: pa.Table) -> pa.Table:
        idv = _scol(t, "id")
        u1 = _scol(t, "u1")
        u2 = _scol(t, "u2")
        is_id = idv >= 0
        lu1, lu2, lid = u1[is_id], u2[is_id], idv[is_id]
        order = np.lexsort((lu2, lu1))
        lu1, lu2, lid = lu1[order], lu2[order], lid[order]
        pu1, pu2 = u1[~is_id], u2[~is_id]
        pos = np.searchsorted(lu1, pu1)
        inb = pos < len(lu1)
        pos = np.minimum(pos, max(len(lu1) - 1, 0))
        ok_u1 = inb & ((lu1[pos] == pu1) if len(lu1) else False)
        match = ok_u1 & (lu2[pos] == pu2) if len(lu1) else ok_u1
        # first-word tie with a different second word: scan forward
        # within the (tiny) equal-u1 run — expected empty
        for i in np.flatnonzero(ok_u1 & ~match):
            p = pos[i] + 1
            while p < len(lu1) and lu1[p] == pu1[i]:
                if lu2[p] == pu2[i]:
                    pos[i] = p
                    match[i] = True
                    break
                p += 1
        return pa.table({
            "e1": pa.array(_scol(t, "e1")[~is_id][match], type=pa.int64()),
            "e2": pa.array(_scol(t, "e2")[~is_id][match], type=pa.int64()),
            "side": t.column("side").combine_chunks().filter(
                pa.array(~is_id)).filter(pa.array(match)),
            "id": pa.array(lid[pos[match]], type=pa.int64()),
        })

    _EP_EMPTY = pa.table({"e1": pa.array([], type=pa.int64()),
                          "e2": pa.array([], type=pa.int64()),
                          "side": pa.array([], type=pa.int8()),
                          "id": pa.array([], type=pa.int64())})

    endpoint_ids = bucketed_apply_arrow(
        pairs.map_batches(edge_endpoint_rows, batch_format="pyarrow").union(
            ids.map_batches(tag_ids, batch_format="pyarrow")
        ),
        "u1",
        join_endpoint_ids,
        n_buckets,
        empty_result=_EP_EMPTY,
    )

    def pair_up(t: pa.Table) -> pa.Table:
        e1 = _scol(t, "e1")
        e2 = _scol(t, "e2")
        side = _scol(t, "side")
        idv = _scol(t, "id")
        order = np.lexsort((idv, side, e2, e1))
        e1, e2, side, idv = e1[order], e2[order], side[order], idv[order]
        # rows of one edge key are now adjacent, side-0 block first;
        # within a (e1,e2) group the i-th side-0 id pairs with the i-th
        # side-1 id (identical duplicate edges pair with themselves)
        new = np.empty(len(e1), dtype=bool)
        new[:1] = True
        new[1:] = (e1[1:] != e1[:-1]) | (e2[1:] != e2[:-1])
        grp = np.cumsum(new) - 1
        n_grp = grp[-1] + 1 if len(grp) else 0
        is0 = side == 0
        g0 = grp[is0]
        g1 = grp[~is0]
        a_ids = idv[is0]
        b_ids = idv[~is0]
        # match by (group, per-side order): both sides sorted identically
        # so position i of side-0 within group g pairs with position i of
        # side-1 within group g; groups are contiguous so per-side ranks
        # within group are recoverable from per-side cumcounts
        first0 = np.concatenate(([0], np.cumsum(np.bincount(
            g0, minlength=n_grp))))[:-1] if n_grp else np.zeros(0, np.int64)
        first1 = np.concatenate(([0], np.cumsum(np.bincount(
            g1, minlength=n_grp))))[:-1] if n_grp else np.zeros(0, np.int64)
        k0 = np.arange(len(g0), dtype=np.int64) - first0[g0]
        k1 = np.arange(len(g1), dtype=np.int64) - first1[g1]
        # join on (group, k): both are sorted by (group, k) already
        key0 = g0 * (1 << 32) + k0
        key1 = g1 * (1 << 32) + k1
        pos = np.searchsorted(key1, key0)
        ok = pos < len(key1)
        pos = np.minimum(pos, max(len(key1) - 1, 0))
        if len(key1):
            ok &= key1[pos] == key0
        else:
            ok &= False
        a = a_ids[ok]
        b = b_ids[pos[ok]]
        return pa.table({
            "node": pa.array(np.concatenate([a, b]), type=pa.int64()),
            "neighbor": pa.array(np.concatenate([b, a]), type=pa.int64()),
        })

    _EDGES_EMPTY = pa.table({"node": pa.array([], type=pa.int64()),
                             "neighbor": pa.array([], type=pa.int64())})

    # Edge list both directions, int64; small vs corpus → safe to pin.
    edges = bucketed_apply_arrow(
        endpoint_ids,
        "e1",
        pair_up,
        n_buckets,
        empty_result=_EDGES_EMPTY,
    ).repartition(n_buckets).materialize()
    _t = _mark("int_edges", _t)

    # ---- 1. label rounds (all int64, ALL-ARROW — round-2 VERDICT task 4:
    # the loop's blocks stay pa.Table end to end; per-bucket work is numpy
    # over zero-copy int64 views, so the twice-per-round exchange ships
    # Arrow buffers instead of pickled pandas frames) ----------------------
    _LBL = pa.table({"node": pa.array([], type=pa.int64()),
                     "label": pa.array([], type=pa.int64())})

    def _int_bucketed(ds, key_col: str, fn, empty: pa.Table):
        """One hash exchange on an int64 key, Arrow-native: bucket id is a
        cheap uint32 mod (ids are already integers — no dictionary hash
        needed), ``fn(pa.Table) -> pa.Table`` runs once per bucket."""

        def add_bucket(t: pa.Table) -> pa.Table:
            k = t.column(key_col).combine_chunks().to_numpy(
                zero_copy_only=False)
            b = (k.astype(np.uint32) % np.uint32(n_buckets)).astype(np.int32)
            return t.append_column("__bucket", pa.array(b))

        out = (
            ds.map_batches(add_bucket, batch_format="pyarrow")
            .groupby("__bucket")
            .map_groups(lambda t: fn(t.drop_columns(["__bucket"])),
                        batch_format="pyarrow")
        )
        return out.union(rd.from_arrow(empty))

    def _min_per_node(node, label) -> pa.Table:
        order = np.lexsort((label, node))
        n_s, l_s = node[order], label[order]
        head = np.empty(len(n_s), dtype=bool)
        head[:1] = True
        head[1:] = n_s[1:] != n_s[:-1]
        nn, ll = n_s[head], l_s[head]
        # in-bucket pointer compression: label(x) <= x is invariant
        # (init takes min(node, nbr); every round's min includes the
        # node's own previous label row), so chasing label->label(label)
        # through pointers that happen to live in THIS bucket only
        # lowers labels toward values already reachable — fewer global
        # rounds for free (nn is sorted: one searchsorted per hop)
        while len(nn):
            pos = np.searchsorted(nn, ll)
            ok = pos < len(nn)
            pos = np.minimum(pos, max(len(nn) - 1, 0))
            ok &= nn[pos] == ll
            nxt = np.where(ok, ll[pos], ll)
            if np.array_equal(nxt, ll):
                break
            ll = nxt
        return pa.table({"node": pa.array(nn, type=pa.int64()),
                         "label": pa.array(ll, type=pa.int64())})

    def init_labels(t: pa.Table) -> pa.Table:
        node, nbr = _scol(t, "node"), _scol(t, "neighbor")
        return _min_per_node(node, np.minimum(node, nbr))

    # Block-count hygiene: the sort-based groupby exchange emits roughly one
    # block per INPUT block, and each round unions the edge table into the
    # plan — without a coalesce the label table gains +|edge blocks| blocks
    # per round, so round N pays O(N · blocks) task/metadata overhead
    # (measured: a 16-row chain grew 47 blocks/round and round time climbed
    # 2.4s -> 11.7s).  Pinning labels to n_buckets blocks per round makes
    # round cost flat; the coalesce (shuffle=False) only merges adjacent
    # label blocks — O(|nodes|) rows moved, no all-to-all.
    labels = (
        _int_bucketed(
            edges.map_batches(
                lambda t: t.select(["node", "neighbor"]),
                batch_format="pyarrow"),
            "node", init_labels, _LBL)
        .repartition(n_buckets)
        .materialize()
    )
    _t = _mark("init_labels", _t)

    def signature(lab) -> int:
        """Order- AND partition-independent fingerprint of the label
        assignment: per-batch uint64 row-hash sums (wrapping mod 2^64 —
        associative, so any batch split yields the same total), combined
        on the driver with exact Python ints.  The per-batch partials are
        one tiny row per block, so the driver collect is O(#blocks)
        regardless of scale.  (The previous form pushed ``%``-reduced
        partials through ``Dataset.sum`` — NOT partition-independent once
        the label table spans multiple blocks, so converged label sets
        could keep hashing differently and termination dragged ~D rounds
        past the actual fixpoint.)"""

        def part(df: pd.DataFrame) -> pd.DataFrame:
            h = (
                df["node"].to_numpy(dtype=np.int64).astype(np.uint64)
                * np.uint64(0x9E3779B97F4A7C15)
                ^ df["label"].to_numpy(dtype=np.int64).astype(np.uint64)
            )
            # second-order term makes the sum collision-resistant against
            # multiset swaps that preserve the first-order sum.  String
            # cells: a plain int cell flips the block dtype int64/uint64
            # depending on whether THIS batch's sum overflows 2^63, and
            # the schema-divergence check then warns on a real (if
            # harmless) dtype flip — object dtype is stable per batch.
            h2 = h * h
            return pd.DataFrame({
                "s1": [str(int(h.sum(dtype="uint64")))],
                "s2": [str(int(h2.sum(dtype="uint64")))],
            })

        parts = lab.map_batches(part, batch_format="pandas").take_all()
        s1 = sum(int(r["s1"]) for r in parts) % (1 << 64)
        s2 = sum(int(r["s2"]) for r in parts) % (1 << 64)
        return (s1 << 64) | s2

    # Edge message-rows are loop-invariant: tag (label = -1 sentinel) and
    # pre-bucket them ONCE, Arrow-native — the loop unions this table
    # verbatim every round with zero re-tagging.
    def tag_and_bucket_edges(t: pa.Table) -> pa.Table:
        node = _scol(t, "node")
        bucket = (node.astype(np.uint32) % np.uint32(n_buckets)).astype(np.int32)
        return pa.table({
            "node": pa.array(node, type=pa.int64()),
            "label": pa.array(np.full(t.num_rows, -1, dtype=np.int64)),
            "neighbor": pa.array(_scol(t, "neighbor"), type=pa.int64()),
            "__bucket": pa.array(bucket),
        })

    edg_tagged = edges.map_batches(
        tag_and_bucket_edges, batch_format="pyarrow"
    ).materialize()

    sig = signature(labels)
    _t = _mark("init_sig", _t)
    for _round in range(max_rounds):
        # message pass: per bucket, numpy searchsorted joins labels onto
        # edges over zero-copy int64 views.  -1 marks the absent column
        # (ids are >= 0) so the union schema stays int64 throughout.
        # label rows AND label-link rows from ONE pass over the label
        # table.  The links treat (node <-> label(node)) as extra edges:
        # feeding them through the same message exchange lets labels
        # propagate along label pointers as well as graph hops
        # (hash-to-min style), so covered distance roughly doubles per
        # round — O(log diameter) rounds instead of O(diameter), at zero
        # extra exchanges.
        with_links = _round > 0  # shallow graphs converge before links help

        def lab_and_links(t: pa.Table) -> pa.Table:
            node, label = _scol(t, "node"), _scol(t, "label")
            neg = np.full(len(node), -1, dtype=np.int64)
            if not with_links:
                n_, l_, nb = node, label, neg
            else:
                linked = node != label
                ln, ll = node[linked], label[linked]
                n_ = np.concatenate([node, ln, ll])
                l_ = np.concatenate([label, np.full(2 * len(ln), -1, np.int64)])
                nb = np.concatenate([neg, ll, ln])
            bucket = (n_.astype(np.uint32) % np.uint32(n_buckets)).astype(np.int32)
            return pa.table({
                "node": pa.array(n_, type=pa.int64()),
                "label": pa.array(l_, type=pa.int64()),
                "neighbor": pa.array(nb, type=pa.int64()),
                "__bucket": pa.array(bucket),
            })

        def bucket_messages(t: pa.Table) -> pa.Table:
            node = _scol(t, "node")
            label = _scol(t, "label")
            nbr = _scol(t, "neighbor")
            is_lab = label >= 0
            ln, ll = node[is_lab], label[is_lab]
            order = np.argsort(ln, kind="stable")
            ln, ll = ln[order], ll[order]
            is_edge = nbr >= 0
            en, enb = node[is_edge], nbr[is_edge]
            pos = np.searchsorted(ln, en)
            ok = (pos < len(ln))
            pos = np.minimum(pos, max(len(ln) - 1, 0))
            ok &= (ln[pos] == en) if len(ln) else False
            out_n = np.concatenate([ln, enb[ok]])
            out_l = np.concatenate([ll, ll[pos[ok]]]) if len(ln) else ll
            return pa.table({"node": pa.array(out_n, type=pa.int64()),
                             "label": pa.array(out_l, type=pa.int64())})

        candidates = (
            labels.map_batches(lab_and_links, batch_format="pyarrow")
            .union(edg_tagged)
            .groupby("__bucket")
            .map_groups(
                lambda t: bucket_messages(t.drop_columns(["__bucket"])),
                batch_format="pyarrow")
        )
        labels = (
            _int_bucketed(
                candidates, "node",
                lambda t: _min_per_node(_scol(t, "node"), _scol(t, "label")),
                _LBL,
            )
            .repartition(n_buckets)  # see block-count hygiene note above
            .materialize()
        )
        if stats is not None:
            # observable regression guard: without the coalesce this list
            # grows by +|edge blocks| per round (tested)
            stats.setdefault("label_blocks", []).append(labels.num_blocks())

        if stats is not None:
            stats.setdefault("round_secs", []).append(round(
                _time.perf_counter() - _t, 2))
            _t = _time.perf_counter()
        new_sig = signature(labels)
        if stats is not None:
            stats.setdefault("sig_secs", []).append(round(
                _time.perf_counter() - _t, 2))
            _t = _time.perf_counter()
        if new_sig == sig:
            if stats is not None:
                stats["rounds"] = _round + 1
                stats["converged"] = True
            break
        sig = new_sig
    else:
        if stats is not None:
            stats["rounds"] = max_rounds
            stats["converged"] = False
        logging.getLogger(__name__).warning(
            "connected components: labels did not converge in max_rounds=%d "
            "rounds; components may be split", max_rounds)

    # ---- 2. ids back to urls + exact min-url labels ---------------------
    # Arrow end-to-end — both relabel exchanges key on INT64 (node id /
    # comp id), so they ride _int_bucketed's cheap uint32-mod bucketing;
    # per-bucket joins are numpy searchsorted over zero-copy views and
    # the min-url reduce is pyarrow's hash_min — no pandas frames cross
    # any exchange.
    def tag_labels(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table({
            "key": t.column("node").combine_chunks(),
            "comp": t.column("label").combine_chunks(),
            "url": pa.nulls(n, type=pa.string()).fill_null(""),
        })

    def tag_ids3(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": t.column("id").combine_chunks(),
            "comp": pa.array(np.full(t.num_rows, -1, dtype=np.int64)),
            "url": t.column("url").combine_chunks(),
        })

    def join_url_comp(t: pa.Table) -> pa.Table:
        key = _scol(t, "key")
        comp = _scol(t, "comp")
        is_lab = comp >= 0
        lk, lc = key[is_lab], comp[is_lab]
        order = np.argsort(lk, kind="stable")
        lk, lc = lk[order], lc[order]
        ok_keys = key[~is_lab]
        pos = np.searchsorted(lk, ok_keys)
        ok = pos < len(lk)
        pos = np.minimum(pos, max(len(lk) - 1, 0))
        ok &= (lk[pos] == ok_keys) if len(lk) else False
        urls = t.column("url").combine_chunks().filter(
            pa.array(~is_lab)).filter(pa.array(ok))
        return pa.table({
            "comp": pa.array(lc[pos[ok]], type=pa.int64()),
            "url": urls,
        })

    _WUC = pa.table({"comp": pa.array([], type=pa.int64()),
                     "url": pa.array([], type=pa.string())})

    with_urls = _int_bucketed(
        labels.map_batches(tag_labels, batch_format="pyarrow").union(
            ids.map_batches(tag_ids3, batch_format="pyarrow")
        ),
        "key",
        join_url_comp,
        _WUC,
    )

    # exchange on comp: every member of a component lands in one group, so
    # the lexicographically smallest member url labels them all — exact
    # driver-path parity, independent of the arbitrary id order.
    def min_url_label(t: pa.Table) -> pa.Table:
        agg = t.group_by("comp").aggregate([("url", "min")])
        comp = _scol(t, "comp")
        ac = agg.column("comp").combine_chunks().to_numpy(
            zero_copy_only=False)
        order = np.argsort(ac, kind="stable")
        pos = order[np.searchsorted(ac[order], comp)]
        rep = agg.column("url_min").combine_chunks().take(
            pa.array(pos, type=pa.int64()))
        return pa.table({
            "url": t.column("url").combine_chunks().cast(pa.string()),
            "cluster_id": rep.cast(pa.string()),
        })

    _OUT = pa.table({"url": pa.array([], type=pa.string()),
                     "cluster_id": pa.array([], type=pa.string())})

    return _int_bucketed(with_urls, "comp", min_url_label, _OUT)


# ----------------------------------------------------------------------
def connected_components(
    pairs,
    max_rounds: int = 30,
    n_buckets: int = 64,
    stats: dict | None = None,
):
    """``pairs``: Dataset with url_a/url_b → Dataset (url, cluster_id).
    Only matched nodes appear; unmatched pages are implicit singletons (at
    10^12 docs the label table must scale with the EDGE set, not the
    corpus).  The distributed path pointer-jumps, so ``max_rounds=30``
    covers diameters ~2^29.

    The path follows from the edge count: up to ``DRIVER_MAX_EDGES`` the
    driver; above it the edge set is first CONTRACTED (per-partition
    union-find replaces each partition's edges by its spanning star,
    alternating-key passes shrink the residual further) and the contracted
    set goes to the driver if it now fits, else to :func:`_distributed_cc`
    (which then runs over the smaller star set — fewer bytes per exchange
    and star diameter ≤ 2 per merged region).

    ``stats`` receives the ``path`` taken and the input ``edges``; the
    driver path adds ``nodes`` and ``clusters``; label rounds add
    ``rounds`` and ``converged`` (False if ``max_rounds`` ran out while
    labels still changed, so components may be split — also logged as a
    warning)."""
    import pyarrow.compute as pc
    import ray.data as rd

    # count() and the driver's block fetch both consume the edge plan; a
    # LAZY input would re-execute it for the path actually taken.  Pin the
    # edge set once — count, contraction and the driver fetch all reuse
    # the same blocks (spillable; count() forces full execution anyway, so
    # this adds retention, not work).
    pairs = pairs.materialize()
    n_edges = pairs.count()
    if stats is not None:
        stats["edges"] = n_edges
    path = "driver"
    if n_edges > DRIVER_MAX_EDGES:
        pairs, n_contracted = _contract(pairs, n_buckets, stats)
        path = "contract+driver"
        if n_contracted > DRIVER_MAX_EDGES:
            if stats is not None:
                stats["path"] = "contract+distributed"
            return _distributed_cc(pairs, max_rounds, n_buckets=n_buckets,
                                   stats=stats)
    out = _driver_cc(pairs)
    if stats is not None:
        stats.update(path=path, nodes=out.num_rows,
                     clusters=pc.count_distinct(out["cluster_id"]).as_py())
    return rd.from_arrow(out)
