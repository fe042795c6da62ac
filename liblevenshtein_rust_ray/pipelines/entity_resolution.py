"""Flagship pipeline: blocking + pairwise scoring + transitive clustering
over Common-Crawl-style pages (the north star).

Dataflow (Arrow batches)::

    pages
      -> extract_batch                  canonical text + title, html dropped
      -> blocking_keys_batch            explode to (block_key, url, key_string)
      -> score_bucket_vectorized_arrow  per hash bucket of block_key
         (score_bucket_all_pairs_arrow with emit_all_pairs=True)
      -> min-dedup on (url_a, url_b)    a pair arrives via several keys
      -> connected_components           -> (url, cluster_id)

``er_pairs`` runs it as a ``local`` plan (one driver process, pages
streamed, key table scored in pair-budgeted chunks cut by the exchange's
bucket hash, no exchange) or a ``distributed`` one (Ray Data map stages,
an exchange on ``block_key``, another on ``(url_a, url_b)`` for the
dedup).  Every stage can checkpoint per-partition parquet + manifest via
``CheckpointManager`` and resumes by fingerprint.
"""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..kernel import STANDARD
from ..stages.blocking import blocking_keys_batch
from ..stages.extract import extract_batch, EXTRACTOR_VERSION
from ..stages.cluster import connected_components
from ..stages.grouped import bucketed_apply_arrow, hash_buckets
from ..stages.scorer import (
    EDGE_COLUMNS, _edges_schema, _empty_edges_arrow,
    score_bucket_all_pairs_arrow, score_bucket_vectorized_arrow,
)
from ..state.checkpoint import CheckpointManager

# er_pairs wall of the distributed plan over the local plan's, on one CPU,
# by page count (docs/SCALE.md section 16; 200k was measured at 209k and
# is also the driver-memory cap).  See _local_max_pages.
LOCAL_SPEEDUPS = ((2_006, 19.6), (5_116, 12.2), (10_360, 10.9),
                  (41_987, 9.0), (104_526, 4.1), (200_000, 2.5))
# Candidate title pairs per local-plan chunk.  er_dense (7.1M pairs), one
# chunk: 2.4 s, 1346 MB peak RSS; 1M: 2.9 s, 383 MB; 250k: 2.1 s, 268 MB;
# 100k: 1.8-2.0 s, 221-233 MB; 25k: 3.0 s (per-chunk overhead wins).
LOCAL_PAIR_BUDGET = 100_000
LOCAL_READ_ROWS = 16_384


def read_pages(source):
    """``source`` is a parquet path/dir or an existing Dataset/arrow table."""
    import ray.data as rd

    if isinstance(source, str):
        return rd.read_parquet(source)
    if isinstance(source, pa.Table):
        return rd.from_arrow(source)
    return source


def _parquet_files(path: str) -> list[str] | None:
    """The files ``rd.read_parquet(path)`` reads, where that is plain: a
    local file, or a local directory whose files are all visible
    ``*.parquet``.  None for anything else (remote URIs, other file names,
    ``_``/``.``-prefixed entries), whose listing is left to Ray's rules."""
    if "://" in path:
        return None
    if not os.path.isdir(path):
        return [path]
    files = []
    for root, _dirs, names in os.walk(path):
        for name in names:
            f = os.path.join(root, name)
            parts = os.path.relpath(f, path).split(os.sep)
            if not name.endswith(".parquet") or any(p[0] in "._" for p in parts):
                return None
            files.append(f)
    return sorted(files) or None


def _page_count(source) -> int | None:
    """Exact page count from metadata alone: parquet footers (ms) for a
    local path, ``num_rows`` for a table, and for a Dataset the count Ray
    knows without executing (reads, limits, materialized data).  None when
    the count is unknown (derived lazy plans, paths ``_parquet_files``
    cannot list); footer I/O errors raise."""
    if isinstance(source, pa.Table):
        return source.num_rows
    if isinstance(source, str):
        files = _parquet_files(source)
        if not files:
            return None
        return sum(pq.ParquetFile(f).metadata.num_rows for f in files)
    meta_count = getattr(source, "_meta_count", None)  # what count() consults
    return meta_count() if meta_count else None


def _auto_buckets(n_pages: int | None, floor: int = 256, cap: int = 4096,
                  pages_per_bucket: int = 1024) -> int:
    """Scale the exchange bucket count with corpus size (~1k pages/bucket).

    Fixed buckets skew at scale: at sf2.0 (4.2M pages) the 256-bucket plan
    reads 176 s (hot buckets pack into few sort ranges; 21 s straggler
    scorer task at 1024 buckets), while interleaved warm-pool A/B measured
    4096 buckets at 47.0/34.3 s vs 1024 at 52.3/41.5 s — finer buckets
    spread quadratic-cost blocks across sort ranges, so ~1k pages/bucket
    is the round-3 default (small inputs land on the 256 floor, and below
    the local guard they take no exchange at all).  Unknown page counts
    keep the floor; the cap bounds the sort fan-out on this single node
    (at cluster scale pass ``n_buckets`` explicitly — thousands to
    millions)."""
    if n_pages is None:
        return floor
    return max(floor, min(cap, n_pages // pages_per_bucket))


def _min_dedup(tbl):
    """Keep the smallest distance per ``(url_a, url_b)``.  use_threads=False:
    in the distributed plan this runs inside a 1-CPU Ray task, where
    Acero's own thread pool would oversubscribe the worker."""
    g = tbl.group_by(["url_a", "url_b"], use_threads=False).aggregate(
        [("distance", "min")]
    )
    return g.rename_columns(["url_a", "url_b", "distance"])


def _page_batches(source):
    """Pages as Arrow tables, a parquet batch at a time, so ``html`` is
    never held for the whole corpus."""
    if isinstance(source, pa.Table):
        for b in source.to_batches(max_chunksize=LOCAL_READ_ROWS):
            yield pa.Table.from_batches([b])
    elif isinstance(source, str):  # _page_count listed it
        for f in _parquet_files(source):
            for b in pq.ParquetFile(f).iter_batches(batch_size=LOCAL_READ_ROWS):
                yield pa.Table.from_batches([b])
    else:
        yield from source.iter_batches(batch_size=None, batch_format="pyarrow")


def _local_max_pages(cpus: float) -> int:
    """Largest page count the local plan takes on ``cpus`` CPUs: the
    largest measured size whose one-CPU speedup is at least ``cpus``, as
    ``cpus`` CPUs speed the distributed plan up at most ``cpus``-fold."""
    return max((p for p, x in LOCAL_SPEEDUPS if x >= cpus), default=0)


def _cluster_cpus() -> float:
    import ray

    if not ray.is_initialized():  # as Ray Data does on first use
        ray.init()
    return ray.cluster_resources().get("CPU", 0)


def _local_pairs(source, stats: dict, **score_kwargs):
    """The local plan: the distributed plan's stage functions in one
    process.  Blocks never straddle chunks (chunks are hash buckets of
    ``block_key``, as in the exchange), so the edges are the same."""
    pages, parts = 0, []
    for t in _page_batches(source):
        pages += t.num_rows
        parts.append(blocking_keys_batch(extract_batch(t)))
    keys = pa.concat_tables(parts) if parts else pa.schema(
        [(c, pa.string()) for c in ("block_key", "url", "key_string")]).empty_table()
    # chunk count from the candidate pairs: distinct titles per block, k(k-1)/2
    k = (keys.group_by(["block_key", "key_string"], use_threads=False).aggregate([])
         .group_by("block_key", use_threads=False).aggregate([("key_string", "count")])
         ["key_string_count"].to_numpy())
    n_chunks = max(1, -(-int((k * (k - 1) // 2).sum()) // LOCAL_PAIR_BUDGET))
    chunk = hash_buckets(keys, ["block_key"], n_chunks)
    order = np.argsort(chunk, kind="stable")
    bounds = np.searchsorted(chunk[order], np.arange(n_chunks + 1))
    keys_by_chunk = keys.take(pa.array(order))
    scored = [
        score_bucket_vectorized_arrow(keys_by_chunk.slice(lo, hi - lo), **score_kwargs)
        for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]
    edges = _min_dedup(pa.concat_tables(scored)) if scored else _empty_edges_arrow()
    stats.update(plan="local", pages=pages, key_rows=keys.num_rows,
                 chunks=n_chunks, edges=edges.num_rows)
    return edges


def _key_rows(source):
    """Pages -> (block_key, url, key_string) rows, as Ray Data map stages."""
    ds = read_pages(source)
    ds = ds.map_batches(extract_batch, batch_format="pyarrow")
    return ds.map_batches(blocking_keys_batch, batch_format="pyarrow")


def _scorer(emit_all_pairs: bool):
    return score_bucket_all_pairs_arrow if emit_all_pairs else score_bucket_vectorized_arrow


def _pairs_fingerprint(fingerprint, max_distance, algorithm, emit_all_pairs,
                       max_block_strings) -> str:
    """Every input that changes the edge set, so a checkpoint is never
    re-served to a call that would compute different edges."""
    return (f"{fingerprint}|x{EXTRACTOR_VERSION}|d{max_distance}|{algorithm}"
            f"|all{int(emit_all_pairs)}|cap{max_block_strings}")


def er_pairs(
    source,
    max_distance: int = 2,
    algorithm: str = STANDARD,
    emit_all_pairs: bool = False,
    checkpoints: CheckpointManager | None = None,
    fingerprint: str = "",
    max_block_strings: int = 512,
    n_buckets: int | None = None,
    stats: dict | None = None,
):
    """Pages -> canonical deduped candidate edges (url_a, url_b, distance).

    Each hash bucket of ``block_key`` is scored by one bucket scorer, then
    url pairs are min-deduped (the same title pair co-occurs under several
    blocking keys, so it is scored ~3x; the banded DP is ~3 us/pair, and
    scoring each pair once instead cost more exchange than it saved —
    docs/SCALE.md section 5).  ``emit_all_pairs`` picks the scorer:

    * ``False`` (default) — :func:`score_bucket_vectorized_arrow`, the
      numpy banded-DP kernel (the reference's SIMD distance-matrix path):
      distance-0 stars for identical titles, one representative edge per
      matching title pair.
    * ``True`` — :func:`score_bucket_all_pairs_arrow`, ``BlockScorer``'s
      per-block trie + automaton traversal emitting every url pair: the
      quadratic SQL-oracle semantics.

    The default scorer runs as a local plan in the driver, with no
    exchange, when :func:`_page_count` knows the page count and it is at
    most :func:`_local_max_pages` for the Ray cluster's CPU count;
    everything else runs the distributed plan (an exchange on
    ``block_key``, another on ``(url_a, url_b)`` for the dedup).  Both
    give identical edges (pinned by tests).  Crossover, er_pairs wall on a
    1-CPU host, distributed -> local: 2.0k pages 2.32 -> 0.12 s, 10.4k
    4.96 -> 0.45 s, 42k 17.3 -> 1.9 s, 105k 28.4 -> 6.9 s, 209k 34.3 ->
    13.5 s.  Many-core crossovers are unmeasured, so the guard grants the
    distributed plan a perfect speedup in CPUs: 200k pages on 1-2 CPUs,
    105k on 4, none from 20.

    ``stats`` receives ``plan``, ``pages`` (None if unknown) and
    ``chunks`` or ``n_buckets``; the local plan adds ``key_rows`` and
    ``edges``.  It is the pairs stage's checkpoint ``counters``."""
    ck = checkpoints or CheckpointManager("", enabled=False)
    fp = _pairs_fingerprint(fingerprint, max_distance, algorithm,
                            emit_all_pairs, max_block_strings)
    stats = {} if stats is None else stats
    score_kw = dict(max_distance=max_distance, algorithm=algorithm,
                    max_block_strings=max_block_strings)
    scorer = _scorer(emit_all_pairs)

    def compute():
        import ray.data as rd

        from .context import configure_data_context

        configure_data_context()
        pages = _page_count(source)
        if (not emit_all_pairs and pages is not None
                and pages <= _local_max_pages(_cluster_cpus())):
            return rd.from_arrow(_local_pairs(source, stats, **score_kw))
        nb = n_buckets if n_buckets is not None else _auto_buckets(pages)
        stats.update(plan="distributed", pages=pages, n_buckets=nb)
        # all-Arrow: score within each block bucket, dedup url pairs in a
        # second (edge-sized) exchange.  Batches stay pa.Table through both
        # exchanges — row-level strings never become Python objects (only
        # each bucket's DISTINCT strings cross into Python, for the DP
        # kernel).
        edges = bucketed_apply_arrow(
            _key_rows(source), "block_key", lambda tbl: scorer(tbl, **score_kw),
            n_buckets=nb, empty_result=_empty_edges_arrow(),
        )
        # bucket by the full pair: raw scorer pairs rarely share an
        # endpoint (measured at sf5.0: single-endpoint co-location
        # contracts <1%), so single-column keys buy downstream
        # clustering nothing and the two-column hash spreads best.
        return bucketed_apply_arrow(
            edges, ["url_a", "url_b"], _min_dedup,
            n_buckets=nb, empty_result=_empty_edges_arrow(),
        )

    return ck.run_stage("pairs", fp, compute, counters=stats)


def er_clusters(
    source,
    max_distance: int = 2,
    algorithm: str = STANDARD,
    checkpoints: CheckpointManager | None = None,
    fingerprint: str = "",
    emit_all_pairs: bool = False,
    max_block_strings: int = 512,
    **kwargs,
):
    """Pages -> (url, cluster_id): the transitive entity clusters.

    :func:`~..stages.cluster.connected_components` picks the clustering
    path from the edge count; the options are :func:`er_pairs`'."""
    ck = checkpoints or CheckpointManager("", enabled=False)
    pairs = er_pairs(
        source,
        max_distance=max_distance,
        algorithm=algorithm,
        checkpoints=checkpoints,
        fingerprint=fingerprint,
        emit_all_pairs=emit_all_pairs,
        max_block_strings=max_block_strings,
        **kwargs,
    )
    fp = _pairs_fingerprint(fingerprint, max_distance, algorithm,
                            emit_all_pairs, max_block_strings) + "|cc"
    # cc_stats is filled during compute() and lands in the stage manifest's
    # counters (path chosen, edge/node/cluster counts, contraction pass
    # sizes, label rounds) — the per-stage metrics a resumed or audited
    # run reads back.
    cc_stats: dict = {}
    return ck.run_stage(
        "clusters", fp,
        lambda: connected_components(pairs, stats=cc_stats),
        counters=cc_stats,
    )


def er_pipeline(source, out_dir: str | None = None, output_partitions: int | None = None, **kwargs):
    """Run the full pipeline; optionally write (url, cluster_id) parquet.

    The clustering rounds leave many small blocks; coalesce to
    ``output_partitions`` files (default: one per ~256k rows, min 1) so the
    sink is a sane partitioned layout rather than a spray of tiny files."""
    clusters = er_clusters(source, **kwargs)
    if out_dir:
        n = output_partitions or max(1, clusters.count() // 262_144)
        clusters.repartition(n).write_parquet(out_dir)
    return clusters


# ----------------------------------------------------------------------
def _rescore_blocks(keys, base_pairs, removed, emit_all_pairs, score_kw):
    """The shared half of :func:`er_pairs_incremental` and
    :func:`er_pairs_decremental`.  ``keys`` are key rows with a boolean
    ``__flag``: a new page's rows, or, when ``removed`` (a ``ray.put``
    string array of the removed urls) is given, a removed page's.  Only
    blocks holding a flagged row are rescored — over their unflagged rows
    when removing — by ``er_pairs``' scorer for ``emit_all_pairs``;
    ``base_pairs`` edges touching a removed url are dropped, and base and
    rescored edges merge by min distance per url pair."""
    import pyarrow.compute as pc
    import ray

    scorer = _scorer(emit_all_pairs)

    def score_hot(t: pa.Table) -> pa.Table:
        flag = t["__flag"]
        keep = pc.is_in(t["block_key"],
                        value_set=pc.unique(pc.filter(t["block_key"], flag)))
        if removed is not None:
            keep = pc.and_(keep, pc.invert(flag))
        return scorer(t.filter(keep).drop_columns(["__flag"]), **score_kw)

    def base_edges(t: pa.Table) -> pa.Table:
        t = t.select(EDGE_COLUMNS).cast(_edges_schema())
        if removed is None:
            return t
        rm = ray.get(removed)
        return t.filter(pc.invert(pc.or_(pc.is_in(t["url_a"], value_set=rm),
                                         pc.is_in(t["url_b"], value_set=rm))))

    delta = bucketed_apply_arrow(keys, "block_key", score_hot, n_buckets=64,
                                 empty_result=_empty_edges_arrow())
    if base_pairs is not None:
        delta = base_pairs.map_batches(base_edges, batch_format="pyarrow").union(delta)
    return bucketed_apply_arrow(delta, ["url_a", "url_b"], _min_dedup, n_buckets=64,
                                empty_result=_empty_edges_arrow())


def er_pairs_incremental(
    old_source,
    new_source,
    base_pairs=None,
    max_distance: int = 2,
    algorithm: str = STANDARD,
    emit_all_pairs: bool = False,
    max_block_strings: int = 512,
):
    """Incremental update — the reference's dynamic-dictionary capability
    (DynamicDawg insert/remove, /root/reference/src/dictionary/dynamic_dawg.rs)
    in batch form (SURVEY.md §2.2): appending pages re-scores ONLY the
    blocks that gained a member.

    Both page sets flow through the same extract/blocking stages; inside
    each hash bucket, blocks containing at least one NEW page are rescored
    in full (old + new members), all other blocks are skipped.

    Contract (pinned by tests): with representative edges (default) the
    merge with ``base_pairs`` is a SUPERSET of the from-scratch edge set
    whose connected components are IDENTICAL.  The possible extras are
    stale-representative aliases: when a new page becomes a block's
    minimal url, base edges name the old representative — which the
    rescored block's distance-0 star already links to the new one, so
    clustering is unaffected.  With ``emit_all_pairs=True`` (``base_pairs``
    must also be all-pairs) the merge EQUALS the from-scratch all-pairs
    edge set exactly: adding pages never changes an existing page's block
    keys, so old-old pairs co-block identically (in base) and every pair
    touching a new page lives in a rescored block (in delta) — this is the
    SQL-oracle-checkable restatement the driver verifies."""
    from .context import configure_data_context

    configure_data_context()

    def flagged(source, flag: bool):
        return _key_rows(source).map_batches(
            lambda t: t.append_column("__flag", pa.array(np.full(t.num_rows, flag))),
            batch_format="pyarrow")

    keys = flagged(old_source, False).union(flagged(new_source, True))
    return _rescore_blocks(keys, base_pairs, None, emit_all_pairs, dict(
        max_distance=max_distance, algorithm=algorithm,
        max_block_strings=max_block_strings))


# ----------------------------------------------------------------------
def er_pairs_decremental(
    old_source,
    removed_urls,
    base_pairs=None,
    max_distance: int = 2,
    algorithm: str = STANDARD,
    emit_all_pairs: bool = False,
    max_block_strings: int = 512,
):
    """Decremental update — the remove half of the reference's dynamic
    dictionary (DynamicDawg remove, /root/reference/src/dictionary/
    dynamic_dawg.rs; SURVEY.md §2.2) in batch form: deleting pages
    re-scores ONLY the blocks that lost a member.

    ``removed_urls`` (the small side — a deletion batch) is broadcast via
    ``ray.put``; inside each hash bucket, blocks containing at least one
    removed page are rescored over their REMAINING members, all other
    blocks are skipped.  ``base_pairs`` edges touching a removed url are
    dropped (every such edge came from an affected block); base edges
    between surviving urls stay — they are true distance-<=n pairs whose
    endpoints still co-block, so the merge is a SUPERSET of the
    from-scratch edge set over the remaining pages whose connected
    components are IDENTICAL (same argument as the incremental contract:
    extras are stale-representative aliases; pinned by tests).  With
    ``emit_all_pairs=True`` (``base_pairs`` must also be all-pairs) the
    merge EQUALS the from-scratch all-pairs edge set over the remaining
    pages exactly: removal never changes a survivor's block keys, so
    surviving base pairs ARE the from-scratch pairs and the rescored hot
    blocks only re-derive a subset of them — the SQL-oracle-checkable
    restatement the driver verifies."""
    import pyarrow.compute as pc
    import ray

    from .context import configure_data_context

    configure_data_context()
    rm_ref = ray.put(pa.array(sorted(set(removed_urls)), type=pa.string()))

    def flag_removed(t: pa.Table) -> pa.Table:
        return t.append_column("__flag", pc.is_in(t["url"], value_set=ray.get(rm_ref)))

    keys = _key_rows(old_source).map_batches(flag_removed, batch_format="pyarrow")
    return _rescore_blocks(keys, base_pairs, rm_ref, emit_all_pairs, dict(
        max_distance=max_distance, algorithm=algorithm,
        max_block_strings=max_block_strings))


# ----------------------------------------------------------------------
def evaluate_f1(clusters, labeled_pairs) -> dict:
    """Pairwise precision/recall/F1 of cluster co-membership against labeled
    within-entity pairs (FIXTURES.md §2; target >= 0.99).

    ``clusters``: Dataset/DataFrame (url, cluster_id);
    ``labeled_pairs``: DataFrame (url_a, url_b).  Predicted pairs are
    enumerated per cluster (clusters are small by construction — bounded
    block cardinality upstream)."""
    if hasattr(clusters, "to_pandas"):
        clusters = clusters.to_pandas()
    if hasattr(labeled_pairs, "to_pandas") and not isinstance(labeled_pairs, pd.DataFrame):
        labeled_pairs = labeled_pairs.to_pandas()

    pred = set()
    for _cid, g in clusters.groupby("cluster_id"):
        urls = sorted(g["url"])
        for i in range(len(urls)):
            for j in range(i + 1, len(urls)):
                pred.add((urls[i], urls[j]))

    truth = set(zip(labeled_pairs["url_a"], labeled_pairs["url_b"]))
    tp = len(pred & truth)
    precision = tp / len(pred) if pred else 1.0
    recall = tp / len(truth) if truth else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "predicted_pairs": len(pred),
        "true_pairs": len(truth),
        "tp": tp,
    }
